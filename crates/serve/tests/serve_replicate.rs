//! Buddy replication over the `SRV1` socket: a primary pushes its
//! generations to a served replica through [`RemoteReplica`], and a
//! lost primary pulls everything back down with
//! [`Client::adopt_into`]. The store-level halves (cursor resume,
//! idempotent import, divergence refusal) are tested in `ckpt-store`;
//! these tests prove the wire transport preserves their contracts.

use ckpt_core::{incremental, Compressor, CompressorConfig};
use ckpt_deflate::crc32::crc32;
use ckpt_serve::proto::{self, Request, Response};
use ckpt_serve::server::serve_unix;
use ckpt_serve::{Client, RemoteReplica};
use ckpt_store::{SegmentFormat, Store};
use ckpt_tensor::Tensor;
use std::fs;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ckpt-serve-repl-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn packed(salt: u64) -> Vec<u8> {
    let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let t = Tensor::from_fn(&[13, 7], |ix| {
        ((ix[0] * 7 + ix[1]) as f64 * 0.31 + salt as f64).cos() * 52.0 + 210.0
    })
    .unwrap();
    comp.compress(&t).unwrap().bytes
}

/// Saves a base full plus `incs` exact increments; returns all gens.
fn seed_chain(store: &mut Store, incs: usize) -> Vec<u64> {
    use ckpt_deflate::Level;
    let base_bytes = packed(3);
    let mut gens = vec![store.save_full(0, SegmentFormat::Array, &[&base_bytes], 1).unwrap()];
    let mut prev = Compressor::decompress(&base_bytes).unwrap();
    for step in 1..=incs as u64 {
        let mut cur = prev.clone();
        for i in (0..cur.len()).step_by(11) {
            cur.as_mut_slice()[i] += step as f64;
        }
        let (delta, _) = incremental::increment(&prev, &cur, Level::Fast).unwrap();
        gens.push(store.save_increment(step, *gens.last().unwrap(), &[&delta], 1).unwrap());
        prev = cur;
    }
    gens
}

/// Takes the store back out of the server's `Arc`, waiting briefly for
/// connection handler threads (which clone the `Arc`) to wind down
/// after their client half closed.
fn unwrap_store(mut arc: Arc<Mutex<Store>>) -> Store {
    for _ in 0..500 {
        match Arc::try_unwrap(arc) {
            Ok(m) => return m.into_inner().unwrap_or_else(|p| p.into_inner()),
            Err(again) => {
                arc = again;
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }
    panic!("server connection threads did not release the store");
}

fn assert_mirrored(a: &Store, b: &Store) {
    for info in a.generations().iter().filter(|g| g.committed && g.retired.is_none()) {
        for rank in 0..info.ranks {
            assert_eq!(
                a.read_segment(info.gen, rank).unwrap(),
                b.read_segment(info.gen, rank).unwrap(),
                "gen {} rank {rank} differs",
                info.gen
            );
        }
    }
}

#[test]
fn push_over_the_socket_mirrors_the_store() {
    let dir = scratch("push");
    let mut primary = Store::open(dir.join("primary")).unwrap();
    let gens = seed_chain(&mut primary, 3);

    let replica = Arc::new(Mutex::new(Store::open(dir.join("replica")).unwrap()));
    let socket = dir.join("buddy.sock");
    let server = serve_unix(Arc::clone(&replica), &socket).unwrap();

    // Shadowing would keep the first connection (and its handler
    // thread's store handle) alive to end of scope — drop explicitly.
    {
        let mut sink = RemoteReplica::connect(&socket).unwrap();
        let report = primary.push_to(&mut sink).unwrap();
        assert_eq!(report.pushed, gens);
        assert_eq!(primary.replication_cursor(), Some(*gens.last().unwrap()));
    }
    {
        // A second push over a fresh connection is a no-op.
        let mut sink = RemoteReplica::connect(&socket).unwrap();
        let report = primary.push_to(&mut sink).unwrap();
        assert!(report.pushed.is_empty());
    }

    drop(server);
    let replica = unwrap_store(replica);
    assert_mirrored(&primary, &replica);
    let tip = *gens.last().unwrap();
    assert!(replica.restore_array(tip, 0).unwrap() == primary.restore_array(tip, 0).unwrap());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn lost_primary_is_adopted_back_over_the_socket() {
    let dir = scratch("adopt");
    let pdir = dir.join("primary");
    let mut primary = Store::open(&pdir).unwrap();
    let gens = seed_chain(&mut primary, 2);
    let expected_tip = primary.restore_array(*gens.last().unwrap(), 0).unwrap();

    let replica = Arc::new(Mutex::new(Store::open(dir.join("replica")).unwrap()));
    let socket = dir.join("buddy.sock");
    let server = serve_unix(Arc::clone(&replica), &socket).unwrap();
    let mut sink = RemoteReplica::connect(&socket).unwrap();
    primary.push_to(&mut sink).unwrap();
    drop(sink);

    // The node dies and takes the primary with it.
    drop(primary);
    fs::remove_dir_all(&pdir).unwrap();

    // Adoption pulls everything off the buddy's pinned snapshot. The
    // pushing connection is gone, so the fresh one sees the imports.
    let mut rebuilt = Store::open(&pdir).unwrap();
    let mut client = Client::connect(&socket).unwrap();
    let imported = client.adopt_into(&mut rebuilt).unwrap();
    assert_eq!(imported, gens);
    assert!(rebuilt.restore_array(*gens.last().unwrap(), 0).unwrap() == expected_tip);
    assert!(rebuilt.verify().unwrap().clean());

    // A second adoption finds nothing new.
    let mut client = Client::connect(&socket).unwrap();
    assert!(client.adopt_into(&mut rebuilt).unwrap().is_empty());

    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reads_on_a_pushing_connection_stay_pinned_to_their_snapshot() {
    let dir = scratch("pinned");
    let mut primary = Store::open(dir.join("primary")).unwrap();
    seed_chain(&mut primary, 1);

    let replica = Arc::new(Mutex::new(Store::open(dir.join("replica")).unwrap()));
    let socket = dir.join("buddy.sock");
    let server = serve_unix(Arc::clone(&replica), &socket).unwrap();

    // One connection both pushes and reads: its reads answer against
    // the snapshot pinned at connect time, so its own puts are
    // invisible to it — a fresh connection sees them.
    let mut client = Client::connect(&socket).unwrap();
    assert!(client.list().unwrap().is_empty());
    // Push the chain's *full* base: an increment would need its base
    // on the replica first.
    let put = primary.export_generation(primary.latest_full().unwrap()).unwrap();
    assert!(!client.push_gen(&put).unwrap(), "first delivery imports");
    assert!(client.list().unwrap().is_empty(), "same connection still sees its pinned snapshot");
    assert!(client.push_gen(&put).unwrap(), "second delivery is the idempotent no-op");

    let mut fresh = Client::connect(&socket).unwrap();
    assert_eq!(fresh.list().unwrap().len(), 1);

    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

/// The one verified ranged fetch behind `pull_gen` and `ckpt fetch`:
/// whatever the range size, the sink receives the payload in order and
/// whole, and an index whose CRC the bytes do not hash to is refused —
/// after the sink was fed, which is why callers drop what they kept.
#[test]
fn fetch_segment_feeds_the_sink_in_order_and_checks_the_committed_crc() {
    let dir = scratch("fetch-segment");
    let mut store = Store::open(dir.join("store")).unwrap();
    let payload = packed(5);
    let gen = store.save_full(1, SegmentFormat::Array, &[&payload], 1).unwrap();
    let socket = dir.join("s.sock");
    let server = serve_unix(Arc::new(Mutex::new(store)), &socket).unwrap();

    let mut client = Client::connect(&socket).unwrap();
    let index = client.index(gen).unwrap();
    let ri = &index.ranks[0];
    assert_eq!(ri.crc, crc32(&payload));
    for chunk in [1, 7, payload.len() as u64, u64::MAX] {
        let (mut got, mut reads) = (Vec::new(), 0u64);
        client
            .fetch_segment(gen, ri, chunk, |bytes| {
                reads += 1;
                got.extend_from_slice(bytes);
                Ok(())
            })
            .unwrap();
        assert_eq!(got, payload, "chunk {chunk}");
        assert_eq!(reads, (payload.len() as u64).div_ceil(chunk), "chunk {chunk}");
    }

    let lying = ckpt_store::RankIndex { crc: ri.crc ^ 1, ..ri.clone() };
    let mut fed = 0usize;
    let err = client
        .fetch_segment(gen, &lying, 64, |bytes| {
            fed += bytes.len();
            Ok(())
        })
        .unwrap_err();
    assert!(err.to_string().contains("!= committed"), "{err}");
    assert_eq!(fed, payload.len(), "the mismatch is only known at the end");

    let full = std::io::Error::other("disk full");
    let err = client.fetch_segment(gen, ri, 64, |_| Err(std::io::Error::other("disk full")));
    assert!(err.unwrap_err().to_string().contains(&full.to_string()));

    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

/// Raw-frame misuse: every protocol violation answers with an error
/// frame (never a closed connection or a store write), and a violation
/// clears the in-flight put.
#[test]
fn put_protocol_violations_answer_errors_not_writes() {
    let dir = scratch("violations");
    let replica = Arc::new(Mutex::new(Store::open(dir.join("replica")).unwrap()));
    let socket = dir.join("buddy.sock");
    let server = serve_unix(Arc::clone(&replica), &socket).unwrap();

    let mut stream = UnixStream::connect(&socket).unwrap();
    let mut ask = |req: &Request| -> Response {
        proto::write_frame(&mut stream, &proto::encode_request(req)).unwrap();
        let body = proto::read_frame(&mut stream).unwrap().unwrap();
        proto::decode_response(body).unwrap()
    };
    let is_err = |r: &Response| matches!(r, Response::Error { .. });

    // A chunk or commit with no begin.
    assert!(is_err(&ask(&Request::PutSeg {
        gen: 1,
        rank: 0,
        offset: 0,
        total_len: 4,
        chunk: vec![1, 2, 3, 4],
    })));
    assert!(is_err(&ask(&Request::PutCommit { gen: 1, metas: vec![(4, 0)] })));

    // Begin, then violate: out-of-order chunk.
    let begin = Request::PutBegin {
        gen: 1,
        step: 1,
        format: SegmentFormat::Array,
        base_gen: 1,
        ranks: 1,
        error_bound: None,
    };
    assert!(!is_err(&ask(&begin)));
    assert!(is_err(&ask(&Request::PutSeg {
        gen: 1,
        rank: 0,
        offset: 2,
        total_len: 4,
        chunk: vec![3, 4],
    })));
    // The violation cleared the put: a new begin is accepted.
    assert!(!is_err(&ask(&begin)));
    // Double begin is refused.
    assert!(is_err(&ask(&begin)));

    // Begin again, stream bytes, then commit with a wrong CRC.
    assert!(!is_err(&ask(&begin)));
    let payload = packed(9);
    assert!(!is_err(&ask(&Request::PutSeg {
        gen: 1,
        rank: 0,
        offset: 0,
        total_len: payload.len() as u64,
        chunk: payload.clone(),
    })));
    assert!(is_err(&ask(&Request::PutCommit {
        gen: 1,
        metas: vec![(payload.len() as u64, crc32(&payload) ^ 1)],
    })));

    // Nothing ever reached the store.
    drop(stream);
    drop(server);
    let replica = unwrap_store(replica);
    assert!(replica.generations().is_empty());
    let _ = fs::remove_dir_all(&dir);
}
