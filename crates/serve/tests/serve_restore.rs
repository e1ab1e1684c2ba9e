//! End-to-end serving tests: concurrent socket restores racing a live
//! writer, snapshot pinning per connection, the verified ranged fetch,
//! the refusal of the retired write frames, and wire-decoder
//! robustness.

use ckpt_core::{Compressor, CompressorConfig};
use ckpt_deflate::crc32::crc32;
use ckpt_deflate::{chunked, gzip, Level};
use ckpt_serve::proto::{self, Request, Response};
use ckpt_serve::server::serve_unix;
use ckpt_serve::Client;
use ckpt_store::{SegmentFormat, Store};
use ckpt_tensor::Tensor;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::fs;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ckpt-serve-it-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Compressible but non-trivial data: repeated ramps with drifting
/// phase, so every chunk compresses yet no two chunks are identical.
fn test_data(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i % 251) ^ (i / 997)) as u8).collect()
}

/// A real compressed array, distinct per `salt`.
fn packed(salt: u64) -> Vec<u8> {
    let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let t = Tensor::from_fn(&[13, 7], |ix| {
        ((ix[0] * 7 + ix[1]) as f64 * 0.31 + salt as f64).cos() * 52.0 + 210.0
    })
    .unwrap();
    comp.compress(&t).unwrap().bytes
}

/// Saves `payload` as a fresh store's only generation and returns the
/// store and that generation.
fn store_with(dir: &Path, payload: &[u8]) -> (Store, u64) {
    let mut store = Store::open(dir).unwrap();
    let gen = store.save_full(1, SegmentFormat::Array, &[payload], 1).unwrap();
    (store, gen)
}

#[test]
fn concurrent_socket_restores_complete_while_saves_commit() {
    let dir = scratch("concurrent");
    let data = test_data(120_000);
    let payload = chunked::compress_chunked(&data, Level::Default, 16 << 10, 2);
    let (store, gen) = store_with(&dir.join("store"), &payload);
    let store = Arc::new(Mutex::new(store));
    let socket = dir.join("ckpt.sock");
    let mut server = serve_unix(Arc::clone(&store), &socket).unwrap();

    // Two concurrent "restore clients", each fetching the payload over
    // the socket in ranges and decoding it, staying connected (and thus
    // pinned) until the writer is done saving and GCing.
    let writer_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let socket = socket.clone();
            let expect = data.clone();
            let writer_done = Arc::clone(&writer_done);
            thread::spawn(move || {
                let mut client = Client::connect(&socket).unwrap();
                // The writer may already have committed more
                // generations by the time this connection pins its
                // snapshot; the original one must still be visible.
                let latest = client.latest().unwrap().unwrap();
                assert!(latest >= gen);
                let mut rounds = 0u32;
                loop {
                    let ix = client.index(gen).unwrap();
                    let mut fetched = Vec::new();
                    client
                        .fetch_segment(gen, &ix.ranks[0], 4 << 10, |bytes| {
                            fetched.extend_from_slice(bytes);
                            Ok(())
                        })
                        .unwrap();
                    assert_eq!(chunked::decompress_chunked(&fetched, 2).unwrap(), expect);
                    rounds += 1;
                    if writer_done.load(std::sync::atomic::Ordering::SeqCst) && rounds >= 2 {
                        break;
                    }
                }
            })
        })
        .collect();

    // Wait until both connections hold their pinned snapshots, so the
    // GC below provably races against live readers.
    for _ in 0..1000 {
        if store.lock().unwrap().live_snapshots() >= 2 {
            break;
        }
        thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(store.lock().unwrap().live_snapshots() >= 2, "both connections must pin");

    // The writer commits new generations and GCs while the readers
    // stream: their pinned snapshot must survive all of it.
    for i in 0..6u64 {
        let extra = test_data(30_000 + (i as usize) * 1000);
        let p = gzip::compress(&extra, Level::Default);
        let mut guard = store.lock().unwrap();
        guard.save_full(100 + i, SegmentFormat::Array, &[&p], 1).unwrap();
        if i == 3 {
            let report = guard.gc(1).unwrap();
            assert!(
                report.pinned.contains(&gen),
                "GC must report the generation the connections pinned"
            );
            assert!(!report.pruned.contains(&gen), "GC must not prune a pinned generation");
        }
        drop(guard);
        thread::sleep(std::time::Duration::from_millis(5));
    }
    writer_done.store(true, std::sync::atomic::Ordering::SeqCst);

    for r in readers {
        r.join().unwrap();
    }
    assert!(server.connections_served() >= 2);
    server.stop();
    assert!(!socket.exists(), "stop removes the socket file");

    // With the connections gone, the deferred retention applies.
    let mut guard = store.lock().unwrap();
    let report = guard.gc(1).unwrap();
    assert!(report.pinned.is_empty());
    assert!(report.pruned.contains(&gen), "unpinned old generation is now collectable");
    let _ = fs::remove_dir_all(&dir);
}

/// A connection answers against the snapshot it pinned when it
/// connected: its `list` stays the same while the writer saves through
/// the shared store, and a fresh connection sees the new generation.
#[test]
fn a_connections_list_stays_pinned_while_the_writer_saves() {
    let dir = scratch("pinned");
    let (store, gen) = store_with(&dir.join("store"), &packed(3));
    let store = Arc::new(Mutex::new(store));
    let socket = dir.join("s.sock");
    let server = serve_unix(Arc::clone(&store), &socket).unwrap();

    let mut client = Client::connect(&socket).unwrap();
    let pinned = client.list().unwrap();
    assert_eq!(pinned.iter().map(|g| g.gen).collect::<Vec<_>>(), [gen]);
    let saved = store.lock().unwrap().save_full(2, SegmentFormat::Array, &[&packed(4)], 1).unwrap();
    assert_eq!(client.list().unwrap(), pinned, "same connection still sees its pinned snapshot");
    assert_eq!(client.latest().unwrap(), Some(gen));

    let mut fresh = Client::connect(&socket).unwrap();
    assert_eq!(fresh.list().unwrap().iter().map(|g| g.gen).collect::<Vec<_>>(), [gen, saved]);
    assert_eq!(fresh.latest().unwrap(), Some(saved));

    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

/// The one verified ranged fetch behind `ckpt fetch`:
/// whatever the range size, the sink receives the payload in order and
/// whole, and an index whose CRC the bytes do not hash to is refused —
/// after the sink was fed, which is why callers drop what they kept.
/// The index is the manifest's, so a segment damaged on disk after its
/// commit is indexed as committed and refused by the same check.
#[test]
fn fetch_segment_feeds_the_sink_in_order_and_checks_the_committed_crc() {
    let dir = scratch("fetch-segment");
    let mut store = Store::open(dir.join("store")).unwrap();
    let payload = packed(5);
    let gen = store.save_full(1, SegmentFormat::Array, &[&payload], 1).unwrap();
    let seg_path = ckpt_store::layout::Layout::new(dir.join("store")).segment_path(gen, 0);
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

    let mut damaged = payload.clone();
    let n = damaged.len();
    damaged[n - 12] ^= 0x40;
    damage(&seg_path, &damaged);
    let mut fresh = Client::connect(&socket).unwrap();
    assert_eq!(fresh.index(gen).unwrap(), index, "the index is the manifest's");
    let err = fresh.fetch_segment(gen, ri, 64, |_| Ok(())).unwrap_err();
    assert!(err.to_string().contains("!= committed"), "{err}");

    drop(server);
    let _ = fs::remove_dir_all(&dir);
}

#[expect(clippy::disallowed_methods, reason = "the test damages a committed segment on purpose")]
fn damage(path: &Path, bytes: &[u8]) {
    fs::write(path, bytes).unwrap();
}

/// The bodies of the three replication-push requests exactly as the
/// builds that served buddy replication encoded them, all integers
/// little-endian: `PutBegin` (tag 5) of a one-rank full generation 2 at
/// step 9 with no error bound, one `PutSeg` (tag 6) carrying all of
/// `payload`, and the `PutCommit` (tag 7) declaring its length and CRC.
fn parent_put_bodies(payload: &[u8]) -> [Vec<u8>; 3] {
    let body = |fields: &[&[u8]]| fields.concat();
    let (gen, len) = (2u64.to_le_bytes(), (payload.len() as u64).to_le_bytes());
    let chunk_len = u32::try_from(payload.len()).unwrap().to_le_bytes();
    let (zero32, zero64, one32) = (0u32.to_le_bytes(), 0u64.to_le_bytes(), 1u32.to_le_bytes());
    [
        body(&[&[5], &gen, &9u64.to_le_bytes(), &[1], &gen, &one32, &[0], &zero64]),
        body(&[&[6], &gen, &zero32, &zero64, &len, &chunk_len, payload]),
        body(&[&[7], &gen, &one32, &len, &crc32(payload).to_le_bytes()]),
    ]
}

/// The server is read-only: an older client's push gets an error frame
/// per request, by its tag, and never a write. The connection stays
/// usable, and the store holds what it held.
#[test]
fn an_old_clients_put_frames_get_errors_not_writes() {
    let dir = scratch("old-client");
    let (store, _) = store_with(&dir.join("store"), &packed(4));
    let before = store.generations();
    let store = Arc::new(Mutex::new(store));
    let socket = dir.join("s.sock");
    let server = serve_unix(Arc::clone(&store), &socket).unwrap();

    let mut stream = UnixStream::connect(&socket).unwrap();
    let mut ask = |body: &[u8]| {
        proto::write_frame(&mut stream, body).unwrap();
        proto::decode_response(proto::read_frame(&mut stream).unwrap().unwrap()).unwrap()
    };
    for (body, tag) in parent_put_bodies(&packed(9)).iter().zip(5u8..) {
        match ask(body) {
            Response::Error { message, .. } => {
                assert!(message.contains(&format!("bad request tag {tag}")), "{message}");
            }
            other => panic!("request tag {tag} answered {other:?}"),
        }
    }
    match ask(&proto::encode_request(&Request::List)) {
        Response::Gens(gens) => assert_eq!(gens.len(), before.len()),
        other => panic!("list answered {other:?}"),
    }

    drop(stream);
    drop(server);
    assert_eq!(store.lock().unwrap().generations(), before);
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Random bytes fed to the wire decoders fail cleanly.
    #[test]
    fn random_bytes_never_decode_as_frames(bytes in pvec(any::<u8>(), 0..256)) {
        let _ = ckpt_serve::proto::decode_request(&bytes);
        let _ = ckpt_serve::proto::decode_response(bytes.clone());
    }
}
