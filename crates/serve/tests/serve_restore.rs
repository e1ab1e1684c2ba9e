//! End-to-end serving tests: concurrent socket restores racing a live
//! writer, and wire-decoder robustness.

use ckpt_deflate::{chunked, gzip, Level};
use ckpt_serve::server::serve_unix;
use ckpt_serve::Client;
use ckpt_store::{SegmentFormat, Store};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::fs;
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
    let payload = chunked::compress_chunked(&data, Level::Fast, 16 << 10, 2);
    let (store, gen) = store_with(&dir.join("store"), &payload);
    let store = Arc::new(Mutex::new(store));
    let socket = dir.join("ckpt.sock");
    let mut server = serve_unix(Arc::clone(&store), &socket).unwrap();

    // Two concurrent "restore clients", each reassembling the payload
    // member by member over the socket, staying connected (and thus
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
                    let rank = &ix.ranks[0];
                    assert!(!rank.members.is_empty());
                    let mut rebuilt = Vec::new();
                    for m in &rank.members {
                        let bytes =
                            client.fetch(gen, 0, m.offset, m.compressed_len).unwrap();
                        let (out, used) =
                            gzip::decompress_member(&bytes, expect.len()).unwrap();
                        assert_eq!(used as u64, m.compressed_len);
                        rebuilt.extend_from_slice(&out);
                    }
                    assert_eq!(rebuilt, expect);
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
        let p = gzip::compress(&extra, Level::Fast);
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Random bytes fed to the wire decoders fail cleanly.
    #[test]
    fn random_bytes_never_decode_as_frames(bytes in pvec(any::<u8>(), 0..256)) {
        let _ = ckpt_serve::proto::decode_request(&bytes);
        let _ = ckpt_serve::proto::decode_response(bytes.clone());
    }
}
