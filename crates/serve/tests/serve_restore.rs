//! End-to-end serving tests: resumable streaming restore under kill
//! injection, concurrent socket restores racing a live writer, and
//! token robustness.

use ckpt_deflate::crc32::crc32;
use ckpt_deflate::{chunked, gzip, Level};
use ckpt_serve::restore::{
    encode_token, parse_token, resume_restore, restore_streamed, RestoreOptions,
};
use ckpt_serve::server::serve_unix;
use ckpt_serve::{Client, ServeError};
use ckpt_store::{FailPoint, SegmentFormat, Store, StoreError};
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

fn opts(interval: u64) -> RestoreOptions {
    RestoreOptions { interval_bytes: interval }
}

/// Saves `payload` as a fresh store's only generation and returns the
/// store (the caller snapshots it).
fn store_with(dir: &Path, payload: &[u8]) -> (Store, u64) {
    let mut store = Store::open(dir).unwrap();
    let gen = store.save_full(1, SegmentFormat::Array, &[payload], 1).unwrap();
    (store, gen)
}

#[test]
fn cold_stream_restore_matches_plain_gzip_payload() {
    let dir = scratch("cold-gzip");
    let data = test_data(400_000);
    let payload = gzip::compress(&data, Level::Default);
    let (store, gen) = store_with(&dir.join("store"), &payload);
    let snap = store.snapshot().unwrap();

    let out_path = dir.join("out.bin");
    let token_path = dir.join("restore.token");
    let outcome = restore_streamed(
        &snap,
        gen,
        0,
        &out_path,
        &token_path,
        &opts(64 << 10),
        &FailPoint::unlimited(),
    )
    .unwrap();

    assert_eq!(fs::read(&out_path).unwrap(), data);
    assert_eq!(outcome.out_len, data.len() as u64);
    assert_eq!(outcome.out_crc, crc32(&data));
    assert!(!outcome.resumed);
    assert!(outcome.checkpoints > 0, "a 400 KB stream must cross several 64 KB intervals");
    assert!(!token_path.exists(), "completion removes the token");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cold_stream_restore_matches_wpk1_payload() {
    let dir = scratch("cold-wpk1");
    let data = test_data(300_000);
    let payload = chunked::compress_chunked(&data, Level::Fast, 64 << 10, 2);
    let (store, gen) = store_with(&dir.join("store"), &payload);
    let snap = store.snapshot().unwrap();

    let out_path = dir.join("out.bin");
    let token_path = dir.join("restore.token");
    let outcome = restore_streamed(
        &snap,
        gen,
        0,
        &out_path,
        &token_path,
        &opts(32 << 10),
        &FailPoint::unlimited(),
    )
    .unwrap();
    assert_eq!(fs::read(&out_path).unwrap(), data);
    assert_eq!(outcome.out_crc, crc32(&data));
    assert!(!token_path.exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn raw_payloads_are_refused_cleanly() {
    let dir = scratch("raw");
    let (store, gen) = store_with(&dir.join("store"), b"not gzip at all");
    let snap = store.snapshot().unwrap();
    let err = restore_streamed(
        &snap,
        gen,
        0,
        &dir.join("out"),
        &dir.join("tok"),
        &opts(1024),
        &FailPoint::unlimited(),
    )
    .unwrap_err();
    assert!(matches!(err, ServeError::Unsupported(_)), "got {err}");
    let _ = fs::remove_dir_all(&dir);
}

/// The acceptance sweep: kill the restore at every fail-point budget
/// (which includes every resume-interval boundary — the budget steps
/// are far smaller than one interval), resume, and demand the final
/// file is bit-identical to the uninterrupted restore.
fn kill_sweep(payload: &[u8], data: &[u8], interval: u64, budget_step: u64) {
    let dir = scratch(&format!("sweep-{interval}"));
    let (store, gen) = store_with(&dir.join("store"), payload);
    let snap = store.snapshot().unwrap();

    // Probe: how many fail-point-counted bytes does a clean run write?
    let probe_fp = FailPoint::unlimited();
    let clean = restore_streamed(
        &snap,
        gen,
        0,
        &dir.join("probe.out"),
        &dir.join("probe.token"),
        &opts(interval),
        &probe_fp,
    )
    .unwrap();
    assert_eq!(clean.out_len, data.len() as u64);
    let total = probe_fp.bytes_written();
    assert!(total > 0);

    let mut kills = 0u64;
    let mut resumed_with_token = 0u64;
    let mut budget = 0u64;
    while budget <= total {
        let run = dir.join(format!("run-{budget}"));
        fs::create_dir_all(&run).unwrap();
        let (out_path, token_path) = (run.join("out"), run.join("tok"));
        let fp = FailPoint::after_bytes(budget);
        match restore_streamed(&snap, gen, 0, &out_path, &token_path, &opts(interval), &fp) {
            Ok(outcome) => {
                assert_eq!(outcome.out_crc, crc32(data));
            }
            Err(e) => {
                assert!(
                    matches!(e, ServeError::Store(StoreError::Killed)),
                    "budget {budget}: only the injected kill may fail the run, got {e}"
                );
                kills += 1;
                // Recover exactly as the CLI would: resume from the
                // token when one is durable, start over when the kill
                // landed before the first checkpoint.
                let outcome = if token_path.exists() {
                    resumed_with_token += 1;
                    resume_restore(
                        &snap,
                        &token_path,
                        &out_path,
                        &opts(interval),
                        &FailPoint::unlimited(),
                    )
                    .unwrap()
                } else {
                    restore_streamed(
                        &snap,
                        gen,
                        0,
                        &out_path,
                        &token_path,
                        &opts(interval),
                        &FailPoint::unlimited(),
                    )
                    .unwrap()
                };
                assert_eq!(
                    fs::read(&out_path).unwrap(),
                    data,
                    "budget {budget}: resumed restore must be bit-identical"
                );
                assert_eq!(outcome.out_crc, crc32(data));
                assert!(!token_path.exists(), "budget {budget}: completion removes the token");
            }
        }
        let _ = fs::remove_dir_all(&run);
        budget += budget_step;
    }
    assert!(kills > 0, "the sweep must actually kill some runs");
    assert!(
        resumed_with_token > 0,
        "some kills must land after a durable token so resume is exercised"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_sweep_plain_gzip_resumes_bit_identical() {
    let data = test_data(220_000);
    let payload = gzip::compress(&data, Level::Default);
    // 16 KiB intervals, ~1.3 KiB budget steps: several kills per
    // interval, including inside token writes themselves.
    kill_sweep(&payload, &data, 16 << 10, 1309);
}

#[test]
fn kill_sweep_wpk1_resumes_bit_identical_across_member_boundaries() {
    let data = test_data(200_000);
    let payload = chunked::compress_chunked(&data, Level::Fast, 32 << 10, 2);
    kill_sweep(&payload, &data, 12 << 10, 1151);
}

#[test]
fn double_kill_then_resume_still_converges() {
    let dir = scratch("double-kill");
    let data = test_data(150_000);
    let payload = gzip::compress(&data, Level::Default);
    let (store, gen) = store_with(&dir.join("store"), &payload);
    let snap = store.snapshot().unwrap();
    let out_path = dir.join("out.bin");
    let token_path = dir.join("tok");
    let o = opts(8 << 10);

    // First kill mid-run, second kill mid-resume, then a clean finish.
    let r1 = restore_streamed(&snap, gen, 0, &out_path, &token_path, &o, &FailPoint::after_bytes(40_000));
    assert!(matches!(r1, Err(ServeError::Store(StoreError::Killed))));
    assert!(token_path.exists());
    let r2 = resume_restore(&snap, &token_path, &out_path, &o, &FailPoint::after_bytes(50_000));
    assert!(matches!(r2, Err(ServeError::Store(StoreError::Killed))));
    let outcome =
        resume_restore(&snap, &token_path, &out_path, &o, &FailPoint::unlimited()).unwrap();
    assert!(outcome.resumed);
    assert_eq!(fs::read(&out_path).unwrap(), data);
    let _ = fs::remove_dir_all(&dir);
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

#[test]
#[expect(clippy::disallowed_methods, reason = "the test plants stale tokens and a damaged output on purpose")]
fn stale_and_mismatched_tokens_are_refused() {
    let dir = scratch("stale");
    let data = test_data(120_000);
    let payload = gzip::compress(&data, Level::Default);
    let (store, gen) = store_with(&dir.join("store"), &payload);
    let snap = store.snapshot().unwrap();
    let out_path = dir.join("out.bin");
    let token_path = dir.join("tok");
    let o = opts(8 << 10);
    let r = restore_streamed(&snap, gen, 0, &out_path, &token_path, &o, &FailPoint::after_bytes(60_000));
    assert!(matches!(r, Err(ServeError::Store(StoreError::Killed))));
    let tok = parse_token(&fs::read(&token_path).unwrap()).unwrap();

    // A token whose payload identity disagrees with the manifest is
    // stale, not resumable.
    let mut stale = tok.clone();
    stale.payload_crc ^= 1;
    fs::write(&token_path, encode_token(&stale)).unwrap();
    let err =
        resume_restore(&snap, &token_path, &out_path, &o, &FailPoint::unlimited()).unwrap_err();
    assert!(matches!(err, ServeError::Proto(_)), "got {err}");

    // A token promising more durable output than the file holds is
    // refused before any inflation starts.
    let mut overlong = tok.clone();
    overlong.out_len = u64::MAX / 2;
    overlong.out_crc = 0;
    overlong.ick = Vec::new();
    overlong.prefix_len = overlong.out_len;
    overlong.prefix_crc = 0;
    fs::write(&token_path, encode_token(&overlong)).unwrap();
    let err =
        resume_restore(&snap, &token_path, &out_path, &o, &FailPoint::unlimited()).unwrap_err();
    assert!(matches!(err, ServeError::Proto(_)), "got {err}");

    // A corrupted output file fails the prefix CRC check cleanly.
    fs::write(&token_path, encode_token(&tok)).unwrap();
    let mut out_bytes = fs::read(&out_path).unwrap();
    out_bytes[10] ^= 0xFF;
    fs::write(&out_path, &out_bytes).unwrap();
    let err =
        resume_restore(&snap, &token_path, &out_path, &o, &FailPoint::unlimited()).unwrap_err();
    assert!(matches!(err, ServeError::Proto(_)), "got {err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_token_truncation_and_byte_flip_fails_cleanly() {
    let dir = scratch("token-fuzz");
    let data = test_data(90_000);
    let payload = gzip::compress(&data, Level::Default);
    let (store, gen) = store_with(&dir.join("store"), &payload);
    let snap = store.snapshot().unwrap();
    let token_path = dir.join("tok");
    let r = restore_streamed(
        &snap,
        gen,
        0,
        &dir.join("out.bin"),
        &token_path,
        &opts(4 << 10),
        &FailPoint::after_bytes(30_000),
    );
    assert!(matches!(r, Err(ServeError::Store(StoreError::Killed))));
    let good = fs::read(&token_path).unwrap();
    assert!(parse_token(&good).is_ok());

    for cut in 0..good.len() {
        assert!(parse_token(&good[..cut]).is_err(), "truncation at {cut} must error");
    }
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0x41;
        assert!(parse_token(&bad).is_err(), "flip at byte {i} must error (frame CRC)");
    }
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Random bytes are never a valid token and never a panic.
    #[test]
    fn random_bytes_never_parse_as_tokens(bytes in pvec(any::<u8>(), 0..256)) {
        prop_assert!(parse_token(&bytes).is_err());
    }

    /// Random bytes fed to the wire decoders fail cleanly.
    #[test]
    fn random_bytes_never_decode_as_frames(bytes in pvec(any::<u8>(), 0..256)) {
        let _ = ckpt_serve::proto::decode_request(&bytes);
        let _ = ckpt_serve::proto::decode_response(&bytes);
    }
}
