//! Manifest compaction (`CSM2` snapshot + log truncation) and chain
//! compaction: state-equivalence and recovery
//! behavior at the store level. The exhaustive kill sweeps live in the
//! workspace-level `tests/store_crash.rs`.

use ckpt_store::{SegmentFormat, Store};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ckpt-store-compact-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Small distinct compressed-array payloads, one per rank.
fn payloads(ranks: usize, salt: u64) -> Vec<Vec<u8>> {
    use ckpt_core::{Compressor, CompressorConfig};
    use ckpt_tensor::Tensor;
    let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    (0..ranks as u64)
        .map(|r| {
            let t = Tensor::from_fn(&[12, 5], |ix| {
                ((ix[0] * 5 + ix[1]) as f64 * 0.31 + (r + salt) as f64).sin() * 30.0 + 100.0
            })
            .unwrap();
            comp.compress(&t).unwrap().bytes
        })
        .collect()
}

/// Saves `n` fulls, each one step past the highest step the store
/// lists, so every save is the newest state.
fn save_n(store: &mut Store, n: usize, ranks: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let step = store.generations().iter().map(|g| g.step + 1).max().unwrap_or(0);
            let p = payloads(ranks, i as u64);
            let refs: Vec<&[u8]> = p.iter().map(Vec::as_slice).collect();
            store.save_full(step, SegmentFormat::Array, &refs, 1).unwrap()
        })
        .collect()
}

/// Everything an opened store exposes, for state-equivalence checks.
fn observable_state(store: &Store) -> (Vec<ckpt_store::GenInfo>, Option<u64>, Option<u64>) {
    (store.generations(), store.latest_committed(), store.latest_full())
}

#[test]
fn compact_manifest_truncates_log_and_preserves_state() {
    let dir = scratch("basic");
    let mut store = Store::open(&dir).unwrap();
    let gens = save_n(&mut store, 8, 2);
    store.gc(3).unwrap();
    let before = observable_state(&store);
    let log_before = fs::metadata(dir.join("manifest")).unwrap().len();

    let report = store.compact_manifest().unwrap();
    assert!(report.snapshot_bytes > 0);
    assert_eq!(report.log_bytes_truncated + 8, log_before);
    // GC deleted the pruned generations' files, so they are fully dead
    // and leave the snapshot entirely.
    assert_eq!(report.pruned_gens, 5);
    assert_eq!(report.snapshot_gens, 3);
    let log_after = fs::metadata(dir.join("manifest")).unwrap().len();
    assert_eq!(log_after, 8, "log must be just its header");
    assert!(dir.join("manifest.snap").exists());

    // In-memory state keeps the live gens (pruned dead ones are gone
    // from listings, which only changes what `generations` reports
    // about *retired* entries).
    let live: Vec<u64> =
        store.generations().iter().filter(|g| g.committed && g.retired.is_none()).map(|g| g.gen).collect();
    assert_eq!(live, gens[5..].to_vec());

    // Reopen: snapshot-seeded recovery reproduces the same view.
    drop(store);
    let reopened = Store::open(&dir).unwrap();
    assert!(reopened.open_report().snapshot_used);
    assert!(!reopened.open_report().snapshot_fallback);
    assert_eq!(observable_state(&reopened), (
        store_state_after_prune(&before.0, &gens[..5]),
        before.1,
        before.2,
    ));
    // Every live generation still restores.
    for &g in &gens[5..] {
        reopened.restore_array(g, 0).unwrap();
        reopened.restore_array(g, 1).unwrap();
    }
    // And new saves pick up where the old id sequence left off.
    let mut reopened = reopened;
    let next = save_n(&mut reopened, 1, 2)[0];
    assert_eq!(next, *gens.last().unwrap() + 1);
    let _ = fs::remove_dir_all(&dir);
}

/// Expected listing after pruning `dead` gens from a pre-compaction
/// listing.
fn store_state_after_prune(
    infos: &[ckpt_store::GenInfo],
    dead: &[u64],
) -> Vec<ckpt_store::GenInfo> {
    infos.iter().filter(|g| !dead.contains(&g.gen)).cloned().collect()
}

#[test]
fn compaction_is_idempotent_and_composes_with_new_saves() {
    let dir = scratch("repeat");
    let mut store = Store::open(&dir).unwrap();
    save_n(&mut store, 4, 1);
    store.compact_manifest().unwrap();
    let second = store.compact_manifest().unwrap();
    assert_eq!(second.pruned_gens, 0);
    assert_eq!(second.log_bytes_truncated, 0);

    // Save on top of a compacted store; reopen replays snapshot + tail.
    let more = save_n(&mut store, 3, 1);
    drop(store);
    let store = Store::open(&dir).unwrap();
    assert!(store.open_report().snapshot_used);
    assert_eq!(store.latest_committed(), Some(*more.last().unwrap()));
    assert_eq!(store.generations().len(), 7);
    for g in store.generations() {
        store.restore_array(g.gen, 0).unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "the test damages the manifest snapshot on purpose")]
fn damaged_snapshot_falls_back_to_log_replay() {
    let dir = scratch("fallback");
    let mut store = Store::open(&dir).unwrap();
    let gens = save_n(&mut store, 3, 1);
    // Saves appended after the compaction keep the log tail non-empty,
    // so fallback replay still sees them.
    store.compact_manifest().unwrap();
    let more = save_n(&mut store, 2, 1);
    drop(store);

    // Flip a byte in the middle of the snapshot body.
    let snap_path = dir.join("manifest.snap");
    let mut snap = fs::read(&snap_path).unwrap();
    let mid = snap.len() / 2;
    snap[mid] ^= 0x40;
    fs::write(&snap_path, &snap).unwrap();

    let store = Store::open(&dir).unwrap();
    assert!(store.open_report().snapshot_fallback);
    assert!(!store.open_report().snapshot_used);
    // The damaged snapshot was quarantined, not deleted.
    assert!(!snap_path.exists());
    assert!(dir.join("quarantine").join("manifest.snap").exists());
    // The compacted-away history is gone from the log, but everything
    // appended since the compaction replays fine.
    assert_eq!(store.latest_committed(), Some(*more.last().unwrap()));
    for &g in &more {
        store.restore_array(g, 0).unwrap();
    }
    // Pre-compaction segments are quarantined (no manifest entry
    // refers to them after fallback), never deleted.
    let quarantined = fs::read_dir(dir.join("quarantine")).unwrap().count();
    assert_eq!(quarantined, 1 + gens.len(), "snapshot + one segment per lost gen");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "the test damages the manifest snapshot on purpose")]
fn truncated_snapshot_file_falls_back_too() {
    let dir = scratch("truncated");
    let mut store = Store::open(&dir).unwrap();
    save_n(&mut store, 2, 1);
    store.compact_manifest().unwrap();
    drop(store);

    let snap_path = dir.join("manifest.snap");
    let snap = fs::read(&snap_path).unwrap();
    fs::write(&snap_path, &snap[..snap.len() / 3]).unwrap();

    let store = Store::open(&dir).unwrap();
    assert!(store.open_report().snapshot_fallback);
    assert_eq!(store.latest_committed(), None, "compacted log holds nothing");
    let _ = fs::remove_dir_all(&dir);
}
