//! Long-horizon store scalability: hundreds of mixed full/INC2
//! generations with periodic GC, chain compaction, and manifest
//! snapshots, asserting the structures that keep open cost O(live
//! generations) — a truncated log, a bounded live set, and bounded
//! chain depth — all while every live generation keeps restoring
//! bit-exactly.
//!
//! Tier-1 runs this at a few hundred generations so debug builds stay
//! fast; `STORE_SCALE_GENS` raises the horizon. Open and maintenance
//! wall-clock is measured by the `e2e` benchmark (`store_churn`).

use lossy_ckpt::core::{incremental, Compressor, CompressorConfig};
use lossy_ckpt::deflate::Level;
use lossy_ckpt::store::{SegmentFormat, Store};
use lossy_ckpt::tensor::Tensor;
use std::fs;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ckpt-store-scale-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn horizon(default: usize) -> usize {
    std::env::var("STORE_SCALE_GENS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Drives one generation per step of `steps`: the first and every
/// `full_every`-th save after it starts a fresh full, the rest chain
/// INC2 increments onto the previous generation. Every `cycle` saves
/// runs gc + chain compaction + manifest snapshot. Returns the
/// expected tensor of the final generation.
fn drive(
    store: &mut Store,
    steps: std::ops::Range<u64>,
    full_every: usize,
    cycle: usize,
) -> Tensor<f64> {
    let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let base = Tensor::from_fn(&[12, 5], |ix| {
        ((ix[0] * 5 + ix[1]) as f64 * 0.37).sin() * 40.0 + 160.0
    })
    .unwrap();
    let mut state = base.clone();
    let mut prev_gen = 0u64;
    for (i, step) in steps.enumerate() {
        if i % full_every == 0 {
            // A fresh full: re-seed the lossy state from its own
            // round-trip so later increments are exact deltas.
            let packed = comp.compress(&state).unwrap().bytes;
            state = Compressor::decompress(&packed).unwrap();
            prev_gen = store.save_full(step, SegmentFormat::Array, &[&packed], 1).unwrap();
        } else {
            let mut next = state.clone();
            for j in (0..next.len()).step_by(7) {
                next.as_mut_slice()[j] += (step % 13) as f64 * 0.5;
            }
            let (delta, _) = incremental::increment(&state, &next, Level::Default).unwrap();
            prev_gen = store.save_increment(step, prev_gen, &[&delta], 1).unwrap();
            state = next;
        }
        if (i + 1) % cycle == 0 {
            store.gc(2).unwrap();
            store.compact_chains(4, 1).unwrap();
            store.compact_manifest().unwrap();
            // The tip may have been rewritten into a fresh full.
            prev_gen = store.latest_committed().unwrap();
        }
    }
    state
}

#[test]
fn long_horizon_open_cost_stays_bounded() {
    let dir = scratch("horizon");
    let n = horizon(300) as u64;
    let cycle = 50;
    let mut store = Store::open(&dir).unwrap();
    let expected = drive(&mut store, 0..n, 10, cycle);
    let tip = store.latest_committed().unwrap();
    assert!(store.restore_array(tip, 0).unwrap() == expected, "tip restores bit-exactly");

    // Final maintenance pass, then check every bound the compaction
    // machinery promises.
    store.gc(2).unwrap();
    store.compact_chains(4, 1).unwrap();
    store.compact_manifest().unwrap();

    // 1. The manifest log holds only records since the last snapshot.
    let log_len = fs::metadata(dir.join("manifest")).unwrap().len();
    assert_eq!(log_len, 8, "log is truncated to its header after a snapshot");

    // 2. The live set is O(keep), not O(generations ever saved).
    let live = store.generations().iter().filter(|g| g.retired.is_none()).count();
    assert!(live <= 16, "{live} live generations after gc(2) at horizon {n}");

    // 3. Chain depth is bounded by the compaction depth.
    for info in store.generations() {
        if info.retired.is_none() && info.committed {
            let chain = store.resolve_chain(info.gen).unwrap();
            assert!(chain.len() <= 5, "gen {} chain depth {}", info.gen, chain.len());
        }
    }

    // 4. Reopen seeds from the snapshot, replays nothing, and serves
    //    the same state.
    let tip_tensor = store.restore_array(store.latest_committed().unwrap(), 0).unwrap();
    let gens_before = store.generations();
    drop(store);
    let reopened = Store::open(&dir).unwrap();
    assert!(reopened.open_report().snapshot_used, "open seeds from the CSM2 snapshot");
    assert!(!reopened.open_report().snapshot_fallback);
    assert_eq!(reopened.generations(), gens_before, "snapshot state == pre-close state");
    let tip = reopened.latest_committed().unwrap();
    assert!(reopened.restore_array(tip, 0).unwrap() == tip_tensor);
    assert!(reopened.verify().unwrap().clean());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compaction_cycles_never_lose_the_latest_generation() {
    // Same engine, tighter cycle: maintenance runs every 10 saves so
    // snapshots, chain rewrites, and GC interleave with every phase of
    // chain growth at least once.
    let dir = scratch("interleave");
    let n = horizon(120).min(400) as u64;
    let mut store = Store::open(&dir).unwrap();
    let expected = drive(&mut store, 0..n, 7, 10);
    let tip = store.latest_committed().unwrap();
    assert!(store.restore_array(tip, 0).unwrap() == expected);

    // And the full save/maintain loop survives a reopen mid-stream: the
    // run carries on from the step it reached.
    drop(store);
    let mut store = Store::open(&dir).unwrap();
    let expected = drive(&mut store, n..n + 40, 7, 10);
    let tip = store.latest_committed().unwrap();
    assert!(store.restore_array(tip, 0).unwrap() == expected);
    let _ = fs::remove_dir_all(&dir);
}
