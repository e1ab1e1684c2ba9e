//! Property: a kill at a *random* byte of the save path never costs
//! more than the generation being written. Whatever the kill point,
//! the store reopens, every previously committed generation is intact
//! bit-for-bit, and verification is clean.
//!
//! The exhaustive every-byte sweep lives in the workspace-level
//! `tests/store_crash.rs`; this file drives randomized multi-rank,
//! multi-threaded, full+incremental schedules through the same
//! invariant.

#![allow(clippy::needless_update)]

use ckpt_core::{incremental, Compressor, CompressorConfig};
use ckpt_deflate::Level;
use ckpt_store::{SegmentFormat, Store, StoreError};
use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};
use ckpt_tensor::Tensor;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ckpt-store-prop-{tag}-{}-{n}",
        std::process::id()
    ))
}

/// A pool of real compressed-array payloads (store verification runs
/// the hardened decoders, so payloads must actually parse).
fn array_pool() -> &'static Vec<Vec<u8>> {
    static POOL: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    POOL.get_or_init(|| {
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        [FieldKind::Temperature, FieldKind::Pressure, FieldKind::WindU, FieldKind::WindV]
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                comp.compress(&generate(&FieldSpec::small(kind, i as u64))).unwrap().bytes
            })
            .collect()
    })
}

/// A full-plus-increments chain with exact expected tensors: the base
/// is the *lossy-restored* array, so every increment (exact XOR
/// deltas) replays bit-for-bit.
struct Chain {
    base_packed: Vec<u8>,
    incs: Vec<Vec<u8>>,
    expected: Vec<Tensor<f64>>, // expected[i] = state after i increments
}

fn chain_pool() -> &'static Chain {
    static POOL: OnceLock<Chain> = OnceLock::new();
    POOL.get_or_init(|| {
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let field = generate(&FieldSpec::small(FieldKind::Temperature, 42));
        let base_packed = comp.compress(&field).unwrap().bytes;
        let base = Compressor::decompress(&base_packed).unwrap();
        let mut expected = vec![base.clone()];
        let mut incs = Vec::new();
        let mut prev = base;
        for step in 1..=4u64 {
            let mut cur = prev.clone();
            // Perturb a sparse, step-dependent subset of elements.
            let stride = 97 + step as usize * 31;
            for i in (0..cur.len()).step_by(stride) {
                cur.as_mut_slice()[i] += step as f64 * 0.5;
            }
            let (packed, _) = incremental::increment(&prev, &cur, Level::Default).unwrap();
            incs.push(packed);
            expected.push(cur.clone());
            prev = cur;
        }
        Chain { base_packed, incs, expected }
    })
}

/// Commits `pre` full generations and returns the expected per-gen
/// payloads (gen, rank) → bytes.
fn seed_fulls(
    store: &mut Store,
    pre: usize,
    ranks: usize,
    threads: usize,
) -> Vec<(u64, Vec<Vec<u8>>)> {
    let pool = array_pool();
    let mut committed = Vec::new();
    for i in 0..pre {
        let payloads: Vec<&[u8]> =
            (0..ranks).map(|r| pool[(i + r) % pool.len()].as_slice()).collect();
        let gen = store
            .save_full(100 + i as u64, SegmentFormat::Array, &payloads, threads)
            .unwrap();
        committed.push((gen, payloads.iter().map(|p| p.to_vec()).collect()));
    }
    committed
}

/// Reopens the store and checks the crash-consistency contract.
fn check_after_crash(dir: &PathBuf, committed: &[(u64, Vec<Vec<u8>>)]) -> Result<(), String> {
    let store = Store::open(dir).map_err(|e| format!("reopen failed: {e}"))?;
    let latest = committed.last().map(|(g, _)| *g);
    if store.latest_committed() != latest {
        return Err(format!(
            "latest_committed {:?} != expected {latest:?}",
            store.latest_committed()
        ));
    }
    for (gen, payloads) in committed {
        for (rank, expect) in payloads.iter().enumerate() {
            let got = store
                .read_segment(*gen, rank as u32)
                .map_err(|e| format!("gen {gen} rank {rank} unreadable: {e}"))?;
            if &got != expect {
                return Err(format!("gen {gen} rank {rank} not bit-exact"));
            }
        }
    }
    let report = store.verify().map_err(|e| format!("verify errored: {e}"))?;
    if !report.clean() {
        return Err(format!("verify found problems: {:?}", report.problems));
    }
    let tmp = store.root().join("tmp");
    if fs::read_dir(&tmp).map(|d| d.count()).unwrap_or(0) != 0 {
        return Err("tmp/ not empty after recovery".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Kill a full save at a random byte: previously committed
    /// generations survive untouched; a save whose budget covered
    /// everything commits normally.
    #[test]
    fn random_kill_point_preserves_previous_generations(
        pre in 1usize..4,
        ranks in 1usize..3,
        threads in 1usize..3,
        kill_sel in proptest::arbitrary::any::<u64>(),
    ) {
        let dir = scratch("full");
        let mut store = Store::open(&dir).unwrap();
        let mut committed = seed_fulls(&mut store, pre, ranks, threads);

        // A save writes the payloads plus a small manifest tail; pick
        // the kill byte over that span (plus slack, so some budgets
        // survive the whole save).
        let pool = array_pool();
        let total: u64 = (0..ranks).map(|r| pool[(pre + r) % pool.len()].len() as u64).sum();
        let kill_at = kill_sel % (total + 512);
        store.set_failpoint(Some(kill_at));

        let payloads: Vec<&[u8]> =
            (0..ranks).map(|r| pool[(pre + r) % pool.len()].as_slice()).collect();
        match store.save_full(900, SegmentFormat::Array, &payloads, threads) {
            Ok(gen) => {
                prop_assert!(!store.poisoned());
                committed.push((gen, payloads.iter().map(|p| p.to_vec()).collect()));
            }
            Err(StoreError::Killed) => {
                prop_assert!(store.poisoned());
                // Dead store refuses everything until reopened.
                prop_assert!(matches!(store.read_segment(committed[0].0, 0),
                    Err(StoreError::Poisoned)));
                prop_assert!(matches!(store.verify(), Err(StoreError::Poisoned)));
            }
            Err(other) => prop_assert!(false, "unexpected save error: {other}"),
        }
        drop(store);

        if let Err(why) = check_after_crash(&dir, &committed) {
            prop_assert!(false, "kill_at={kill_at}: {why}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Kill somewhere inside a whole full+increment schedule; after
    /// reopening, the surviving chain restores bit-exactly.
    #[test]
    fn random_kill_during_increment_chain_keeps_chain_restorable(
        kill_sel in proptest::arbitrary::any::<u64>(),
        threads in 1usize..3,
    ) {
        let chain = chain_pool();
        let dir = scratch("chain");
        let mut store = Store::open(&dir).unwrap();

        let schedule_bytes: u64 = chain.base_packed.len() as u64
            + chain.incs.iter().map(|i| i.len() as u64).sum::<u64>();
        let kill_at = kill_sel % (schedule_bytes + 1024);
        store.set_failpoint(Some(kill_at));

        // Run the schedule until the kill fires (or to completion).
        let mut last_ok: Option<(u64, usize)> = None; // (gen, chain depth)
        let mut killed = false;
        match store.save_full(0, SegmentFormat::Array, &[&chain.base_packed], threads) {
            Ok(gen) => last_ok = Some((gen, 0)),
            Err(_) => killed = true,
        }
        if !killed {
            for (i, inc) in chain.incs.iter().enumerate() {
                let base = last_ok.unwrap().0;
                match store.save_increment(1 + i as u64, base, &[inc.as_slice()], threads) {
                    Ok(gen) => last_ok = Some((gen, i + 1)),
                    Err(_) => { killed = true; break; }
                }
            }
        }
        drop(store);

        let store = match Store::open(&dir) {
            Ok(s) => s,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("kill_at={kill_at}: reopen failed: {e}"))),
        };
        prop_assert_eq!(store.latest_committed(), last_ok.map(|(g, _)| g),
            "kill_at={}", kill_at);
        if let Some((gen, depth)) = last_ok {
            let restored = store.restore_array(gen, 0);
            prop_assert!(restored.is_ok(), "kill_at={}: chain restore failed", kill_at);
            prop_assert!(restored.unwrap() == chain.expected[depth],
                "kill_at={}: restored tensor differs at depth {}", kill_at, depth);
            let report = store.verify().unwrap();
            prop_assert!(report.clean(), "kill_at={}: {:?}", kill_at, report.problems);
        } else {
            prop_assert!(killed);
            prop_assert_eq!(store.latest_committed(), None);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Repeated kills with reopen between them: the store survives an
    /// arbitrary crash *history*, not just a single crash.
    #[test]
    fn repeated_crashes_and_reopens_converge(
        kills in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..5),
        ranks in 1usize..3,
    ) {
        let dir = scratch("history");
        let pool = array_pool();
        let mut committed: Vec<(u64, Vec<Vec<u8>>)> = {
            let mut store = Store::open(&dir).unwrap();
            seed_fulls(&mut store, 1, ranks, 1)
        };
        for (attempt, kill_sel) in kills.iter().enumerate() {
            let mut store = Store::open(&dir).unwrap();
            let payloads: Vec<&[u8]> = (0..ranks)
                .map(|r| pool[(attempt + r) % pool.len()].as_slice())
                .collect();
            let total: u64 = payloads.iter().map(|p| p.len() as u64).sum();
            store.set_failpoint(Some(kill_sel % (total + 512)));
            // Steps carry on past the seeded full's (100): each save is
            // the newest state, so the last commit is latest.
            let step = 101 + attempt as u64;
            if let Ok(gen) = store.save_full(step, SegmentFormat::Array, &payloads, 1) {
                committed.push((gen, payloads.iter().map(|p| p.to_vec()).collect()));
            }
        }
        if let Err(why) = check_after_crash(&dir, &committed) {
            prop_assert!(false, "kills={kills:?}: {why}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
