//! Chain compaction: rewrite over-deep increment chains into fresh
//! full generations, then retire the chains they replace.
//!
//! Restoring an increment generation replays its whole chain — base
//! plus every delta. Long-running simulations that checkpoint
//! incrementally grow chains without bound, and with them restore
//! latency and the blast radius of a single damaged link. Compaction
//! caps both: any live chain longer than `max_depth` is materialized
//! (exactly the bytes `restore_array` would produce), re-encoded as a
//! **lossless** full `WCK1` stream ([`ckpt_core::compress_exact`]),
//! and committed as a new generation through the ordinary two-phase
//! save path. The old chain is then retired through
//! [`Store::retire`], the one path GC's victims die by too.
//!
//! Two invariants the tests pin down:
//!
//! * **Bit-exactness** — the rewritten full restores to exactly the
//!   tensor the old chain replayed to, every rank, every bit.
//! * **No stranded readers** — a chain member is only retired when no
//!   surviving live generation's chain needs it and no snapshot pins
//!   it; a branch hanging off the compacted chain keeps its shared
//!   prefix alive.
//!
//! The pass has no "newest" of its own: a rewrite keeps its tip's step,
//! and recency is `(step, gen)`, so `latest_committed` names the same
//! state before, during and after a pass, at every kill point of one.

use crate::manifest::{RetireReason, SegmentFormat};
use crate::store::Store;
use crate::Result;
use ckpt_deflate::Level;
use std::collections::BTreeSet;

/// What one [`Store::compact_chains`] pass did.
#[derive(Debug, Clone, Default)]
pub struct ChainCompactReport {
    /// `(old tip, replacement full)` pairs, one per rewritten chain.
    pub rewritten: Vec<(u64, u64)>,
    /// Chain members retired (files deleted) once nothing needed them.
    pub retired: Vec<u64>,
    /// Segment files deleted for the retired generations.
    pub files_deleted: usize,
    /// Generations a live [`Snapshot`](crate::Snapshot) pinned: their
    /// chains were left untouched this pass.
    pub pinned: Vec<u64>,
}

impl Store {
    /// Rewrites every live increment chain deeper than `max_depth`
    /// (chain length in generations, clamped to at least 1) into a
    /// fresh full generation, then retires chain members nothing else
    /// needs. Rank rewrites fan out over `threads` workers inside the
    /// save. Like a failed save or GC, an error poisons the store.
    pub fn compact_chains(
        &mut self,
        max_depth: usize,
        threads: usize,
    ) -> Result<ChainCompactReport> {
        self.gated(|s| {
            let max_depth = max_depth.max(1);
            let mut report = ChainCompactReport::default();
            // Sampled once, like GC: a snapshot taken later sees only
            // what this pass leaves behind.
            let pinned = s.pins.pinned();

            // A chain is rewritten at its *tips* — live increments no
            // other live generation chains onto. Rewriting interior
            // links would leave their descendants chained onto a
            // retired generation.
            let bases: BTreeSet<u64> = s
                .view
                .live()
                .filter(|(_, g)| g.format == SegmentFormat::Increment)
                .map(|(_, g)| g.base_gen)
                .collect();
            let mut chains: Vec<(u64, Vec<u64>)> = Vec::new();
            for (gen, g) in s.view.live() {
                if g.format != SegmentFormat::Increment || bases.contains(&gen) {
                    continue;
                }
                let chain = s.view.resolve_chain(gen)?;
                if chain.len() <= max_depth {
                    continue;
                }
                if chain.iter().any(|c| pinned.contains(c)) {
                    // A snapshot is reading somewhere in this chain:
                    // retiring any member would strand it. Skip the
                    // whole chain; the next unpinned pass compacts it.
                    report.pinned.extend(chain.iter().filter(|c| pinned.contains(c)));
                    continue;
                }
                chains.push((gen, chain));
            }
            report.pinned.sort_unstable();
            report.pinned.dedup();
            if chains.is_empty() {
                return Ok(report);
            }

            // Rewrite each tip: materialize what the chain replays to
            // and commit it as a lossless full generation (same step;
            // the effective error bound is the chain base's — deltas
            // are exact, so the rewrite carries the base's loss and no
            // more).
            for &(tip, ref chain) in &chains {
                let g = s.view.state(tip)?;
                let (step, ranks) = (g.step, g.segs.len() as u32);
                let bound = s.view.state(chain[0])?.error_bound;
                let mut payloads = Vec::with_capacity(ranks as usize);
                for rank in 0..ranks {
                    let tensor = s.view.restore_array(tip, rank)?;
                    payloads.push(ckpt_core::compress_exact(&tensor, Level::Default)?);
                }
                let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
                let new_gen = s.save(step, SegmentFormat::Array, 0, &refs, threads, bound)?;
                report.rewritten.push((tip, new_gen));
            }

            let candidates: BTreeSet<u64> = chains.into_iter().flat_map(|(_, c)| c).collect();

            // Retire what the rewrites made redundant: chain members no
            // surviving live generation's chain passes through. A
            // branch tip outside the compacted set keeps its prefix
            // alive.
            let mut needed = BTreeSet::new();
            for (gen, _) in s.view.live() {
                if !candidates.contains(&gen) {
                    needed.extend(s.view.resolve_chain(gen)?);
                }
            }
            report.retired = candidates.into_iter().filter(|g| !needed.contains(g)).collect();
            let retire: Vec<_> = report.retired.iter().map(|&g| (g, RetireReason::Gc)).collect();
            report.files_deleted = s.retire(&retire)?;
            Ok(report)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::{incremental, Compressor, CompressorConfig};
    use ckpt_tensor::Tensor;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ckpt-store-chain-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A base full plus `n` exact increments; returns the gen ids and
    /// the expected tensor after every delta.
    fn grow_chain(store: &mut Store, n: usize) -> (Vec<u64>, Tensor<f64>) {
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let field = Tensor::from_fn(&[9, 7], |ix| {
            ((ix[0] * 7 + ix[1]) as f64 * 0.37).sin() * 60.0 + 250.0
        })
        .unwrap();
        let packed = comp.compress(&field).unwrap().bytes;
        let mut gens = vec![store.save_full(0, SegmentFormat::Array, &[&packed], 1).unwrap()];
        let mut prev = Compressor::decompress(&packed).unwrap();
        for step in 1..=n as u64 {
            let mut cur = prev.clone();
            for i in (0..cur.len()).step_by(11 + step as usize) {
                cur.as_mut_slice()[i] += step as f64 * 0.25;
            }
            let (delta, _) = incremental::increment(&prev, &cur, Level::Default).unwrap();
            let g = store.save_increment(step, *gens.last().unwrap(), &[&delta], 1).unwrap();
            gens.push(g);
            prev = cur;
        }
        (gens, prev)
    }

    #[test]
    fn deep_chain_is_rewritten_bit_exactly_and_retired() {
        let dir = scratch("rewrite");
        let mut store = Store::open(&dir).unwrap();
        let (gens, expected) = grow_chain(&mut store, 5);
        let tip = *gens.last().unwrap();
        let before = store.restore_array(tip, 0).unwrap();
        assert!(before == expected);

        let report = store.compact_chains(3, 1).unwrap();
        assert_eq!(report.rewritten.len(), 1);
        let (old, new) = report.rewritten[0];
        assert_eq!(old, tip);
        // The whole old chain became redundant and was retired.
        assert_eq!(report.retired, gens);
        assert_eq!(report.files_deleted, gens.len());

        // The replacement is a *full* generation restoring to exactly
        // the bytes the chain replayed to.
        let info = store.generations().into_iter().find(|g| g.gen == new).unwrap();
        assert_eq!(info.format, SegmentFormat::Array);
        assert_eq!(info.step, 5);
        assert_eq!(store.resolve_chain(new).unwrap(), vec![new]);
        let after = store.restore_array(new, 0).unwrap();
        assert!(after == expected, "rewrite must be bit-exact");

        // Durable across reopen.
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.latest_committed(), Some(new));
        assert!(store.restore_array(new, 0).unwrap() == expected);
        assert!(store.restore_array(tip, 0).is_err(), "old tip is retired");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn branch_keeps_shared_prefix_alive() {
        let dir = scratch("branch");
        let mut store = Store::open(&dir).unwrap();
        let (gens, _) = grow_chain(&mut store, 4);
        // A short branch off the middle of the chain: gens[1] gains a
        // second descendant that stays within depth.
        let raw = store.read_segment(gens[2], 0).unwrap();
        let branch = store.save_increment(99, gens[1], &[&raw], 1).unwrap();

        let report = store.compact_chains(3, 1).unwrap();
        // Only the deep tip is rewritten (the branch chain has length
        // 3); the shared prefix gens[0..=1] survives for the branch,
        // which keeps its id and, at step 99, stays latest.
        assert_eq!(report.rewritten.iter().map(|r| r.0).collect::<Vec<_>>(), [gens[4]]);
        assert_eq!(report.retired, gens[2..].to_vec());
        assert_eq!(store.latest_committed(), Some(branch));
        assert_eq!(store.resolve_chain(branch).unwrap(), vec![gens[0], gens[1], branch]);
        store.restore_array(branch, 0).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    /// A depth-5 chain at steps 0–4, then one full per step of `steps`:
    /// the directory, the store, the chain's ids and the fulls' ids.
    fn chain_then_fulls(name: &str, steps: &[u64]) -> (PathBuf, Store, Vec<u64>, Vec<u64>) {
        let dir = scratch(name);
        let mut store = Store::open(&dir).unwrap();
        let (chain, _) = grow_chain(&mut store, 4);
        let fulls = steps
            .iter()
            .map(|&step| store.save_full(step, SegmentFormat::Array, &[b"full"], 1).unwrap())
            .collect();
        (dir, store, chain, fulls)
    }

    #[test]
    fn a_full_newer_than_the_chain_stays_latest_without_a_copy() {
        let (dir, mut store, chain, fulls) = chain_then_fulls("newer-full", &[50]);
        let report = store.compact_chains(2, 1).unwrap();
        assert_eq!(report.rewritten.len(), 1, "the chain is rewritten, the full is not copied");
        assert!(report.rewritten[0].1 > fulls[0], "the rewrite takes a higher id");
        assert_eq!(report.retired, chain, "only the chain is retired");
        assert_eq!(store.latest_committed(), Some(fulls[0]));
        drop(store);
        assert_eq!(Store::open(&dir).unwrap().latest_committed(), Some(fulls[0]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_after_compaction_keeps_the_newest_fulls_and_prunes_the_rewrite() {
        let (dir, mut store, _, fulls) = chain_then_fulls("then-gc", &[20, 30]);
        let rewrite = store.compact_chains(2, 1).unwrap().rewritten[0].1;
        let report = store.gc(2).unwrap();
        assert_eq!(report.retained, fulls, "the step-20 and step-30 fulls");
        assert_eq!(report.pruned, [rewrite], "the step-4 rewrite");
        assert_eq!(store.latest_committed(), Some(fulls[1]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_pass_with_no_chain_to_compact_writes_nothing() {
        let dir = scratch("shallow");
        let mut store = Store::open(&dir).unwrap();
        // A step-100 full saved before a step-0 full and its shallow
        // chain (steps 0–2): the one chain is within depth.
        let newest = store.save_full(100, SegmentFormat::Array, &[b"step 100"], 1).unwrap();
        grow_chain(&mut store, 2);
        let (before, written) = (store.generations(), store.bytes_written());
        let report = store.compact_chains(3, 1).unwrap();
        assert!(report.rewritten.is_empty() && report.retired.is_empty());
        assert_eq!(store.bytes_written(), written, "no byte written");
        assert_eq!(store.generations(), before, "no generation id moved");
        assert_eq!(store.latest_committed(), Some(newest));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_chain_is_skipped_until_released() {
        let dir = scratch("pinned");
        let mut store = Store::open(&dir).unwrap();
        let (gens, expected) = grow_chain(&mut store, 4);
        let snap = store.snapshot().unwrap();

        let report = store.compact_chains(2, 1).unwrap();
        assert!(report.rewritten.is_empty());
        assert_eq!(report.pinned, gens);
        assert!(snap.restore_array(*gens.last().unwrap(), 0).unwrap() == expected);

        drop(snap);
        let report = store.compact_chains(2, 1).unwrap();
        assert_eq!(report.rewritten.len(), 1);
        assert_eq!(report.retired, gens);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_composes_with_manifest_snapshot_and_gc() {
        let dir = scratch("compose");
        let mut store = Store::open(&dir).unwrap();
        let (gens, expected) = grow_chain(&mut store, 6);
        store.compact_chains(2, 1).unwrap();
        store.gc(1).unwrap();
        store.compact_manifest().unwrap();
        drop(store);

        let store = Store::open(&dir).unwrap();
        assert!(store.open_report().snapshot_used);
        let latest = store.latest_committed().unwrap();
        assert!(latest > *gens.last().unwrap());
        assert!(store.restore_array(latest, 0).unwrap() == expected);
        assert!(store.verify().unwrap().clean());
        let _ = fs::remove_dir_all(&dir);
    }
}
