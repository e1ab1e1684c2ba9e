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
//! Three invariants the tests pin down:
//!
//! * **Bit-exactness** — the rewritten full restores to exactly the
//!   tensor the old chain replayed to, every rank, every bit.
//! * **No stranded readers** — a chain member is only retired when no
//!   surviving live generation's chain needs it and no snapshot pins
//!   it; a branch hanging off the compacted chain keeps its shared
//!   prefix alive.
//! * **Latest is preserved** — after a pass, `latest_committed`
//!   names the newest application state (highest step). Rewrites take
//!   fresh (highest) ids, so the pass orders the newest state's own
//!   rewrite last, or — when the newest generation is not a rewritten
//!   tip — re-anchors it: copied byte-for-byte under a fresh id above
//!   the rewrites, the original retired. A crash mid-pass can leave
//!   an older rewrite holding the highest id; the next pass detects
//!   the step/id inversion and heals it the same way.

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
            let mut tips = Vec::new();
            let mut chains: Vec<Vec<u64>> = Vec::new();
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
                tips.push(gen);
                chains.push(chain);
            }
            report.pinned.sort_unstable();
            report.pinned.dedup();

            // Rewrites take fresh — highest — generation ids, and id
            // order is what `latest_committed` (and every
            // restore-latest reader) means by "newest". The newest
            // *application state* is the live generation with the
            // highest step (ties to the highest id) — call it g*. The
            // pass must end with g*'s state holding the highest id:
            //
            // * g* is itself a rewritten tip — order the rewrites so
            //   g*'s commits last; the invariant then holds for free.
            // * otherwise — re-anchor: copy g* byte-for-byte under a
            //   fresh id as the pass's final save and retire the
            //   original.
            //
            // The check runs even with no tips to rewrite: a crash
            // between an earlier pass's rewrites and its re-anchor can
            // leave an old chain's rewrite holding the highest id, and
            // the next pass heals that inversion here. A pinned g*
            // can't be retired, so a pass that needs the copy defers
            // instead.
            let Some(g_star) = s.view.live().max_by_key(|&(gen, g)| (g.step, gen)).map(|(gen, _)| gen)
            else {
                return Ok(report);
            };
            if let Some(pos) = tips.iter().position(|&t| t == g_star) {
                let t = tips.remove(pos);
                let c = chains.remove(pos);
                tips.push(t);
                chains.push(c);
            }
            let reanchor = if tips.last() == Some(&g_star) {
                false
            } else {
                !tips.is_empty() || s.view.latest_committed() != Some(g_star)
            };
            if !reanchor && tips.is_empty() {
                return Ok(report);
            }
            if reanchor && pinned.contains(&g_star) {
                report.pinned.push(g_star);
                report.pinned.sort_unstable();
                report.pinned.dedup();
                return Ok(report);
            }

            // Rewrite each tip: materialize what the chain replays to
            // and commit it as a lossless full generation (same step;
            // the effective error bound is the chain base's — deltas
            // are exact, so the rewrite carries the base's loss and no
            // more).
            for (&tip, chain) in tips.iter().zip(&chains) {
                let (step, ranks) = {
                    let g = s.view.state(tip)?;
                    (g.step, g.segs.len() as u32)
                };
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

            let mut candidates: BTreeSet<u64> = chains.iter().flatten().copied().collect();
            if reanchor {
                let (step, format, base_gen, bound, ranks) = {
                    let g = s.view.state(g_star)?;
                    (g.step, g.format, g.base_gen, g.error_bound, g.segs.len() as u32)
                };
                let payloads = (0..ranks)
                    .map(|rank| s.view.read_segment(g_star, rank))
                    .collect::<Result<Vec<_>>>()?;
                let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
                let new_gen = s.save(step, format, base_gen, &refs, threads, bound)?;
                report.rewritten.push((g_star, new_gen));
                candidates.insert(g_star);
            }

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
    fn shallow_chains_are_left_alone() {
        let dir = scratch("shallow");
        let mut store = Store::open(&dir).unwrap();
        let (gens, _) = grow_chain(&mut store, 2);
        let report = store.compact_chains(3, 1).unwrap();
        assert!(report.rewritten.is_empty());
        assert!(report.retired.is_empty());
        assert_eq!(store.latest_committed(), Some(*gens.last().unwrap()));
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
        // Only the deep tip is rewritten as a chain (the branch chain
        // has length 3); the shared prefix gens[0..=1] survives for
        // the branch. The branch was the newest generation, so it is
        // re-anchored above the rewrite to keep id order == recency.
        assert_eq!(report.rewritten.len(), 2);
        assert_eq!(report.rewritten[0].0, gens[4]);
        assert_eq!(report.rewritten[1].0, branch);
        let new_branch = report.rewritten[1].1;
        assert!(new_branch > report.rewritten[0].1, "latest stays the highest id");
        assert_eq!(store.latest_committed(), Some(new_branch));
        for &g in &gens[..2] {
            assert!(!report.retired.contains(&g), "gen {g} is the branch's prefix");
        }
        let mut expected_retired = gens[2..].to_vec();
        expected_retired.push(branch);
        assert_eq!(report.retired, expected_retired);
        assert_eq!(store.resolve_chain(new_branch).unwrap(), vec![gens[0], gens[1], new_branch]);
        store.restore_array(new_branch, 0).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_generation_is_reanchored_above_rewrites() {
        let dir = scratch("reanchor");
        let mut store = Store::open(&dir).unwrap();
        // A deep chain, then a fresh shallow full saved after it: the
        // full is the newest state and must stay "latest" even though
        // the deep chain's rewrite takes a fresh id.
        let (gens, chain_expected) = grow_chain(&mut store, 4);
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let newest = Tensor::from_fn(&[9, 7], |ix| (ix[0] + ix[1]) as f64 * 3.25).unwrap();
        let packed = comp.compress(&newest).unwrap().bytes;
        let latest = store.save_full(50, SegmentFormat::Array, &[&packed], 1).unwrap();
        let latest_tensor = store.restore_array(latest, 0).unwrap();

        let report = store.compact_chains(2, 1).unwrap();
        assert_eq!(report.rewritten.len(), 2, "chain rewrite + latest re-anchor");
        assert_eq!(report.rewritten[1].0, latest);
        let new_latest = report.rewritten[1].1;
        assert_eq!(store.latest_committed(), Some(new_latest));
        // Byte-identical copy, original retired.
        assert!(store.restore_array(new_latest, 0).unwrap() == latest_tensor);
        assert!(report.retired.contains(&latest));
        // The chain rewrite still restores bit-exactly.
        let (_, new_full) = report.rewritten[0];
        assert!(store.restore_array(new_full, 0).unwrap() == chain_expected);
        assert_eq!(report.retired.iter().filter(|g| gens.contains(g)).count(), gens.len());

        // Durable across reopen: the re-anchored copy is still latest.
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.latest_committed(), Some(new_latest));
        assert!(store.restore_array(new_latest, 0).unwrap() == latest_tensor);
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
