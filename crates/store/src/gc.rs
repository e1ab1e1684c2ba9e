//! Garbage collection: quarantine unreadable generations, then prune
//! by the keep-newest-K-fulls retention policy, newest by `View::recency`,
//! never pruning the newest generation or the chain it restores through.
//!
//! Two invariants the tests pin down:
//!
//! * GC never deletes a segment reachable from a retained chain — an
//!   increment is retained only if its *entire* chain down to a
//!   retained full is, and a full is never pruned while a retained
//!   increment chains onto it.
//! * Unreadable segments are **moved** to `quarantine/`, never
//!   deleted; only the retention policy deletes files, and only after
//!   the matching `Retire` record is durably in the manifest — both
//!   through [`Store::retire`], the one path a generation dies by.

use crate::manifest::{RetireReason, SegmentFormat};
use crate::store::{GenState, Store, View};
use crate::Result;
use std::collections::BTreeSet;

/// What one GC pass did.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Live generations surviving the pass.
    pub retained: Vec<u64>,
    /// Generations retired by retention; their files were deleted.
    pub pruned: Vec<u64>,
    /// Generations retired because a segment was unreadable; their
    /// files were moved to `quarantine/`.
    pub quarantined: Vec<u64>,
    /// Segment files deleted by retention.
    pub files_deleted: usize,
    /// Generations a live [`Snapshot`](crate::Snapshot) pinned: GC
    /// left these untouched (neither quarantined nor pruned) no matter
    /// what the policy said. They become collectable once the last
    /// snapshot holding them drops.
    pub pinned: Vec<u64>,
}

impl Store {
    /// Runs one GC pass: first a readability scan (CRC against the
    /// manifest) that marks damaged generations for quarantine, then
    /// retention keeping the newest `keep_fulls` full generations, the
    /// newest surviving generation's chain down to its full, and every
    /// increment whose whole chain is retained; both sets die in
    /// one [`Store::retire`]. `keep_fulls` is clamped to at least 1 so
    /// GC can never empty a non-empty store. Like a failed save, an
    /// error poisons the store.
    pub fn gc(&mut self, keep_fulls: usize) -> Result<GcReport> {
        self.gated(|s| {
            let keep_fulls = keep_fulls.max(1);
            let mut report = GcReport::default();

            // Live snapshots pin generations: GC must not retire (or
            // even quarantine) a generation a reader may be mid-restore
            // on. The pin set is sampled once — a snapshot taken after
            // this point sees only what this pass leaves behind.
            let pinned = s.pins.pinned();

            // Phase 1: the readability scan. A pinned generation stays
            // where it is even if damaged: moving its files would break
            // an in-flight range read. The next unpinned pass
            // quarantines it.
            let mut survivors = Vec::new();
            for (gen, g) in s.view.live() {
                let is_pinned = pinned.contains(&gen);
                if is_pinned {
                    report.pinned.push(gen);
                }
                let unreadable = |rank| s.view.read_segment(gen, rank).is_err();
                if !is_pinned && (0..g.segs.len() as u32).any(unreadable) {
                    report.quarantined.push(gen);
                } else {
                    survivors.push((gen, g));
                }
            }

            // Phase 2: retention over the survivors, newest fulls kept.
            let mut fulls: Vec<_> =
                survivors.iter().filter(|(_, g)| g.format != SegmentFormat::Increment).collect();
            fulls.sort_unstable_by_key(|f| View::recency(f));
            let mut retained: BTreeSet<u64> =
                fulls.iter().rev().take(keep_fulls).map(|&&(gen, _)| gen).collect();
            // The newest state survives whatever full it chains onto:
            // its whole chain down to that full is retained.
            retained.extend(newest_chain(&survivors));
            // Pinned survivors are retained outright — a snapshot is
            // reading them — and seeding them before the chain pass
            // keeps any increment chaining onto a pinned base alive too.
            retained.extend(&report.pinned);
            // Ascending order: a base generation always precedes its
            // increments, so one pass settles every chain.
            for &(gen, g) in &survivors {
                if g.format == SegmentFormat::Increment && retained.contains(&g.base_gen) {
                    retained.insert(gen);
                }
            }
            report.pruned =
                survivors.iter().map(|&(gen, _)| gen).filter(|g| !retained.contains(g)).collect();

            let quarantine = report.quarantined.iter().map(|&g| (g, RetireReason::Quarantine));
            let prune = report.pruned.iter().map(|&g| (g, RetireReason::Gc));
            let retire: Vec<_> = quarantine.chain(prune).collect();
            report.files_deleted = s.retire(&retire)?;
            report.retained = retained.into_iter().collect();
            Ok(report)
        })
    }
}

/// The chain of the newest of `survivors` by [`View::recency`], from
/// it down to its full; empty when a link did not survive.
fn newest_chain(survivors: &[(u64, &GenState)]) -> Vec<u64> {
    let find = |gen| survivors.iter().find(|&&(g, _)| g == gen);
    let mut chain = Vec::new();
    let mut at = survivors.iter().max_by_key(|s| View::recency(s));
    while let Some(&(gen, g)) = at {
        chain.push(gen);
        if g.format != SegmentFormat::Increment {
            return chain;
        }
        at = find(g.base_gen);
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::segment_name;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ckpt-store-gc-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(tag: u8) -> Vec<u8> {
        (0..200u32).map(|i| (i as u8).wrapping_mul(tag)).collect()
    }

    /// Raw-bytes generations are enough to exercise retention; the
    /// chain math never looks inside payloads.
    fn full(store: &mut Store, step: u64, tag: u8) -> u64 {
        store.save_full(step, SegmentFormat::Array, &[&payload(tag)], 1).unwrap()
    }

    #[test]
    fn retention_keeps_last_k_fulls() {
        let dir = scratch("keep-k");
        let mut store = Store::open(&dir).unwrap();
        let gens: Vec<u64> = (0..5).map(|i| full(&mut store, 100 + i, i as u8 + 1)).collect();
        let report = store.gc(2).unwrap();
        assert_eq!(report.retained, gens[3..].to_vec());
        assert_eq!(report.pruned, gens[..3].to_vec());
        assert!(report.quarantined.is_empty());
        assert_eq!(report.files_deleted, 3);
        for &g in &gens[..3] {
            assert!(!store.layout().segment_path(g, 0).exists());
            assert!(store.read_segment(g, 0).is_err(), "pruned gen must not restore");
        }
        assert_eq!(store.latest_committed(), Some(gens[4]));
        // Reopen sees the same picture: retires are durable.
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.latest_committed(), Some(gens[4]));
        assert!(store.read_segment(gens[0], 0).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn increments_live_and_die_with_their_chain() {
        let dir = scratch("chains");
        let mut store = Store::open(&dir).unwrap();
        let f1 = full(&mut store, 10, 1);
        let i1 = store.save_increment(11, f1, &[&payload(2)], 1).unwrap();
        let i2 = store.save_increment(12, i1, &[&payload(3)], 1).unwrap();
        let f2 = full(&mut store, 20, 4);
        let i3 = store.save_increment(21, f2, &[&payload(5)], 1).unwrap();

        // keep_fulls=1 retains f2 and its increment; f1's chain dies
        // as a unit.
        let report = store.gc(1).unwrap();
        assert_eq!(report.retained, vec![f2, i3]);
        assert_eq!(report.pruned, vec![f1, i1, i2]);
        // Retained chain files all still on disk (the acceptance
        // invariant: GC never removes segments reachable from a
        // retained chain).
        for g in [f2, i3] {
            assert!(store.layout().segment_path(g, 0).exists());
        }
        assert_eq!(store.resolve_chain(i3).unwrap(), vec![f2, i3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_newest_state_survives_when_it_chains_onto_an_older_full() {
        // Fulls at steps 10 and 20, then the step-30 state as an
        // increment on the step-10 full: the newest state is the
        // increment, and keeping one full must not prune its chain.
        let dir = scratch("newest-chain");
        let mut store = Store::open(&dir).unwrap();
        let f10 = full(&mut store, 10, 1);
        let f20 = full(&mut store, 20, 2);
        let i30 = store.save_increment(30, f10, &[&payload(3)], 1).unwrap();
        assert_eq!(store.latest_committed(), Some(i30));
        let report = store.gc(1).unwrap();
        assert_eq!(report.retained, vec![f10, f20, i30]);
        assert!(report.pruned.is_empty());
        assert_eq!(store.latest_committed(), Some(i30));
        assert_eq!(store.resolve_chain(i30).unwrap(), vec![f10, i30]);
        assert_eq!(store.read_segment(i30, 0).unwrap(), payload(3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test damages a committed segment on purpose")]
    fn unreadable_segments_are_quarantined_not_deleted() {
        let dir = scratch("quarantine");
        let mut store = Store::open(&dir).unwrap();
        let g1 = full(&mut store, 1, 1);
        let g2 = full(&mut store, 2, 2);
        // Corrupt g1's segment on disk.
        let p = store.layout().segment_path(g1, 0);
        let mut bytes = fs::read(&p).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&p, &bytes).unwrap();

        let report = store.gc(10).unwrap();
        assert_eq!(report.quarantined, vec![g1]);
        assert_eq!(report.retained, vec![g2]);
        assert!(report.pruned.is_empty());
        assert!(!store.layout().segment_path(g1, 0).exists());
        // The damaged bytes survive in quarantine for forensics.
        let q = store.layout().quarantine.join(segment_name(g1, 0));
        assert_eq!(fs::read(&q).unwrap(), bytes);
        assert_eq!(store.latest_committed(), Some(g2));
        // Durable across reopen.
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.latest_committed(), Some(g2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_never_empties_the_store() {
        let dir = scratch("min-keep");
        let mut store = Store::open(&dir).unwrap();
        let g = full(&mut store, 7, 9);
        let report = store.gc(0).unwrap(); // clamped to keep 1
        assert_eq!(report.retained, vec![g]);
        assert!(report.pruned.is_empty());
        assert_eq!(store.latest_committed(), Some(g));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_retire_append_poisons_and_reopen_recovers() {
        let dir = scratch("retire-kill");
        let mut store = Store::open(&dir).unwrap();
        let gens: Vec<u64> = (0..3).map(|i| full(&mut store, 10 + i, i as u8 + 1)).collect();
        // A tiny budget tears the retire append mid-record.
        store.set_failpoint(Some(4));
        assert!(matches!(store.gc(1), Err(crate::StoreError::Killed)));
        // Torn manifest tail ⇒ the store must refuse everything until
        // a reopen has run recovery.
        assert!(store.poisoned());
        assert!(matches!(store.read_segment(gens[0], 0), Err(crate::StoreError::Poisoned)));
        assert!(matches!(
            store.save_full(99, SegmentFormat::Array, &[&payload(9)], 1),
            Err(crate::StoreError::Poisoned)
        ));
        drop(store);
        // Recovery truncates the torn retire tail: every generation is
        // still live and readable, nothing was deleted.
        let store = Store::open(&dir).unwrap();
        assert!(store.open_report().truncated_bytes > 0, "torn retire tail truncated");
        for &g in &gens {
            assert!(store.read_segment(g, 0).is_ok(), "gen {g} must survive the killed GC");
        }
        assert_eq!(store.latest_committed(), Some(gens[2]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_between_durable_retire_and_delete_leaves_sweepable_leftovers() {
        // Measure the retire append: identical saves produce identical
        // manifest bytes, so the same GC on a twin store writes the
        // same record bytes.
        let dir_a = scratch("retire-barrier-a");
        let mut probe = Store::open(&dir_a).unwrap();
        for i in 0..3 {
            full(&mut probe, 10 + i, i as u8 + 1);
        }
        probe.set_failpoint(None); // fresh counter: only GC bytes below
        probe.gc(1).unwrap();
        let retire_bytes = probe.bytes_written();
        assert!(retire_bytes > 0);
        drop(probe);
        let _ = fs::remove_dir_all(&dir_a);

        let dir = scratch("retire-barrier");
        let mut store = Store::open(&dir).unwrap();
        let gens: Vec<u64> = (0..3).map(|i| full(&mut store, 10 + i, i as u8 + 1)).collect();
        // Budget covers exactly the retire records: the barrier after
        // the append kills GC before any file is deleted.
        store.set_failpoint(Some(retire_bytes));
        assert!(matches!(store.gc(1), Err(crate::StoreError::Killed)));
        assert!(store.poisoned());
        for &g in &gens {
            assert!(store.layout().segment_path(g, 0).exists(), "no delete before the kill");
        }
        drop(store);
        // The retire records ARE durable: recovery retires gens[0..2]
        // and sweeps their now-orphaned files to quarantine.
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.latest_committed(), Some(gens[2]));
        assert!(store.read_segment(gens[0], 0).is_err(), "retired gen must not restore");
        assert_eq!(store.open_report().quarantined_files.len(), 2, "leftovers swept");
        assert!(store.read_segment(gens[2], 0).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_pins_survive_retention_until_dropped() {
        let dir = scratch("pins");
        let mut store = Store::open(&dir).unwrap();
        let gens: Vec<u64> = (0..3).map(|i| full(&mut store, 10 + i, i as u8 + 1)).collect();
        let snap = store.snapshot().unwrap();
        let g_new = full(&mut store, 20, 9);

        // keep_fulls=1 would prune gens[0..3], but the snapshot pins
        // them all: nothing dies while it is alive.
        let report = store.gc(1).unwrap();
        assert_eq!(report.pinned, gens);
        assert!(report.pruned.is_empty());
        for &g in &gens {
            assert!(report.retained.contains(&g), "pinned gen {g} must be retained");
            assert!(store.layout().segment_path(g, 0).exists());
        }
        // The snapshot's view still restores after the pass.
        assert!(snap.read_segment(gens[0], 0).is_ok());

        // Dropping the snapshot releases the pins; the next pass
        // applies the policy it deferred.
        drop(snap);
        let report = store.gc(1).unwrap();
        assert!(report.pinned.is_empty());
        assert_eq!(report.retained, vec![g_new]);
        assert_eq!(report.pruned, gens);
        for &g in &gens {
            assert!(!store.layout().segment_path(g, 0).exists());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_increment_chain_keeps_its_base_alive() {
        let dir = scratch("pin-chain");
        let mut store = Store::open(&dir).unwrap();
        let f1 = full(&mut store, 1, 1);
        let i1 = store.save_increment(2, f1, &[&payload(2)], 1).unwrap();
        let snap = store.snapshot().unwrap();
        let f2 = full(&mut store, 3, 3);

        let report = store.gc(1).unwrap();
        assert_eq!(report.pinned, vec![f1, i1]);
        assert_eq!(report.retained, vec![f1, i1, f2]);
        assert!(report.pruned.is_empty());
        // The pinned chain still resolves end to end.
        assert_eq!(snap.resolve_chain(i1).unwrap(), vec![f1, i1]);
        drop(snap);
        let report = store.gc(1).unwrap();
        assert_eq!(report.retained, vec![f2]);
        assert_eq!(report.pruned, vec![f1, i1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test damages a committed segment on purpose")]
    fn damaged_pinned_generation_is_not_quarantined_until_released() {
        let dir = scratch("pin-damaged");
        let mut store = Store::open(&dir).unwrap();
        let g1 = full(&mut store, 1, 1);
        let g2 = full(&mut store, 2, 2);
        let snap = store.snapshot().unwrap();
        // Corrupt g1 while a snapshot holds it: GC must not move the
        // file out from under a potential in-flight read.
        let p = store.layout().segment_path(g1, 0);
        let mut bytes = fs::read(&p).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&p, &bytes).unwrap();

        let report = store.gc(10).unwrap();
        assert!(report.quarantined.is_empty());
        assert_eq!(report.pinned, vec![g1, g2]);
        assert!(store.layout().segment_path(g1, 0).exists());

        drop(snap);
        let report = store.gc(10).unwrap();
        assert_eq!(report.quarantined, vec![g1]);
        assert_eq!(report.retained, vec![g2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test damages a committed segment on purpose")]
    fn increment_onto_quarantined_base_is_pruned() {
        let dir = scratch("orphan-inc");
        let mut store = Store::open(&dir).unwrap();
        let f1 = full(&mut store, 1, 1);
        let i1 = store.save_increment(2, f1, &[&payload(2)], 1).unwrap();
        let f2 = full(&mut store, 3, 3);
        // Damage the base full: its increment is useless without it.
        let p = store.layout().segment_path(f1, 0);
        fs::write(&p, b"garbage").unwrap();

        let report = store.gc(10).unwrap();
        assert_eq!(report.quarantined, vec![f1]);
        assert_eq!(report.pruned, vec![i1]);
        assert_eq!(report.retained, vec![f2]);
        assert!(store.resolve_chain(i1).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
