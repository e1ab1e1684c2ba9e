//! Crash-consistency integration: kill the checkpoint writer at
//! *every* byte of a save, and drive the climate proxy against a
//! durable store whose saves die mid-write.
//!
//! This is the acceptance test for the store's core promise: a kill at
//! any byte boundary leaves the previous generation restorable.

use lossy_ckpt::core::{incremental, Compressor, CompressorConfig};
use lossy_ckpt::deflate::Level;
use lossy_ckpt::sim::{ClimateSim, SimConfig};
use lossy_ckpt::store::{SegmentFormat, Store, StoreError};
use lossy_ckpt::tensor::Tensor;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ckpt-store-crash-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Small real compressed-array payloads, distinct per rank.
fn rank_payloads(ranks: u64) -> Vec<Vec<u8>> {
    let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    (0..ranks)
        .map(|r| {
            let t = Tensor::from_fn(&[16, 4], |ix| {
                ((ix[0] * 4 + ix[1]) as f64 * 0.25 + r as f64).sin() * 50.0 + 200.0
            })
            .unwrap();
            comp.compress(&t).unwrap().bytes
        })
        .collect()
}

/// The exhaustive sweep: for every kill byte `k` of gen 2's save, the
/// store must reopen with gen 1 intact and bit-exact; gen 2 is either
/// absent or fully committed and bit-exact — never half-present. Run
/// once serially over two ranks and once with three ranks fanned over
/// two writer threads, where which rank the budget tears is up to the
/// scheduler and the invariants are not.
#[test]
fn kill_at_every_byte_preserves_previous_generation() {
    for (ranks, threads) in [(2u64, 1usize), (3, 2)] {
        kill_sweep_full_save(ranks, threads);
    }
}

fn kill_sweep_full_save(ranks: u64, threads: usize) {
    let payloads = rank_payloads(ranks);
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();

    // Measure how many bytes one save writes (segments + manifest).
    let total = {
        let dir = scratch("measure");
        let mut store = Store::open(&dir).unwrap();
        store.save_full(1, SegmentFormat::Array, &refs, threads).unwrap();
        store.set_failpoint(None);
        store.save_full(2, SegmentFormat::Array, &refs, threads).unwrap();
        let total = store.bytes_written();
        let _ = fs::remove_dir_all(&dir);
        total
    };
    assert!(total > 0, "a save must write bytes");

    let dir = scratch("sweep");
    for k in 0..=total {
        let _ = fs::remove_dir_all(&dir);
        let mut store = Store::open(&dir).unwrap();
        let g1 = store.save_full(1, SegmentFormat::Array, &refs, threads).unwrap();
        store.set_failpoint(Some(k));
        let outcome = store.save_full(2, SegmentFormat::Array, &refs, threads);
        drop(store);

        // The store must reopen whatever happened.
        let store = Store::open(&dir).unwrap_or_else(|e| panic!("k={k}: reopen failed: {e}"));
        // Gen 1 always intact, bit-exact, restorable.
        for (rank, expect) in payloads.iter().enumerate() {
            let got = store
                .read_segment(g1, rank as u32)
                .unwrap_or_else(|e| panic!("k={k}: gen1 rank {rank}: {e}"));
            assert_eq!(&got, expect, "k={k}: gen1 rank {rank} not bit-exact");
        }
        // Gen 2: all-or-nothing.
        match store.latest_committed() {
            Some(g) if g == g1 => {
                assert!(
                    outcome.is_err(),
                    "k={k}: save reported success but gen2 is not committed"
                );
                assert!(store.read_segment(g1 + 1, 0).is_err());
            }
            Some(g) => {
                assert_eq!(g, g1 + 1, "k={k}");
                for (rank, expect) in payloads.iter().enumerate() {
                    let got = store.read_segment(g, rank as u32).unwrap();
                    assert_eq!(&got, expect, "k={k}: gen2 rank {rank} not bit-exact");
                }
            }
            None => panic!("k={k}: committed gen 1 vanished"),
        }
        let report = store.verify().unwrap();
        assert!(report.clean(), "k={k}: verify problems: {:?}", report.problems);
        // Recovery leaves no staging litter behind.
        let tmp_entries = fs::read_dir(store.root().join("tmp")).unwrap().count();
        assert_eq!(tmp_entries, 0, "k={k}: tmp/ not empty after recovery");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The same exhaustive sweep over the *streamed* save path: each
/// rank's WPK1 container is compressed on two threads and appended
/// directly into the store's [`SegmentWriter`] — header and chunk index
/// in one append, then one append per member, every byte written once
/// (there are no patches left to tear). The crash contract must hold
/// byte-for-byte, and a committed streamed segment must be identical
/// to the buffered container.
#[test]
fn kill_at_every_byte_of_streamed_save_preserves_previous_generation() {
    use lossy_ckpt::core::StreamError;

    // Chunked config: 128-byte chunks, so each rank's
    // segment is a WCK1 stream whose WPK1 container has several
    // members — kills land inside the header/index append and inside
    // and between the members.
    let cfg = CompressorConfig::paper_proposed().with_threads(2).with_chunk_bytes(128);
    let comp = Compressor::new(cfg).unwrap();
    let tensors: Vec<Tensor<f64>> = (0..2u64)
        .map(|r| {
            Tensor::from_fn(&[16, 8], |ix| {
                ((ix[0] * 8 + ix[1]) as f64 * 0.21 + r as f64).sin() * 40.0 + 250.0
            })
            .unwrap()
        })
        .collect();
    let expected: Vec<Vec<u8>> =
        tensors.iter().map(|t| comp.compress(t).unwrap().bytes).collect();
    let expected_refs: Vec<&[u8]> = expected.iter().map(Vec::as_slice).collect();

    let streamed_save = |store: &mut Store, step: u64| {
        store.save_full_streamed(step, SegmentFormat::Array, 2, |rank, writer| {
            comp.compress_stream(&tensors[rank as usize], writer).map_err(|e| match e {
                StreamError::Ckpt(e) => StoreError::Ckpt(e),
                StreamError::Sink(e) => e,
            })?;
            Ok(())
        })
    };

    // Measure one streamed save to enumerate its kill points.
    let total = {
        let dir = scratch("stream-measure");
        let mut store = Store::open(&dir).unwrap();
        store.save_full(1, SegmentFormat::Array, &expected_refs, 1).unwrap();
        store.set_failpoint(None);
        streamed_save(&mut store, 2).unwrap();
        let total = store.bytes_written();
        let _ = fs::remove_dir_all(&dir);
        total
    };
    assert!(total > 0, "a streamed save must write bytes");

    let dir = scratch("stream-sweep");
    for k in 0..=total {
        let _ = fs::remove_dir_all(&dir);
        let mut store = Store::open(&dir).unwrap();
        let g1 = store.save_full(1, SegmentFormat::Array, &expected_refs, 1).unwrap();
        store.set_failpoint(Some(k));
        let outcome = streamed_save(&mut store, 2);
        drop(store);

        let store = Store::open(&dir).unwrap_or_else(|e| panic!("k={k}: reopen failed: {e}"));
        for (rank, expect) in expected.iter().enumerate() {
            let got = store
                .read_segment(g1, rank as u32)
                .unwrap_or_else(|e| panic!("k={k}: gen1 rank {rank}: {e}"));
            assert_eq!(&got, expect, "k={k}: gen1 rank {rank} not bit-exact");
        }
        match store.latest_committed() {
            Some(g) if g == g1 => {
                assert!(
                    outcome.is_err(),
                    "k={k}: streamed save reported success but gen2 is not committed"
                );
                assert!(store.read_segment(g1 + 1, 0).is_err());
            }
            Some(g) => {
                assert_eq!(g, g1 + 1, "k={k}");
                for (rank, expect) in expected.iter().enumerate() {
                    let got = store.read_segment(g, rank as u32).unwrap();
                    assert_eq!(&got, expect, "k={k}: streamed gen2 rank {rank} not bit-exact");
                }
            }
            None => panic!("k={k}: committed gen 1 vanished"),
        }
        let report = store.verify().unwrap();
        assert!(report.clean(), "k={k}: verify problems: {:?}", report.problems);
        let tmp_entries = fs::read_dir(store.root().join("tmp")).unwrap().count();
        assert_eq!(tmp_entries, 0, "k={k}: tmp/ not empty after recovery");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Builds the fixture every maintenance sweep kills mid-flight: a
/// store holding a 4-deep increment chain (full + 3 exact deltas), a
/// fresh full saved after it (the newest application state), and two
/// generations already retired by GC. Returns the store, the newest
/// generation's step, and the tensors the chain tip and the newest
/// full must keep restoring to.
fn maintenance_fixture(dir: &Path) -> (Store, u64, Tensor<f64>, Tensor<f64>) {
    let _ = fs::remove_dir_all(dir);
    let mut store = Store::open(dir).unwrap();
    let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();

    // Two early fulls GC will retire: the manifest then holds retired
    // records the snapshot must prune.
    for step in 0..2u64 {
        let t = Tensor::from_fn(&[10, 3], |ix| (ix[0] * 3 + ix[1]) as f64 + step as f64).unwrap();
        let packed = comp.compress(&t).unwrap().bytes;
        store.save_full(step, SegmentFormat::Array, &[&packed], 1).unwrap();
    }

    // The chain: a lossy full, then exact increments.
    let field = Tensor::from_fn(&[10, 3], |ix| {
        ((ix[0] * 3 + ix[1]) as f64 * 0.31).sin() * 70.0 + 300.0
    })
    .unwrap();
    let packed = comp.compress(&field).unwrap().bytes;
    let mut prev_gen = store.save_full(10, SegmentFormat::Array, &[&packed], 1).unwrap();
    let mut prev = Compressor::decompress(&packed).unwrap();
    for step in 11..=13u64 {
        let mut cur = prev.clone();
        for i in (0..cur.len()).step_by(5) {
            cur.as_mut_slice()[i] += step as f64 * 0.125;
        }
        let (delta, _) = incremental::increment(&prev, &cur, Level::Default).unwrap();
        prev_gen = store.save_increment(step, prev_gen, &[&delta], 1).unwrap();
        prev = cur;
    }
    let chain_tensor = prev;

    // The newest state: a full committed after the chain.
    let newest = Tensor::from_fn(&[10, 3], |ix| {
        ((ix[0] * 3 + ix[1]) as f64 * 0.17).cos() * 55.0 + 410.0
    })
    .unwrap();
    let packed = comp.compress(&newest).unwrap().bytes;
    store.save_full(20, SegmentFormat::Array, &[&packed], 1).unwrap();
    let newest_tensor = Compressor::decompress(&packed).unwrap();

    // keep_fulls = 2 retires the two early fulls but keeps the chain
    // base and the newest full.
    store.gc(2).unwrap();
    (store, 20, chain_tensor, newest_tensor)
}

/// The newest application state must restore bit-exactly from the
/// highest-step live generation, whatever a kill did to maintenance.
fn assert_newest_intact(store: &Store, step: u64, expect: &Tensor<f64>, ctx: &str) {
    let gen = store
        .generations()
        .into_iter()
        .filter(|g| g.committed && g.retired.is_none())
        .max_by_key(|g| (g.step, g.gen))
        .unwrap_or_else(|| panic!("{ctx}: no live generation survived"));
    assert_eq!(gen.step, step, "{ctx}: newest step lost");
    let got = store
        .restore_array(gen.gen, 0)
        .unwrap_or_else(|e| panic!("{ctx}: newest restore failed: {e}"));
    assert!(&got == expect, "{ctx}: newest state not bit-exact");
}

/// Kill-at-every-byte sweep over `compact_manifest`: whatever byte the
/// CSM2 snapshot write or the log truncate dies at, the store reopens
/// (from the old log, or from the new snapshot plus an idempotent log
/// tail), the newest state restores bit-exactly, and a retried
/// compaction completes.
#[test]
fn kill_at_every_byte_of_manifest_compaction() {
    let dir = scratch("compact-manifest-measure");
    let (mut store, _, _, _) = maintenance_fixture(&dir);
    store.set_failpoint(None);
    store.compact_manifest().unwrap();
    let total = store.bytes_written();
    assert!(total > 0, "a manifest compaction must write bytes");
    drop(store);
    let _ = fs::remove_dir_all(&dir);

    let dir = scratch("compact-manifest-sweep");
    for k in 0..=total {
        let (mut store, step, chain_t, newest_t) = maintenance_fixture(&dir);
        let live_before: Vec<_> = store
            .generations()
            .into_iter()
            .filter(|g| g.retired.is_none())
            .collect();
        store.set_failpoint(Some(k));
        let outcome = store.compact_manifest();
        if outcome.is_err() {
            assert!(store.poisoned(), "k={k}: a failed compaction must poison");
        }
        drop(store);

        let store = Store::open(&dir).unwrap_or_else(|e| panic!("k={k}: reopen failed: {e}"));
        assert!(
            !store.open_report().snapshot_fallback,
            "k={k}: a torn compaction must never leave a quarantined snapshot"
        );
        let live_after: Vec<_> =
            store.generations().into_iter().filter(|g| g.retired.is_none()).collect();
        assert_eq!(live_after, live_before, "k={k}: live set changed across the kill");
        assert_newest_intact(&store, step, &newest_t, &format!("k={k}"));
        let report = store.verify().unwrap();
        assert!(report.clean(), "k={k}: verify problems: {:?}", report.problems);
        drop(store);

        // The retried compaction completes and the next open seeds
        // from the snapshot with the same state.
        let mut store = Store::open(&dir).unwrap();
        store.compact_manifest().unwrap_or_else(|e| panic!("k={k}: retry failed: {e}"));
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert!(store.open_report().snapshot_used, "k={k}: retry must install the snapshot");
        assert_newest_intact(&store, step, &newest_t, &format!("k={k} post-retry"));
        let tip = store
            .generations()
            .into_iter()
            .find(|g| g.step == 13 && g.retired.is_none())
            .expect("chain tip survives manifest compaction");
        assert!(store.restore_array(tip.gen, 0).unwrap() == chain_t, "k={k}: chain tip");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Kill-at-every-byte sweep over `compact_chains`: the rewrite save,
/// the durable retire append, and the file deletes each die at every
/// byte. At every kill point a reopen names the step-20 full as
/// latest, and so does a `gc(1)` run on the reopened store: a rewrite
/// keeps its tip's step, so no kill can leave an older state looking
/// newer. A reopen plus one retried pass converges to the compacted
/// shape.
#[test]
fn kill_at_every_byte_of_chain_compaction() {
    let dir = scratch("compact-chains-measure");
    let (mut store, _, _, _) = maintenance_fixture(&dir);
    store.set_failpoint(None);
    let report = store.compact_chains(2, 1).unwrap();
    assert!(!report.rewritten.is_empty(), "fixture must trigger a rewrite");
    let total = store.bytes_written();
    assert!(total > 0);
    drop(store);
    let _ = fs::remove_dir_all(&dir);

    let dir = scratch("compact-chains-sweep");
    let kill = |k: u64| {
        let (mut store, step, chain_t, newest_t) = maintenance_fixture(&dir);
        store.set_failpoint(Some(k));
        let outcome = store.compact_chains(2, 1);
        if outcome.is_err() {
            assert!(store.poisoned(), "k={k}: a failed compaction must poison");
        }
        drop(store);
        let store = Store::open(&dir).unwrap_or_else(|e| panic!("k={k}: reopen failed: {e}"));
        (store, step, chain_t, newest_t)
    };
    for k in 0..=total {
        // Reopen: the newest state is intact and it is what
        // `latest_committed` names.
        let (store, step, chain_t, newest_t) = kill(k);
        assert_newest_intact(&store, step, &newest_t, &format!("k={k}"));
        assert_latest_is_step(&store, step, &format!("k={k}"));
        let report = store.verify().unwrap();
        assert!(report.clean(), "k={k}: verify problems: {:?}", report.problems);
        drop(store);

        // One retried pass converges: latest_committed names the
        // newest step and both surviving states are bit-exact.
        let mut store = Store::open(&dir).unwrap();
        store.compact_chains(2, 1).unwrap_or_else(|e| panic!("k={k}: retry failed: {e}"));
        assert_latest_is_step(&store, step, &format!("k={k} post-retry"));
        let latest = store.latest_committed().unwrap();
        assert!(store.restore_array(latest, 0).unwrap() == newest_t, "k={k}: latest state");
        let tip_state = store
            .generations()
            .into_iter()
            .filter(|g| g.step == 13 && g.committed && g.retired.is_none())
            .map(|g| store.restore_array(g.gen, 0).unwrap())
            .next()
            .unwrap_or_else(|| panic!("k={k}: chain-tip state lost"));
        assert!(tip_state == chain_t, "k={k}: chain tip not bit-exact after retry");
        assert!(store.verify().unwrap().clean(), "k={k}: post-retry verify");
    }

    // The same kill points, then GC on the reopened store: whatever the
    // kill left, keeping one full keeps the newest state.
    for k in 0..=total {
        let (mut store, step, _, newest_t) = kill(k);
        store.gc(1).unwrap_or_else(|e| panic!("k={k}: gc failed: {e}"));
        assert_newest_intact(&store, step, &newest_t, &format!("k={k} after gc"));
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `latest_committed` names a generation of `step`.
fn assert_latest_is_step(store: &Store, step: u64, ctx: &str) {
    let latest = store.latest_committed().unwrap_or_else(|| panic!("{ctx}: no latest"));
    let info = store.generations().into_iter().find(|g| g.gen == latest).unwrap();
    assert_eq!(info.step, step, "{ctx}: latest must name the newest step");
}

/// Builds the GC sweep's fixture: a full with a flipped segment byte
/// (the quarantine phase's work), the chain `f1 ← i1 ← i2` retention
/// will prune as a unit, and the chain `f2 ← i3` it keeps. Returns the
/// store, the damaged generation, the kept chain and the tensor its
/// tip restores to.
fn gc_fixture(dir: &Path) -> (Store, u64, [u64; 2], Tensor<f64>) {
    let _ = fs::remove_dir_all(dir);
    let mut store = Store::open(dir).unwrap();
    let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let field = Tensor::from_fn(&[10, 3], |ix| {
        ((ix[0] * 3 + ix[1]) as f64 * 0.31).sin() * 70.0 + 300.0
    })
    .unwrap();
    let packed = comp.compress(&field).unwrap().bytes;
    let base = Compressor::decompress(&packed).unwrap();
    let bump = |t: &Tensor<f64>, by: f64| {
        let mut cur = t.clone();
        for i in (0..cur.len()).step_by(5) {
            cur.as_mut_slice()[i] += by;
        }
        cur
    };
    let chain = |store: &mut Store, step: u64, incs: u64| {
        let mut gen = store.save_full(step, SegmentFormat::Array, &[&packed], 1).unwrap();
        let (mut gens, mut prev) = (vec![gen], base.clone());
        for k in 1..=incs {
            let cur = bump(&prev, k as f64 * 0.125);
            let (delta, _) = incremental::increment(&prev, &cur, Level::Default).unwrap();
            gen = store.save_increment(step + k, gen, &[&delta], 1).unwrap();
            gens.push(gen);
            prev = cur;
        }
        (gens, prev)
    };

    let damaged = store.save_full(0, SegmentFormat::Array, &[&packed], 1).unwrap();
    chain(&mut store, 10, 2);
    let (kept, kept_tensor) = chain(&mut store, 20, 1);
    let seg = dir.join(format!("segments/{damaged:08}.0.seg"));
    let mut bytes = fs::read(&seg).unwrap();
    bytes[7] ^= 0x40;
    fs::write(&seg, bytes).unwrap();
    (store, damaged, [kept[0], kept[1]], kept_tensor)
}

fn live_gens(store: &Store) -> Vec<u64> {
    let live = store.generations().into_iter().filter(|g| g.committed && g.retired.is_none());
    live.map(|g| g.gen).collect()
}

/// Kill-at-every-byte sweep over `gc`: the retire append, the barrier
/// behind it and the file disposal each die at every byte. Whatever
/// prefix of the retire records became durable, the newest state
/// restores bit-exactly, **every live generation's chain resolves** (a
/// retire never outlives a dependent's: dependents are logged before
/// their bases), and a second pass converges to the unkilled result.
#[test]
fn kill_at_every_byte_of_gc() {
    let dir = scratch("gc-measure");
    let (mut store, damaged, kept, _) = gc_fixture(&dir);
    store.set_failpoint(None);
    let report = store.gc(1).unwrap();
    assert_eq!(report.quarantined, [damaged], "fixture must run the quarantine phase");
    assert_eq!(report.pruned.len(), 3, "fixture must prune the chain f1 <- i1 <- i2");
    assert_eq!(report.retained, kept);
    let total = store.bytes_written();
    assert_eq!(total, 4 * 18, "four 18-byte Retire records");
    drop(store);
    let _ = fs::remove_dir_all(&dir);

    let dir = scratch("gc-sweep");
    let mut stranded_at = Vec::new();
    for k in 0..=total {
        let (mut store, damaged, kept, kept_t) = gc_fixture(&dir);
        store.set_failpoint(Some(k));
        let outcome = store.gc(1);
        if outcome.is_err() {
            assert!(store.poisoned(), "k={k}: a failed gc must poison");
        }
        drop(store);

        let store = Store::open(&dir).unwrap_or_else(|e| panic!("k={k}: reopen failed: {e}"));
        assert_newest_intact(&store, 21, &kept_t, &format!("k={k}"));
        // Only the generation the fixture damaged may fail verification,
        // and only while its quarantine record is not durable yet.
        for (gen, rank, what) in store.verify().unwrap().problems {
            assert_eq!((gen, rank), (damaged, 0), "k={k}: {what}");
        }
        if live_gens(&store).iter().any(|&g| store.resolve_chain(g).is_err()) {
            stranded_at.push(k);
        }
        drop(store);

        // A second pass converges to what the unkilled pass leaves.
        let mut store = Store::open(&dir).unwrap();
        store.gc(1).unwrap_or_else(|e| panic!("k={k}: retry failed: {e}"));
        assert_eq!(live_gens(&store), kept, "k={k}: retried gc must converge");
        assert!(store.verify().unwrap().clean(), "k={k}: post-retry verify");
        assert!(store.restore_array(kept[1], 0).unwrap() == kept_t, "k={k}: kept chain tip");
        assert_eq!(fs::read_dir(dir.join("tmp")).unwrap().count(), 0, "k={k}: tmp/ litter");
    }
    assert!(
        stranded_at.is_empty(),
        "live increments stranded on a retired base after a kill at bytes {stranded_at:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A durable sink whose saves can be killed mid-write by a schedule of
/// byte budgets. A killed save poisons the store; `load_latest`
/// reopens it (running real recovery) before answering, exactly like a
/// restarted process would.
struct StoreSink {
    dir: PathBuf,
    store: Option<Store>,
    /// attempt index → kill budget as a fraction of the image length.
    kills: BTreeMap<usize, f64>,
    attempts: usize,
    /// Every image ever handed to `save`, by step (committed or not).
    attempted: BTreeMap<u64, Vec<u8>>,
    /// Steps whose save returned success.
    succeeded: Vec<u64>,
}

impl StoreSink {
    fn new(dir: PathBuf, kills: BTreeMap<usize, f64>) -> Self {
        StoreSink { dir, store: None, kills, attempts: 0, attempted: BTreeMap::new(), succeeded: Vec::new() }
    }

    fn store(&mut self) -> lossy_ckpt::core::Result<&mut Store> {
        if self.store.as_ref().is_none_or(|s| s.poisoned()) {
            let reopened = Store::open(&self.dir)
                .map_err(|e| lossy_ckpt::core::CkptError::Format(format!("store open: {e}")))?;
            self.store = Some(reopened);
        }
        Ok(self.store.as_mut().expect("just opened"))
    }

    /// Saves `image` as a full at `step`, killed mid-write if the
    /// schedule names this attempt.
    fn save(&mut self, step: u64, image: &[u8]) -> lossy_ckpt::core::Result<()> {
        let attempt = self.attempts;
        self.attempts += 1;
        self.attempted.insert(step, image.to_vec());
        let kill = self.kills.get(&attempt).map(|f| (image.len() as f64 * f) as u64);
        let store = self.store()?;
        store.set_failpoint(kill);
        let result = store.save_full(step, SegmentFormat::Checkpoint, &[image], 1);
        store.set_failpoint(None);
        match result {
            Ok(_) => {
                self.succeeded.push(step);
                Ok(())
            }
            Err(StoreError::Killed) => {
                Err(lossy_ckpt::core::CkptError::Format("killed mid-checkpoint".into()))
            }
            Err(e) => Err(lossy_ckpt::core::CkptError::Format(format!("save: {e}"))),
        }
    }

    /// The newest committed image, after reopening (and so recovering)
    /// a store a killed save poisoned.
    fn load_latest(&mut self) -> lossy_ckpt::core::Result<Option<Vec<u8>>> {
        let store = self.store()?;
        match store.latest_committed() {
            Some(gen) => {
                let bytes = store.read_segment(gen, 0).map_err(|e| {
                    lossy_ckpt::core::CkptError::Format(format!("read gen {gen}: {e}"))
                })?;
                Ok(Some(bytes))
            }
            None => Ok(None),
        }
    }
}

/// What a run under [`run_against`] did.
#[derive(Debug, Default)]
struct Timeline {
    /// Steps whose checkpoint save failed (each a crash and rollback).
    failures: Vec<u64>,
    /// Steps computed, recomputation after rollbacks included.
    computed_steps: u64,
}

/// Runs the climate proxy to `target_step`, saving a raw checkpoint
/// into `sink` every `interval` steps. A failed save is a crash during
/// the checkpoint write: the run rolls back to `sink.load_latest()`,
/// or starts fresh when nothing was committed yet.
fn run_against(
    sink: &mut StoreSink,
    cfg: SimConfig,
    target_step: u64,
    interval: u64,
) -> (ClimateSim, Timeline) {
    let mut sim = ClimateSim::new(cfg);
    let mut timeline = Timeline::default();
    while sim.step_count() < target_step {
        sim.step();
        timeline.computed_steps += 1;
        let step = sim.step_count();
        if !step.is_multiple_of(interval) {
            continue;
        }
        let (image, _) = sim.checkpoint(None).unwrap();
        if sink.save(step, &image).is_ok() {
            continue;
        }
        timeline.failures.push(step);
        sim = match sink.load_latest().unwrap() {
            Some(image) => ClimateSim::restore(cfg, &image).unwrap(),
            None => ClimateSim::new(cfg),
        };
    }
    (sim, timeline)
}

/// End-to-end: the climate proxy checkpoints into a store whose writer
/// is killed mid-save several times. Every kill rolls the run back to
/// the last committed generation; the store stays verifiable and its
/// committed images are bit-exact copies of what the app handed over.
#[test]
fn simulator_survives_kills_mid_checkpoint_write() {
    let dir = scratch("sim");
    // Kill the very first save after 37 bytes (guaranteed mid-segment),
    // a later one mid-manifest (99% of the image), and one in between.
    let kills = BTreeMap::from([(0usize, 0.001f64), (2, 0.5), (4, 0.99)]);
    let mut sink = StoreSink::new(dir.clone(), kills);
    let cfg = SimConfig::small(31);
    let (sim, timeline) = run_against(&mut sink, cfg, 80, 10);

    assert_eq!(sim.step_count(), 80);
    assert_eq!(timeline.failures.len(), 3, "all three scheduled kills must fire");
    assert!(timeline.computed_steps > 80, "kills force recomputation");
    assert!(!sink.succeeded.is_empty());

    // Reopen cold and audit: every committed generation is bit-exact
    // with the image the application handed to save().
    let store = Store::open(&dir).unwrap();
    let report = store.verify().unwrap();
    assert!(report.clean(), "{:?}", report.problems);
    let gens = store.generations();
    let committed: Vec<_> = gens.iter().filter(|g| g.committed && g.retired.is_none()).collect();
    assert!(!committed.is_empty());
    for info in &committed {
        let expect = sink
            .attempted
            .get(&info.step)
            .unwrap_or_else(|| panic!("store has step {} the app never saved", info.step));
        assert_eq!(&store.read_segment(info.gen, 0).unwrap(), expect, "step {}", info.step);
        // The committed image really restores into a simulator.
        let restored = ClimateSim::restore(cfg, &store.read_segment(info.gen, 0).unwrap()).unwrap();
        assert_eq!(restored.step_count(), info.step);
    }
    // The newest committed step can only be the last successful save
    // (or later, if a "killed" save actually reached its commit byte).
    let latest = store.latest_committed().unwrap();
    let latest_step = gens.iter().find(|g| g.gen == latest).unwrap().step;
    assert!(latest_step >= *sink.succeeded.last().unwrap());
    let _ = fs::remove_dir_all(&dir);
}

/// GC under the application workload: after many generations, pruning
/// keeps the newest fulls and the run's restart images stay readable.
#[test]
fn gc_after_simulated_run_keeps_latest_restorable() {
    let dir = scratch("gc");
    let mut sink = StoreSink::new(dir.clone(), BTreeMap::new());
    let cfg = SimConfig::small(32);
    run_against(&mut sink, cfg, 100, 10);

    let mut store = Store::open(&dir).unwrap();
    let before = store.generations().len();
    assert!(before >= 10);
    let report = store.gc(3).unwrap();
    assert_eq!(report.retained.len(), 3);
    assert_eq!(report.pruned.len(), before - 3);
    let latest = store.latest_committed().unwrap();
    let image = store.read_segment(latest, 0).unwrap();
    let restored = ClimateSim::restore(cfg, &image).unwrap();
    assert_eq!(restored.step_count(), 100);
    let _ = fs::remove_dir_all(&dir);
}
