//! The checkpoint repository: open-time recovery, atomic multi-rank
//! saves, chain-resolving restores, and verification.

use crate::failpoint::FailPoint;
use crate::layout::{self, Layout};
use crate::manifest::{self, Record, RetireReason, SegmentFormat};
use crate::segment;
use crate::snapshot::{PinSet, Snapshot};
use crate::{Result, StoreError};
use ckpt_core::checkpoint::Checkpoint;
use ckpt_core::incremental;
use ckpt_core::Compressor;
use ckpt_deflate::frame;
use ckpt_tensor::Tensor;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::sync::Arc;

/// Longest base chain restore will follow before declaring a cycle.
const MAX_CHAIN: usize = 1024;

/// Per-rank metadata from a committed `Seg` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegMeta {
    pub payload_len: u64,
    pub crc: u32,
}

/// In-memory state of one generation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GenState {
    pub step: u64,
    pub format: SegmentFormat,
    pub base_gen: u64,
    pub segs: Vec<Option<SegMeta>>,
    pub committed: bool,
    pub retired: Option<RetireReason>,
    /// Lossy error bound the generation was compressed under, from a
    /// `Bound` manifest record (`ckpt store save --error-bound`).
    pub error_bound: Option<f64>,
}

/// What a generation about to be committed says about itself: the
/// fields of its `Begin` and `Bound` records.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GenHead {
    pub gen: u64,
    pub step: u64,
    pub format: SegmentFormat,
    /// Base generation (== `gen` for full generations).
    pub base_gen: u64,
    pub error_bound: Option<f64>,
}

impl GenState {
    /// Committed and not retired: eligible for restore.
    pub fn live(&self) -> bool {
        self.committed && self.retired.is_none()
    }
}

/// Public listing entry for one generation.
#[derive(Debug, Clone, PartialEq)]
pub struct GenInfo {
    pub gen: u64,
    pub step: u64,
    pub format: SegmentFormat,
    /// Base generation (== `gen` for full generations).
    pub base_gen: u64,
    pub ranks: u32,
    /// Total committed payload bytes across ranks.
    pub bytes: u64,
    pub committed: bool,
    pub retired: Option<RetireReason>,
    /// Lossy error bound recorded at save time, when one was set.
    pub error_bound: Option<f64>,
}

/// What open-time recovery had to do.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Torn manifest bytes truncated away.
    pub truncated_bytes: u64,
    /// Generations rolled back (Begin without Commit).
    pub rolled_back_gens: Vec<u64>,
    /// Segment files swept to `quarantine/` (orphans and rollbacks).
    pub quarantined_files: Vec<String>,
    /// Staging files removed from `tmp/`.
    pub tmp_files_removed: usize,
    /// A `CSM2` snapshot seeded recovery (log replay covered only the
    /// tail appended since the last `compact_manifest`).
    pub snapshot_used: bool,
    /// A snapshot file existed but was damaged: it was quarantined and
    /// recovery fell back to full log replay.
    pub snapshot_fallback: bool,
}

/// What one [`Store::compact_manifest`] run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactManifestReport {
    /// Generations captured in the snapshot.
    pub snapshot_gens: usize,
    /// Fully-dead generations (retired, no segment files left) dropped
    /// from the snapshot and the in-memory map.
    pub pruned_gens: usize,
    /// Size of the snapshot file written.
    pub snapshot_bytes: u64,
    /// Log bytes the truncation reclaimed.
    pub log_bytes_truncated: u64,
}

/// Verification outcome; `problems` is empty for a healthy store.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// (generation, rank) pairs whose segments were checked.
    pub segments_checked: usize,
    /// (gen, rank, what) triples describing each corruption found.
    pub problems: Vec<(u64, u32, String)>,
}

impl VerifyReport {
    /// True when every committed segment checked out.
    pub fn clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// A crash-consistent checkpoint repository rooted at one directory.
#[derive(Debug)]
pub struct Store {
    layout: Layout,
    gens: BTreeMap<u64, GenState>,
    next_gen: u64,
    pub(crate) poisoned: bool,
    pub(crate) failpoint: FailPoint,
    open_report: OpenReport,
    /// Generations pinned by live [`Snapshot`]s; GC refuses to retire
    /// them (see `crate::snapshot`).
    pins: Arc<PinSet>,
}

impl Store {
    /// Opens (or creates) a store, running crash recovery: truncate
    /// any torn manifest tail, roll back uncommitted generations,
    /// sweep orphaned segments to quarantine, and clear `tmp/`.
    pub fn open(root: impl AsRef<std::path::Path>) -> Result<Store> {
        let layout = Layout::new(root);
        layout.create_dirs()?;
        let mut report = OpenReport::default();

        // Create the manifest header durably before anything else.
        if !layout.manifest.exists() {
            let mut f = fs::File::create(&layout.manifest)?;
            f.write_all(&manifest::header_bytes())?;
            f.sync_all()?;
            layout::fsync_dir(&layout.root)?;
        }
        let bytes = fs::read(&layout.manifest)?;
        let scan = manifest::parse_manifest(&bytes)?;

        // 1. Torn tail → truncate back to the last valid record.
        if scan.valid_len < bytes.len() {
            report.truncated_bytes = (bytes.len() - scan.valid_len) as u64;
            let f = fs::OpenOptions::new().write(true).open(&layout.manifest)?;
            f.set_len(scan.valid_len as u64)?;
            f.sync_all()?;
        }

        // 2a. Seed state from the `CSM2` snapshot when one exists, so
        // replay only covers the log tail appended since the last
        // `compact_manifest`. The snapshot parser is all-or-nothing; a
        // damaged snapshot is quarantined (never deleted) and recovery
        // falls back to full log replay.
        let mut gens: BTreeMap<u64, GenState> = BTreeMap::new();
        let mut snap_next_gen = 0u64;
        if layout.snapshot.exists() {
            let parsed = frame::read_file_bounded(&layout.snapshot, &frame::CSM2)
                .map_err(StoreError::from)
                .and_then(|b| manifest::parse_snapshot(&b));
            match parsed {
                Ok((next, snap_gens)) => {
                    snap_next_gen = next;
                    gens = snap_gens;
                    report.snapshot_used = true;
                }
                Err(_) => {
                    let dst = layout.quarantine_path(layout::SNAPSHOT_FILE);
                    let _ = fs::rename(&layout.snapshot, &dst);
                    report.snapshot_fallback = true;
                }
            }
        }

        // 2b. Interpret the valid log prefix on top. Replay is
        // idempotent over snapshot state: `Begin` keeps an existing
        // entry, the rest re-apply what the snapshot already captured.
        let mut max_gen = 0u64;
        for rec in &scan.records {
            max_gen = max_gen.max(rec.gen());
            match *rec {
                Record::Begin { gen, step, format, base_gen, ranks } => {
                    gens.entry(gen).or_insert_with(|| GenState {
                        step,
                        format,
                        base_gen,
                        segs: vec![None; ranks as usize],
                        committed: false,
                        retired: None,
                        error_bound: None,
                    });
                }
                Record::Seg { gen, rank, payload_len, crc } => {
                    if let Some(g) = gens.get_mut(&gen) {
                        if let Some(slot) = g.segs.get_mut(rank as usize) {
                            *slot = Some(SegMeta { payload_len, crc });
                        }
                    }
                }
                Record::Commit { gen } => {
                    if let Some(g) = gens.get_mut(&gen) {
                        if g.segs.iter().all(Option::is_some) {
                            g.committed = true;
                        }
                    }
                }
                Record::Retire { gen, reason } => {
                    if let Some(g) = gens.get_mut(&gen) {
                        g.retired = Some(reason);
                    }
                }
                Record::Bound { gen, eps_bits } => {
                    if let Some(g) = gens.get_mut(&gen) {
                        g.error_bound = Some(f64::from_bits(eps_bits));
                    }
                }
            }
        }

        // 3. Roll back uncommitted generations. The single-writer save
        // path appends a generation's records in one write, so
        // uncommitted generations can only be a contiguous tail; if
        // that holds, drop their records from the manifest too.
        let dead: Vec<u64> =
            gens.iter().filter(|(_, g)| !g.committed).map(|(&gen, _)| gen).collect();
        if !dead.is_empty() {
            let mut cut = scan.records.len();
            while cut > 0 && dead.contains(&scan.records[cut - 1].gen()) {
                cut -= 1;
            }
            let tail_only =
                scan.records[cut..].iter().all(|r| dead.contains(&r.gen()))
                    && scan.records[..cut].iter().all(|r| !dead.contains(&r.gen()));
            if tail_only && cut < scan.records.len() {
                let keep = scan.offsets[cut] as u64;
                let f = fs::OpenOptions::new().write(true).open(&layout.manifest)?;
                f.set_len(keep)?;
                f.sync_all()?;
            }
            for gen in &dead {
                gens.remove(gen);
                report.rolled_back_gens.push(*gen);
            }
        }

        // 4. Sweep segment files nothing live (or retired-by-record)
        // refers to: leftovers of killed saves. Quarantine, never
        // delete — if the manifest ever regresses, the bytes survive.
        if let Ok(entries) = fs::read_dir(&layout.segments) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let known = layout::parse_segment_name(&name).is_some_and(|(gen, rank)| {
                    gens.get(&gen).is_some_and(|g| {
                        g.retired.is_none() && (rank as usize) < g.segs.len()
                    })
                });
                if !known {
                    let dst = layout.quarantine_path(&name);
                    if fs::rename(entry.path(), &dst).is_ok() {
                        report.quarantined_files.push(name);
                    }
                }
            }
        }

        // 5. Staging files were never renamed, so nothing refers to
        // them; remove them outright.
        if let Ok(entries) = fs::read_dir(&layout.tmp) {
            for entry in entries.flatten() {
                if fs::remove_file(entry.path()).is_ok() {
                    report.tmp_files_removed += 1;
                }
            }
        }

        report.rolled_back_gens.sort_unstable();
        report.quarantined_files.sort_unstable();
        Ok(Store {
            layout,
            gens,
            next_gen: snap_next_gen.max(max_gen + 1),
            poisoned: false,
            failpoint: FailPoint::unlimited(),
            open_report: report,
            pins: PinSet::new(),
        })
    }

    /// What recovery did when this store was opened.
    pub fn open_report(&self) -> &OpenReport {
        &self.open_report
    }

    /// The store's root directory.
    pub fn root(&self) -> &std::path::Path {
        &self.layout.root
    }

    /// Arms (or disarms, with `None`) the kill fail point for
    /// subsequent saves. Test instrumentation.
    pub fn set_failpoint(&mut self, kill_after_bytes: Option<u64>) {
        self.failpoint = match kill_after_bytes {
            Some(n) => FailPoint::after_bytes(n),
            None => FailPoint::unlimited(),
        };
    }

    /// Bytes written through the current fail point (measure a save
    /// with an unlimited fail point to enumerate its kill points).
    pub fn bytes_written(&self) -> u64 {
        self.failpoint.bytes_written()
    }

    /// True after a failed save: disk may hold a torn write the
    /// in-memory view does not know about. Every mutating or reading
    /// operation refuses until the store is reopened.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    pub(crate) fn guard(&self) -> Result<()> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        Ok(())
    }

    /// Saves a full generation (one payload per rank) and commits it
    /// atomically. Returns the new generation id. Rank segment writes
    /// fan out over `threads` pool workers.
    pub fn save_full(
        &mut self,
        step: u64,
        format: SegmentFormat,
        payloads: &[&[u8]],
        threads: usize,
    ) -> Result<u64> {
        if format == SegmentFormat::Increment {
            return Err(StoreError::Chain(
                "save_full cannot write increments; use save_increment".into(),
            ));
        }
        self.save(step, format, 0, payloads, threads, None)
    }

    /// Like [`Store::save_full`], but also records the lossy error
    /// bound the payloads were compressed under (a `Bound` manifest
    /// record inside the same atomic commit append), so a serving
    /// layer can report each generation's error budget.
    pub fn save_full_bounded(
        &mut self,
        step: u64,
        format: SegmentFormat,
        payloads: &[&[u8]],
        threads: usize,
        error_bound: f64,
    ) -> Result<u64> {
        if format == SegmentFormat::Increment {
            return Err(StoreError::Chain(
                "save_full_bounded cannot write increments; use save_increment".into(),
            ));
        }
        if !error_bound.is_finite() || error_bound < 0.0 {
            return Err(StoreError::Chain(format!(
                "error bound must be finite and non-negative, got {error_bound}"
            )));
        }
        self.save(step, format, 0, payloads, threads, Some(error_bound))
    }

    /// Saves an incremental generation whose per-rank `INC1` payloads
    /// were built against generation `base_gen` (which must be live
    /// and itself an array or increment generation with the same rank
    /// count).
    pub fn save_increment(
        &mut self,
        step: u64,
        base_gen: u64,
        payloads: &[&[u8]],
        threads: usize,
    ) -> Result<u64> {
        self.guard()?;
        let base = self
            .gens
            .get(&base_gen)
            .ok_or_else(|| StoreError::Chain(format!("base generation {base_gen} not found")))?;
        if !base.live() {
            return Err(StoreError::Chain(format!(
                "base generation {base_gen} is not committed and live"
            )));
        }
        if base.format == SegmentFormat::Checkpoint {
            return Err(StoreError::Chain(
                "increments chain onto array generations, not checkpoint images".into(),
            ));
        }
        if base.segs.len() != payloads.len() {
            return Err(StoreError::Chain(format!(
                "increment has {} ranks, base generation {base_gen} has {}",
                payloads.len(),
                base.segs.len()
            )));
        }
        self.save(step, SegmentFormat::Increment, base_gen, payloads, threads, None)
    }

    /// Saves a full generation whose per-rank payloads are **produced
    /// while they are written**: for each rank, `producer` receives a
    /// [`SegmentWriter`](segment::SegmentWriter) and streams the
    /// payload into it (e.g. via `Compressor::compress_stream`), so
    /// store I/O for early chunks overlaps compression of later ones.
    /// Only phase 1 differs from [`Store::save_full`] — every segment
    /// still goes tmp → fsync → rename before the one commit engine
    /// appends the generation — and the committed bytes are exactly
    /// what the producer streamed.
    ///
    /// Any producer or I/O error (including an injected kill) poisons
    /// the store, like a failed [`Store::save_full`].
    pub fn save_full_streamed<F>(
        &mut self,
        step: u64,
        format: SegmentFormat,
        ranks: u32,
        mut producer: F,
    ) -> Result<u64>
    where
        F: FnMut(u32, &mut segment::SegmentWriter<'_>) -> Result<()>,
    {
        self.guard()?;
        if format == SegmentFormat::Increment {
            return Err(StoreError::Chain(
                "save_full_streamed cannot write increments; use save_increment".into(),
            ));
        }
        if ranks == 0 {
            return Err(StoreError::NotFound("a save needs at least one rank payload".into()));
        }
        let gen = self.next_gen;
        // Phase 1: stream each rank's segment; the producer drives its
        // own intra-rank parallelism.
        let stream_segments = |layout: &Layout, fp: &FailPoint| {
            (0..ranks)
                .map(|rank| {
                    let mut w = segment::SegmentWriter::create(layout, gen, rank, fp, true)?;
                    producer(rank, &mut w)?;
                    if w.is_empty() {
                        return Err(StoreError::NotFound(format!(
                            "streamed save produced an empty payload for rank {rank}"
                        )));
                    }
                    w.finish()
                })
                .collect()
        };
        let head = GenHead { gen, step, format, base_gen: gen, error_bound: None };
        self.commit_generation(head, stream_segments)
    }

    /// Commits slice-fed payloads under a fresh generation id.
    pub(crate) fn save(
        &mut self,
        step: u64,
        format: SegmentFormat,
        base_gen: u64,
        payloads: &[&[u8]],
        threads: usize,
        error_bound: Option<f64>,
    ) -> Result<u64> {
        let gen = self.next_gen;
        let base_gen = if format == SegmentFormat::Increment { base_gen } else { gen };
        self.commit_payloads(GenHead { gen, step, format, base_gen, error_bound }, payloads, threads)
    }

    /// Commits one payload slice per rank as generation `head.gen`.
    pub(crate) fn commit_payloads(
        &mut self,
        head: GenHead,
        payloads: &[&[u8]],
        threads: usize,
    ) -> Result<u64> {
        self.guard()?;
        if payloads.is_empty() {
            return Err(StoreError::NotFound("a save needs at least one rank payload".into()));
        }
        if payloads.len() > u32::MAX as usize {
            return Err(StoreError::Chain("rank count exceeds the u32 manifest field".into()));
        }
        let gen = head.gen;
        // Phase 1: one segment per rank, fanned over pool workers
        // (clamped to the host so oversubscription never pays for idle
        // threads). Each payload is handed to its writer as the slice
        // it is: one append, one CRC pass.
        let write_segments = |layout: &Layout, fp: &FailPoint| {
            let ranks: Vec<(u32, &[u8])> = (0u32..).zip(payloads.iter().copied()).collect();
            let workers = ckpt_pool::clamp_workers(threads, ranks.len());
            let shards = ckpt_pool::map_shards(&ranks, workers, |_, shard| {
                shard
                    .iter()
                    .map(|&(rank, payload)| segment::write_payload(layout, gen, rank, payload, fp))
                    .collect::<Result<Vec<SegMeta>>>()
            });
            let mut metas = Vec::with_capacity(ranks.len());
            for shard in shards {
                metas.extend(shard?);
            }
            Ok(metas)
        };
        self.commit_generation(head, write_segments)
    }

    /// The one generation-commit body. `write_segments` is phase 1: it
    /// publishes every rank's segment file (tmp → fsync → rename) and
    /// returns their `Seg` metadata in rank order. Everything after is
    /// here, once: kill barrier, segments-directory fsync, the
    /// `Begin`/`Seg`…/`Bound`/`Commit` records in a single manifest
    /// append + fsync, and — only once disk is durable — the in-memory
    /// view. Any error poisons the store: a failed save is a simulated
    /// crash, so it runs no cleanup and requires a reopen (which
    /// performs real recovery).
    fn commit_generation(
        &mut self,
        head: GenHead,
        write_segments: impl FnOnce(&Layout, &FailPoint) -> Result<Vec<SegMeta>>,
    ) -> Result<u64> {
        let GenHead { gen, step, format, base_gen, error_bound } = head;
        let durable = || -> Result<Vec<SegMeta>> {
            let metas = write_segments(&self.layout, &self.failpoint)?;
            self.failpoint.check()?;
            layout::fsync_dir(&self.layout.segments)?;

            // Phase 2: one buffered manifest append, then fsync.
            let mut records = Vec::with_capacity(metas.len() + 3);
            records.push(Record::Begin { gen, step, format, base_gen, ranks: metas.len() as u32 });
            for (rank, meta) in (0u32..).zip(&metas) {
                records.push(Record::Seg { gen, rank, payload_len: meta.payload_len, crc: meta.crc });
            }
            if let Some(eps) = error_bound {
                records.push(Record::Bound { gen, eps_bits: eps.to_bits() });
            }
            records.push(Record::Commit { gen });
            self.append_records(&records)?;
            Ok(metas)
        };
        let metas = match durable() {
            Ok(metas) => metas,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        self.gens.insert(
            gen,
            GenState {
                step,
                format,
                base_gen,
                segs: metas.into_iter().map(Some).collect(),
                committed: true,
                retired: None,
                error_bound,
            },
        );
        self.next_gen = self.next_gen.max(gen + 1);
        Ok(gen)
    }

    /// Appends records to the manifest in a single write + fsync,
    /// through the fail point.
    fn append_records(&self, records: &[Record]) -> Result<()> {
        let mut buf = Vec::new();
        for r in records {
            buf.extend_from_slice(&manifest::encode_record(r));
        }
        let mut f = fs::OpenOptions::new().append(true).open(&self.layout.manifest)?;
        self.failpoint.write_all(&mut f, &buf)?;
        self.failpoint.check()?;
        f.sync_all()?;
        Ok(())
    }

    /// Writes a `CSM2` snapshot of the live store state and truncates
    /// the `CSM1` log back to its header, so the next open replays
    /// O(live generations) instead of every record ever appended.
    ///
    /// Fully-dead generations — retired, with every segment file
    /// already deleted — are dropped entirely: nothing on disk refers
    /// to them (a live chain may only pass through live generations),
    /// so they would only bloat every future snapshot.
    ///
    /// Crash-safe at every byte: the snapshot goes tmp → fsync →
    /// rename before the log is touched, so a kill leaves either the
    /// old state (log intact) or the new snapshot plus a log tail that
    /// replays idempotently on top of it. Like a failed save, an error
    /// poisons the store.
    pub fn compact_manifest(&mut self) -> Result<CompactManifestReport> {
        self.guard()?;

        // Stage the pruned map without touching `self` yet: nothing is
        // mutated (memory or disk) until the size guard passes.
        let mut live_map = self.gens.clone();
        live_map.retain(|&gen, g| {
            g.retired.is_none()
                || (0..g.segs.len() as u32).any(|rank| self.layout.segment_path(gen, rank).exists())
        });
        let pruned_gens = self.gens.len() - live_map.len();
        let bytes = manifest::encode_snapshot(self.next_gen, &live_map)?;

        match self.write_snapshot(&bytes) {
            Ok(log_bytes_truncated) => {
                self.gens = live_map;
                Ok(CompactManifestReport {
                    snapshot_gens: self.gens.len(),
                    pruned_gens,
                    snapshot_bytes: bytes.len() as u64,
                    log_bytes_truncated,
                })
            }
            Err(e) => {
                // A failed compaction is a simulated crash: run no
                // cleanup, require a reopen (which performs recovery).
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Durably installs a snapshot image, then truncates the log.
    /// Returns the log bytes reclaimed.
    fn write_snapshot(&self, bytes: &[u8]) -> Result<u64> {
        let tmp = self.layout.meta_tmp_path(layout::SNAPSHOT_FILE);
        layout::durable_replace(&tmp, &self.layout.snapshot, bytes, &self.failpoint)?;
        self.failpoint.check()?;

        // The snapshot is durable; the log records it subsumes can go.
        let log_len = fs::metadata(&self.layout.manifest)?.len();
        let f = fs::OpenOptions::new().write(true).open(&self.layout.manifest)?;
        f.set_len(manifest::HEADER_LEN as u64)?;
        f.sync_all()?;
        Ok(log_len.saturating_sub(manifest::HEADER_LEN as u64))
    }

    /// Lists every generation the manifest knows, ascending.
    pub fn generations(&self) -> Vec<GenInfo> {
        gen_infos(&self.gens)
    }

    /// Opens an immutable epoch-pinned snapshot of the committed state:
    /// every currently-live generation is pinned against GC until the
    /// snapshot is dropped, and reads through the snapshot need no
    /// `&Store` — any number of concurrent restores can proceed while
    /// this store keeps saving.
    pub fn snapshot(&self) -> Result<Snapshot> {
        self.guard()?;
        let live: BTreeMap<u64, GenState> = self
            .gens
            .iter()
            .filter(|(_, g)| g.live())
            .map(|(&gen, g)| (gen, g.clone()))
            .collect();
        Ok(Snapshot::pin(self.layout.clone(), live, Arc::clone(&self.pins)))
    }

    /// The pin registry shared with this store's snapshots.
    pub(crate) fn pins(&self) -> &Arc<PinSet> {
        &self.pins
    }

    /// Number of snapshots currently holding pins.
    pub fn live_snapshots(&self) -> usize {
        self.pins.live_snapshots()
    }

    /// The newest live generation, if any.
    pub fn latest_committed(&self) -> Option<u64> {
        self.gens.iter().rev().find(|(_, g)| g.live()).map(|(&gen, _)| gen)
    }

    /// The newest live *full* generation (restorable without a chain).
    pub fn latest_full(&self) -> Option<u64> {
        self.gens
            .iter()
            .rev()
            .find(|(_, g)| g.live() && g.format != SegmentFormat::Increment)
            .map(|(&gen, _)| gen)
    }

    pub(crate) fn gen_state(&self, gen: u64) -> Result<&GenState> {
        self.gens
            .get(&gen)
            .ok_or_else(|| StoreError::NotFound(format!("generation {gen}")))
    }

    pub(crate) fn gens_mut(&mut self) -> &mut BTreeMap<u64, GenState> {
        &mut self.gens
    }

    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    pub(crate) fn append_retires(&self, gens: &[(u64, RetireReason)]) -> Result<()> {
        let records: Vec<Record> =
            gens.iter().map(|&(gen, reason)| Record::Retire { gen, reason }).collect();
        self.append_records(&records)
    }

    /// Reads one committed segment, CRC-checked against the manifest.
    pub fn read_segment(&self, gen: u64, rank: u32) -> Result<Vec<u8>> {
        self.guard()?;
        read_segment_in(&self.layout, &self.gens, gen, rank)
    }

    /// Resolves the recovery chain of `(gen, rank)`: the generations
    /// to replay, base-first (a full generation resolves to itself).
    pub fn resolve_chain(&self, gen: u64) -> Result<Vec<u64>> {
        self.guard()?;
        resolve_chain_in(&self.gens, gen)
    }

    /// Reads every payload of the recovery chain, base-first.
    pub fn restore_chain(&self, gen: u64, rank: u32) -> Result<Vec<Vec<u8>>> {
        self.resolve_chain(gen)?
            .into_iter()
            .map(|g| self.read_segment(g, rank))
            .collect()
    }

    /// Restores a full checkpoint image (format `Checkpoint`).
    pub fn restore_checkpoint(&self, gen: u64, rank: u32) -> Result<Checkpoint> {
        self.guard()?;
        restore_checkpoint_in(&self.layout, &self.gens, gen, rank)
    }

    /// Materializes an array generation: decompresses the chain's base
    /// `WCK1` stream and applies each `INC1` increment in order.
    pub fn restore_array(&self, gen: u64, rank: u32) -> Result<Tensor<f64>> {
        self.guard()?;
        restore_array_in(&self.layout, &self.gens, gen, rank)
    }

    /// Checks every live generation's segments against the manifest
    /// (length + CRC) and their declared format against the hardened
    /// decoders. Read-only; never modifies the store.
    pub fn verify(&self) -> Result<VerifyReport> {
        self.guard()?;
        let mut report = VerifyReport::default();
        for (&gen, g) in &self.gens {
            if !g.live() {
                continue;
            }
            for rank in 0..g.segs.len() as u32 {
                report.segments_checked += 1;
                let check = self
                    .read_segment(gen, rank)
                    .and_then(|bytes| segment::verify_payload(g.format, &bytes));
                if let Err(e) = check {
                    report.problems.push((gen, rank, e.to_string()));
                }
            }
        }
        Ok(report)
    }
}

// Read-path logic shared between `Store` (which guards on poison) and
// `Snapshot` (which owns an immutable clone of the live state and
// needs no store reference at all): both views are just a layout plus
// a generation map.

/// Listing over any generation map.
pub(crate) fn gen_infos(gens: &BTreeMap<u64, GenState>) -> Vec<GenInfo> {
    gens.iter()
        .map(|(&gen, g)| GenInfo {
            gen,
            step: g.step,
            format: g.format,
            base_gen: g.base_gen,
            ranks: g.segs.len() as u32,
            bytes: g.segs.iter().flatten().map(|s| s.payload_len).sum(),
            committed: g.committed,
            retired: g.retired,
            error_bound: g.error_bound,
        })
        .collect()
}

fn state_of(gens: &BTreeMap<u64, GenState>, gen: u64) -> Result<&GenState> {
    gens.get(&gen).ok_or_else(|| StoreError::NotFound(format!("generation {gen}")))
}

/// Reads one committed segment, CRC-checked against the manifest view.
pub(crate) fn read_segment_in(
    layout: &Layout,
    gens: &BTreeMap<u64, GenState>,
    gen: u64,
    rank: u32,
) -> Result<Vec<u8>> {
    let g = state_of(gens, gen)?;
    if !g.live() {
        return Err(StoreError::NotFound(format!("generation {gen} is not committed and live")));
    }
    let meta = seg_meta(g, gen, rank)?;
    segment::read_segment(layout, gen, rank, meta.payload_len, meta.crc)
}

/// The `Seg` metadata for one rank of a generation.
pub(crate) fn seg_meta(g: &GenState, gen: u64, rank: u32) -> Result<SegMeta> {
    g.segs
        .get(rank as usize)
        .and_then(|s| *s)
        .ok_or_else(|| StoreError::NotFound(format!("gen {gen} rank {rank}")))
}

/// Chain resolution over any generation map, base-first.
pub(crate) fn resolve_chain_in(gens: &BTreeMap<u64, GenState>, gen: u64) -> Result<Vec<u64>> {
    let mut chain = vec![];
    let mut cur = gen;
    for _ in 0..MAX_CHAIN {
        let g = state_of(gens, cur)?;
        if !g.live() {
            return Err(StoreError::Chain(format!(
                "chain for generation {gen} needs generation {cur}, which is not live"
            )));
        }
        chain.push(cur);
        if g.format != SegmentFormat::Increment {
            chain.reverse();
            return Ok(chain);
        }
        cur = g.base_gen;
    }
    Err(StoreError::Chain(format!("chain for generation {gen} exceeds {MAX_CHAIN} links")))
}

/// Checkpoint-image restore over any generation map.
pub(crate) fn restore_checkpoint_in(
    layout: &Layout,
    gens: &BTreeMap<u64, GenState>,
    gen: u64,
    rank: u32,
) -> Result<Checkpoint> {
    let g = state_of(gens, gen)?;
    if g.format != SegmentFormat::Checkpoint {
        return Err(StoreError::Chain(format!(
            "generation {gen} holds {} payloads, not checkpoint images",
            g.format.name()
        )));
    }
    Ok(Checkpoint::from_bytes(&read_segment_in(layout, gens, gen, rank)?)?)
}

/// Array restore (chain replay) over any generation map.
pub(crate) fn restore_array_in(
    layout: &Layout,
    gens: &BTreeMap<u64, GenState>,
    gen: u64,
    rank: u32,
) -> Result<Tensor<f64>> {
    let chain = resolve_chain_in(gens, gen)?;
    let base_gen = *chain.first().ok_or_else(|| StoreError::Chain("empty chain".into()))?;
    if state_of(gens, base_gen)?.format != SegmentFormat::Array {
        return Err(StoreError::Chain(format!(
            "chain base generation {base_gen} is not an array generation"
        )));
    }
    let mut tensor = Compressor::decompress(&read_segment_in(layout, gens, base_gen, rank)?)?;
    for &g in chain.get(1..).unwrap_or(&[]) {
        tensor = incremental::apply(&tensor, &read_segment_in(layout, gens, g, rank)?)?;
    }
    Ok(tensor)
}
