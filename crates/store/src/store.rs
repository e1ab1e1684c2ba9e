//! The checkpoint repository: open-time recovery, atomic multi-rank
//! saves, chain-resolving restores, and verification.

use crate::failpoint::{Durable, FailPoint, Renamed};
use crate::layout::{self, Layout};
use crate::manifest::{self, Record, RetireReason, SegmentFormat};
use crate::segment;
use crate::snapshot::{PinSet, Snapshot};
use std::cmp::Reverse;
use crate::{Result, StoreError};
use ckpt_core::incremental;
use ckpt_core::Compressor;
use ckpt_deflate::frame;
use ckpt_tensor::Tensor;
use std::collections::BTreeMap;
use std::fs;
use std::sync::Arc;

/// Longest base chain restore will follow before declaring a cycle.
const MAX_CHAIN: usize = 1024;

/// What one rank's `Seg` record states: the committed payload's length
/// and CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegRecord {
    pub payload_len: u64,
    pub crc: u32,
}

/// In-memory state of one generation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GenState {
    pub step: u64,
    pub format: SegmentFormat,
    pub base_gen: u64,
    pub segs: Vec<Option<SegRecord>>,
    pub committed: bool,
    pub retired: Option<RetireReason>,
    /// Lossy error bound the generation was compressed under, from a
    /// `Bound` manifest record (`ckpt store save --error-bound`).
    pub error_bound: Option<f64>,
}

/// What a generation about to be committed says about itself: the
/// fields of its `Begin` and `Bound` records.
#[derive(Debug, Clone, Copy)]
struct GenHead {
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
    /// What reads see: the layout and the generation map, which changes
    /// only in [`Store::log`] — by [`manifest::apply`] of records that
    /// are already durable — so it always equals what a reopen replays.
    pub(crate) view: View,
    next_gen: u64,
    poisoned: bool,
    pub(crate) failpoint: FailPoint,
    open_report: OpenReport,
    /// Generations pinned by live [`Snapshot`]s; GC refuses to retire
    /// them (see `crate::snapshot`).
    pub(crate) pins: Arc<PinSet>,
}

impl Store {
    /// Opens (or creates) a store, running crash recovery: truncate
    /// any torn manifest tail, roll back uncommitted generations,
    /// sweep orphaned segments to quarantine, and clear `tmp/`.
    pub fn open(root: impl AsRef<std::path::Path>) -> Result<Store> {
        Store::open_with(root, &FailPoint::unlimited())
    }

    /// [`Store::open`] with every disk operation through `fp`, so tests
    /// can kill the open itself.
    pub(crate) fn open_with(root: impl AsRef<std::path::Path>, fp: &FailPoint) -> Result<Store> {
        let layout = Layout::new(root);
        layout.create_dirs()?;
        let mut report = OpenReport::default();

        // Create the manifest header durably before anything else,
        // staged: a kill leaves no manifest or a whole header, never a
        // torn one.
        if !layout.manifest.exists() {
            let staging = layout.meta_tmp_path(layout::MANIFEST_FILE);
            fp.durable_replace(&staging, &layout.manifest, &manifest::header_bytes())?;
        }
        let mut on_disk = 0;
        let scan = Durable::read(&layout.manifest, |bytes| {
            on_disk = bytes.len();
            manifest::parse_manifest(bytes)
        })?;

        // 1. Torn tail → truncate back to the last valid record.
        if scan.valid_len < on_disk {
            report.truncated_bytes = (on_disk - scan.valid_len) as u64;
            fp.truncate(&layout.manifest, scan.valid_len as u64, &scan)?;
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
                    let _ = fp.quarantine(&layout.snapshot, &dst, &scan)?;
                    report.snapshot_fallback = true;
                }
            }
        }

        // 2b. Interpret the valid log prefix on top, through the one
        // interpreter every live operation runs after its append.
        // Replay is idempotent over snapshot state: `Begin` keeps an
        // existing entry, the rest re-apply what the snapshot captured.
        let offsets = scan.offsets.clone();
        let records = scan.map(|scan| scan.records.into_boxed_slice());
        manifest::apply(&mut gens, &records);
        let max_gen = records.iter().map(Record::gen).max().unwrap_or(0);

        // 3. Roll back uncommitted generations. The single-writer save
        // path appends a generation's records in one write, so
        // uncommitted generations can only be a contiguous tail; if
        // that holds, drop their records from the manifest too.
        let dead: Vec<u64> =
            gens.iter().filter(|(_, g)| !g.committed).map(|(&gen, _)| gen).collect();
        if !dead.is_empty() {
            let mut cut = records.len();
            while cut > 0 && dead.contains(&records[cut - 1].gen()) {
                cut -= 1;
            }
            let tail_only = records[cut..].iter().all(|r| dead.contains(&r.gen()))
                && records[..cut].iter().all(|r| !dead.contains(&r.gen()));
            if tail_only && cut < records.len() {
                fp.truncate(&layout.manifest, offsets[cut] as u64, &records)?;
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
                    if fp.quarantine(&entry.path(), &dst, &records)?.is_ok() {
                        report.quarantined_files.push(name);
                    }
                }
            }
        }

        // 5. Staging files were never renamed, so nothing refers to
        // them; remove them outright.
        if let Ok(entries) = fs::read_dir(&layout.tmp) {
            for entry in entries.flatten() {
                if fp.remove(&entry.path(), &records)?.is_ok() {
                    report.tmp_files_removed += 1;
                }
            }
        }

        report.rolled_back_gens.sort_unstable();
        report.quarantined_files.sort_unstable();
        Ok(Store {
            view: View { layout, gens },
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
        &self.layout().root
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

    fn guard(&self) -> Result<()> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        Ok(())
    }

    /// The one poison gate every operation that writes this store's
    /// disk runs inside: refuse when poisoned, and poison on any error.
    /// A failed durable operation is a simulated crash — disk may hold
    /// a torn write the in-memory view does not know about — so it
    /// runs no cleanup and every later call refuses until a reopen has
    /// performed real recovery.
    pub(crate) fn gated<T>(&mut self, op: impl FnOnce(&mut Store) -> Result<T>) -> Result<T> {
        self.guard()?;
        let outcome = op(self);
        if outcome.is_err() {
            self.poisoned = true;
        }
        outcome
    }

    /// Saves a full generation (one payload per rank) and commits it
    /// atomically. Returns the new generation id. Rank segment writes
    /// fan out over `threads` pool workers. `step` orders recency
    /// ([`Store::latest_committed`]).
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

    /// Saves an incremental generation whose per-rank increment payloads
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
            .view
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
    /// into their segments**: for each rank, `producer` receives a
    /// [`SegmentWriter`](segment::SegmentWriter) and appends the
    /// payload to it (e.g. via `Compressor::compress_stream`, or a
    /// payload file read in bounded chunks), so no caller has to hold
    /// a rank's payload before the save starts.
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
        // Phase 1: produce each rank's segment; the producer drives its
        // own intra-rank parallelism.
        let stream_segments = |layout: &Layout, fp: &FailPoint| {
            (0..ranks)
                .map(|rank| {
                    let mut w = segment::SegmentWriter::create(layout, gen, rank, fp)?;
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

    /// Commits one payload slice per rank as the next generation.
    pub(crate) fn save(
        &mut self,
        step: u64,
        format: SegmentFormat,
        base_gen: u64,
        payloads: &[&[u8]],
        threads: usize,
        error_bound: Option<f64>,
    ) -> Result<u64> {
        self.guard()?;
        if payloads.is_empty() {
            return Err(StoreError::NotFound("a save needs at least one rank payload".into()));
        }
        if payloads.len() > u32::MAX as usize {
            return Err(StoreError::Chain("rank count exceeds the u32 manifest field".into()));
        }
        let gen = self.next_gen;
        let base_gen = if format == SegmentFormat::Increment { base_gen } else { gen };
        // Phase 1: one segment per rank, fanned over pool workers
        // (clamped to the host so oversubscription never pays for idle
        // threads). Each payload is handed to its writer as the slice
        // it is: one append, one CRC pass.
        let write_segments = |layout: &Layout, fp: &FailPoint| {
            let ranks: Vec<(u32, &[u8])> = (0u32..).zip(payloads.iter().copied()).collect();
            let workers = ckpt_pool::clamp_workers(threads, ranks.len());
            let slices: Vec<_> = ranks.chunks(ranks.len().div_ceil(workers)).collect();
            let shards = ckpt_pool::map_tasks(slices.len(), workers, |i| {
                slices[i]
                    .iter()
                    .map(|&(rank, payload)| segment::write_payload(layout, gen, rank, payload, fp))
                    .collect::<Result<Vec<Renamed>>>()
            });
            let mut renamed = Vec::with_capacity(ranks.len());
            for shard in shards {
                renamed.extend(shard?);
            }
            Ok(renamed)
        };
        self.commit_generation(GenHead { gen, step, format, base_gen, error_bound }, write_segments)
    }

    /// The one generation-commit body. `write_segments` is phase 1: it
    /// publishes every rank's segment file (tmp → fsync → rename) in
    /// rank order. Everything after is here, once: the segments-directory
    /// fsync that turns the renames into their `SegMeta`, and the
    /// `Begin`/`Seg`…/`Bound`/`Commit` records through [`Store::log`].
    fn commit_generation(
        &mut self,
        head: GenHead,
        write_segments: impl FnOnce(&Layout, &FailPoint) -> Result<Vec<Renamed>>,
    ) -> Result<u64> {
        let GenHead { gen, step, format, base_gen, error_bound } = head;
        self.gated(|s| {
            let renamed = write_segments(s.layout(), &s.failpoint)?;
            let metas = s.failpoint.sync_dir(&s.layout().segments, renamed)?;

            // Phase 2: the generation's records, one append.
            let mut records = Vec::with_capacity(metas.len() + 3);
            records.push(Record::Begin { gen, step, format, base_gen, ranks: metas.len() as u32 });
            for (rank, meta) in (0u32..).zip(&metas) {
                let (payload_len, crc) = (meta.payload_len(), meta.crc());
                records.push(Record::Seg { gen, rank, payload_len, crc });
            }
            if let Some(eps) = error_bound {
                records.push(Record::Bound { gen, eps_bits: eps.to_bits() });
            }
            records.push(Record::Commit { gen });
            s.log(records)?;
            Ok(gen)
        })
    }

    /// The one manifest append, and the one place the in-memory map
    /// changes: `records` go to the log in a single write through the
    /// fail point, a kill barrier, an fsync — and only the [`Durable`]
    /// that returns is applied to memory, by the interpreter
    /// [`Store::open`] replays the log with. Callers run inside
    /// [`Store::gated`]: an error here leaves a tail on disk that memory
    /// does not reflect.
    fn log(&mut self, records: Vec<Record>) -> Result<Durable<[Record]>> {
        let mut buf = Vec::new();
        for r in &records {
            buf.extend_from_slice(&manifest::encode_record(r));
        }
        let logged =
            self.failpoint.log(&self.layout().manifest, &buf, records.into_boxed_slice())?;
        manifest::apply(&mut self.view.gens, &logged);
        if let Some(top) = logged.iter().map(Record::gen).max() {
            self.next_gen = self.next_gen.max(top + 1);
        }
        Ok(logged)
    }

    /// The one way a generation dies: its `Retire` record becomes
    /// durable, then its segment files are disposed of, each behind its
    /// own kill barrier, by reason — `Gc` deletes them, `Quarantine` moves them to
    /// `quarantine/`. A crash mid-disposal leaves retired leftovers
    /// recovery sweeps, never a live generation missing files.
    ///
    /// Records are logged **dependents before bases**: an increment's
    /// id is always above its base's, and a torn append leaves a
    /// durable *prefix*, so with the newest first no kill point leaves
    /// a live increment on a retired base. Returns how many files were
    /// deleted (quarantined files are kept, so not counted).
    pub(crate) fn retire(&mut self, gens: &[(u64, RetireReason)]) -> Result<usize> {
        if gens.is_empty() {
            return Ok(0);
        }
        let mut records: Vec<Record> =
            gens.iter().map(|&(gen, reason)| Record::Retire { gen, reason }).collect();
        records.sort_unstable_by_key(|r| Reverse(r.gen()));
        let logged = self.log(records)?;
        let mut deleted = 0;
        for &(gen, reason) in gens {
            for rank in 0..self.view.state(gen)?.segs.len() as u32 {
                let src = self.layout().segment_path(gen, rank);
                match reason {
                    RetireReason::Gc => {
                        deleted += usize::from(self.failpoint.remove(&src, &logged)?.is_ok());
                    }
                    RetireReason::Quarantine => {
                        let dst = self.layout().quarantine_path(&layout::segment_name(gen, rank));
                        let _ = self.failpoint.quarantine(&src, &dst, &logged)?;
                    }
                }
            }
        }
        Ok(deleted)
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
    /// replays idempotently on top of it. Like a failed save, a write
    /// error poisons the store.
    pub fn compact_manifest(&mut self) -> Result<CompactManifestReport> {
        self.guard()?;

        // Stage the pruned map without touching `self` yet: nothing is
        // mutated (memory or disk) until the size guard passes.
        let mut live_map = self.view.gens.clone();
        live_map.retain(|&gen, g| {
            g.retired.is_none()
                || (0..g.segs.len() as u32).any(|rank| self.layout().segment_path(gen, rank).exists())
        });
        let pruned_gens = self.view.gens.len() - live_map.len();
        let bytes = manifest::encode_snapshot(self.next_gen, &live_map)?;

        let log_bytes_truncated = self.gated(|s| {
            let staging = s.layout().meta_tmp_path(layout::SNAPSHOT_FILE);
            let installed =
                s.failpoint.durable_replace(&staging, &s.layout().snapshot, &bytes)?;

            // The snapshot is durable; the log records it subsumes can go.
            let log_len = fs::metadata(&s.layout().manifest)?.len();
            let header = manifest::HEADER_LEN as u64;
            s.failpoint.truncate(&s.layout().manifest, header, &installed)?;
            Ok(log_len.saturating_sub(header))
        })?;
        // The durable snapshot no longer names the fully-dead
        // generations; memory forgets them with it.
        self.view.gens = live_map;
        Ok(CompactManifestReport {
            snapshot_gens: self.view.gens.len(),
            pruned_gens,
            snapshot_bytes: bytes.len() as u64,
            log_bytes_truncated,
        })
    }

    /// Lists every generation the manifest knows, ascending.
    pub fn generations(&self) -> Vec<GenInfo> {
        self.view.generations()
    }

    /// Opens an immutable epoch-pinned snapshot of the committed state:
    /// every currently-live generation is pinned against GC until the
    /// snapshot is dropped, and reads through the snapshot need no
    /// `&Store` — any number of concurrent restores can proceed while
    /// this store keeps saving.
    pub fn snapshot(&self) -> Result<Snapshot> {
        self.guard()?;
        let live = self.view.live().map(|(gen, g)| (gen, g.clone())).collect();
        let view = View { layout: self.layout().clone(), gens: live };
        Ok(Snapshot::pin(view, Arc::clone(&self.pins)))
    }

    /// Number of snapshots currently holding pins.
    pub fn live_snapshots(&self) -> usize {
        self.pins.live_snapshots()
    }

    /// The newest live generation, if any: the highest step, a tie on
    /// step going to the later commit.
    pub fn latest_committed(&self) -> Option<u64> {
        self.view.latest_committed()
    }

    /// The newest live *full* generation (restorable without a chain).
    pub fn latest_full(&self) -> Option<u64> {
        self.view.latest_full()
    }

    pub(crate) fn layout(&self) -> &Layout {
        &self.view.layout
    }

    /// Reads one committed segment, CRC-checked against the manifest.
    pub fn read_segment(&self, gen: u64, rank: u32) -> Result<Vec<u8>> {
        self.guard()?;
        self.view.read_segment(gen, rank)
    }

    /// Resolves the recovery chain of `(gen, rank)`: the generations
    /// to replay, base-first (a full generation resolves to itself).
    pub fn resolve_chain(&self, gen: u64) -> Result<Vec<u64>> {
        self.guard()?;
        self.view.resolve_chain(gen)
    }

    /// Materializes an array generation: decompresses the chain's base
    /// `WCK1` stream and applies each increment in order.
    pub fn restore_array(&self, gen: u64, rank: u32) -> Result<Tensor<f64>> {
        self.guard()?;
        self.view.restore_array(gen, rank)
    }

    /// Checks every live generation's segments against the manifest
    /// (length + CRC) and their declared format against the hardened
    /// decoders. Read-only; never modifies the store.
    pub fn verify(&self) -> Result<VerifyReport> {
        self.guard()?;
        let mut report = VerifyReport::default();
        for (gen, g) in self.view.live() {
            for rank in 0..g.segs.len() as u32 {
                report.segments_checked += 1;
                let check = self
                    .view
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

/// The one read view: a layout plus a generation map is everything a
/// read needs. A [`Store`] reads through the view it keeps current
/// (after its poison guard); a [`Snapshot`] *is* a pinned clone of the
/// live part of one and needs no store reference at all.
#[derive(Debug)]
pub struct View {
    pub(crate) layout: Layout,
    pub(crate) gens: BTreeMap<u64, GenState>,
}

impl View {
    pub(crate) fn state(&self, gen: u64) -> Result<&GenState> {
        self.gens.get(&gen).ok_or_else(|| StoreError::NotFound(format!("generation {gen}")))
    }

    /// The live set — committed and not retired — ascending.
    pub(crate) fn live(&self) -> impl Iterator<Item = (u64, &GenState)> + '_ {
        self.gens.iter().filter(|(_, g)| g.live()).map(|(&gen, g)| (gen, g))
    }

    /// Lists every generation in the view, ascending.
    pub fn generations(&self) -> Vec<GenInfo> {
        self.gens
            .iter()
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

    /// The store's one recency key: the higher step is newer, a tie to the later commit.
    pub(crate) fn recency(&(gen, g): &(u64, &GenState)) -> (u64, u64) {
        (g.step, gen)
    }

    /// The newest live generation, if any.
    pub fn latest_committed(&self) -> Option<u64> {
        self.live().max_by_key(Self::recency).map(|(gen, _)| gen)
    }

    /// The newest live *full* generation (restorable without a chain).
    pub fn latest_full(&self) -> Option<u64> {
        let fulls = self.live().filter(|(_, g)| g.format != SegmentFormat::Increment);
        fulls.max_by_key(Self::recency).map(|(gen, _)| gen)
    }

    /// Reads one committed segment, CRC-checked against the manifest.
    pub fn read_segment(&self, gen: u64, rank: u32) -> Result<Vec<u8>> {
        let g = self.state(gen)?;
        if !g.live() {
            return Err(StoreError::NotFound(format!("generation {gen} is not committed and live")));
        }
        let meta = seg_record(g, gen, rank)?;
        segment::read_segment(&self.layout, gen, rank, meta.payload_len, meta.crc)
    }

    /// Resolves the recovery chain of `gen`: the generations to replay,
    /// base-first (a full generation resolves to itself).
    pub fn resolve_chain(&self, gen: u64) -> Result<Vec<u64>> {
        let mut chain = vec![];
        let mut cur = gen;
        for _ in 0..MAX_CHAIN {
            let g = self.state(cur)?;
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

    /// Materializes an array generation: decompresses the chain's base
    /// `WCK1` stream and XORs in every increment, its links read,
    /// CRC-checked and decoded on `min(host cores, links)` workers. A
    /// restore shapes no bytes, so it keys on the host's cores, not on
    /// a `threads` setting; a one-link chain spawns no thread.
    pub fn restore_array(&self, gen: u64, rank: u32) -> Result<Tensor<f64>> {
        self.restore_array_on(gen, rank, ckpt_pool::host_parallelism())
    }

    /// [`View::restore_array`] on at most `workers` contiguous shards of
    /// the chain, one `map_tasks` task each (the seam tests force 1, 2
    /// and 3 workers through).
    /// Shard 0 runs on the calling thread: it decompresses the full and
    /// XORs its own increments straight into it. Every other shard only
    /// decodes, and the caller XORs what it decoded into the full in
    /// shard order. XOR over GF(2) is commutative and associative, so
    /// the tensor is the serial walk's bit for bit; and since shards are
    /// contiguous and each stops at its first failure, the first error
    /// met in shard order is the earliest failing link's.
    ///
    /// The other shards hand back decoded increments rather than a
    /// dense XOR accumulator: an accumulator would be sized from an
    /// increment's own dims before the full could vouch for them, so a
    /// hostile header declaring a huge clean array would allocate it.
    pub(crate) fn restore_array_on(
        &self,
        gen: u64,
        rank: u32,
        workers: usize,
    ) -> Result<Tensor<f64>> {
        let chain = self.resolve_chain(gen)?;
        let base_gen = *chain.first().ok_or_else(|| StoreError::Chain("empty chain".into()))?;
        if self.state(base_gen)?.format != SegmentFormat::Array {
            return Err(StoreError::Chain(format!(
                "chain base generation {base_gen} is not an array generation"
            )));
        }
        let slices: Vec<&[u64]> = chain.chunks(chain.len().div_ceil(workers.max(1))).collect();
        let shards = ckpt_pool::map_tasks(slices.len(), workers, |shard| {
            let mut pending = Vec::new();
            let outcome = self.restore_shard(slices[shard], rank, shard == 0, &mut pending);
            (pending, outcome)
        });
        let mut shards = shards.into_iter();
        let (_, outcome) = shards.next().ok_or_else(|| StoreError::Chain("empty chain".into()))?;
        let mut tensor = outcome?.ok_or_else(|| StoreError::Chain("empty chain".into()))?;
        for (pending, outcome) in shards {
            for inc in pending {
                inc.xor_into(&mut tensor)?;
            }
            outcome?;
        }
        Ok(tensor)
    }

    /// One shard of a chain restore, `links` in chain order, stopping at
    /// the shard's first failure. In the first shard the first link is
    /// the full: it is decompressed and every increment after it XORed
    /// straight in, and the state is returned. Any other shard has no
    /// full to XOR into, so its increments are decoded into `pending`.
    fn restore_shard(
        &self,
        links: &[u64],
        rank: u32,
        first: bool,
        pending: &mut Vec<incremental::Decoded>,
    ) -> Result<Option<Tensor<f64>>> {
        let (mut state, increments) = match links.split_first() {
            Some((&full, rest)) if first => {
                (Some(Compressor::decompress(&self.read_segment(full, rank)?)?), rest)
            }
            _ => (None, links),
        };
        for &g in increments {
            let inc = incremental::decode(&self.read_segment(g, rank)?)?;
            match &mut state {
                Some(tensor) => inc.xor_into(tensor)?,
                None => pending.push(inc),
            }
        }
        Ok(state)
    }
}

/// The `Seg` record of one rank of a generation.
pub(crate) fn seg_record(g: &GenState, gen: u64, rank: u32) -> Result<SegRecord> {
    g.segs
        .get(rank as usize)
        .and_then(|s| *s)
        .ok_or_else(|| StoreError::NotFound(format!("gen {gen} rank {rank}")))
}

#[cfg(test)]
mod first_open_tests {
    use super::*;

    /// Kills a store's first open at every byte of the manifest header and
    /// at every barrier, and demands that the next open makes a clean,
    /// empty store of whatever was left. Before the header was staged,
    /// `open` created `manifest` in place and wrote the header outside
    /// the fail point: a kill between the two left a 0–7-byte `manifest`,
    /// which every later open refused (`parse_manifest` errors on a short
    /// header), so those states had no recovery path.
    #[test]
    fn a_kill_anywhere_in_the_first_open_reopens_as_an_empty_store() {
        let dir = std::env::temp_dir().join(format!("ckpt-store-first-open-{}", std::process::id()));
        let header = manifest::header_bytes();
        let bytes = (0..=header.len() as u64).map(FailPoint::after_bytes);
        let barriers = (0..).map(FailPoint::at_barrier);
        let mut kills = 0;
        for fp in bytes.chain(barriers) {
            let _ = fs::remove_dir_all(&dir);
            match Store::open_with(&dir, &fp) {
                Err(StoreError::Killed) => kills += 1,
                Err(e) => panic!("kill {kills}: {e}"),
                // Past the last barrier: every kill point has been seen.
                Ok(_) => break,
            }
            let store = Store::open(&dir).unwrap_or_else(|e| panic!("kill {kills}: reopen: {e}"));
            assert!(store.generations().is_empty(), "kill {kills}");
            assert_eq!(fs::read(&store.layout().manifest).unwrap(), header, "kill {kills}");
            assert_eq!(fs::read_dir(&store.layout().tmp).unwrap().count(), 0, "kill {kills}");
        }
        // Nine byte budgets, then a barrier before each of the staged
        // header's fsync, rename and directory fsync.
        assert_eq!(kills, header.len() + 1 + 3);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;

    /// Older builds could commit a generation under an id the caller
    /// chose (a buddy's import), so a log on disk may hold `Begin`
    /// records whose ids skip. Replay takes them as they are: the gaps
    /// stay gaps, every chain resolves, and the next save is numbered
    /// above the highest id.
    #[test]
    fn a_log_with_non_contiguous_generation_ids_replays() {
        let dir = std::env::temp_dir().join(format!("ckpt-store-id-gaps-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let payload = |gen: u64| -> Vec<u8> { (0..300u64).map(|i| (i * 7 + gen) as u8).collect() };
        let mut store = Store::open(&dir).unwrap();
        let (full, inc) = (SegmentFormat::Array, SegmentFormat::Increment);
        for (gen, format, base_gen) in [(3, full, 3), (9, full, 9), (12, inc, 9)] {
            let bytes = payload(gen);
            let write = |layout: &Layout, fp: &FailPoint| {
                Ok(vec![segment::write_payload(layout, gen, 0, &bytes, fp)?])
            };
            let head = GenHead { gen, step: gen * 10, format, base_gen, error_bound: None };
            store.commit_generation(head, write).unwrap();
        }
        drop(store);

        let mut store = Store::open(&dir).unwrap();
        let gens: Vec<u64> = store.generations().iter().map(|g| g.gen).collect();
        assert_eq!(gens, [3, 9, 12]);
        for gen in gens {
            assert_eq!(store.read_segment(gen, 0).unwrap(), payload(gen), "gen {gen}");
        }
        assert_eq!(store.resolve_chain(12).unwrap(), [9, 12]);
        assert_eq!(store.save_full(130, SegmentFormat::Array, &[&payload(13)], 1).unwrap(), 13);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod chain_restore_tests {
    //! The concurrent chain restore against the serial walk it replaced
    //! (kept here verbatim as the oracle), at 1, 2 and 3 forced workers.

    #![allow(clippy::needless_update)]

    use super::*;
    use ckpt_deflate::Level;
    use incremental::PAGE_ELEMS;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static CASE: AtomicU64 = AtomicU64::new(0);

    fn scratch() -> PathBuf {
        let n = CASE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ckpt-store-chain-{}-{n}", std::process::id()))
    }

    /// The parent's `restore_array`: decompress the full, then
    /// `incremental::apply` link by link.
    fn serial_walk(view: &View, gen: u64, rank: u32) -> Result<Tensor<f64>> {
        let chain = view.resolve_chain(gen)?;
        if view.state(chain[0])?.format != SegmentFormat::Array {
            return Err(StoreError::Chain(format!(
                "chain base generation {} is not an array generation",
                chain[0]
            )));
        }
        let mut tensor = Compressor::decompress(&view.read_segment(chain[0], rank)?)?;
        for &g in &chain[1..] {
            tensor = incremental::apply(&tensor, &view.read_segment(g, rank)?)?;
        }
        Ok(tensor)
    }

    fn bit_equal(a: &Tensor<f64>, b: &Tensor<f64>) -> bool {
        a.dims() == b.dims()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// A full of `dims` and `masks.len()` increments on it, increment
    /// `k` dirtying page `p` (one element of it) when bit `p % 8` of
    /// `masks[k]` is set — mask 0 is a clean increment. Returns the
    /// store, the tip and the tip's state.
    fn build_chain(dims: &[usize], masks: &[u8], seed: u64) -> (Store, u64, Tensor<f64>) {
        let dir = scratch();
        let _ = fs::remove_dir_all(&dir);
        let mut store = Store::open(&dir).unwrap();
        let mut state = Tensor::from_fn(dims, |i| {
            i.iter().fold(seed as f64, |a, &v| a * 1.37 + v as f64).sin() * 300.0
        })
        .unwrap();
        let full = ckpt_core::compress_exact(&state, Level::Default).unwrap();
        let mut gen = store.save_full(0, SegmentFormat::Array, &[&full], 1).unwrap();
        let volume = state.len();
        for (k, &mask) in masks.iter().enumerate() {
            let mut next = state.clone();
            for p in 0..volume.div_ceil(PAGE_ELEMS) {
                if mask >> (p % 8) & 1 == 1 {
                    let page_len = PAGE_ELEMS.min(volume - p * PAGE_ELEMS);
                    let at = p * PAGE_ELEMS + (seed as usize + 7 * k) % page_len;
                    next.as_mut_slice()[at] += 1.0 + k as f64;
                }
            }
            let (inc, _) = incremental::increment(&state, &next, Level::Default).unwrap();
            gen = store.save_increment(k as u64 + 1, gen, &[&inc], 1).unwrap();
            state = next;
        }
        (store, gen, state)
    }

    fn drop_store(store: Store) {
        let root = store.root().to_path_buf();
        drop(store);
        let _ = fs::remove_dir_all(root);
    }

    /// Every forced worker count restores what the serial walk does —
    /// the tensor bit for bit, or the same error.
    fn assert_matches_serial(store: &Store, tip: u64) -> Result<Tensor<f64>> {
        let serial = serial_walk(&store.view, tip, 0);
        for workers in 1..=3 {
            let concurrent = store.view.restore_array_on(tip, 0, workers);
            match (&serial, &concurrent) {
                (Ok(a), Ok(b)) => assert!(bit_equal(a, b), "{workers} workers: tensors differ"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{workers} workers"),
                _ => panic!("{workers} workers: {concurrent:?} where the serial walk gave {serial:?}"),
            }
        }
        serial
    }

    /// How a link of a chain is damaged after it was committed.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        FlipByte,
        Truncate,
        MissingFile,
        /// An increment built against a shape one row longer (saved
        /// intact: the damage is in what it says, not in its bytes).
        WrongDims,
    }

    /// Damage codes as the proptest draws them: 0–2 none, 3–6 a kind.
    fn damage_from(code: u8) -> Option<Damage> {
        [Damage::FlipByte, Damage::Truncate, Damage::MissingFile, Damage::WrongDims]
            .get(usize::from(code).checked_sub(3)?)
            .copied()
    }

    /// A depth-`damage.len() - 1` chain of all-dirty increments with
    /// `damage[i]` done to link `i` (wrong dims only lands on
    /// increments; on the full it reads as a flipped byte).
    #[expect(clippy::disallowed_methods, reason = "the test damages committed segments on purpose")]
    fn build_damaged(damage: &[Option<Damage>]) -> (Store, u64) {
        let dims = [37usize, 29];
        let (mut store, _, _) = build_chain(&dims, &[], 3);
        let mut gen = store.latest_committed().unwrap();
        let mut state = serial_walk(&store.view, gen, 0).unwrap();
        let other = Tensor::<f64>::zeros(&[dims[0] + 1, dims[1]]).unwrap();
        for (k, d) in damage.iter().enumerate().skip(1) {
            let mut next = state.clone();
            next.map_inplace(|v| v * 1.0001 + 1.0);
            let (inc, _) = match d {
                Some(Damage::WrongDims) => incremental::increment(&other, &other, Level::Default),
                _ => incremental::increment(&state, &next, Level::Default),
            }
            .unwrap();
            gen = store.save_increment(k as u64, gen, &[&inc], 1).unwrap();
            state = next;
        }
        let chain = store.resolve_chain(gen).unwrap();
        for (&g, d) in chain.iter().zip(damage) {
            let path = store.layout().segment_path(g, 0);
            match d {
                None | Some(Damage::WrongDims) if g != chain[0] => {}
                None => {}
                Some(Damage::FlipByte | Damage::WrongDims) => {
                    let mut bytes = fs::read(&path).unwrap();
                    let at = bytes.len() / 3;
                    bytes[at] ^= 0x40;
                    fs::write(&path, bytes).unwrap();
                }
                Some(Damage::Truncate) => {
                    let len = fs::metadata(&path).unwrap().len();
                    fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len / 2).unwrap();
                }
                Some(Damage::MissingFile) => fs::remove_file(&path).unwrap(),
            }
        }
        (store, gen)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Random chains of depth 0–8 over shapes that are mostly not a
        /// whole number of pages, with random dirty pages and clean
        /// increments: every worker count restores the serial walk's
        /// tensor, which is the tip's state.
        #[test]
        fn the_concurrent_restore_is_the_serial_walk(
            dims in (1usize..=70, 1usize..=50),
            masks in proptest::collection::vec(any::<u8>(), 0..=8),
            seed in 0u64..1000,
        ) {
            let (store, tip, want) = build_chain(&[dims.0, dims.1], &masks, seed);
            let restored = assert_matches_serial(&store, tip).unwrap();
            prop_assert!(bit_equal(&restored, &want));
            prop_assert!(bit_equal(&store.restore_array(tip, 0).unwrap(), &want));
            drop_store(store);
        }

        /// Damage anywhere in a chain: every worker count refuses, with
        /// the error of the earliest damaged link in chain order.
        #[test]
        fn a_damaged_chain_fails_on_its_earliest_damaged_link(
            codes in proptest::collection::vec(0u8..7, 1..=6),
        ) {
            let damage: Vec<Option<Damage>> = codes.into_iter().map(damage_from).collect();
            let (store, tip) = build_damaged(&damage);
            let serial = assert_matches_serial(&store, tip);
            prop_assert_eq!(serial.is_err(), damage.iter().any(Option::is_some));
            drop_store(store);
        }
    }

    #[test]
    fn each_kind_of_damage_names_the_earliest_link() {
        use Damage::*;
        for (damage, needle) in [
            (vec![None, None, Some(FlipByte), Some(MissingFile)], "gen 3 rank 0: CRC"),
            (vec![None, Some(Truncate), None, Some(FlipByte)], "segment gen 2 rank 0"),
            (vec![None, None, None, Some(WrongDims)], "incremental dims mismatch"),
            (vec![None, Some(WrongDims), Some(MissingFile), None], "incremental dims mismatch"),
            (vec![Some(MissingFile), None, Some(FlipByte)], "00000001.0.seg"),
        ] {
            let (store, tip) = build_damaged(&damage);
            let why = assert_matches_serial(&store, tip).expect_err("damaged").to_string();
            assert!(why.contains(needle), "{damage:?}: `{why}` is not `{needle}`");
            drop_store(store);
        }
    }

    #[test]
    fn a_chain_on_a_non_array_base_is_refused_at_every_worker_count() {
        let (mut store, tip, _) = build_chain(&[40, 30], &[0xFF, 0x01, 0], 5);
        let base = store.resolve_chain(tip).unwrap()[0];
        store.view.gens.get_mut(&base).unwrap().format = SegmentFormat::Checkpoint;
        let why = assert_matches_serial(&store, tip).expect_err("non-array base").to_string();
        assert!(why.contains("is not an array generation"), "{why}");
        drop_store(store);
    }
}
