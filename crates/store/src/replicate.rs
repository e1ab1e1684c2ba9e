//! Buddy replication: push committed generations to a peer store, and
//! adopt a replica's contents to rebuild a lost primary.
//!
//! The paper's checkpoint/restart premise assumes the checkpoint
//! survives the failure — which a single local store cannot promise
//! when the failure takes the node's disk with it. Buddy replication
//! is the classic remedy: every committed generation is pushed to a
//! peer (the node's "buddy"), so losing the primary costs at most the
//! generations not yet pushed.
//!
//! Three pieces, all riding the existing crash contract:
//!
//! * [`Store::push_to`] walks live generations above the **replication
//!   cursor** and hands each to a [`ReplicaSink`] (a local store for
//!   tests and same-host buddies, the `SRV1` client for remote ones).
//!   After each durable put the cursor file (`RPC1`) is rewritten
//!   tmp → fsync → rename, so a crashed push — or one whose buddy
//!   went away — resumes where it left off instead of starting over.
//! * [`Store::import_generation`] is the receiving half: an explicit
//!   generation id committed through the ordinary two-phase save path.
//!   It is **idempotent** — re-importing a generation the replica
//!   already holds with identical metadata is a no-op — so a lost
//!   cursor (or a crash between a put and its cursor write) only costs
//!   a re-push, never divergence.
//! * [`Store::adopt_from`] rebuilds a store from its buddy: every live
//!   generation the source holds and the destination lacks is
//!   imported, ascending, so bases always precede their increments.
//!
//! A damaged or missing cursor parses as `None` ("push everything"),
//! never an error: the worst case is redundant work the idempotent
//! import absorbs.

// Decoder hardening (DESIGN.md §9): product code here is total on damaged bytes.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing, clippy::unwrap_used,
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::panic_in_result_fn, clippy::missing_panics_doc))]

use crate::layout::CURSOR_FILE;
use crate::manifest::SegmentFormat;
use crate::store::{GenHead, SegRecord, Store};
use crate::{Result, StoreError};
use ckpt_deflate::crc32::crc32;
use ckpt_deflate::frame::{self, Reader, Writer, RPC1};

/// One generation handed to a [`ReplicaSink`]: the metadata the
/// replica's manifest needs plus every rank's committed payload bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct PutGen {
    pub gen: u64,
    pub step: u64,
    pub format: SegmentFormat,
    /// Base generation (== `gen` for full generations).
    pub base_gen: u64,
    pub error_bound: Option<f64>,
    /// Per-rank payloads, rank 0 first.
    pub payloads: Vec<Vec<u8>>,
}

/// Where [`Store::push_to`] delivers generations. Implementations must
/// make a put *durable* before returning `Ok` — the pusher advances
/// its cursor on that promise.
pub trait ReplicaSink {
    /// Stores one generation durably. Must be idempotent: delivering a
    /// generation the replica already holds (identical bytes and
    /// metadata) is a success, not an error.
    fn put(&mut self, put: &PutGen) -> Result<()>;
}

/// A [`ReplicaSink`] over a local store — same-host buddies and tests.
pub struct LocalReplica<'a>(pub &'a mut Store);

impl ReplicaSink for LocalReplica<'_> {
    fn put(&mut self, put: &PutGen) -> Result<()> {
        self.0.import_generation(put).map(|_| ())
    }
}

/// What one [`Store::push_to`] run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PushReport {
    /// Generations delivered (and recorded in the cursor) this run.
    pub pushed: Vec<u64>,
    /// Live generations above the cursor skipped because their chain
    /// no longer fully resolves (a damaged link quarantined earlier).
    pub skipped: Vec<u64>,
    /// Cursor value after the run, when any push has ever happened.
    pub cursor: Option<u64>,
}

/// The cursor file image (`<root>/replication.cursor`): `header8`,
/// then `gen` sealed with its CRC-32.
#[expect(
    clippy::expect_used,
    clippy::missing_panics_doc,
    reason = "encoder: the body is one u64, exactly RPC1's bound"
)]
pub fn encode_cursor(gen: u64) -> Vec<u8> {
    let mut body = Writer::with_capacity(8);
    body.put_u64(gen);
    let sealed = body.seal(RPC1.max_body).expect("a u64 is the whole cursor body");
    [frame::header8(&RPC1).as_slice(), &sealed].concat()
}

/// Strict but total: any damage (wrong length, magic, version,
/// reserved bytes, CRC) reads as "no cursor".
pub fn parse_cursor(bytes: &[u8]) -> Option<u64> {
    let mut r = Reader::new(bytes);
    r.expect_header8(&RPC1).ok()?;
    let sealed = r.get_bytes(r.remaining()).ok()?;
    let mut body = Reader::new(frame::unseal(sealed, RPC1.max_body).ok()?);
    let gen = body.get_u64().ok()?;
    body.expect_end().ok()?;
    Some(gen)
}

impl Store {
    /// The highest generation durably pushed to this store's buddy, if
    /// a push ever completed. A missing or damaged cursor file reads
    /// as `None` — the next push re-sends from the start, which the
    /// idempotent import absorbs.
    pub fn replication_cursor(&self) -> Option<u64> {
        frame::read_file_bounded(&self.layout().cursor, &RPC1)
            .ok()
            .as_deref()
            .and_then(parse_cursor)
    }

    /// Pushes every live generation above the replication cursor to
    /// `sink`, ascending, advancing the cursor after each delivered
    /// generation. A buddy that is down must not take the primary
    /// down: a sink or export error returns as it is and the store
    /// stays usable — the local disk has not been written since the
    /// last durable cursor, and the next push resumes from it. Only a
    /// failed cursor write (a torn staging file on *this* disk)
    /// poisons; reopen to recover.
    pub fn push_to(&mut self, sink: &mut dyn ReplicaSink) -> Result<PushReport> {
        self.guard()?;
        let mut report =
            PushReport { cursor: self.replication_cursor(), ..PushReport::default() };
        let todo: Vec<u64> = self
            .view
            .live()
            .map(|(gen, _)| gen)
            .filter(|&g| report.cursor.is_none_or(|c| g > c))
            .collect();
        for gen in todo {
            // A live increment whose chain lost a link restores
            // nowhere; pushing it would hand the replica a dead end.
            if self.resolve_chain(gen).is_err() {
                report.skipped.push(gen);
                continue;
            }
            let put = self.export_generation(gen)?;
            sink.put(&put)?;
            // Durably record `gen` as pushed, through the fail point
            // like every other metadata write.
            self.gated(|s| {
                let staging = s.layout().meta_tmp_path(CURSOR_FILE);
                s.failpoint.durable_replace(&staging, &s.layout().cursor, &encode_cursor(gen))
            })?;
            report.cursor = Some(gen);
            report.pushed.push(gen);
        }
        Ok(report)
    }

    /// Packages one live generation for a sink: manifest metadata plus
    /// every rank's CRC-checked payload.
    pub fn export_generation(&self, gen: u64) -> Result<PutGen> {
        self.guard()?;
        let (step, format, base_gen, error_bound, ranks) = {
            let s = self.view.state(gen)?;
            let ranks = u32::try_from(s.segs.len())
                .map_err(|_| StoreError::Corrupt(format!("gen {gen}: rank count overflows u32")))?;
            (s.step, s.format, s.base_gen, s.error_bound, ranks)
        };
        let payloads = (0..ranks)
            .map(|rank| self.read_segment(gen, rank))
            .collect::<Result<Vec<_>>>()?;
        Ok(PutGen { gen, step, format, base_gen, error_bound, payloads })
    }

    /// Commits a generation under an **explicit** id through the
    /// ordinary two-phase save path — the receiving half of
    /// replication. Returns `false` (and writes nothing) when this
    /// store already holds the generation live with identical
    /// metadata; a live generation with *different* metadata is a
    /// divergence error. Like a failed save, a write error poisons.
    pub fn import_generation(&mut self, put: &PutGen) -> Result<bool> {
        self.guard()?;
        if put.payloads.is_empty() {
            return Err(StoreError::NotFound("an import needs at least one rank payload".into()));
        }
        if let Ok(existing) = self.view.state(put.gen) {
            let incoming = put
                .payloads
                .iter()
                .map(|p| Some(SegRecord { payload_len: frame::u64_from_usize(p.len()), crc: crc32(p) }));
            let same = existing.live()
                && existing.step == put.step
                && existing.format == put.format
                && existing.base_gen == put.base_gen
                && existing.segs.iter().copied().eq(incoming);
            if same {
                return Ok(false);
            }
            return Err(StoreError::Chain(format!(
                "import of generation {} diverges from the copy this store holds",
                put.gen
            )));
        }
        if put.format == SegmentFormat::Increment {
            let base = self.view.state(put.base_gen).map_err(|_| {
                StoreError::Chain(format!(
                    "increment {} needs base generation {} first",
                    put.gen, put.base_gen
                ))
            })?;
            if !base.live() || base.segs.len() != put.payloads.len() {
                return Err(StoreError::Chain(format!(
                    "increment {} does not fit base generation {}",
                    put.gen, put.base_gen
                )));
            }
        }

        let refs: Vec<&[u8]> = put.payloads.iter().map(Vec::as_slice).collect();
        let head = GenHead {
            gen: put.gen,
            step: put.step,
            format: put.format,
            base_gen: put.base_gen,
            error_bound: put.error_bound,
        };
        self.commit_payloads(head, &refs, 1)?;
        Ok(true)
    }

    /// Rebuilds this store from a buddy: imports every live generation
    /// `src` holds that this store lacks, ascending (bases before
    /// their increments). Returns the imported generation ids.
    pub fn adopt_from(&mut self, src: &Store) -> Result<Vec<u64>> {
        self.guard()?;
        let mut imported = Vec::new();
        for (gen, _) in src.view.live() {
            if src.resolve_chain(gen).is_err() {
                continue;
            }
            let put = src.export_generation(gen)?;
            if self.import_generation(&put)? {
                imported.push(gen);
            }
        }
        Ok(imported)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_bytes_roundtrip() {
        for gen in [0u64, 1, 42, u64::MAX] {
            assert_eq!(parse_cursor(&encode_cursor(gen)), Some(gen));
        }
    }
}
