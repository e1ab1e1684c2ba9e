//! The `CSM1` manifest: an append-only, CRC-framed commit log.
//!
//! The manifest is the single source of truth for what is committed.
//! Segment files carry raw payload bytes; every fact *about* them
//! (length, CRC, generation membership, commit status, retirement)
//! lives here, so recovery never has to trust a partially-written
//! segment.
//!
//! ```text
//! header   : header8("CSM1", 1)
//! record   : len | crc | body   (both envelopes: `ckpt_deflate::frame`)
//! body     : u8 kind, then per kind:
//!   1 Begin  : gen u64, step u64, format u8, base_gen u64, ranks u32
//!   2 Seg    : gen u64, rank u32, payload_len u64, payload crc32 u32
//!   3 Commit : gen u64
//!   4 Retire : gen u64, reason u8 (0 gc, 1 quarantine)
//!   5 Bound  : gen u64, eps_bits u64 (f64 error bound, to_bits image)
//! ```
//!
//! The scanner ([`parse_manifest`]) accepts the longest valid prefix
//! and reports where it ends; a torn append (the only corruption our
//! single-writer crash model can produce) is recovered by truncating
//! to that point. The parser is panic-free on arbitrary bytes — this is
//! a decode module (DESIGN.md §9).

// Decoder hardening (DESIGN.md §9): product code here is total on damaged bytes.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing, clippy::unwrap_used,
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::panic_in_result_fn, clippy::missing_panics_doc))]

use crate::failpoint::Durable;
use crate::store::{GenState, SegRecord};
use crate::{Result, StoreError};
use ckpt_deflate::frame::{self, Reader, Writer, CSM1, CSM2};
use std::collections::BTreeMap;

/// Length of the `header8` both manifest files start with.
pub const HEADER_LEN: usize = 8;

/// What a generation's segments contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentFormat {
    /// A full multi-variable `CKPT` checkpoint image.
    Checkpoint,
    /// A full compressed array (`WCK1`, possibly in a gzip/`WPK1`
    /// container) or raw bytes.
    Array,
    /// An `INC2` (or older `INC1`) increment against `base_gen`.
    Increment,
}

impl SegmentFormat {
    /// Wire tag.
    pub fn to_u8(self) -> u8 {
        match self {
            SegmentFormat::Checkpoint => 0,
            SegmentFormat::Array => 1,
            SegmentFormat::Increment => 2,
        }
    }

    /// Parses a wire tag.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(SegmentFormat::Checkpoint),
            1 => Some(SegmentFormat::Array),
            2 => Some(SegmentFormat::Increment),
            _ => None,
        }
    }

    /// Human-readable name for listings.
    pub fn name(self) -> &'static str {
        match self {
            SegmentFormat::Checkpoint => "checkpoint",
            SegmentFormat::Array => "array",
            SegmentFormat::Increment => "increment",
        }
    }
}

/// Why a generation was retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireReason {
    /// Pruned by the retention policy; files deleted.
    Gc,
    /// A segment was unreadable; files moved to `quarantine/`.
    Quarantine,
}

impl RetireReason {
    fn to_u8(self) -> u8 {
        match self {
            RetireReason::Gc => 0,
            RetireReason::Quarantine => 1,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(RetireReason::Gc),
            1 => Some(RetireReason::Quarantine),
            _ => None,
        }
    }
}

/// One manifest record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Opens a generation; all `Seg` records for it follow.
    Begin { gen: u64, step: u64, format: SegmentFormat, base_gen: u64, ranks: u32 },
    /// One rank's payload metadata.
    Seg { gen: u64, rank: u32, payload_len: u64, crc: u32 },
    /// Marks the generation durable; only committed generations are
    /// restorable.
    Commit { gen: u64 },
    /// Removes a generation from the live set (GC or quarantine).
    Retire { gen: u64, reason: RetireReason },
    /// Records the lossy error bound the generation was compressed
    /// under (`ckpt store save --error-bound`). Written between `Begin`
    /// and `Commit`; `eps_bits` is the `f64::to_bits` image so the
    /// record stays integer-exact on the wire.
    Bound { gen: u64, eps_bits: u64 },
}

impl Record {
    /// The generation this record belongs to.
    pub fn gen(&self) -> u64 {
        match *self {
            Record::Begin { gen, .. }
            | Record::Seg { gen, .. }
            | Record::Commit { gen }
            | Record::Retire { gen, .. }
            | Record::Bound { gen, .. } => gen,
        }
    }
}

/// The manifest file header.
pub fn header_bytes() -> [u8; HEADER_LEN] {
    frame::header8(&CSM1)
}

/// Frames one record (`len | crc | body`).
#[expect(
    clippy::expect_used,
    clippy::missing_panics_doc,
    reason = "encoder: a record body is at most 29 bytes, far below CSM1's bound"
)]
pub fn encode_record(rec: &Record) -> Vec<u8> {
    let mut body = Writer::with_capacity(40);
    match *rec {
        Record::Begin { gen, step, format, base_gen, ranks } => {
            body.put_u8(1);
            body.put_u64(gen);
            body.put_u64(step);
            body.put_u8(format.to_u8());
            body.put_u64(base_gen);
            body.put_u32(ranks);
        }
        Record::Seg { gen, rank, payload_len, crc } => {
            body.put_u8(2);
            body.put_u64(gen);
            body.put_u32(rank);
            body.put_u64(payload_len);
            body.put_u32(crc);
        }
        Record::Commit { gen } => {
            body.put_u8(3);
            body.put_u64(gen);
        }
        Record::Retire { gen, reason } => {
            body.put_u8(4);
            body.put_u64(gen);
            body.put_u8(reason.to_u8());
        }
        Record::Bound { gen, eps_bits } => {
            body.put_u8(5);
            body.put_u64(gen);
            body.put_u64(eps_bits);
        }
    }
    let body = body.into_bytes();
    let mut out = Writer::with_capacity(8 + body.len());
    out.put_len_crc_body(&body, CSM1.max_body).expect("record bodies are tens of bytes");
    out.into_bytes()
}

/// Result of scanning a manifest: the records of the longest valid
/// prefix, and that prefix's byte length. `valid_len < bytes.len()`
/// means a torn tail that recovery should truncate away.
#[derive(Debug, Clone)]
pub struct ManifestScan {
    pub records: Vec<Record>,
    /// Byte offset where each record starts, parallel to `records`.
    pub offsets: Vec<usize>,
    pub valid_len: usize,
}

/// Scans a manifest image. Errors only when the 8-byte header itself
/// is invalid (which a crash cannot produce — the header is written
/// and fsynced once, at store creation); everything after the header
/// is scanned tolerantly.
pub fn parse_manifest(bytes: &[u8]) -> Result<ManifestScan> {
    let mut r = Reader::new(bytes);
    r.expect_header8(&CSM1)?;
    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let mut valid_len = r.position();
    // A truncated, oversized, CRC-damaged or semantically unknown
    // record ends the valid prefix.
    while let Some(rec) = r.get_len_crc_body(CSM1.max_body).ok().and_then(decode_body) {
        records.push(rec);
        offsets.push(valid_len);
        valid_len = r.position();
    }
    Ok(ManifestScan { records, offsets, valid_len })
}

/// Decodes one record body; strict about trailing bytes.
fn decode_body(body: &[u8]) -> Option<Record> {
    let mut r = Reader::new(body);
    let rec = match r.get_u8().ok()? {
        1 => Record::Begin {
            gen: r.get_u64().ok()?,
            step: r.get_u64().ok()?,
            format: SegmentFormat::from_u8(r.get_u8().ok()?)?,
            base_gen: r.get_u64().ok()?,
            ranks: r.get_u32().ok()?,
        },
        2 => Record::Seg {
            gen: r.get_u64().ok()?,
            rank: r.get_u32().ok()?,
            payload_len: r.get_u64().ok()?,
            crc: r.get_u32().ok()?,
        },
        3 => Record::Commit { gen: r.get_u64().ok()? },
        4 => Record::Retire {
            gen: r.get_u64().ok()?,
            reason: RetireReason::from_u8(r.get_u8().ok()?)?,
        },
        5 => Record::Bound { gen: r.get_u64().ok()?, eps_bits: r.get_u64().ok()? },
        _ => return None,
    };
    r.expect_end().ok()?;
    Some(rec)
}

/// The one interpreter of records: how a generation map comes to
/// mirror the log. [`Store::open`](crate::Store::open) replays the
/// valid log prefix through it, and every live operation runs it on the
/// records it has just made durable — it takes nothing else — so the
/// in-memory map is by construction what a reopen would rebuild.
/// Idempotent, so a log tail replays cleanly over a snapshot that
/// already captured it; a record naming a generation or rank the map
/// does not hold is ignored.
pub(crate) fn apply(gens: &mut BTreeMap<u64, GenState>, records: &Durable<[Record]>) {
    for rec in records.iter() {
        match *rec {
            Record::Begin { gen, step, format, base_gen, ranks } => {
                // A log tail replayed over a snapshot keeps the entry
                // the snapshot seeded.
                if let (None, Ok(ranks)) = (gens.get(&gen), usize::try_from(ranks)) {
                    let fresh = GenState {
                        step,
                        format,
                        base_gen,
                        segs: vec![None; ranks],
                        committed: false,
                        retired: None,
                        error_bound: None,
                    };
                    gens.insert(gen, fresh);
                }
            }
            Record::Seg { gen, rank, payload_len, crc } => {
                let slot = usize::try_from(rank)
                    .ok()
                    .and_then(|rank| gens.get_mut(&gen)?.segs.get_mut(rank));
                if let Some(slot) = slot {
                    *slot = Some(SegRecord { payload_len, crc });
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
}

// ---------------------------------------------------------------------
// CSM2 manifest snapshot
//
// A snapshot is one CRC-framed image of the whole in-memory generation
// map plus the next generation id, written atomically by
// `Store::compact_manifest` (tmp → fsync → rename), after which the
// CSM1 log is truncated back to its header. Opening a store then costs
// O(live generations) — parse the snapshot, replay whatever short log
// tail accumulated since — instead of O(every record ever appended).
//
// ```text
// header : header8("CSM2", 1)
// frame  : len | crc | body
// body   : next_gen u64, gen_count u32, then per generation ascending:
//          gen u64, step u64, format u8, base_gen u64, committed u8,
//          retired u8 (0 live, 1 gc, 2 quarantine),
//          bound u8 (+ bound_bits u64 when 1), ranks u32, then per
//          rank: present u8 (+ payload_len u64 + crc u32 when 1)
// ```
//
// Unlike the tolerant CSM1 record scanner, the snapshot parser is
// all-or-nothing: any damage (bad header, CRC mismatch, trailing
// bytes, out-of-range tags) is an error, and `Store::open` falls back
// to replaying the log, quarantining the damaged snapshot file.

fn retired_to_u8(retired: Option<RetireReason>) -> u8 {
    match retired {
        None => 0,
        Some(r) => r.to_u8() + 1,
    }
}

fn retired_from_u8(v: u8) -> Option<Option<RetireReason>> {
    match v {
        0 => Some(None),
        _ => RetireReason::from_u8(v - 1).map(Some),
    }
}

/// Encodes the full snapshot file image (header + CRC frame) for
/// `next_gen` and the generation map; errors when the body would
/// exceed the bound the parser enforces.
pub(crate) fn encode_snapshot(next_gen: u64, gens: &BTreeMap<u64, GenState>) -> Result<Vec<u8>> {
    let mut body = Writer::with_capacity(16 + gens.len() * 64);
    body.put_u64(next_gen);
    body.put_count(gens.len());
    for (&gen, g) in gens {
        body.put_u64(gen);
        body.put_u64(g.step);
        body.put_u8(g.format.to_u8());
        body.put_u64(g.base_gen);
        body.put_u8(u8::from(g.committed));
        body.put_u8(retired_to_u8(g.retired));
        match g.error_bound {
            Some(eps) => {
                body.put_u8(1);
                body.put_u64(eps.to_bits());
            }
            None => body.put_u8(0),
        }
        body.put_count(g.segs.len());
        for seg in &g.segs {
            match seg {
                Some(m) => {
                    body.put_u8(1);
                    body.put_u64(m.payload_len);
                    body.put_u32(m.crc);
                }
                None => body.put_u8(0),
            }
        }
    }
    let body = body.into_bytes();
    let mut out = Writer::with_capacity(HEADER_LEN + 8 + body.len());
    out.put_bytes(&frame::header8(&CSM2));
    out.put_len_crc_body(&body, CSM2.max_body).map_err(snapshot_corrupt)?;
    Ok(out.into_bytes())
}

fn snapshot_corrupt(why: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt(format!("manifest snapshot: {why}"))
}

/// Parses a snapshot file image back into `(next_gen, gens)`. Strict:
/// any damage errors so recovery can fall back to log replay. The
/// parser is panic-free on arbitrary bytes — this is a decode module
/// (DESIGN.md §9).
pub(crate) fn parse_snapshot(bytes: &[u8]) -> Result<(u64, BTreeMap<u64, GenState>)> {
    let mut r = Reader::new(bytes);
    r.expect_header8(&CSM2)?;
    let body = r.get_len_crc_body(CSM2.max_body)?;
    r.expect_end()?;

    let mut r = Reader::new(body);
    let next_gen = r.get_u64()?;
    // Each generation needs at least 32 body bytes; a count promising
    // more than the body holds is garbage, refused before allocation.
    let gen_count = r.get_count(32)?;
    let mut gens = BTreeMap::new();
    let mut prev_gen: Option<u64> = None;
    for _ in 0..gen_count {
        let gen = r.get_u64()?;
        if prev_gen.is_some_and(|p| p >= gen) {
            return Err(snapshot_corrupt("generation ids not strictly ascending"));
        }
        prev_gen = Some(gen);
        if gen >= next_gen {
            return Err(snapshot_corrupt("generation id at or above next_gen"));
        }
        let step = r.get_u64()?;
        let format = SegmentFormat::from_u8(r.get_u8()?)
            .ok_or_else(|| snapshot_corrupt("unknown segment format"))?;
        let base_gen = r.get_u64()?;
        let committed = match r.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(snapshot_corrupt("bad committed flag")),
        };
        let retired = retired_from_u8(r.get_u8()?)
            .ok_or_else(|| snapshot_corrupt("unknown retire reason"))?;
        let error_bound = match r.get_u8()? {
            0 => None,
            1 => Some(f64::from_bits(r.get_u64()?)),
            _ => return Err(snapshot_corrupt("bad bound flag")),
        };
        let ranks = r.get_count(1)?;
        let mut segs = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            segs.push(match r.get_u8()? {
                0 => None,
                1 => Some(SegRecord {
                    payload_len: r.get_u64()?,
                    crc: r.get_u32()?,
                }),
                _ => return Err(snapshot_corrupt("bad segment presence flag")),
            });
        }
        gens.insert(
            gen,
            GenState { step, format, base_gen, segs, committed, retired, error_bound },
        );
    }
    r.expect_end()?;
    Ok((next_gen, gens))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Begin {
                gen: 1,
                step: 720,
                format: SegmentFormat::Checkpoint,
                base_gen: 1,
                ranks: 2,
            },
            Record::Seg { gen: 1, rank: 0, payload_len: 1234, crc: 0xDEADBEEF },
            Record::Seg { gen: 1, rank: 1, payload_len: 99, crc: 7 },
            Record::Bound { gen: 1, eps_bits: 1e-3f64.to_bits() },
            Record::Commit { gen: 1 },
            Record::Retire { gen: 1, reason: RetireReason::Quarantine },
        ]
    }

    fn image(records: &[Record]) -> Vec<u8> {
        let mut bytes = header_bytes().to_vec();
        for r in records {
            bytes.extend_from_slice(&encode_record(r));
        }
        bytes
    }

    #[test]
    fn records_roundtrip() {
        let recs = sample_records();
        let bytes = image(&recs);
        let scan = parse_manifest(&bytes).unwrap();
        assert_eq!(scan.records, recs);
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.offsets.len(), recs.len());
        assert_eq!(scan.offsets[0], HEADER_LEN);
    }

    #[test]
    fn bad_header_is_fatal() {
        assert!(parse_manifest(b"").is_err());
        assert!(parse_manifest(b"CSM").is_err());
        let mut bytes = header_bytes().to_vec();
        bytes[0] = b'X';
        assert!(parse_manifest(&bytes).is_err());
        let mut bytes = header_bytes().to_vec();
        bytes[4] = 99;
        assert!(parse_manifest(&bytes).is_err());
    }

    #[test]
    fn empty_manifest_is_valid() {
        let scan = parse_manifest(&header_bytes()).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, HEADER_LEN);
    }

    #[test]
    fn oversized_or_unknown_records_end_the_prefix() {
        let mut bytes = header_bytes().to_vec();
        // A frame claiming a 1 GiB body.
        bytes.extend_from_slice(&(1u32 << 30).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 100]);
        let scan = parse_manifest(&bytes).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, HEADER_LEN);

        // A well-framed record with an unknown kind byte.
        let mut bytes = Writer::new();
        bytes.put_bytes(&header_bytes());
        bytes.put_len_crc_body(&[9u8, 1, 2, 3], CSM1.max_body).unwrap();
        let scan = parse_manifest(&bytes.into_bytes()).unwrap();
        assert!(scan.records.is_empty());
    }

    #[test]
    fn format_and_reason_tags_roundtrip() {
        for f in [SegmentFormat::Checkpoint, SegmentFormat::Array, SegmentFormat::Increment] {
            assert_eq!(SegmentFormat::from_u8(f.to_u8()), Some(f));
            assert!(!f.name().is_empty());
        }
        assert_eq!(SegmentFormat::from_u8(9), None);
        assert_eq!(RetireReason::from_u8(0), Some(RetireReason::Gc));
        assert_eq!(RetireReason::from_u8(1), Some(RetireReason::Quarantine));
        assert_eq!(RetireReason::from_u8(2), None);
    }

    /// Random bytes after a valid header never panic the scanner.
    #[test]
    fn noise_scan_is_total() {
        let mut state = 77u64;
        for len in [0usize, 1, 7, 64, 1024] {
            let mut bytes = header_bytes().to_vec();
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                bytes.push((state >> 33) as u8);
            }
            let scan = parse_manifest(&bytes).unwrap();
            assert!(scan.valid_len <= bytes.len());
        }
    }

    fn sample_gens() -> BTreeMap<u64, GenState> {
        let mut gens = BTreeMap::new();
        gens.insert(
            3,
            GenState {
                step: 30,
                format: SegmentFormat::Array,
                base_gen: 0,
                segs: vec![Some(SegRecord { payload_len: 512, crc: 0xDEAD_BEEF }), None],
                committed: true,
                retired: None,
                error_bound: Some(1e-3),
            },
        );
        gens.insert(
            7,
            GenState {
                step: 70,
                format: SegmentFormat::Increment,
                base_gen: 3,
                segs: vec![Some(SegRecord { payload_len: 64, crc: 7 })],
                committed: true,
                retired: Some(RetireReason::Gc),
                error_bound: None,
            },
        );
        gens
    }

    #[test]
    fn snapshot_roundtrips() {
        let gens = sample_gens();
        let bytes = encode_snapshot(11, &gens).unwrap();
        let (next_gen, parsed) = parse_snapshot(&bytes).unwrap();
        assert_eq!(next_gen, 11);
        assert_eq!(parsed, gens);

        let empty = BTreeMap::new();
        let bytes = encode_snapshot(1, &empty).unwrap();
        let (next_gen, parsed) = parse_snapshot(&bytes).unwrap();
        assert_eq!((next_gen, parsed.len()), (1, 0));
    }

    /// A snapshot file image around a hand-built body.
    fn snapshot_image(body: Writer) -> Vec<u8> {
        let mut out = Writer::new();
        out.put_bytes(&frame::header8(&CSM2));
        out.put_len_crc_body(&body.into_bytes(), CSM2.max_body).unwrap();
        out.into_bytes()
    }

    #[test]
    fn snapshot_rejects_trailing_bytes_bad_version_and_counts() {
        let good = encode_snapshot(11, &sample_gens()).unwrap();
        // Trailing garbage after the frame is refused — no tolerant
        // tail scan here.
        let mut long = good.clone();
        long.push(0);
        assert!(parse_snapshot(&long).is_err());

        let mut bad_version = good;
        bad_version[4] = CSM2.version + 1;
        assert!(parse_snapshot(&bad_version).is_err());

        // A generation-count far beyond the body must be refused before
        // any allocation happens.
        let mut body = Writer::new();
        body.put_u64(1); // next_gen
        body.put_u32(u32::MAX); // gen_count
        assert!(parse_snapshot(&snapshot_image(body)).is_err());
    }

    #[test]
    fn snapshot_rejects_disordered_or_future_gens() {
        let mut gens = sample_gens();
        // gen >= next_gen
        let bytes = encode_snapshot(5, &gens).unwrap();
        assert!(parse_snapshot(&bytes).is_err());

        // Duplicate-id ordering violations can't be built through the
        // BTreeMap encoder, so splice two copies of the same gen body.
        gens.remove(&7);
        let one = encode_snapshot(11, &gens).unwrap();
        let body = &one[HEADER_LEN + 8..];
        let gen_body = &body[12..]; // past next_gen + gen_count
        let mut dup = Writer::new();
        dup.put_u64(11);
        dup.put_u32(2);
        dup.put_bytes(gen_body);
        dup.put_bytes(gen_body);
        assert!(parse_snapshot(&snapshot_image(dup)).is_err());
    }
}
