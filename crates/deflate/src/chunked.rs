//! Chunked multi-member gzip container ("WPK1") for intra-array
//! parallel compression.
//!
//! The payload is split into fixed-size chunks (independent of the
//! worker count, so the output bytes depend only on the input, the
//! level, and `chunk_bytes`). Each chunk is compressed into a complete
//! gzip member (RFC 1952) on whichever worker claims it, and once every
//! member is finished they are written back to back behind a small
//! header that records where each one starts. Decompression reads the
//! chunk index and inflates members concurrently into disjoint regions
//! of the output buffer.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic "WPK1"
//!      4     1  version (1)
//!      5     1  reserved (0)
//!      6     4  chunk_count: u32
//!     10     8  total uncompressed length: u64
//!     18     8  chunk_bytes (uncompressed size of every chunk but the
//!               last): u64
//!     26     4  CRC-32 of the whole uncompressed payload (combined
//!               from per-chunk CRCs via crc32_combine)
//!     30  8×N  compressed length of each member: u64
//!      …        N concatenated gzip members
//! ```
//!
//! Because every member is a conforming gzip stream and members are
//! stored back to back, the body after the chunk index is itself a
//! valid concatenated-member gzip file: `gzip::decompress` on
//! `&data[30 + 8 * n…]` recovers the payload serially, which keeps the
//! format debuggable with standard tooling.

// Decoder hardening (DESIGN.md §9): product code here is total on damaged bytes.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing, clippy::unwrap_used,
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::panic_in_result_fn, clippy::missing_panics_doc))]

use crate::crc32::crc32_combine;
use crate::frame::{Reader, Writer, WPK1};
use crate::{gzip, DeflateError, Level};
use std::io::Cursor;
use std::sync::{Mutex, PoisonError};

/// Default uncompressed chunk size: 1 MiB balances parallel grain
/// against per-member header/trailer and match-window reset costs.
pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// Size of the fixed header: what [`parse_header`] needs, and where the
/// chunk index starts.
pub const HEADER_BYTES: usize = 30;

/// DEFLATE's worst-case expansion is ~1032:1 (one bit per 258-byte
/// match run); a header claiming more than this over the body size is
/// a decompression bomb and is rejected before the output allocation.
const MAX_EXPANSION: usize = 1032;

/// The CRC-32 stored in a gzip member's trailer (last 8 bytes: CRC
/// then ISIZE).
fn member_stored_crc(member: &[u8]) -> Result<u32, DeflateError> {
    let at = member.len().checked_sub(8).ok_or(DeflateError::UnexpectedEof)?;
    Ok(Reader::at(member, at).get_u32()?)
}

/// True if `data` starts with the chunked-container magic.
pub fn is_chunked(data: &[u8]) -> bool {
    data.starts_with(&WPK1.magic)
}

/// Compresses `data` into a WPK1 chunked container in memory:
/// [`compress_chunked_stream`] into a `Vec`. The output is
/// byte-identical for any `threads` value; only wall-clock time
/// changes.
pub fn compress_chunked(
    data: &[u8],
    level: Level,
    chunk_bytes: usize,
    threads: usize,
) -> Vec<u8> {
    let mut out = Vec::new();
    let Ok(_) = compress_chunked_stream(data, level, chunk_bytes, threads, &mut out);
    out
}

/// The 30-byte fixed header (layout in the module docs).
fn put_header(out: &mut Writer, chunks: usize, total: usize, chunk_bytes: usize, crc: u32) {
    out.put_bytes(&WPK1.magic);
    out.put_u8(WPK1.version);
    out.put_u8(0);
    out.put_count(chunks);
    out.put_u64(crate::u64_from_usize(total));
    out.put_u64(crate::u64_from_usize(chunk_bytes));
    out.put_u32(crc);
    debug_assert_eq!(out.len(), HEADER_BYTES);
}

/// Destination for a container write: sequential appends, each byte
/// written once.
pub trait StreamSink {
    /// Sink-side failure (I/O, injected kill, …). Infallible for
    /// in-memory sinks.
    type Error;
    /// Appends `bytes` at the current end of the stream.
    fn write(&mut self, bytes: &[u8]) -> Result<(), Self::Error>;
}

impl StreamSink for Vec<u8> {
    type Error = std::convert::Infallible;

    fn write(&mut self, bytes: &[u8]) -> Result<(), Self::Error> {
        self.extend_from_slice(bytes);
        Ok(())
    }
}

/// Compresses `data` into a WPK1 container and writes it into `sink` —
/// the one WPK1 encoder. Every chunk is deflated into a gzip member
/// first, on `threads` workers that claim chunks in index order; then
/// the header and chunk index go out as one append, followed by one
/// append per member. The sink contents depend only on `data`, `level`
/// and `chunk_bytes` — never on `threads` or the sink. Returns the
/// container length.
///
/// On a sink error the remaining members are not written and the error
/// is returned; the sink is left mid-container (callers with durability
/// needs discard the partial artifact, as the store's tmp/rename
/// protocol does).
#[expect(
    clippy::panic_in_result_fn,
    clippy::missing_panics_doc,
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "encoder: the chunk count and the members are this build's own output"
)]
pub fn compress_chunked_stream<S: StreamSink>(
    data: &[u8],
    level: Level,
    chunk_bytes: usize,
    threads: usize,
    sink: &mut S,
) -> Result<usize, S::Error> {
    let chunk_bytes = chunk_bytes.max(1);
    let chunks: Vec<&[u8]> = data.chunks(chunk_bytes).collect();
    assert!(
        u32::try_from(chunks.len()).is_ok(),
        "chunk count exceeds the u32 header field"
    );
    let workers = ckpt_pool::clamp_workers(threads, chunks.len());
    let members = ckpt_pool::map_tasks(chunks.len(), workers, |i| gzip::compress(chunks[i], level));

    let mut combined = 0u32;
    for (chunk, member) in chunks.iter().zip(&members) {
        let crc = member_stored_crc(member).expect("compressor emits complete gzip members");
        combined = crc32_combine(combined, crc, crate::u64_from_usize(chunk.len()));
    }
    let mut head = Writer::with_capacity(HEADER_BYTES + 8 * members.len());
    put_header(&mut head, chunks.len(), data.len(), chunk_bytes, combined);
    for member in &members {
        head.put_u64(crate::u64_from_usize(member.len()));
    }
    let head = head.into_bytes();
    sink.write(&head)?;
    for member in &members {
        sink.write(member)?;
    }
    Ok(head.len() + members.iter().map(Vec::len).sum::<usize>())
}

/// Decompresses a WPK1 container using `threads` workers.
pub fn decompress_chunked(data: &[u8], threads: usize) -> Result<Vec<u8>, DeflateError> {
    decompress_chunked_with_limit(data, threads, usize::MAX)
}

/// The fixed header of a WPK1 container, cross-checked: the one parser
/// of bytes `0..HEADER_BYTES`, shared by the decoder and `ckpt info`'s
/// member table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Member count (== chunk count).
    pub chunk_count: usize,
    /// Total uncompressed payload length.
    pub total: usize,
    /// Uncompressed size of every chunk but the last.
    pub chunk_bytes: usize,
    /// Whole-payload CRC-32.
    pub stored_crc: u32,
}

/// Byte range of one gzip member inside a WPK1 container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberRange {
    /// Offset of the member's first byte within the container.
    pub offset: u64,
    /// Compressed length of the member.
    pub compressed_len: u64,
    /// Uncompressed chunk length the member decodes to.
    pub uncompressed_len: u64,
}

/// Parses and cross-checks the fixed header from the first
/// [`HEADER_BYTES`] of a container: magic, version, and a chunk count
/// that matches `ceil(total / chunk_bytes)`.
pub fn parse_header(prefix: &[u8]) -> Result<Header, DeflateError> {
    if prefix.len() < HEADER_BYTES {
        return Err(DeflateError::BadContainer("too short for chunked container"));
    }
    let mut r = Reader::new(prefix);
    r.expect_magic(&WPK1)?;
    r.expect_version(&WPK1)?;
    r.get_u8()?; // reserved
    let chunk_count = usize::try_from(r.get_u32()?)
        .map_err(|_| DeflateError::BadContainer("chunk count exceeds address space"))?;
    let total = usize::try_from(r.get_u64()?)
        .map_err(|_| DeflateError::BadContainer("payload length exceeds address space"))?;
    let chunk_bytes = usize::try_from(r.get_u64()?)
        .map_err(|_| DeflateError::BadContainer("chunk size exceeds address space"))?;
    let stored_crc = r.get_u32()?;
    // Cross-check the geometry before trusting any of it.
    let expect_chunks = if total == 0 { 0 } else { total.div_ceil(chunk_bytes.max(1)) };
    if chunk_bytes == 0 && total != 0 {
        return Err(DeflateError::BadContainer("zero chunk size"));
    }
    if chunk_count != expect_chunks {
        return Err(DeflateError::BadContainer("chunk count does not match geometry"));
    }
    Ok(Header { chunk_count, total, chunk_bytes, stored_crc })
}

impl Header {
    /// Length of the chunk index that follows the fixed header (one
    /// u64 compressed length per member).
    pub fn index_bytes(&self) -> usize {
        // chunk_count came from a u32.
        self.chunk_count.saturating_mul(8)
    }

    /// Member byte ranges from the chunk index — the `index_bytes()`
    /// bytes at offset [`HEADER_BYTES`] of a container `container_len`
    /// bytes long. The members must span the body exactly and the
    /// claimed payload must be one the body can physically inflate to.
    /// Nothing is decompressed.
    pub fn members(
        &self,
        index: &[u8],
        container_len: u64,
    ) -> Result<Vec<MemberRange>, DeflateError> {
        if index.len() != self.index_bytes() {
            return Err(DeflateError::UnexpectedEof);
        }
        let mut index = Reader::new(index);
        let body_start = crate::u64_from_usize(HEADER_BYTES + self.index_bytes());
        let mut at = body_start;
        let mut remaining = self.total;
        let mut out = Vec::with_capacity(self.chunk_count);
        for _ in 0..self.chunk_count {
            let compressed_len = index.get_u64()?;
            let uncompressed_len = remaining.min(self.chunk_bytes);
            remaining -= uncompressed_len;
            out.push(MemberRange {
                offset: at,
                compressed_len,
                uncompressed_len: crate::u64_from_usize(uncompressed_len),
            });
            at = at.checked_add(compressed_len).ok_or(DeflateError::UnexpectedEof)?;
        }
        if at != container_len {
            return Err(DeflateError::BadContainer("member lengths do not span the body"));
        }

        // Decompression-bomb guard: the members physically cannot expand
        // past MAX_EXPANSION× their stored size, so a header claiming more
        // is corrupt or adversarial. Checked before the output allocation
        // so a forged `total` cannot drive an over-allocation even when the
        // caller passed no output limit.
        let body_len = usize::try_from(container_len - body_start).unwrap_or(usize::MAX);
        if self.total > body_len.saturating_mul(MAX_EXPANSION).saturating_add(64) {
            return Err(DeflateError::BadContainer("claimed size exceeds maximum expansion"));
        }
        Ok(out)
    }
}

/// Validates the header, geometry, chunk index, and bomb guard of an
/// in-memory container and slices out its members, without inflating
/// anything.
fn parse_container(data: &[u8], max_output: usize) -> Result<(Header, Vec<&[u8]>), DeflateError> {
    let header = parse_header(data)?;
    if header.total > max_output {
        return Err(DeflateError::OutputLimit { limit: max_output });
    }
    let mut r = Reader::at(data, HEADER_BYTES);
    let index = r.get_bytes(header.index_bytes())?;
    let ranges = header.members(index, crate::u64_from_usize(data.len()))?;
    // The ranges tile the rest of `data` exactly, so every length fits.
    let mut members = Vec::with_capacity(ranges.len());
    for m in &ranges {
        let len = usize::try_from(m.compressed_len).map_err(|_| DeflateError::UnexpectedEof)?;
        members.push(r.get_bytes(len)?);
    }
    Ok((header, members))
}

/// Decodes the gzip member that is one slot of a container straight
/// into `slot`: beyond its own CRC-32 and ISIZE it must end where the
/// slot ends and inflate to exactly the slot's length, the bytes the
/// geometry gives its chunk.
fn decode_slot(member: &[u8], slot: &mut [u8]) -> Result<(), DeflateError> {
    let len = slot.len();
    let mut out = Cursor::new(slot);
    let size = gzip::member_into(member, &mut out, len)?;
    if size != member.len() {
        return Err(DeflateError::BadContainer("trailing bytes inside a member slot"));
    }
    if out.position() != crate::u64_from_usize(len) {
        return Err(DeflateError::SizeMismatch {
            stored: u32::try_from(len).unwrap_or(u32::MAX),
            computed: u32::try_from(out.position()).unwrap_or(u32::MAX),
        });
    }
    Ok(())
}

/// Decompresses a WPK1 container, erroring with
/// [`DeflateError::OutputLimit`] if the header claims more than
/// `max_output` bytes (checked before any allocation).
pub fn decompress_chunked_with_limit(
    data: &[u8],
    threads: usize,
    max_output: usize,
) -> Result<Vec<u8>, DeflateError> {
    let (Header { chunk_count, total, chunk_bytes, stored_crc }, members) =
        parse_container(data, max_output)?;

    let mut out = vec![0u8; total];
    // One disjoint `chunk_bytes`-strided slot of `out` per member. Each
    // lock is taken once, by the one task that fills its slot, so it is
    // never contended and a poisoned guard is never seen by anyone else.
    let slots: Vec<Mutex<&mut [u8]>> = out.chunks_mut(chunk_bytes.max(1)).map(Mutex::new).collect();
    debug_assert_eq!(slots.len(), chunk_count);
    // Clamp to the host: spawning past the core count only adds
    // scheduling overhead, and one effective worker runs inline with no
    // thread at all.
    let workers = ckpt_pool::clamp_workers(threads, chunk_count);
    let crcs = ckpt_pool::map_tasks(chunk_count, workers, |i| {
        let (Some(member), Some(slot)) = (members.get(i), slots.get(i)) else {
            return Err(DeflateError::BadContainer("member index outside the container"));
        };
        decode_slot(member, &mut slot.lock().unwrap_or_else(PoisonError::into_inner))?;
        // decode_slot just verified the member's CRC; reuse the stored
        // value.
        member_stored_crc(member)
    });
    drop(slots);

    // Combined-CRC cross-check ties the members to the header; the
    // first damaged member, in index order, is the error reported.
    let mut combined = 0u32;
    let mut remaining = total;
    for crc in crcs {
        let len = remaining.min(chunk_bytes.max(1));
        combined = crc32_combine(combined, crc?, crate::u64_from_usize(len));
        remaining -= len;
    }
    if combined != stored_crc {
        return Err(DeflateError::ChecksumMismatch { stored: stored_crc, computed: combined });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_bytes(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn roundtrip_across_sizes_and_threads() {
        for len in [0usize, 1, 100, 4096, 4097, 100_000] {
            let data = lcg_bytes(len, len as u64 + 1);
            for threads in [1usize, 2, 4, 8] {
                let packed = compress_chunked(&data, Level::Default, 4096, threads);
                let back = decompress_chunked(&packed, threads).unwrap();
                assert_eq!(back, data, "len={len} threads={threads}");
            }
        }
    }

    /// A sink that is not a `Vec`: every append is kept on its own.
    #[derive(Default)]
    struct Appends(Vec<Vec<u8>>);
    impl StreamSink for Appends {
        type Error = std::convert::Infallible;
        fn write(&mut self, bytes: &[u8]) -> Result<(), Self::Error> {
            self.0.push(bytes.to_vec());
            Ok(())
        }
    }

    #[test]
    fn every_sink_and_thread_count_receives_the_same_bytes() {
        for len in [0usize, 1, 4096, 4097, 50_000] {
            let data = lcg_bytes(len, len as u64 + 3);
            for chunk_bytes in [1000usize, 4096, 1 << 20] {
                let reference = compress_chunked(&data, Level::Default, chunk_bytes, 1);
                assert_eq!(decompress_chunked(&reference, 2).unwrap(), data);
                for threads in [2usize, 3, 4, 8, 16] {
                    let what = format!("len={len} chunk_bytes={chunk_bytes} threads={threads}");
                    assert_eq!(
                        compress_chunked(&data, Level::Default, chunk_bytes, threads),
                        reference,
                        "{what}"
                    );
                    let mut sink = Appends::default();
                    let written =
                        compress_chunked_stream(&data, Level::Default, chunk_bytes, threads, &mut sink)
                            .unwrap();
                    assert_eq!(sink.0.concat(), reference, "{what}");
                    assert_eq!(written, reference.len(), "{what}");
                }
            }
        }
    }

    #[test]
    fn a_sink_sees_the_header_and_index_then_one_append_per_member() {
        for (len, chunks) in [(0usize, 0usize), (1, 1), (30_000, 8)] {
            let data = lcg_bytes(len, 21);
            for threads in [1usize, 2, 4] {
                let mut sink = Appends::default();
                compress_chunked_stream(&data, Level::Default, 4096, threads, &mut sink).unwrap();
                let what = format!("len={len} threads={threads}");
                assert_eq!(sink.0.len(), 1 + chunks, "{what}");
                assert_eq!(sink.0[0].len(), HEADER_BYTES + 8 * chunks, "{what}");
                let packed = sink.0.concat();
                let ranges = parse_header(&packed)
                    .unwrap()
                    .members(&sink.0[0][HEADER_BYTES..], packed.len() as u64)
                    .unwrap();
                for (member, range) in sink.0[1..].iter().zip(&ranges) {
                    assert_eq!(member.len() as u64, range.compressed_len, "{what}");
                }
            }
        }
    }

    #[test]
    fn the_first_damaged_member_in_index_order_is_the_error() {
        let data = lcg_bytes(30_000, 23);
        let packed = compress_chunked(&data, Level::Default, 4096, 2);
        let ranges = parse_header(&packed)
            .unwrap()
            .members(&packed[HEADER_BYTES..HEADER_BYTES + 8 * 8], packed.len() as u64)
            .unwrap();
        // Flipping a member's stored CRC gives an error naming that CRC,
        // so the errors of members 2 and 5 differ.
        let flip = |bytes: &mut Vec<u8>, member: usize| {
            let r = &ranges[member];
            bytes[(r.offset + r.compressed_len - 8) as usize] ^= 0x5A;
        };
        let error_of = |bytes: &[u8], threads| format!("{:?}", decompress_chunked(bytes, threads).unwrap_err());
        let (mut only_2, mut only_5) = (packed.clone(), packed.clone());
        flip(&mut only_2, 2);
        flip(&mut only_5, 5);
        let mut both = only_2.clone();
        flip(&mut both, 5);
        assert_ne!(error_of(&only_2, 1), error_of(&only_5, 1));
        for threads in [1usize, 2, 4] {
            assert_eq!(error_of(&both, threads), error_of(&only_2, 1), "threads={threads}");
        }
    }

    #[test]
    fn stream_sink_error_aborts_mid_container() {
        struct Failing {
            writes_left: usize,
        }
        impl StreamSink for Failing {
            type Error = &'static str;
            fn write(&mut self, _bytes: &[u8]) -> Result<(), Self::Error> {
                if self.writes_left == 0 {
                    return Err("sink died");
                }
                self.writes_left -= 1;
                Ok(())
            }
        }
        let data = lcg_bytes(20_000, 22);
        // Dies after the header+index append and one member.
        let mut sink = Failing { writes_left: 2 };
        assert_eq!(
            compress_chunked_stream(&data, Level::Default, 2048, 4, &mut sink),
            Err("sink died")
        );
    }

    #[test]
    fn body_is_a_plain_concatenated_gzip_stream() {
        let data = b"interoperability matters ".repeat(500);
        let packed = compress_chunked(&data, Level::Default, 1000, 4);
        let chunk_count = u32::from_le_bytes(packed[6..10].try_into().unwrap()) as usize;
        let body = &packed[HEADER_BYTES + 8 * chunk_count..];
        assert_eq!(gzip::decompress(body).unwrap(), data);
    }

    #[test]
    fn detects_geometry_tampering() {
        let data = lcg_bytes(10_000, 5);
        let packed = compress_chunked(&data, Level::Default, 1024, 2);
        // Chunk count.
        let mut bad = packed.clone();
        bad[6] ^= 1;
        assert!(decompress_chunked(&bad, 2).is_err());
        // Total length.
        let mut bad = packed.clone();
        bad[10] ^= 1;
        assert!(decompress_chunked(&bad, 2).is_err());
        // Combined CRC.
        let mut bad = packed.clone();
        bad[27] ^= 0xFF;
        assert!(matches!(
            decompress_chunked(&bad, 2),
            Err(DeflateError::ChecksumMismatch { .. })
        ));
        // A member length in the index.
        let mut bad = packed.clone();
        bad[HEADER_BYTES] ^= 1;
        assert!(decompress_chunked(&bad, 2).is_err());
        // Truncated body.
        let bad = &packed[..packed.len() - 3];
        assert!(decompress_chunked(bad, 2).is_err());
    }

    #[test]
    fn member_payload_corruption_detected() {
        let data = lcg_bytes(30_000, 6);
        let packed = compress_chunked(&data, Level::Default, 4096, 2);
        let mut bad = packed.clone();
        let n = bad.len();
        bad[n - 20] ^= 0x40; // inside the last member
        assert!(decompress_chunked(&bad, 4).is_err());
    }

    #[test]
    fn limit_rejects_oversized_claims_before_allocating() {
        let data = lcg_bytes(100_000, 7);
        let packed = compress_chunked(&data, Level::Default, 8192, 2);
        assert!(matches!(
            decompress_chunked_with_limit(&packed, 2, 50_000),
            Err(DeflateError::OutputLimit { limit: 50_000 })
        ));
        assert_eq!(decompress_chunked_with_limit(&packed, 2, 100_000).unwrap(), data);
    }

    #[test]
    fn wrong_magic_is_not_chunked() {
        assert!(!is_chunked(b"WCK1rest"));
        assert!(!is_chunked(b"WP"));
        let packed = compress_chunked(b"x", Level::Default, 64, 1);
        assert!(is_chunked(&packed));
        assert!(decompress_chunked(b"\x1f\x8b\x08rest-of-gzip", 1).is_err());
    }

    /// A container whose header, index and bomb guard agree, holding
    /// `members` for a `total`-byte payload of CRC `crc` cut in
    /// `chunk_bytes` chunks.
    fn container(members: &[Vec<u8>], total: usize, chunk_bytes: usize, crc: u32) -> Vec<u8> {
        let mut head = Writer::with_capacity(HEADER_BYTES);
        put_header(&mut head, members.len(), total, chunk_bytes, crc);
        let mut out = head.into_bytes();
        for member in members {
            out.extend_from_slice(&(member.len() as u64).to_le_bytes());
        }
        out.extend(members.concat());
        out
    }

    #[test]
    fn a_member_must_fill_its_slot_exactly_and_end_where_it_ends() {
        let (chunk, data) = (1000, lcg_bytes(3000, 31));
        let crc = crate::crc32::crc32(&data);
        let good: Vec<Vec<u8>> =
            data.chunks(chunk).map(|c| gzip::compress(c, Level::Default)).collect();
        assert_eq!(decompress_chunked(&container(&good, 3000, chunk, crc), 2).unwrap(), data);
        let over = "decompressed output exceeds limit of 1000 bytes";
        for i in 0..good.len() {
            let mine = &data[i * chunk..(i + 1) * chunk];
            let cases = [
                // One byte past the slot, through a stored block and
                // through a match.
                (gzip::compress(&lcg_bytes(chunk + 1, 32), Level::Default), over),
                (gzip::compress(&vec![7u8; chunk + 1], Level::Default), over),
                (gzip::compress(&mine[1..], Level::Default), "size mismatch: stored 1000, computed 999"),
                ([good[i].as_slice(), &[0]].concat(), "bad container: trailing bytes inside a member slot"),
            ];
            for (member, want) in cases {
                let mut members = good.clone();
                members[i] = member;
                let packed = container(&members, data.len(), chunk, crc);
                for threads in [1, 4] {
                    let got = decompress_chunked(&packed, threads).unwrap_err().to_string();
                    assert_eq!(got, want, "member {i}, threads {threads}");
                }
            }
        }
    }
}
