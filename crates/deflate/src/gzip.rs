//! gzip container (RFC 1952): the format the paper applies to its
//! formatted lossy output and uses as the lossless baseline.

// Decoder hardening (DESIGN.md §9): product code here is total on damaged bytes.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing, clippy::unwrap_used,
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::panic_in_result_fn, clippy::missing_panics_doc))]

use crate::crc32::crc32;
use crate::frame::Reader;
use crate::inflate::{inflate_into, Output};
use crate::{deflate, DeflateError, Level};

const MAGIC: [u8; 2] = [0x1F, 0x8B];
const CM_DEFLATE: u8 = 8;
const OS_UNKNOWN: u8 = 255;

/// Compresses `data` into a single-member gzip stream. The header goes
/// into the buffer the encoder then writes the body behind, and the
/// trailer follows the body: the body is never copied.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    let mut header = Vec::with_capacity(10);
    header.extend_from_slice(&MAGIC);
    header.push(CM_DEFLATE);
    header.push(0); // FLG: no extra fields
    header.extend_from_slice(&[0, 0, 0, 0]); // MTIME: unset
    header.push(0); // XFL: no flag for the one effort
    header.push(OS_UNKNOWN);
    let mut out = deflate::compress_after(header, data, level);
    out.extend_from_slice(&crc32(data).to_le_bytes());
    #[expect(clippy::as_conversions, reason = "encoder: ISIZE is the length mod 2^32 (RFC 1952)")]
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Decompresses a gzip stream — one member or several concatenated
/// members (RFC 1952 §2.2 requires accepting both) — verifying each
/// member's CRC-32 and ISIZE, with a decompression-bomb cap on the
/// total output size. Each member is decoded onto the end of the one
/// output.
pub fn decompress_with_limit(data: &[u8], max_output: usize) -> Result<Vec<u8>, DeflateError> {
    if data.is_empty() {
        return Err(DeflateError::BadContainer("too short for gzip"));
    }
    let mut out = Vec::new();
    let mut pos = 0usize;
    while let Some(rest) = data.get(pos..).filter(|r| !r.is_empty()) {
        let budget = max_output.saturating_sub(out.len());
        // A member is at least 18 bytes, so `pos` strictly advances.
        pos = pos.saturating_add(decompress_member(rest, &mut out, budget)?);
    }
    Ok(out)
}

/// Decompresses a gzip stream (single- or multi-member), verifying
/// CRC-32 and ISIZE of every member.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DeflateError> {
    decompress_with_limit(data, usize::MAX)
}

/// Decompresses exactly one gzip member from the front of `data` onto
/// the end of `out`, at most `max_output` bytes of it, and returns the
/// member's total size in bytes. The member's back-references reach
/// only its own bytes. Trailing bytes after the member are left for the
/// caller (the next member of a concatenated stream, typically). On
/// error `out` keeps its length.
pub fn decompress_member(
    data: &[u8],
    out: &mut Vec<u8>,
    max_output: usize,
) -> Result<usize, DeflateError> {
    member_into(data, out, max_output)
}

/// The crate's one member decoder, onto a `Vec` or into a slot. The
/// trailer's CRC-32 and ISIZE are checked against what inflate reports
/// it wrote, so no second pass over the output is needed to verify it.
pub(crate) fn member_into<O: Output>(
    data: &[u8],
    out: &mut O,
    max_output: usize,
) -> Result<usize, DeflateError> {
    let body_off = member_body_offset(data)?;
    // The body runs at most to the last 8 bytes, which can only be trailer.
    let body_end = data.len().checked_sub(8).ok_or(DeflateError::UnexpectedEof)?;
    let body = data.get(body_off..body_end).ok_or(DeflateError::UnexpectedEof)?;
    let start = out.end();
    // The last ISIZE in `data`: this member's when it is the last one,
    // and only a hint either way, which `reserve_for` caps.
    let claimed = data.last_chunk().map_or(0, |&size| crate::usize_from_u32(u32::from_le_bytes(size)));
    out.reserve_for(claimed, body.len(), max_output);
    let (crc, consumed) = inflate_into(body, out, max_output)?;
    let len = crate::u64_from_usize(out.end() - start);
    check_trailer(data, body_off, consumed, crc, len).inspect_err(|_| out.set_end(start))
}

/// Checks the trailer that follows a body of `consumed` bytes — CRC-32,
/// then ISIZE — against the `crc` and `len` of what the body decoded
/// to, and returns the offset just past it: the member's size.
fn check_trailer(
    data: &[u8],
    body_off: usize,
    consumed: usize,
    crc: u32,
    len: u64,
) -> Result<usize, DeflateError> {
    let trailer = body_off.checked_add(consumed).ok_or(DeflateError::UnexpectedEof)?;
    let mut t = Reader::at(data, trailer);
    let stored_crc = t.get_u32()?;
    let stored_size = t.get_u32()?;
    if stored_crc != crc {
        return Err(DeflateError::ChecksumMismatch { stored: stored_crc, computed: crc });
    }
    #[expect(
        clippy::as_conversions,
        reason = "RFC 1952 defines ISIZE as the uncompressed length modulo 2^32, so the truncating \
                  cast implements the field's specified semantics rather than losing information"
    )]
    let computed_size = len as u32;
    if stored_size != computed_size {
        return Err(DeflateError::SizeMismatch { stored: stored_size, computed: computed_size });
    }
    Ok(trailer.saturating_add(8))
}

/// Parses one member's gzip header and returns the offset at which its
/// DEFLATE body begins. Validates the magic and compression method and
/// walks the optional FEXTRA/FNAME/FCOMMENT/FHCRC fields, but does not
/// touch the body.
fn member_body_offset(data: &[u8]) -> Result<usize, DeflateError> {
    if data.len() < 18 {
        return Err(DeflateError::BadContainer("too short for gzip"));
    }
    let &[m0, m1, cm, flg, ..] = data else {
        return Err(DeflateError::BadContainer("too short for gzip"));
    };
    if [m0, m1] != MAGIC {
        return Err(DeflateError::BadContainer("bad magic"));
    }
    if cm != CM_DEFLATE {
        return Err(DeflateError::BadContainer("unsupported compression method"));
    }
    let mut pos = 10usize;
    // FEXTRA
    if flg & 0x04 != 0 {
        let xlen = usize::from(Reader::at(data, pos).get_u16()?);
        pos = pos.checked_add(2 + xlen).ok_or(DeflateError::UnexpectedEof)?;
    }
    // FNAME, FCOMMENT: zero-terminated strings.
    for flag in [0x08u8, 0x10] {
        if flg & flag != 0 {
            let end = data
                .get(pos..)
                .ok_or(DeflateError::UnexpectedEof)?
                .iter()
                .position(|&b| b == 0)
                .ok_or(DeflateError::UnexpectedEof)?;
            pos = pos.checked_add(end + 1).ok_or(DeflateError::UnexpectedEof)?;
        }
    }
    // FHCRC
    if flg & 0x02 != 0 {
        pos = pos.checked_add(2).ok_or(DeflateError::UnexpectedEof)?;
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        // Repeats go out as a coded block, a gate block of noise behind
        // them as stored blocks.
        let mut data = b"checkpoint data checkpoint data checkpoint data".repeat(100);
        let mut s = 1u64;
        data.extend((0..deflate::GATE_BLOCK).map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 56) as u8
        }));
        let packed = compress(&data, Level::Default);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    /// A member reserves what its trailer says it holds, so a full
    /// decode writes into one allocation; a claim past what its body can
    /// inflate to reserves no more than DEFLATE's worst case of it.
    #[test]
    fn a_member_reserves_its_isize_and_no_more_than_its_body_can_hold() {
        let data = b"checkpoint data, restored ".repeat(4000);
        let packed = compress(&data, Level::Default);
        let mut out = Vec::new();
        decompress_member(&packed, &mut out, usize::MAX).unwrap();
        assert_eq!((out.len(), out.capacity()), (data.len(), data.len()), "one allocation of ISIZE");

        let mut lying = compress(b"abc", Level::Default);
        let n = lying.len();
        lying[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes()); // ISIZE: 4 GiB
        let body = n - 10 - 8;
        let mut out = Vec::new();
        assert!(matches!(
            decompress_member(&lying, &mut out, usize::MAX),
            Err(DeflateError::SizeMismatch { .. })
        ));
        assert!(out.is_empty());
        let cap = body * crate::inflate::MAX_EXPANSION;
        assert!(out.capacity() <= cap, "reserved {} B over a {body} B body", out.capacity());
        let mut out = Vec::new();
        assert!(decompress_member(&lying, &mut out, 100).is_err());
        assert!(out.capacity() <= 100, "reserved {} B under a 100 B cap", out.capacity());
    }

    #[test]
    fn header_fields() {
        let packed = compress(b"x", Level::Default);
        assert_eq!(&packed[0..2], &[0x1F, 0x8B]);
        assert_eq!(packed[2], 8);
        assert_eq!(packed[9], 255);
    }

    #[test]
    fn corrupt_crc_detected() {
        let mut packed = compress(b"hello hello hello", Level::Default);
        let n = packed.len();
        packed[n - 6] ^= 0xFF; // flip a CRC byte
        assert!(matches!(decompress(&packed), Err(DeflateError::ChecksumMismatch { .. })));
    }

    #[test]
    fn corrupt_size_detected() {
        let mut packed = compress(b"hello hello hello", Level::Default);
        let n = packed.len();
        packed[n - 1] ^= 0x01;
        assert!(matches!(decompress(&packed), Err(DeflateError::SizeMismatch { .. })));
    }

    #[test]
    fn corrupt_body_detected() {
        let mut packed = compress(&vec![9u8; 10_000], Level::Default);
        packed[15] ^= 0x55;
        assert!(decompress(&packed).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut packed = compress(b"x", Level::Default);
        packed[0] = 0;
        assert!(matches!(decompress(&packed), Err(DeflateError::BadContainer(_))));
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn fname_flag_parsed() {
        // Build a member with FNAME by hand: set FLG bit 3 and insert a
        // zero-terminated name after the 10-byte header.
        let mut packed = compress(b"named", Level::Default);
        packed[3] |= 0x08;
        let mut with_name = packed[..10].to_vec();
        with_name.extend_from_slice(b"file.bin\0");
        with_name.extend_from_slice(&packed[10..]);
        assert_eq!(decompress(&with_name).unwrap(), b"named");
    }

    #[test]
    fn empty_payload() {
        let packed = compress(&[], Level::Default);
        assert_eq!(decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn concatenated_members_roundtrip() {
        // RFC 1952 §2.2: a gzip file is a series of members; decoding
        // must yield the concatenation of their payloads.
        let parts: [&[u8]; 4] = [b"alpha alpha alpha", b"", b"beta", b"gamma gamma"];
        let mut stream = Vec::new();
        let mut expect = Vec::new();
        for p in parts {
            stream.extend_from_slice(&compress(p, Level::Default));
            expect.extend_from_slice(p);
        }
        assert_eq!(decompress(&stream).unwrap(), expect);
    }

    #[test]
    fn member_parse_reports_exact_size() {
        let a = compress(b"first member", Level::Default);
        let b = compress(b"second member", Level::Default);
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let mut out = Vec::new();
        let consumed = decompress_member(&stream, &mut out, usize::MAX).unwrap();
        assert_eq!(out, b"first member");
        assert_eq!(consumed, a.len());
        let consumed2 = decompress_member(&stream[consumed..], &mut out, usize::MAX).unwrap();
        assert_eq!(out, b"first membersecond member");
        assert_eq!(consumed2, b.len());
    }

    #[test]
    fn corrupt_second_member_detected() {
        let mut stream = compress(b"good data good data", Level::Default);
        let second = compress(b"also good data here", Level::Default);
        let at = stream.len() + second.len() - 6; // CRC byte of member 2
        stream.extend_from_slice(&second);
        stream[at] ^= 0xFF;
        assert!(matches!(decompress(&stream), Err(DeflateError::ChecksumMismatch { .. })));
    }

    #[test]
    fn trailing_garbage_after_member_rejected() {
        let mut stream = compress(b"payload payload", Level::Default);
        stream.push(0);
        assert!(decompress(&stream).is_err());
    }

    #[test]
    fn output_limit_spans_members() {
        let mut stream = compress(&vec![1u8; 600], Level::Default);
        stream.extend_from_slice(&compress(&vec![2u8; 600], Level::Default));
        assert_eq!(decompress_with_limit(&stream, 1200).unwrap().len(), 1200);
        assert!(matches!(
            decompress_with_limit(&stream, 1000),
            Err(DeflateError::OutputLimit { .. })
        ));
    }

    /// Every member starts with no history: a second member that opens
    /// with a distance-1 match is refused, though the member before it
    /// left bytes in the output. The trailer records what a decoder that
    /// reached back would have produced, so only the refusal passes.
    #[test]
    fn a_member_cannot_reach_back_into_the_member_before_it() {
        use crate::bitio::{reverse_bits, BitWriter};
        let mut w = BitWriter::new();
        w.write_bits(0, 1); // not final
        w.write_bits(0b01, 2); // fixed Huffman
        w.write_bits(u64::from(reverse_bits(1, 7)), 7); // length symbol 257: 3
        w.write_bits(0, 5); // distance symbol 0: 1
        w.write_bits(0, 7); // end-of-block
        // A final stored block, so the body is long enough for the fast
        // loop to meet the match first.
        w.write_bits(1, 1);
        w.write_bits(0b00, 2);
        w.align_byte();
        w.write_bits(10, 16);
        w.write_bits(!10 & 0xFFFF, 16);
        w.write_bytes(b"0123456789");
        let reached_back = b"ccc0123456789";
        let mut stream = compress(b"abc", Level::Default);
        stream.extend_from_slice(&compress(b"", Level::Default)[..10]);
        stream.extend_from_slice(&w.finish());
        stream.extend_from_slice(&crc32(reached_back).to_le_bytes());
        stream.extend_from_slice(&(reached_back.len() as u32).to_le_bytes());
        assert_eq!(
            decompress(&stream).unwrap_err().to_string(),
            "match distance 1 exceeds available history 0"
        );
    }
}
