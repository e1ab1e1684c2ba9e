//! The reference for the one DEFLATE engine is bytes no build writes
//! any more, not a second decoder.
//!
//! Every gzip member of every parent-written fixture under
//! `tests/corpus/` — `golden_*.gz` (the pre-rewrite encoder, whose
//! plaintext `golden_bitstream.rs` pins through the same member
//! decoder) and `decode_only_*.bin` (the encoder before the miss stride
//! and the transposed default, the encoder before the block-split rule,
//! the lossy array before the grid, the lossy array before the uniform
//! grid over the high band, the lossy array before the Lorenzo low
//! band, the lossy array before the CDF 5/3 default, the retired Lloyd-Max
//! writer, and the retired `Fast` effort's `WPK1` sample) —
//! decodes through `decompress_member` to bytes with the CRC-32 and
//! ISIZE the member's own trailer records, checked here by the
//! stand-alone `crc32`, not by the engine's running one.

mod common;

use lossy_ckpt::deflate::crc32::crc32;
use lossy_ckpt::deflate::{chunked, gzip};

/// The gzip members of a fixture: the file itself, or the slots of a
/// `WPK1` container.
fn members_of(fixture: &[u8]) -> Vec<&[u8]> {
    if !chunked::is_chunked(fixture) {
        return vec![fixture];
    }
    let header = chunked::parse_header(fixture).unwrap();
    let index = &fixture[chunked::HEADER_BYTES..][..header.index_bytes()];
    let ranges = header.members(index, fixture.len() as u64).unwrap();
    ranges.iter().map(|m| &fixture[m.offset as usize..][..m.compressed_len as usize]).collect()
}

#[test]
fn every_parent_written_member_decodes_to_its_recorded_crc_and_size() {
    let mut seen = 0;
    for entry in std::fs::read_dir(common::corpus_dir()).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if !(name.ends_with(".gz") || name.starts_with("decode_only_") && name.ends_with(".bin")) {
            continue;
        }
        let fixture = std::fs::read(common::corpus_dir().join(&name)).unwrap();
        // The manifest formats' decode-only samples hold no DEFLATE stream.
        if !(fixture.starts_with(&[0x1f, 0x8b]) || chunked::is_chunked(&fixture)) {
            continue;
        }
        seen += 1;
        let mut whole = Vec::new();
        for member in members_of(&fixture) {
            let before = whole.len();
            let size = gzip::decompress_member(member, &mut whole, usize::MAX).unwrap();
            assert_eq!(size, member.len(), "{name}");
            let reference = &whole[before..];
            let trailer = &member[member.len() - 8..];
            assert_eq!(crc32(reference).to_le_bytes(), trailer[..4], "{name}: recorded CRC-32");
            assert_eq!((reference.len() as u32).to_le_bytes(), trailer[4..], "{name}: ISIZE");
        }
        if name == "decode_only_wpk1_multichunk.bin" {
            assert!(whole == common::golden_wpk1_input(), "{name}: not its generator's bytes");
        }
    }
    assert_eq!(seen, 15, "golden_{{store,fast,default,best}}.gz and eleven decode_only_*.bin");
}
