//! Segmentation-boundary tests for the multi-block encoder, and the
//! noise gate's: where a stored run may begin and end, what it costs,
//! and that every reader of the crate decodes a stream that has them.

use crate::deflate::{compress, GATE_BLOCK, SEGMENT_BYTES};
use crate::inflate::inflate_into;
use crate::{chunked, decompress, gzip, Level};

fn lcg(n: usize, mut s: u64) -> Vec<u8> {
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as u8
        })
        .collect()
}

#[test]
fn sizes_around_segment_boundary_roundtrip() {
    for delta in [-2i64, -1, 0, 1, 2] {
        let n = (SEGMENT_BYTES as i64 + delta) as usize;
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        let packed = compress(&data, Level::Default);
        assert_eq!(decompress(&packed).unwrap(), data, "n = {n}");
    }
}

#[test]
fn many_segments_roundtrip() {
    // > 4 segments of compressible data.
    let data: Vec<u8> = (0..SEGMENT_BYTES * 4 + 12345).map(|i| ((i / 64) % 200) as u8).collect();
    let packed = compress(&data, Level::Default);
    assert!(packed.len() < data.len() / 4);
    assert_eq!(decompress(&packed).unwrap(), data);
}

#[test]
fn heterogeneous_stream_benefits_from_segmentation() {
    // First half: smooth f64 bytes (high entropy); second half: a
    // near-constant index stream (low entropy). Per-segment tables must
    // at minimum roundtrip; the size should beat treating all bytes
    // with one suboptimal table by a sane margin vs stored.
    let mut data = Vec::new();
    for i in 0..40_000 {
        let v = 300.0 + (i as f64 * 0.001).sin() * 40.0;
        data.extend_from_slice(&v.to_le_bytes());
    }
    data.extend(std::iter::repeat_n(7u8, 300_000));
    let packed = compress(&data, Level::Default);
    assert_eq!(decompress(&packed).unwrap(), data);
    // The constant tail must compress to almost nothing.
    assert!(
        packed.len() < 320_000 + 16_000,
        "{} bytes: constant tail not squeezed",
        packed.len()
    );
}

#[test]
fn matches_crossing_segment_boundaries_resolve() {
    // A long repeated motif ensures back-references span segment cuts.
    let motif = lcg(1000, 99);
    let mut data = Vec::new();
    while data.len() < SEGMENT_BYTES * 2 + 500 {
        data.extend_from_slice(&motif);
    }
    let packed = compress(&data, Level::Default);
    assert_eq!(decompress(&packed).unwrap(), data);
    assert!(packed.len() < data.len() / 10, "repeats must compress");
}

#[test]
fn incompressible_multi_segment_falls_back_to_stored_per_segment() {
    let data = lcg(SEGMENT_BYTES * 2 + 7777, 5);
    let packed = compress(&data, Level::Default);
    // Expansion bounded by stored-block overhead (~5 bytes per 64 KiB).
    assert!(packed.len() <= data.len() + 64);
    assert_eq!(decompress(&packed).unwrap(), data);
}

/// Low-entropy bytes with matches to find: a period-97 ramp.
fn ramp(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 97) as u8).collect()
}

/// structured | noise | structured (| a noise tail shorter than a block):
/// the noise begins `lead` bytes in and ends `edge` bytes past a block
/// boundary (negative: short of it).
fn sandwich(lead: usize, edge: i64, noise_tail: bool) -> Vec<u8> {
    let noise_end = (4 * GATE_BLOCK as i64 + edge) as usize;
    let mut data = ramp(lead);
    data.extend(lcg(noise_end - lead, lead as u64));
    data.extend(ramp(5000));
    if noise_tail {
        data.extend(lcg(GATE_BLOCK / 3, 3));
    }
    data
}

/// Every reader of the crate decodes `data` back: `packed` through
/// inflate (which must stop on the stream's last byte), and
/// `data` written as a gzip member and as a `WPK1` container decoded on
/// two threads (40 000-byte chunks put the gate's grid somewhere else
/// in every chunk).
fn decodes_everywhere(packed: &[u8], data: &[u8], what: &str) {
    let mut whole = Vec::new();
    let (_, consumed) = inflate_into(packed, &mut whole, data.len()).unwrap();
    assert!(whole == data, "{what}: inflate");
    assert_eq!(consumed, packed.len(), "{what}: where the stream ends");
    let member = gzip::compress(data, Level::Default);
    let mut out = Vec::new();
    let size = gzip::decompress_member(&member, &mut out, data.len()).unwrap();
    assert_eq!(size, member.len(), "{what}");
    assert!(out == data, "{what}: gzip member");
    let container = chunked::compress_chunked(data, Level::Default, 40_000, 2);
    assert!(chunked::decompress_chunked(&container, 2).unwrap() == data, "{what}: WPK1");
}

#[test]
fn stored_runs_beginning_and_ending_around_block_boundaries_decode_everywhere() {
    let block = GATE_BLOCK as i64;
    for lead in [block - 1, block, block + 1] {
        for edge in [-1i64, 0, 1] {
            for noise_tail in [false, true] {
                let data = sandwich(lead as usize, edge, noise_tail);
                let what = format!("lead {lead}, edge {edge}, tail {noise_tail}");
                let packed = compress(&data, Level::Default);
                // The two whole blocks inside the noise are stored
                // unsearched; the ramps still compress.
                assert!(packed.len() < data.len() - 4000, "{what}: {} bytes", packed.len());
                decodes_everywhere(&packed, &data, &what);
            }
        }
    }
}

#[test]
fn a_stream_that_ends_on_a_stored_run_has_no_trailer_block() {
    // Structure, then noise to the last byte on a block boundary: the
    // run's last chunk carries BFINAL, so the stream is the coded block,
    // 5 bytes of stored header and the noise — nothing behind it.
    let mut data = ramp(GATE_BLOCK);
    data.extend(lcg(2 * GATE_BLOCK, 8));
    let head = compress(&data[..GATE_BLOCK], Level::Default).len();
    let packed = compress(&data, Level::Default);
    assert!(packed.len() <= head + 5 + 2 * GATE_BLOCK, "{} vs {head}", packed.len());
    assert_eq!(&packed[packed.len() - 2 * GATE_BLOCK..], &data[GATE_BLOCK..]);
    decodes_everywhere(&packed, &data, "noise to the end");
}

/// The accepted trade, in words: the gate looks at a block's byte
/// histogram and nothing else, so a block that is flat at order 0 is
/// stored even when it is a copy of the block before it — only the
/// search the gate exists to skip could have told. Checkpoint planes do
/// not repeat at that scale; what the rule guarantees instead is that
/// such input is never *expanded* beyond the stored-block overhead.
#[test]
fn an_order0_flat_block_that_repeats_inside_the_window_is_stored_not_searched() {
    let block = lcg(GATE_BLOCK, 21);
    let data = [block.as_slice(), &block].concat();
    let packed = compress(&data, Level::Default);
    assert_eq!(packed.len(), data.len() + 5, "one stored chunk");
    assert!(decompress(&packed).unwrap() == data);
    // Below the gate's unit the copy is the matcher's again.
    let short = [&block[..GATE_BLOCK / 2 - 1], &block[..GATE_BLOCK / 2 - 1]].concat();
    assert!(compress(&short, Level::Default).len() < GATE_BLOCK / 2 + 300);
}
