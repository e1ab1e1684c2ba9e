//! The encoder's bytes on a NICAM-sized array.
//!
//! The corpus pins encoder bytes only on samples of a few KiB, each one
//! DEFLATE block. A save of a 1156×82×2 field writes a stream of many
//! blocks: block ends chosen by the split rule, Huffman tables with
//! ties. These tests pin the length and CRC-32 of
//! three such streams — the `paper_proposed` gzip stream, its WPK1
//! container in 64 KiB chunks, and the `INC2` link between two states —
//! so a change that means to move no byte cannot move a split point, a
//! tie-break or a block type unseen.
//!
//! The inputs are built with integer arithmetic and exact scalings only
//! (dyadic values plus low bits from an LCG), so no libm call enters and
//! every host computes the same values.

use lossy_ckpt::core::incremental;
use lossy_ckpt::deflate::crc32::crc32;
use lossy_ckpt::deflate::{chunked, Level};
use lossy_ckpt::prelude::*;

const DIMS: [usize; 3] = [1156, 82, 2];

/// A smooth dyadic field — a ramp along each axis and a parabola
/// along the first — with 24 bits of LCG noise under 2^-6 in every
/// value: the mantissa planes a simulation leaves. `band` rows carry a
/// bump, the change an increment records.
fn state(band: std::ops::Range<usize>) -> Tensor<f64> {
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    let mut values = Vec::with_capacity(DIMS.iter().product());
    for i in 0..DIMS[0] {
        for j in 0..DIMS[1] {
            for k in 0..DIMS[2] {
                lcg = lcg
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let parabola = ((i * i) % 4096) as f64 / 1024.0;
                let trend = 256.0 + parabola + j as f64 * 0.5 + k as f64 * 32.0;
                let bump = if band.contains(&i) {
                    (j % 5) as f64 * 0.125
                } else {
                    0.0
                };
                // One value in sixteen jumps by up to 8: the tail a spike
                // partition leaves exact.
                let jump = if lcg >> 60 == 0 {
                    ((lcg >> 20) & 0xFF) as f64 / 32.0
                } else {
                    0.0
                };
                values.push(trend + bump + jump + (lcg >> 40) as f64 / (1u64 << 30) as f64);
            }
        }
    }
    Tensor::from_vec(&DIMS, values).unwrap()
}

fn pin(name: &str, bytes: &[u8], len: usize, crc: u32) {
    assert_eq!(
        (bytes.len(), crc32(bytes)),
        (len, crc),
        "{name}: (length, CRC-32) moved"
    );
}

#[test]
fn the_paper_proposed_gzip_stream_keeps_its_bytes() {
    let packed = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let bytes = packed.compress(&state(0..0)).unwrap().bytes;
    // (236,109 B, CRC 105,130,625 before the grid; 114,634 B, CRC
    // 3,223,725,198 with the spike quantizer on the grid; 114,922 B, CRC
    // 3,193,060,238 with the low band in band order; 118,338 B, CRC
    // 1,566,685,084 at the Haar kernel. This field's noise is white, so
    // the Lorenzo residuals are wider than band order's, and CDF 5/3's
    // high band, a value less half its two neighbours, is wider than
    // Haar's half difference.)
    pin("gzip stream", &bytes, 151_270, 1_369_851_976);
}

#[test]
fn its_wpk1_container_keeps_its_bytes() {
    let cfg = CompressorConfig::paper_proposed().with_container(Container::None);
    let formatted = Compressor::new(cfg)
        .unwrap()
        .compress(&state(0..0))
        .unwrap()
        .bytes;
    let container = chunked::compress_chunked(&formatted, Level::Default, 64 * 1024, 2);
    assert_eq!(
        chunked::parse_header(&container).unwrap().chunk_count,
        formatted.len().div_ceil(64 * 1024)
    );
    // (236,919 B, CRC 2,000,582,372 before the grid; 115,522 B, CRC
    // 1,744,719,618 with the spike quantizer on the grid; 115,371 B, CRC
    // 69,037,338 with the low band in band order; 118,765 B, CRC
    // 3,197,324,012 at the Haar kernel.)
    pin("WPK1 container", &container, 151_238, 738_778_999);
}

#[test]
fn the_inc2_link_between_two_states_keeps_its_bytes() {
    let (base, next) = (state(0..0), state(300..420));
    let (link, _) = incremental::increment(&base, &next, Level::Default).unwrap();
    pin("INC2 link", &link, 4_065, 2_563_636_614);
}
