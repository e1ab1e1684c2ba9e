//! Bitstream compatibility across the deflate kernel rewrite.
//!
//! `tests/corpus/golden_*.gz` were produced by the pre-rewrite encoder
//! (PR 1 era) from the fixed input below and committed as static
//! fixtures. The current inflate must decode them bit-exact: any
//! RFC-conformant stream ever written by this codebase stays readable,
//! which is the property checkpoint archives actually need — exact
//! compressed bytes may change between releases, decodability may not.
//!
//! The roundtrip proptests cover the other direction: everything the
//! new compressor emits, the new inflate reads back, at every level.

// The proptest shim's ProptestConfig has only the fields we set.
#![allow(clippy::needless_update)]

use lossy_ckpt::deflate::{gzip, Level};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// The fixed golden input: an LCG-noise head (poorly compressible), a
/// text run (dynamic-Huffman friendly), a zero page (RLE matches), and
/// an f64 table (the checkpoint-like section). Must never change — the
/// committed fixtures encode exactly these bytes.
fn golden_input() -> Vec<u8> {
    let mut data = Vec::with_capacity(104 * 1024);
    let mut state: u64 = 0x00C0_FFEE;
    for _ in 0..32 * 1024 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        data.push((state >> 33) as u8);
    }
    while data.len() < 64 * 1024 {
        data.extend_from_slice(b"the quick brown fox jumps over the lazy checkpoint. 0123456789 ");
    }
    data.truncate(64 * 1024);
    data.extend(std::iter::repeat_n(0u8, 8 * 1024));
    for i in 0..4096u32 {
        data.extend_from_slice(&f64::from(i).sqrt().to_le_bytes());
    }
    data
}

#[test]
fn new_inflate_decodes_pre_rewrite_fixtures_bit_exact() {
    let input = golden_input();
    for name in ["golden_store.gz", "golden_fast.gz", "golden_default.gz", "golden_best.gz"] {
        let path = format!("{}/tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"));
        let fixture = std::fs::read(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let decoded = gzip::decompress(&fixture)
            .unwrap_or_else(|e| panic!("{name} must stay decodable: {e}"));
        assert_eq!(decoded, input, "{name} decode is not bit-exact");
    }
}

#[test]
fn new_compressor_roundtrips_the_golden_input_at_every_level() {
    let input = golden_input();
    for level in [Level::Store, Level::Fast, Level::Default] {
        let packed = gzip::compress(&input, level);
        assert_eq!(gzip::decompress(&packed).unwrap(), input, "{level:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn rewrite_roundtrips_arbitrary_bytes_all_levels(data in pvec(any::<u8>(), 0..16_000)) {
        for level in [Level::Store, Level::Fast, Level::Default] {
            let packed = gzip::compress(&data, level);
            prop_assert_eq!(&gzip::decompress(&packed).unwrap(), &data);
        }
    }

    // Repetitive inputs hit the overlapping-copy fast path in inflate
    // and the deferred-match loop in the tokenizer.
    #[test]
    fn rewrite_roundtrips_repetitive_bytes(
        seed in pvec(any::<u8>(), 1..64),
        reps in 1usize..512,
    ) {
        let data: Vec<u8> = seed.iter().copied().cycle().take(seed.len() * reps).collect();
        for level in [Level::Fast, Level::Default] {
            let packed = gzip::compress(&data, level);
            prop_assert_eq!(&gzip::decompress(&packed).unwrap(), &data);
        }
    }
}
