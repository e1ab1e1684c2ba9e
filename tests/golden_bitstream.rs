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
//! new compressor emits, the new inflate reads back. The compressor has
//! one effort; its stored blocks are the noise gate's, pinned below on
//! the golden input's noise head.

// The proptest shim's ProptestConfig has only the fields we set.
#![allow(clippy::needless_update)]

mod common;

use common::golden_input;
use lossy_ckpt::deflate::{gzip, Level};
use proptest::collection::vec as pvec;
use proptest::prelude::*;


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
    let packed = gzip::compress(&input, Level::Default);
    assert_eq!(gzip::decompress(&packed).unwrap(), input);
}

/// The input's 32 KiB LCG head is two gate blocks of noise: it goes out
/// as one stored block (BTYPE 00) right behind the gzip header — its
/// LEN, its NLEN and its bytes verbatim — and the rest still decodes.
/// `gzip_interop` feeds the same stream to system gzip.
#[test]
fn the_noise_head_of_the_golden_input_goes_out_as_a_stored_block() {
    let input = golden_input();
    let packed = gzip::compress(&input, Level::Default);
    let block = &packed[10..];
    assert_eq!(block[0] & 0b111, 0, "BFINAL 0, BTYPE 00");
    let head = 32 * 1024;
    assert_eq!(&block[1..5], &[0x00, 0x80, 0xFF, 0x7F], "LEN {head} and its NLEN");
    assert!(block[5..5 + head] == input[..head], "the noise verbatim");
    assert_eq!(gzip::decompress(&packed).unwrap(), input);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn rewrite_roundtrips_arbitrary_bytes_all_levels(data in pvec(any::<u8>(), 0..16_000)) {
        let packed = gzip::compress(&data, Level::Default);
        prop_assert_eq!(&gzip::decompress(&packed).unwrap(), &data);
    }

    // Repetitive inputs hit the overlapping-copy fast path in inflate
    // and the deferred-match loop in the tokenizer.
    #[test]
    fn rewrite_roundtrips_repetitive_bytes(
        seed in pvec(any::<u8>(), 1..64),
        reps in 1usize..512,
    ) {
        let data: Vec<u8> = seed.iter().copied().cycle().take(seed.len() * reps).collect();
        let packed = gzip::compress(&data, Level::Default);
        prop_assert_eq!(&gzip::decompress(&packed).unwrap(), &data);
    }
}
