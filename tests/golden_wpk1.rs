//! The byte anchor of the one WPK1 encoder.
//!
//! `tests/corpus/golden_wpk1_multichunk.bin` (six chunks, the last a
//! 521-byte tail; `examples/gen_corpus.rs`) is what the encoder writes
//! at one thread into a `Vec`; it must write the same file bit for bit
//! at every thread count and through both kinds of sink: a `Vec`, and
//! the store's `SegmentWriter` (appends, running CRC, rename). The CLI
//! writes the bytes `Compressor::compress` returns, which `ckpt-cli`'s
//! `the_output_file_holds_the_bytes_compress_returns` holds it to.
//!
//! `decode_only_wpk1_multichunk.bin` is the same input as the encoder
//! wrote it before the LZ77 matcher gained its miss stride — itself
//! reproduced bit for bit by the buffered encoder the streamed one
//! replaced. No build writes it any more; every build must read it.

mod common;

use lossy_ckpt::deflate::{chunked, Level};
use lossy_ckpt::store::{SegmentFormat, Store};
use std::fs;

fn golden() -> Vec<u8> {
    fs::read(common::corpus_dir().join("golden_wpk1_multichunk.bin")).unwrap()
}

#[test]
fn the_golden_container_is_what_its_generator_says() {
    let golden = golden();
    let header = chunked::parse_header(&golden).unwrap();
    assert_eq!(header.chunk_count, 6);
    assert_eq!(header.chunk_bytes, common::GOLDEN_WPK1_CHUNK);
    assert_eq!(chunked::decompress_chunked(&golden, 2).unwrap(), common::golden_wpk1_input());
}

#[test]
fn the_container_of_the_previous_matcher_still_decodes_bit_exact() {
    let old = fs::read(common::corpus_dir().join("decode_only_wpk1_multichunk.bin")).unwrap();
    assert_ne!(old, golden(), "a decode-only fixture the encoder still writes is not one");
    assert_eq!(chunked::parse_header(&old).unwrap().chunk_count, 6);
    for threads in [1usize, 2] {
        assert_eq!(chunked::decompress_chunked(&old, threads).unwrap(), common::golden_wpk1_input());
    }
}

#[test]
fn every_sink_reproduces_the_golden_container_at_every_thread_count() {
    let (golden, input) = (golden(), common::golden_wpk1_input());
    let dir = std::env::temp_dir().join(format!("ckpt-golden-wpk1-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut store = Store::open(&dir).unwrap();
    for threads in [1usize, 2, 4] {
        let chunk = common::GOLDEN_WPK1_CHUNK;
        assert_eq!(
            chunked::compress_chunked(&input, Level::Default, chunk, threads),
            golden,
            "Vec, threads={threads}"
        );
        let gen = store
            .save_full_streamed(0, SegmentFormat::Array, 1, |_, writer| {
                chunked::compress_chunked_stream(&input, Level::Default, chunk, threads, writer)
                    .map(|_| ())
            })
            .unwrap();
        assert_eq!(
            fs::read(dir.join(format!("segments/{gen:08}.0.seg"))).unwrap(),
            golden,
            "SegmentWriter file, threads={threads}"
        );
        // The manifest CRC came from the writer's running CRC: a
        // CRC-checked read vouches for it.
        assert_eq!(store.read_segment(gen, 0).unwrap(), golden, "threads={threads}");
    }
    let _ = fs::remove_dir_all(&dir);
}
