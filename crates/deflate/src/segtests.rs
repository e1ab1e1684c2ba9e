//! Segmentation-boundary tests for the multi-block encoder.

use crate::deflate::{compress, SEGMENT_BYTES};
use crate::inflate::inflate;
use crate::Level;

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
        assert_eq!(inflate(&packed).unwrap(), data, "n = {n}");
    }
}

#[test]
fn many_segments_roundtrip() {
    // > 4 segments of compressible data.
    let data: Vec<u8> = (0..SEGMENT_BYTES * 4 + 12345).map(|i| ((i / 64) % 200) as u8).collect();
    let packed = compress(&data, Level::Fast);
    assert!(packed.len() < data.len() / 4);
    assert_eq!(inflate(&packed).unwrap(), data);
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
    assert_eq!(inflate(&packed).unwrap(), data);
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
    for level in [Level::Fast, Level::Default] {
        let packed = compress(&data, level);
        assert_eq!(inflate(&packed).unwrap(), data, "{level:?}");
        assert!(packed.len() < data.len() / 10, "{level:?}: repeats must compress");
    }
}

#[test]
fn incompressible_multi_segment_falls_back_to_stored_per_segment() {
    let data = lcg(SEGMENT_BYTES * 2 + 7777, 5);
    let packed = compress(&data, Level::Default);
    // Expansion bounded by stored-block overhead (~5 bytes per 64 KiB).
    assert!(packed.len() <= data.len() + 64);
    assert_eq!(inflate(&packed).unwrap(), data);
}
