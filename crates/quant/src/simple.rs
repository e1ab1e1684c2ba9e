//! Simple quantization (Section III-B-1).
//!
//! Divide the high-band value range into `n` equal partitions, compute
//! the average of each, and replace every value with the average of the
//! partition it belongs to. All positions are quantized, so the bitmap is
//! all ones and the raw stream is empty.
//!
//! Empty partitions produce no table entry: the average table is
//! compacted and the per-value indexes remapped, so the table length is
//! `min(n, #non-empty partitions)` and always fits the one-byte index
//! encoding for `n <= 256`.

use crate::bitmap::Bitmap;
use crate::types::{QuantError, Quantized};
use ckpt_simd::quant::{bin_indexes, min_max};

/// Runs simple quantization with division number `n` (`1..=256`).
pub fn quantize(values: &[f64], n: usize) -> Result<Quantized, QuantError> {
    if n == 0 || n > 256 {
        return Err(QuantError::BadDivisionNumber(n));
    }
    let (indexes, averages, bin_width) = encode(values, n);
    Ok(Quantized {
        len: values.len(),
        bitmap: Bitmap::ones(values.len()),
        indexes,
        averages,
        raw: Vec::new(),
        bin_width,
    })
}

/// The bin width [`quantize`] reports for `values`
/// ([`Quantized::bin_width`], bit for bit): their range over `n`, 0 for
/// an empty stream, from the range scan alone.
pub fn bin_width(values: &[f64], n: usize) -> Result<f64, QuantError> {
    if n == 0 || n > 256 {
        return Err(QuantError::BadDivisionNumber(n));
    }
    Ok(min_max(values).map_or(0.0, |(lo, hi)| (hi - lo) / n as f64))
}

/// The index stream and compacted average table of `values` in `n`
/// equal partitions of their own range (`1 <= n <= 256`), and the
/// partitions' width, in four passes: the range, one bin per value,
/// counts and sums in stream order (so every average is the same sum in
/// the same order as a per-bin accumulation), then the empty-bin remap
/// into index bytes.
pub(crate) fn encode(values: &[f64], n: usize) -> (Vec<u8>, Vec<f64>, f64) {
    let Some((lo, hi)) = min_max(values) else {
        return (Vec::new(), Vec::new(), 0.0);
    };
    let mut bins = vec![0u16; values.len()];
    bin_indexes(values, lo, hi, n, &mut bins);

    let mut counts = [0usize; 256];
    let mut sums = [0.0f64; 256];
    for (&v, &b) in values.iter().zip(&bins) {
        counts[usize::from(b)] += 1;
        sums[usize::from(b)] += v;
    }

    // Compact the average table: empty partitions get no entry, and
    // no value's bin is empty, so every index finds its entry.
    let mut remap = [0u8; 256];
    let mut averages = Vec::new();
    for ((slot, &count), &sum) in remap.iter_mut().zip(&counts).zip(&sums).take(n) {
        if count != 0 {
            *slot = averages.len() as u8;
            averages.push(sum / count as f64);
        }
    }
    let indexes = bins.iter().map(|&b| remap[usize::from(b)]).collect();
    (indexes, averages, (hi - lo) / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n1_replaces_everything_with_global_average() {
        let values = [1.0, 2.0, 3.0, 6.0];
        let q = quantize(&values, 1).unwrap();
        q.validate().unwrap();
        assert_eq!(q.averages, vec![3.0]);
        assert_eq!(q.reconstruct(), vec![3.0; 4]);
        assert_eq!(q.coverage(), 1.0);
    }

    #[test]
    fn partitions_get_their_own_average() {
        // Range [0, 4), two partitions [0,2) and [2,4].
        let values = [0.0, 1.0, 3.0, 4.0];
        let q = quantize(&values, 2).unwrap();
        q.validate().unwrap();
        assert_eq!(q.averages, vec![0.5, 3.5]);
        assert_eq!(q.reconstruct(), vec![0.5, 0.5, 3.5, 3.5]);
    }

    #[test]
    fn empty_partitions_are_compacted() {
        // Values cluster at the ends; middle partitions are empty.
        let values = [0.0, 0.1, 9.9, 10.0];
        let q = quantize(&values, 100).unwrap();
        q.validate().unwrap();
        assert!(q.averages.len() <= 4);
        let rec = q.reconstruct();
        for (v, r) in values.iter().zip(&rec) {
            assert!((v - r).abs() <= 0.1, "{v} -> {r}");
        }
    }

    #[test]
    fn error_bounded_by_partition_width() {
        let values: Vec<f64> = (0..10_000).map(|i| ((i as f64) * 0.002_741).sin()).collect();
        for n in [1usize, 4, 16, 128] {
            let q = quantize(&values, n).unwrap();
            let rec = q.reconstruct();
            let width = 2.0 / n as f64; // range [-1, 1]
            for (v, r) in values.iter().zip(&rec) {
                assert!(
                    (v - r).abs() <= width,
                    "n={n}: error {} exceeds width {width}",
                    (v - r).abs()
                );
            }
        }
    }

    #[test]
    fn larger_n_never_increases_max_error() {
        let values: Vec<f64> =
            (0..5_000).map(|i| ((i as f64) * 0.01).sin() * ((i as f64) * 0.0003).cos()).collect();
        let mut last = f64::INFINITY;
        for n in [1usize, 2, 8, 32, 128] {
            let q = quantize(&values, n).unwrap();
            let rec = q.reconstruct();
            let max_err = values
                .iter()
                .zip(&rec)
                .map(|(v, r)| (v - r).abs())
                .fold(0.0f64, f64::max);
            // Partition width halves as n doubles; max error tracks it
            // (allow slack of 2x for average-vs-midpoint placement).
            assert!(max_err <= last * 2.0 + 1e-15, "n={n}: {max_err} vs previous {last}");
            last = max_err;
        }
    }

    #[test]
    fn constant_input_is_exact() {
        let values = [7.25; 64];
        let q = quantize(&values, 16).unwrap();
        assert_eq!(q.reconstruct(), values.to_vec());
        assert_eq!(q.averages.len(), 1);
    }

    #[test]
    fn only_n_kinds_of_values_after_quantization() {
        // The paper: "after the simple quantization, only n kinds of
        // values appear".
        let values: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.771).sin() * 5.0).collect();
        let n = 4;
        let q = quantize(&values, n).unwrap();
        let mut rec = q.reconstruct();
        rec.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rec.dedup();
        assert!(rec.len() <= n, "{} distinct values for n={n}", rec.len());
    }

    #[test]
    fn rejects_bad_n() {
        assert!(quantize(&[1.0], 0).is_err());
        assert!(quantize(&[1.0], 257).is_err());
        assert!(quantize(&[1.0], 256).is_ok());
    }

    #[test]
    fn empty_input_is_empty_output() {
        let q = quantize(&[], 8).unwrap();
        q.validate().unwrap();
        assert_eq!(q.len, 0);
        assert!(q.reconstruct().is_empty());
    }

    #[test]
    fn average_preserves_partition_mass() {
        // Sum of reconstructed values equals sum of originals when every
        // partition's values are replaced by their average.
        let values: Vec<f64> = (0..512).map(|i| ((i * i) % 97) as f64 / 9.7).collect();
        let q = quantize(&values, 8).unwrap();
        let rec = q.reconstruct();
        let s0: f64 = values.iter().sum();
        let s1: f64 = rec.iter().sum();
        assert!((s0 - s1).abs() < 1e-9 * s0.abs().max(1.0));
    }
}
