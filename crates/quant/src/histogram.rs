//! Equal-width partitioning of a value range.
//!
//! Both quantizers in the paper split `[min, max]` into `k` equal-width
//! partitions. This module owns the partition arithmetic: bin membership,
//! counts, and per-bin sums (for averages). The maximum value is assigned
//! to the last partition (a closed final interval), matching the usual
//! histogram convention and keeping every value inside some partition.

/// The bin of `v` in a `k`-bin equal-width histogram over `[lo, hi]`:
/// values outside the range clamp to the first/last bin, NaN and a
/// degenerate range (`hi <= lo`) land in bin 0.
#[inline]
fn bin_index(v: f64, lo: f64, hi: f64, k: usize) -> usize {
    if hi <= lo {
        return 0;
    }
    let t = (v - lo) / (hi - lo);
    let b = (t * k as f64) as isize;
    b.clamp(0, k as isize - 1) as usize
}

/// Invokes `f(value, bin)` for each value in stream order, with the
/// bin [`Histogram::bin_of`] computes for a `k`-bin histogram over
/// `[lo, hi]` — usable before the histogram exists.
pub(crate) fn for_each_bin(
    values: &[f64],
    lo: f64,
    hi: f64,
    k: usize,
    mut f: impl FnMut(f64, usize),
) {
    for &v in values {
        f(v, bin_index(v, lo, hi, k));
    }
}

/// An equal-width histogram over a fixed range.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    /// Per-bin element counts.
    pub counts: Vec<usize>,
    /// Per-bin value sums (for computing averages).
    pub sums: Vec<f64>,
}

impl Histogram {
    /// Builds a `k`-bin histogram of `values` over their own min/max
    /// range. Returns `None` for empty input or `k == 0`.
    ///
    /// A degenerate range (`min == max`) is allowed: every value falls in
    /// bin 0.
    pub fn build(values: &[f64], k: usize) -> Option<Self> {
        if values.is_empty() || k == 0 {
            return None;
        }
        // The SIMD scan preserves the scalar strict-compare first-seen
        // semantics bit for bit (including NaN and signed-zero ties),
        // so lo/hi — and therefore the whole histogram geometry — are
        // unchanged by dispatch.
        let (lo, hi) = ckpt_simd::quant::min_max(values).expect("non-empty values");
        let mut h = Histogram { lo, hi, counts: vec![0; k], sums: vec![0.0; k] };
        for_each_bin(values, lo, hi, k, |v, b| {
            h.counts[b] += 1;
            h.sums[b] += v;
        });
        Some(h)
    }

    /// Number of bins.
    #[inline]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Range low bound.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Range high bound.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The bin a value belongs to. Values outside `[lo, hi]` clamp to the
    /// first/last bin (only relevant when reusing a histogram's geometry
    /// on different data).
    #[inline]
    pub fn bin_of(&self, v: f64) -> usize {
        bin_index(v, self.lo, self.hi, self.counts.len())
    }

    /// Average of the values in a bin; `None` for empty bins.
    pub fn average(&self, bin: usize) -> Option<f64> {
        if self.counts[bin] == 0 {
            None
        } else {
            Some(self.sums[bin] / self.counts[bin] as f64)
        }
    }

    /// Total number of histogrammed values.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The paper's spike rule (Equation 4): bins with
    /// `count >= N_total / d` where `d` is the bin count. Returns the
    /// boolean detection mask. Uses integer cross-multiplication to avoid
    /// float threshold edge cases: `count * d >= total`.
    pub fn detect_spikes(&self) -> Vec<bool> {
        let total = self.total();
        let d = self.bins();
        self.counts.iter().map(|&c| c * d >= total).collect()
    }

    /// Generalized spike rule for the threshold ablation (DESIGN.md §5):
    /// bins with `count >= multiplier × N_total / d`. `multiplier = 1`
    /// is Equation 4; smaller values detect more bins (quantize more),
    /// larger values fewer.
    pub fn detect_spikes_scaled(&self, multiplier: f64) -> Vec<bool> {
        assert!(multiplier >= 0.0 && multiplier.is_finite(), "bad threshold multiplier");
        let threshold = multiplier * self.total() as f64 / self.bins() as f64;
        self.counts.iter().map(|&c| c as f64 >= threshold).collect()
    }

    /// The half-open value interval `[low, high)` of a bin (the last bin
    /// is closed).
    pub fn bin_bounds(&self, bin: usize) -> (f64, f64) {
        let k = self.bins() as f64;
        let w = (self.hi - self.lo) / k;
        (self.lo + w * bin as f64, self.lo + w * (bin as f64 + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_averages() {
        let values = [0.0, 0.1, 0.2, 0.9, 1.0];
        let h = Histogram::build(&values, 2).unwrap();
        assert_eq!(h.counts, vec![3, 2]);
        assert!((h.average(0).unwrap() - 0.1).abs() < 1e-12);
        assert!((h.average(1).unwrap() - 0.95).abs() < 1e-12);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn max_value_lands_in_last_bin() {
        let values = [0.0, 1.0];
        let h = Histogram::build(&values, 4).unwrap();
        assert_eq!(h.bin_of(1.0), 3);
        assert_eq!(h.bin_of(0.0), 0);
        assert_eq!(h.counts, vec![1, 0, 0, 1]);
    }

    #[test]
    fn degenerate_range_single_bin() {
        let values = [5.0; 10];
        let h = Histogram::build(&values, 8).unwrap();
        assert_eq!(h.counts[0], 10);
        assert_eq!(h.average(0), Some(5.0));
        assert_eq!(h.bin_of(5.0), 0);
    }

    #[test]
    fn empty_or_zero_bins_is_none() {
        assert!(Histogram::build(&[], 4).is_none());
        assert!(Histogram::build(&[1.0], 0).is_none());
    }

    #[test]
    fn every_value_is_binned() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        for k in [1usize, 2, 7, 64, 128] {
            let h = Histogram::build(&values, k).unwrap();
            assert_eq!(h.total(), values.len(), "k={k}");
            for &v in &values {
                assert!(h.bin_of(v) < k);
            }
        }
    }

    #[test]
    fn spike_detection_matches_equation_4() {
        // 10 values, d=5 bins => threshold = 2 per bin.
        // Put 6 values in bin 0, 2 in bin 2, 1 in bins 3 and 4.
        let values = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.5, 0.52, 0.7, 0.99];
        let h = Histogram::build(&values, 5).unwrap();
        assert_eq!(h.counts, vec![6, 0, 2, 1, 1]);
        assert_eq!(h.detect_spikes(), vec![true, false, true, false, false]);
    }

    #[test]
    fn spike_detection_uniform_all_detected() {
        let values: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let h = Histogram::build(&values, 8).unwrap();
        assert!(h.detect_spikes().iter().all(|&s| s));
    }

    #[test]
    fn bin_bounds_tile_the_range() {
        let values = [0.0, 8.0];
        let h = Histogram::build(&values, 4).unwrap();
        assert_eq!(h.bin_bounds(0), (0.0, 2.0));
        assert_eq!(h.bin_bounds(3), (6.0, 8.0));
    }

    #[test]
    fn average_of_empty_bin_is_none() {
        let values = [0.0, 1.0];
        let h = Histogram::build(&values, 4).unwrap();
        assert_eq!(h.average(1), None);
    }

    #[test]
    fn for_each_bin_matches_bin_of() {
        let values: Vec<f64> = (0..3001)
            .map(|i| ((i as f64) * 0.0213).sin() * 7.0)
            .chain([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e-308])
            .collect();
        for k in [1usize, 3, 64, 256] {
            let h = Histogram::build(&values[..3001], k).unwrap();
            let mut got = Vec::with_capacity(values.len());
            for_each_bin(&values, h.lo(), h.hi(), k, |_, b| got.push(b));
            let want: Vec<usize> = values.iter().map(|&v| h.bin_of(v)).collect();
            assert_eq!(got, want, "k={k}");
        }
        // Degenerate range: everything lands in bin 0.
        let mut got = Vec::new();
        for_each_bin(&values, 2.0, 2.0, 8, |_, b| got.push(b));
        assert!(got.iter().all(|&b| b == 0));
    }

}
