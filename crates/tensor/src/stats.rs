//! Element statistics used by the quantizer and the error metrics.

use crate::tensor::Tensor;

/// Minimum and maximum of a slice, ignoring nothing: NaNs propagate as in
/// the paper's data (NICAM arrays contain no NaNs; we still define the
/// behaviour as "first NaN wins" to keep it deterministic).
pub fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    let mut iter = values.iter().copied();
    let first = iter.next()?;
    let mut lo = first;
    let mut hi = first;
    for v in iter {
        if v < lo || lo.is_nan() {
            lo = v;
        }
        if v > hi || hi.is_nan() {
            hi = v;
        }
    }
    Some((lo, hi))
}

/// Arithmetic mean of a slice; `None` for empty input.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Sum of a slice (pairwise reduction for accuracy on large mesh arrays).
pub fn pairwise_sum(values: &[f64]) -> f64 {
    const LEAF: usize = 128;
    if values.len() <= LEAF {
        return values.iter().sum();
    }
    let mid = values.len() / 2;
    pairwise_sum(&values[..mid]) + pairwise_sum(&values[mid..])
}

/// Population variance; `None` for empty input.
pub fn variance(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    Some(values.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64)
}

impl Tensor<f64> {
    /// `(min, max)` over all elements.
    pub fn min_max(&self) -> (f64, f64) {
        min_max(self.as_slice()).expect("tensors are non-empty by construction")
    }

    /// Arithmetic mean over all elements.
    pub fn mean(&self) -> f64 {
        pairwise_sum(self.as_slice()) / self.len() as f64
    }

    /// Root-mean-square difference against another tensor of equal length.
    /// Panics on length mismatch (programmer error, not data error).
    pub fn rms_diff(&self, other: &Tensor<f64>) -> f64 {
        assert_eq!(self.len(), other.len(), "rms_diff requires equal-size tensors");
        let sq: f64 = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum();
        (sq / self.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_basic() {
        assert_eq!(min_max(&[3.0, -1.0, 2.0]), Some((-1.0, 3.0)));
        assert_eq!(min_max(&[]), None);
        assert_eq!(min_max(&[5.0]), Some((5.0, 5.0)));
    }

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(variance(&[1.0, 1.0, 1.0]), Some(0.0));
        assert!((variance(&[1.0, 3.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn pairwise_sum_matches_naive_small() {
        let v: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25).collect();
        let naive: f64 = v.iter().sum();
        assert!((pairwise_sum(&v) - naive).abs() < 1e-9);
    }

    #[test]
    fn pairwise_sum_is_no_worse_than_naive() {
        // Summing 0.1 a million times: naive accumulation error grows
        // O(n), pairwise O(log n); exact value is n * 0.1 up to one
        // rounding of the representation of 0.1.
        let n = 1_000_000usize;
        let v = vec![0.1f64; n];
        let exact = 0.1f64 * n as f64;
        let naive: f64 = v.iter().sum();
        let pw = pairwise_sum(&v);
        assert!(
            (pw - exact).abs() <= (naive - exact).abs(),
            "pairwise {pw} worse than naive {naive} (exact {exact})"
        );
        assert!((pw - exact).abs() / exact < 1e-12);
    }

    #[test]
    fn tensor_stats() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.min_max(), (1.0, 4.0));
        assert_eq!(t.mean(), 2.5);
        let u = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 8.0]).unwrap();
        assert!((t.rms_diff(&u) - 2.0).abs() < 1e-12);
        assert_eq!(t.rms_diff(&t), 0.0);
    }
}
