//! The benchmark's timing core: sample summaries.
//!
//! A timing is reported as its median, its quartiles, the sample count,
//! and the highest percentile of a fixed ladder that still has at least
//! ten samples beyond it — a tail estimate resting on fewer samples is
//! noise, so short runs report no tail rather than a made-up one.

/// Percentile ladder the tail is picked from, ascending, in per mille
/// so that the support test is exact integer arithmetic.
const TAIL_LADDER: [usize; 5] = [750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_SUPPORT: usize = 10;

/// Summary of one timing's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest supported tail percentile.
    pub tail: Option<(f64, f64)>,
}

/// Linear-interpolated quantile of an ascending slice, `p` in `[0, 1]`.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest ladder percentile with at least ten of `n` samples
/// beyond it, or `None` when even the lowest rung is unsupported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rfind(|&&pm| n * (1000 - pm) >= TAIL_SUPPORT * 1000)
        .map(|&pm| pm as f64 / 10.0)
}

/// Median of unsorted samples; `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).map(|s| s.median)
}

/// Full summary of unsorted samples; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        tail: tail_percentile(sorted.len()).map(|p| (p, quantile(&sorted, p / 100.0))),
    })
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.3} [q1 {:.3}, q3 {:.3}]",
            self.median, self.q1, self.q3
        )?;
        match self.tail {
            Some((p, v)) => write!(f, " p{p} {v:.3}")?,
            None => write!(f, " (no tail: <{} samples)", TAIL_SUPPORT * 4)?,
        }
        write!(f, " n={}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quantiles_interpolate_and_ignore_input_order() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(s.tail, None);
        assert_eq!(summarize(&[7.0]).unwrap().median, 7.0);
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn tail_value_comes_from_the_selected_percentile() {
        let samples: Vec<f64> = (0..=100).map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.median, 50.0);
        assert_eq!(s.tail, Some((90.0, 90.0)));
    }
}
