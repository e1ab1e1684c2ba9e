//! Vectorized quantizer scans.
//!
//! Kernels bit-identical to the scalar loops they replace in
//! `crates/quant` (pinned by `crates/quant/tests/simd_equivalence.rs`):
//!
//! - [`min_max`] — the histogram/spike range scan, with the serial
//!   first-seen semantics for NaN and signed zero preserved;
//! - [`bin_indexes`] — the equal-width bin of every value, one `u16`
//!   per value, for the quantizer's histogram and index passes.
//!
//! Float kernels never reassociate: `min_max` reduces per-lane
//! accumulators in lane order with the same strict comparisons the
//! serial scan uses (plus a signed-zero fixup, see below), and
//! `bin_indexes` runs the scalar formula's subtract, divide and
//! multiply lane by lane, then clamps with the two compares that give
//! the saturating cast's answer.

use crate::dispatch::{self, Level};

/// First-seen min/max of `values` with the serial scan's semantics:
/// strict `<`/`>` comparisons starting from `values[0]`, so NaN is
/// never selected (unless `values[0]` is NaN, which then sticks) and
/// the first-seen zero wins among `±0.0`. Returns `None` when empty.
pub fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    min_max_at(dispatch::level(), values)
}

/// [`min_max`] at an explicit tier.
pub fn min_max_at(level: Level, values: &[f64]) -> Option<(f64, f64)> {
    if values.is_empty() {
        return None;
    }
    level.assert_available();
    let (lo, hi) = match level {
        Level::Scalar => scalar::min_max(values),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: assert_available above verified AVX2 is present.
        Level::Avx2 => unsafe { avx2::min_max(values) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => scalar::min_max(values),
    };
    // Signed-zero fixup: a blocked reduction can surface a later ±0.0
    // than the serial first-seen scan would (−0.0 == 0.0 but the bits
    // differ). If an extremum is zero, take the *first* zero in stream
    // order — exactly what the serial scan returns. Idempotent on the
    // scalar tier.
    let first_zero = |fallback: f64| {
        values.iter().copied().find(|&v| v == 0.0).unwrap_or(fallback)
    };
    let lo = if lo == 0.0 { first_zero(lo) } else { lo };
    let hi = if hi == 0.0 { first_zero(hi) } else { hi };
    Some((lo, hi))
}

/// Writes into `out[i]` the bin of `values[i]` in a `k`-bin
/// equal-width histogram over `[lo, hi]`:
/// `clamp(trunc((v − lo) / (hi − lo) · k), 0, k − 1)`, computed with a
/// saturating cast, so NaN lands in bin 0, `+inf` in bin `k − 1` and
/// values outside the range clamp to the end bins. A degenerate range
/// (`hi <= lo`) puts every value in bin 0.
///
/// Panics unless `out.len() == values.len()` and `1 <= k <= 65,536`.
pub fn bin_indexes(values: &[f64], lo: f64, hi: f64, k: usize, out: &mut [u16]) {
    bin_indexes_at(dispatch::level(), values, lo, hi, k, out)
}

/// [`bin_indexes`] at an explicit tier.
pub fn bin_indexes_at(level: Level, values: &[f64], lo: f64, hi: f64, k: usize, out: &mut [u16]) {
    assert_eq!(out.len(), values.len(), "bin_indexes needs one slot per value");
    assert!((1..=1 << 16).contains(&k), "bin count {k} outside 1..=65536");
    if hi <= lo {
        out.fill(0);
        return;
    }
    level.assert_available();
    match level {
        Level::Scalar => scalar::bin_indexes(values, lo, hi, k, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: assert_available above verified AVX2 is present.
        Level::Avx2 => unsafe { avx2::bin_indexes(values, lo, hi, k, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => scalar::bin_indexes(values, lo, hi, k, out),
    }
}

/// Portable reference tier: the exact scalar loops from `crates/quant`.
mod scalar {
    pub(super) fn min_max(values: &[f64]) -> (f64, f64) {
        let mut lo = values[0];
        let mut hi = values[0];
        for &v in &values[1..] {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        (lo, hi)
    }

    /// The reference bin formula, for `hi > lo` and `k <= 65,536`.
    pub(super) fn bin_indexes(values: &[f64], lo: f64, hi: f64, k: usize, out: &mut [u16]) {
        for (o, &v) in out.iter_mut().zip(values) {
            let t = (v - lo) / (hi - lo);
            let b = (t * k as f64) as isize;
            *o = b.clamp(0, k as isize - 1) as u16;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    /// # Safety
    /// AVX2 must be available; `values` is non-empty.
    ///
    /// `_mm256_min_pd(v, acc)` returns `v` iff `v < acc` and `acc`
    /// otherwise (equal operands and NaNs yield the second operand), so
    /// each lane keeps the serial scan's strict-compare first-seen
    /// semantics; the lane-order reduction below uses the same strict
    /// compares. The caller's signed-zero fixup handles cross-lane
    /// `±0.0` ties.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn min_max(values: &[f64]) -> (f64, f64) {
        let n = values.len();
        if n < 8 {
            return super::scalar::min_max(values);
        }
        let p = values.as_ptr();
        let mut vlo = _mm256_loadu_pd(p);
        let mut vhi = vlo;
        let mut i = 4;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(p.add(i));
            vlo = _mm256_min_pd(v, vlo);
            vhi = _mm256_max_pd(v, vhi);
            i += 4;
        }
        let mut lanes_lo = [0.0f64; 4];
        let mut lanes_hi = [0.0f64; 4];
        _mm256_storeu_pd(lanes_lo.as_mut_ptr(), vlo);
        _mm256_storeu_pd(lanes_hi.as_mut_ptr(), vhi);
        let mut lo = lanes_lo[0];
        let mut hi = lanes_hi[0];
        for lane in 1..4 {
            if lanes_lo[lane] < lo {
                lo = lanes_lo[lane];
            }
            if lanes_hi[lane] > hi {
                hi = lanes_hi[lane];
            }
        }
        while i < n {
            let v = *p.add(i);
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
            i += 1;
        }
        (lo, hi)
    }

    /// # Safety
    /// AVX2 must be available; `hi > lo`, `1 <= k <= 65,536` and
    /// `out.len() == values.len()`.
    ///
    /// Each lane computes the scalar formula's `(v − lo) / (hi − lo) · k`
    /// with the same three IEEE ops. The saturating `as isize` plus
    /// `clamp(0, k − 1)` is then `min(max(x, 0), k − 1)` truncated:
    /// truncation is monotone and both bounds are integers, so clamping
    /// before or after it gives the same bin, and `_mm256_max_pd(x, 0)`
    /// returns its second operand when `x` is NaN — the cast's 0.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bin_indexes(values: &[f64], lo: f64, hi: f64, k: usize, out: &mut [u16]) {
        let vlo = _mm256_set1_pd(lo);
        let span = _mm256_set1_pd(hi - lo);
        let scale = _mm256_set1_pd(k as f64);
        let top = _mm256_set1_pd((k - 1) as f64);
        let zero = _mm256_setzero_pd();
        let mut quads = values.chunks_exact(4);
        let mut outs = out.chunks_exact_mut(4);
        for (v, o) in (&mut quads).zip(&mut outs) {
            let x = _mm256_loadu_pd(v.as_ptr());
            let t = _mm256_div_pd(_mm256_sub_pd(x, vlo), span);
            let b = _mm256_min_pd(_mm256_max_pd(_mm256_mul_pd(t, scale), zero), top);
            let mut lanes = [0u32; 4];
            _mm_storeu_si128(lanes.as_mut_ptr().cast(), _mm256_cvttpd_epi32(b));
            for (o, l) in o.iter_mut().zip(lanes) {
                *o = l as u16;
            }
        }
        super::scalar::bin_indexes(quads.remainder(), lo, hi, k, outs.into_remainder());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiers() -> Vec<Level> {
        Level::ALL.into_iter().filter(|l| l.is_available()).collect()
    }

    #[test]
    fn min_max_first_seen_zero_and_nan() {
        let vals = [1.0, 0.0, 5.0, -0.0, 3.0, 9.0, 2.0, 4.0, 8.0, 7.0];
        for level in tiers() {
            let (lo, hi) = min_max_at(level, &vals).unwrap();
            assert_eq!(lo.to_bits(), 0.0f64.to_bits(), "{}", level.name());
            assert_eq!(hi, 9.0);
        }
        let nan_first = [f64::NAN, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        for level in tiers() {
            let (lo, hi) = min_max_at(level, &nan_first).unwrap();
            assert!(lo.is_nan(), "{}", level.name());
            assert!(hi.is_nan(), "{}", level.name());
        }
        let nan_later = [3.0, 1.0, f64::NAN, 2.0, 9.0, 4.0, 5.0, 6.0, 7.0];
        for level in tiers() {
            let (lo, hi) = min_max_at(level, &nan_later).unwrap();
            assert_eq!((lo, hi), (1.0, 9.0), "{}", level.name());
        }
        assert_eq!(min_max_at(Level::Scalar, &[]), None);
    }

    #[test]
    fn bin_indexes_clamp_the_specials_like_the_cast() {
        let vals = [f64::NAN, 0.0, 1.0, 0.5, f64::INFINITY, f64::NEG_INFINITY, -3.0, 0.999_999];
        for level in tiers() {
            let mut out = [0u16; 8];
            bin_indexes_at(level, &vals, 0.0, 1.0, 4, &mut out);
            assert_eq!(out, [0, 0, 3, 2, 3, 0, 0, 3], "{}", level.name());
            bin_indexes_at(level, &vals, 1.0, 1.0, 4, &mut out);
            assert_eq!(out, [0; 8], "degenerate range, {}", level.name());
        }
    }
}
