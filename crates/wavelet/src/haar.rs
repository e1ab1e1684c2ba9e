//! 1-d Haar kernels.
//!
//! The forward kernel maps a lane `A[0..n]` to `[L | H]` where
//! `L[i] = (A[2i] + A[2i+1]) / 2` and `H[i] = (A[2i] - A[2i+1]) / 2`
//! (Equations 2 and 3 of the paper). The low band is stored first, then
//! the high band, so downstream code can address subbands as contiguous
//! halves.
//!
//! Odd lengths: the unpaired trailing element passes through unchanged as
//! the last entry of the low band, so `low_len(n) = ceil(n/2)` and
//! `high_len(n) = floor(n/2)`. This keeps the transform defined for any
//! mesh extent, not just even ones.
//!
//! [`forward_1d`] / [`inverse_1d`] are the reference, not the product
//! path: `transform` runs every lane through the batched kernels of
//! `ckpt-simd`, which the equivalence harness and the transform's own
//! lane-by-lane test pin to these functions bit for bit.

/// Length of the low band for a lane of length `n`.
#[inline]
pub fn low_len(n: usize) -> usize {
    n.div_ceil(2)
}

/// Length of the high band for a lane of length `n`.
#[inline]
pub fn high_len(n: usize) -> usize {
    n / 2
}

/// Forward Haar step: `src` (length n) → `dst = [L | H]` (length n).
///
/// Panics if `src.len() != dst.len()` — kernel misuse is a programmer
/// error, not a data error.
pub fn forward_1d(src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "haar kernel buffers must match");
    let n = src.len();
    let h = low_len(n);
    let pairs = high_len(n);
    for i in 0..pairs {
        let a = src[2 * i];
        let b = src[2 * i + 1];
        dst[i] = (a + b) / 2.0;
        dst[h + i] = (a - b) / 2.0;
    }
    if n % 2 == 1 {
        dst[h - 1] = src[n - 1];
    }
}

/// Inverse Haar step: `src = [L | H]` (length n) → `dst` (length n).
///
/// Reconstruction: `A[2i] = L[i] + H[i]`, `A[2i+1] = L[i] - H[i]`.
pub fn inverse_1d(src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "haar kernel buffers must match");
    let n = src.len();
    let h = low_len(n);
    let pairs = high_len(n);
    for i in 0..pairs {
        let l = src[i];
        let hi = src[h + i];
        dst[2 * i] = l + hi;
        dst[2 * i + 1] = l - hi;
    }
    if n % 2 == 1 {
        dst[n - 1] = src[h - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_lengths() {
        assert_eq!((low_len(8), high_len(8)), (4, 4));
        assert_eq!((low_len(7), high_len(7)), (4, 3));
        assert_eq!((low_len(1), high_len(1)), (1, 0));
        assert_eq!((low_len(2), high_len(2)), (1, 1));
    }

    #[test]
    fn forward_matches_paper_equations() {
        let src = [1.0, 3.0, 5.0, 9.0];
        let mut dst = [0.0; 4];
        forward_1d(&src, &mut dst);
        // L = [(1+3)/2, (5+9)/2], H = [(1-3)/2, (5-9)/2]
        assert_eq!(dst, [2.0, 7.0, -1.0, -2.0]);
    }

    #[test]
    fn odd_length_passes_tail_through() {
        let src = [2.0, 4.0, 10.0];
        let mut dst = [0.0; 3];
        forward_1d(&src, &mut dst);
        assert_eq!(dst, [3.0, 10.0, -1.0]);
        let mut back = [0.0; 3];
        inverse_1d(&dst, &mut back);
        assert_eq!(back, src);
    }

    #[test]
    fn roundtrip_exact_on_dyadic_data() {
        let src: Vec<f64> = (0..64).map(|i| (i * 3) as f64 - 17.0).collect();
        let mut mid = vec![0.0; 64];
        let mut back = vec![0.0; 64];
        forward_1d(&src, &mut mid);
        inverse_1d(&mid, &mut back);
        assert_eq!(src, back, "integer-valued data must roundtrip exactly");
    }

    #[test]
    fn roundtrip_near_exact_on_arbitrary_data() {
        let src: Vec<f64> =
            (0..101).map(|i| (i as f64 * 0.7311).sin() * 1.0e5 + 0.333).collect();
        let mut mid = vec![0.0; src.len()];
        let mut back = vec![0.0; src.len()];
        forward_1d(&src, &mut mid);
        inverse_1d(&mid, &mut back);
        // The error of one reconstructed element scales with the
        // magnitude of its *pair* (the sums/differences involve the
        // neighbour), so bound against the pair maximum.
        for i in 0..src.len() {
            let partner = if i % 2 == 0 { (i + 1).min(src.len() - 1) } else { i - 1 };
            let scale = src[i].abs().max(src[partner].abs()).max(f64::MIN_POSITIVE);
            let ulps = (src[i] - back[i]).abs() / scale / f64::EPSILON;
            assert!(ulps <= 2.0, "roundtrip error {ulps} pair-ulps at {i}");
        }
    }

    #[test]
    fn smooth_input_concentrates_high_band_near_zero() {
        let src: Vec<f64> = (0..1000).map(|i| 300.0 + (i as f64 * 0.01).sin()).collect();
        let mut dst = vec![0.0; 1000];
        forward_1d(&src, &mut dst);
        let h = low_len(1000);
        let max_high = dst[h..].iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(max_high < 0.01, "high band should be tiny for smooth input, got {max_high}");
    }

    #[test]
    fn single_element_is_identity() {
        let src = [42.0];
        let mut dst = [0.0];
        forward_1d(&src, &mut dst);
        assert_eq!(dst, src);
        let mut back = [0.0];
        inverse_1d(&dst, &mut back);
        assert_eq!(back, src);
    }

    #[test]
    #[should_panic]
    fn mismatched_buffers_panic() {
        let mut dst = [0.0; 3];
        forward_1d(&[1.0, 2.0], &mut dst);
    }
}
