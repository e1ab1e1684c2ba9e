//! Batched multi-lane wavelet kernels.
//!
//! Layout: a batch holds `w` lanes interleaved row-major — element `k`
//! of lane `j` lives at `buf[k * w + j]`. A *row* is the `w` values at
//! one lane position. This is exactly the memory a vertical (strided)
//! tensor pass touches contiguously, so every per-lane scalar operation
//! becomes one contiguous row operation, and row operations map 1:1
//! onto SIMD vectors with a scalar tail.
//!
//! Tiers: the scalar tier has all six ops. The AVX2 tier has Haar's
//! two, the paper's kernel, and hands CDF 5/3 and 9/7 to the scalar
//! code (EXPERIMENTS.md pass 25 has what their AVX2 forms bought before
//! they went). The scalar 5/3 passes, the default's, run each lane's
//! lifting steps in one sweep and cost about what Haar's AVX2 passes do
//! (pass 33).
//!
//! Bit-identical contract: every tier performs the per-lane arithmetic
//! of the reference 1-d kernels in `ckpt-wavelet` (`haar.rs`,
//! `cdf53.rs`, `cdf97.rs`) in the same association order. Lanes are
//! independent, so vectorizing *across* lanes reorders nothing within a
//! lane. The only expression rewrites used are value-preserving for
//! every IEEE-754 double, including NaN payloads and subnormals:
//!
//! - `x / 2.0` ⇔ `x * 0.5` and `x / 4.0` ⇔ `x * 0.25` (power-of-two
//!   scale, correctly rounded either way);
//! - `a - t` ⇔ `a + (-t)` where `-t` comes from `t * (-c)` with the
//!   sign folded into the constant.
//!
//! FMA is deliberately never used (fused rounding differs from the
//! scalar mul-then-add), and the 9/7 `/ K` stays a division (`K` is not
//! a power of two). The proptest harnesses in
//! `crates/wavelet/tests/simd_equivalence.rs` pin every tier to the
//! reference kernels on arbitrary bit patterns.

use crate::dispatch::Level;

// CDF 9/7 lifting constants — must match crates/wavelet/src/cdf97.rs
// exactly (the equivalence harness pins this).
const ALPHA: f64 = -1.586_134_342_059_924;
const BETA: f64 = -0.052_980_118_572_961;
const GAMMA: f64 = 0.882_911_075_530_934;
const DELTA: f64 = 0.443_506_852_043_971;
const K: f64 = 1.230_174_104_914_001;

/// One batched lane transform: which wavelet, which direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveletOp {
    HaarForward,
    HaarInverse,
    Cdf53Forward,
    Cdf53Inverse,
    Cdf97Forward,
    Cdf97Inverse,
}

impl WaveletOp {
    /// All ops, for the equivalence harnesses.
    pub const ALL: [WaveletOp; 6] = [
        WaveletOp::HaarForward,
        WaveletOp::HaarInverse,
        WaveletOp::Cdf53Forward,
        WaveletOp::Cdf53Inverse,
        WaveletOp::Cdf97Forward,
        WaveletOp::Cdf97Inverse,
    ];
}

/// Applies `op` to a batch of `w` interleaved lanes of length `n` at
/// tier `level`: the caller resolves [`crate::dispatch::level`] once
/// per axis pass, the equivalence harnesses name each tier in turn.
///
/// Panics if the buffers are not `n * w` long or the tier is not
/// available on this CPU.
pub fn apply_at(level: Level, op: WaveletOp, src: &[f64], dst: &mut [f64], n: usize, w: usize) {
    assert_eq!(src.len(), n * w, "batch src must be n*w");
    assert_eq!(dst.len(), n * w, "batch dst must be n*w");
    if n == 0 || w == 0 {
        return;
    }
    level.assert_available();
    // Only Haar has AVX2 forms; every other op runs the scalar code on
    // every tier.
    match (level, op) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: assert_available above verified AVX2 is present.
        (Level::Avx2, WaveletOp::HaarForward) => unsafe { avx2::haar_forward(src, dst, n, w) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        (Level::Avx2, WaveletOp::HaarInverse) => unsafe { avx2::haar_inverse(src, dst, n, w) },
        _ => scalar::apply(op, src, dst, n, w),
    }
}

/// Portable reference tier: the 1-d kernels transcribed to batch
/// layout, expression for expression.
mod scalar {
    use super::{WaveletOp, ALPHA, BETA, DELTA, GAMMA, K};

    /// Batches narrower than this run the 5/3 kernels lane by lane.
    const LANE_MAJOR_BELOW: usize = 8;

    pub(super) fn apply(op: WaveletOp, src: &[f64], dst: &mut [f64], n: usize, w: usize) {
        match op {
            WaveletOp::HaarForward => haar_forward(src, dst, n, w),
            WaveletOp::HaarInverse => haar_inverse(src, dst, n, w),
            WaveletOp::Cdf53Forward => cdf53_forward(src, dst, n, w),
            WaveletOp::Cdf53Inverse => cdf53_inverse(src, dst, n, w),
            WaveletOp::Cdf97Forward => cdf97_forward(src, dst, n, w),
            WaveletOp::Cdf97Inverse => cdf97_inverse(src, dst, n, w),
        }
    }

    fn haar_forward(src: &[f64], dst: &mut [f64], n: usize, w: usize) {
        let h = n.div_ceil(2);
        for i in 0..n / 2 {
            for j in 0..w {
                let a = src[2 * i * w + j];
                let b = src[(2 * i + 1) * w + j];
                dst[i * w + j] = (a + b) / 2.0;
                dst[(h + i) * w + j] = (a - b) / 2.0;
            }
        }
        if n % 2 == 1 {
            dst[(h - 1) * w..h * w].copy_from_slice(&src[(n - 1) * w..n * w]);
        }
    }

    fn haar_inverse(src: &[f64], dst: &mut [f64], n: usize, w: usize) {
        let h = n.div_ceil(2);
        for i in 0..n / 2 {
            for j in 0..w {
                let l = src[i * w + j];
                let hi = src[(h + i) * w + j];
                dst[2 * i * w + j] = l + hi;
                dst[(2 * i + 1) * w + j] = l - hi;
            }
        }
        if n % 2 == 1 {
            dst[(n - 1) * w..n * w].copy_from_slice(&src[(h - 1) * w..h * w]);
        }
    }

    /// One sweep: high row `i` is predicted, then low row `i` updated
    /// from high rows `i - 1` and `i` while both are still hot. Each
    /// value is the reference kernel's expression; only the order in
    /// which independent values are written differs.
    fn cdf53_forward(src: &[f64], dst: &mut [f64], n: usize, w: usize) {
        if n == 1 {
            dst.copy_from_slice(src);
            return;
        }
        if w < LANE_MAJOR_BELOW {
            return cdf53_forward_lanes(src, dst, n, w);
        }
        let h = n.div_ceil(2);
        let (lo, hi) = dst.split_at_mut(h * w);
        let row = |k: usize| &src[k * w..(k + 1) * w];
        // H[-1] mirrors H[0]; on an odd lane the last L row reuses the
        // last H row as both neighbours.
        let mut d_prev: Option<&[f64]> = None;
        let mut lows = lo.chunks_exact_mut(w);
        for (i, (d, l)) in hi.chunks_exact_mut(w).zip(lows.by_ref()).enumerate() {
            let (even, odd) = (row(2 * i), row(2 * i + 1));
            // The symmetric extension of x[n] is x[n - 2] = x[2i].
            let next = if 2 * i + 2 < n { row(2 * i + 2) } else { even };
            for (((d, &o), &e), &r) in d.iter_mut().zip(odd).zip(even).zip(next) {
                *d = o - (e + r) / 2.0;
            }
            let d: &[f64] = d;
            let p = d_prev.unwrap_or(d);
            for (((l, &e), &p), &q) in l.iter_mut().zip(even).zip(p).zip(d) {
                *l = e + (p + q) / 4.0;
            }
            d_prev = Some(d);
        }
        if let (Some(l), Some(p)) = (lows.next(), d_prev) {
            for ((l, &e), &p) in l.iter_mut().zip(row(n - 1)).zip(p) {
                *l = e + (p + p) / 4.0;
            }
        }
    }

    /// [`cdf53_forward`] one lane at a time for narrow batches (the
    /// mesh's middle axis runs `w = 2`), where a row is too short to
    /// pay for its loop: each lane is one strided sweep carrying its
    /// even sample and last high coefficient in registers.
    fn cdf53_forward_lanes(src: &[f64], dst: &mut [f64], n: usize, w: usize) {
        let h = n.div_ceil(2);
        let pairs = n / 2;
        let (lo, hi) = dst.split_at_mut(h * w);
        let (first, rest) = src.split_at(w);
        for j in 0..w {
            let mut even = first[j];
            let mut d_prev = None;
            let rows = lo.chunks_exact_mut(w).zip(hi.chunks_exact_mut(w)).zip(rest.chunks(2 * w));
            for ((l, d), pair) in rows {
                let next = pair.get(w + j).copied().unwrap_or(even);
                let dv = pair[j] - (even + next) / 2.0;
                d[j] = dv;
                l[j] = even + (d_prev.unwrap_or(dv) + dv) / 4.0;
                d_prev = Some(dv);
                even = next;
            }
            if let (true, Some(p)) = (h > pairs, d_prev) {
                lo[pairs * w + j] = even + (p + p) / 4.0;
            }
        }
    }

    /// One sweep: even row `2i + 2` is recovered first, then odd row
    /// `2i + 1` from its two even neighbours, so every row is written
    /// once and read while hot.
    fn cdf53_inverse(src: &[f64], dst: &mut [f64], n: usize, w: usize) {
        if n == 1 {
            dst.copy_from_slice(src);
            return;
        }
        if w < LANE_MAJOR_BELOW {
            return cdf53_inverse_lanes(src, dst, n, w);
        }
        let h = n.div_ceil(2);
        let pairs = n / 2;
        let (lo, hi) = src.split_at(h * w);
        let (low, high) = (|i: usize| &lo[i * w..(i + 1) * w], |i: usize| &hi[i * w..(i + 1) * w]);
        let mut out = dst.chunks_exact_mut(w);
        // Even row 2i from L[i] and its neighbours H[i - 1], H[i], with
        // H[-1] = H[0] and, past the last pair, H[pairs] = H[pairs - 1].
        let undo_update = |row: &mut [f64], i: usize| {
            let p = high(i.saturating_sub(1));
            let q = if i < pairs { high(i) } else { p };
            for (((x, &l), &p), &q) in row.iter_mut().zip(low(i)).zip(p).zip(q) {
                *x = l - (p + q) / 4.0;
            }
        };
        let mut even: &[f64] = match out.next() {
            Some(row) => {
                undo_update(row, 0);
                row
            }
            None => return,
        };
        for i in 0..pairs {
            let (Some(odd), next) = (out.next(), out.next()) else { return };
            let next: &[f64] = match next {
                Some(row) => {
                    undo_update(row, i + 1);
                    row
                }
                // The symmetric extension of x[n] is x[n - 2].
                None => even,
            };
            for (((x, &d), &e), &r) in odd.iter_mut().zip(high(i)).zip(even).zip(next) {
                *x = d + (e + r) / 2.0;
            }
            even = next;
        }
    }

    /// [`cdf53_inverse`] one lane at a time for narrow batches.
    fn cdf53_inverse_lanes(src: &[f64], dst: &mut [f64], n: usize, w: usize) {
        let h = n.div_ceil(2);
        let (lo, hi) = src.split_at(h * w);
        let (first, rest) = dst.split_at_mut(w);
        for j in 0..w {
            let mut d_here = hi[j];
            let mut even = lo[j] - (d_here + d_here) / 4.0;
            first[j] = even;
            let mut highs = hi.chunks_exact(w).skip(1);
            let mut pairs = rest.chunks_exact_mut(2 * w);
            for (out, l) in pairs.by_ref().zip(lo[w..].chunks_exact(w)) {
                let d_prev = d_here;
                if let Some(d) = highs.next() {
                    d_here = d[j];
                }
                let next = l[j] - (d_prev + d_here) / 4.0;
                out[w + j] = next;
                out[j] = d_prev + (even + next) / 2.0;
                even = next;
            }
            if let Some(last) = pairs.into_remainder().get_mut(j) {
                *last = d_here + (even + even) / 2.0;
            }
        }
    }

    /// De-interleaves straight into `dst` (s-half, then d-half) and
    /// lifts there in place: no scratch buffers.
    fn cdf97_forward(src: &[f64], dst: &mut [f64], n: usize, w: usize) {
        let ns = n.div_ceil(2);
        let nd = n / 2;
        if nd == 0 {
            dst.copy_from_slice(src);
            return;
        }
        let (s, d) = dst.split_at_mut(ns * w);
        for i in 0..ns {
            s[i * w..(i + 1) * w].copy_from_slice(&src[2 * i * w..(2 * i + 1) * w]);
        }
        for i in 0..nd {
            d[i * w..(i + 1) * w].copy_from_slice(&src[(2 * i + 1) * w..(2 * i + 2) * w]);
        }
        for i in 0..nd {
            let k2 = (i + 1).min(ns - 1);
            for j in 0..w {
                d[i * w + j] += ALPHA * (s[i * w + j] + s[k2 * w + j]);
            }
        }
        for i in 0..ns {
            let a = i.saturating_sub(1);
            let b = i.min(nd - 1);
            for j in 0..w {
                s[i * w + j] += BETA * (d[a * w + j] + d[b * w + j]);
            }
        }
        for i in 0..nd {
            let k2 = (i + 1).min(ns - 1);
            for j in 0..w {
                d[i * w + j] += GAMMA * (s[i * w + j] + s[k2 * w + j]);
            }
        }
        for i in 0..ns {
            let a = i.saturating_sub(1);
            let b = i.min(nd - 1);
            for j in 0..w {
                s[i * w + j] += DELTA * (d[a * w + j] + d[b * w + j]);
            }
        }
        for v in s.iter_mut() {
            *v /= K;
        }
        for v in d.iter_mut() {
            *v *= K;
        }
    }

    /// Writes the scaled halves into `dst` at their interleaved rows
    /// (s at even rows, d at odd) and lifts there in place.
    fn cdf97_inverse(src: &[f64], dst: &mut [f64], n: usize, w: usize) {
        let ns = n.div_ceil(2);
        let nd = n / 2;
        if nd == 0 {
            dst.copy_from_slice(src);
            return;
        }
        // Row `i` of the s-half is `dst` row `2i`, of the d-half row `2i + 1`.
        let s = |i: usize| 2 * i * w;
        let d = |i: usize| (2 * i + 1) * w;
        for i in 0..ns {
            for j in 0..w {
                dst[s(i) + j] = src[i * w + j] * K;
            }
        }
        for i in 0..nd {
            for j in 0..w {
                dst[d(i) + j] = src[(ns + i) * w + j] / K;
            }
        }
        for i in 0..ns {
            let a = i.saturating_sub(1);
            let b = i.min(nd - 1);
            for j in 0..w {
                dst[s(i) + j] -= DELTA * (dst[d(a) + j] + dst[d(b) + j]);
            }
        }
        for i in 0..nd {
            let k2 = (i + 1).min(ns - 1);
            for j in 0..w {
                dst[d(i) + j] -= GAMMA * (dst[s(i) + j] + dst[s(k2) + j]);
            }
        }
        for i in 0..ns {
            let a = i.saturating_sub(1);
            let b = i.min(nd - 1);
            for j in 0..w {
                dst[s(i) + j] -= BETA * (dst[d(a) + j] + dst[d(b) + j]);
            }
        }
        for i in 0..nd {
            let k2 = (i + 1).min(ns - 1);
            for j in 0..w {
                dst[d(i) + j] -= ALPHA * (dst[s(i) + j] + dst[s(k2) + j]);
            }
        }
    }
}

/// The AVX2 tier: Haar, the paper's kernel, with each row operation
/// four lanes wide. All arithmetic rewrites relative to the
/// scalar reference are the value-preserving ones listed in the module
/// docs. CDF 5/3 and 9/7 run the scalar batch code on this tier too,
/// dispatched by [`apply_at`].
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    const L: usize = 4;

    /// A mask of the first `w < L` lanes. A batch narrower than one
    /// vector (the mesh's middle axis runs `w = 2`) moves each row with
    /// one masked load or store and no per-row loop; masked-off lanes
    /// are neither read nor written, so nothing past the row is touched.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn narrow_mask(w: usize) -> __m256i {
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(w as i64), _mm256_setr_epi64x(0, 1, 2, 3))
    }

    /// `out[j] = (a[j] + b[j]) * c` — with `c = 0.5` this is the
    /// reference `(a + b) / 2.0` (power-of-two scale).
    ///
    /// # Safety
    /// `a`, `b`, `out` each point at `w` f64s; `out` does not
    /// overlap `a` or `b`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sum_scale_row(a: *const f64, b: *const f64, out: *mut f64, c: f64, w: usize) {
        let vc = _mm256_set1_pd(c);
        let mut j = 0;
        while j + L <= w {
            _mm256_storeu_pd(
                out.add(j),
                _mm256_mul_pd(
                    _mm256_add_pd(_mm256_loadu_pd(a.add(j)), _mm256_loadu_pd(b.add(j))),
                    vc,
                ),
            );
            j += L;
        }
        while j < w {
            *out.add(j) = (*a.add(j) + *b.add(j)) * c;
            j += 1;
        }
    }

    /// `out[j] = (a[j] - b[j]) * c` — with `c = 0.5` this is the
    /// reference `(a - b) / 2.0`.
    ///
    /// # Safety
    /// Same contract as `sum_scale_row`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn diff_scale_row(a: *const f64, b: *const f64, out: *mut f64, c: f64, w: usize) {
        let vc = _mm256_set1_pd(c);
        let mut j = 0;
        while j + L <= w {
            _mm256_storeu_pd(
                out.add(j),
                _mm256_mul_pd(
                    _mm256_sub_pd(_mm256_loadu_pd(a.add(j)), _mm256_loadu_pd(b.add(j))),
                    vc,
                ),
            );
            j += L;
        }
        while j < w {
            *out.add(j) = (*a.add(j) - *b.add(j)) * c;
            j += 1;
        }
    }

    /// `out[j] = a[j] + b[j]`.
    ///
    /// # Safety
    /// Same contract as `sum_scale_row`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add_row(a: *const f64, b: *const f64, out: *mut f64, w: usize) {
        let mut j = 0;
        while j + L <= w {
            _mm256_storeu_pd(
                out.add(j),
                _mm256_add_pd(_mm256_loadu_pd(a.add(j)), _mm256_loadu_pd(b.add(j))),
            );
            j += L;
        }
        while j < w {
            *out.add(j) = *a.add(j) + *b.add(j);
            j += 1;
        }
    }

    /// `out[j] = a[j] - b[j]`.
    ///
    /// # Safety
    /// Same contract as `sum_scale_row`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sub_row(a: *const f64, b: *const f64, out: *mut f64, w: usize) {
        let mut j = 0;
        while j + L <= w {
            _mm256_storeu_pd(
                out.add(j),
                _mm256_sub_pd(_mm256_loadu_pd(a.add(j)), _mm256_loadu_pd(b.add(j))),
            );
            j += L;
        }
        while j < w {
            *out.add(j) = *a.add(j) - *b.add(j);
            j += 1;
        }
    }

    /// # Safety
    /// Caller must have verified the AVX2 CPU feature is
    /// available (the dispatcher's `assert_available`) and that
    /// `src.len() == dst.len() == n * w` with `n, w > 0`. Row indices
    /// are then all `< n` by the band-length arithmetic, so every
    /// `.add(row * w)` stays in bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn haar_forward(src: &[f64], dst: &mut [f64], n: usize, w: usize) {
        let h = n.div_ceil(2);
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        if w < L {
            let (m, half) = (narrow_mask(w), _mm256_set1_pd(0.5));
            for i in 0..n / 2 {
                let a = _mm256_maskload_pd(sp.add(2 * i * w), m);
                let b = _mm256_maskload_pd(sp.add((2 * i + 1) * w), m);
                _mm256_maskstore_pd(dp.add(i * w), m, _mm256_mul_pd(_mm256_add_pd(a, b), half));
                _mm256_maskstore_pd(dp.add((h + i) * w), m, _mm256_mul_pd(_mm256_sub_pd(a, b), half));
            }
        } else {
            for i in 0..n / 2 {
                let a = sp.add(2 * i * w);
                let b = sp.add((2 * i + 1) * w);
                sum_scale_row(a, b, dp.add(i * w), 0.5, w);
                diff_scale_row(a, b, dp.add((h + i) * w), 0.5, w);
            }
        }
        if n % 2 == 1 {
            core::ptr::copy_nonoverlapping(sp.add((n - 1) * w), dp.add((h - 1) * w), w);
        }
    }

    /// # Safety
    /// See `haar_forward`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn haar_inverse(src: &[f64], dst: &mut [f64], n: usize, w: usize) {
        let h = n.div_ceil(2);
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        if w < L {
            let m = narrow_mask(w);
            for i in 0..n / 2 {
                let l = _mm256_maskload_pd(sp.add(i * w), m);
                let hi = _mm256_maskload_pd(sp.add((h + i) * w), m);
                _mm256_maskstore_pd(dp.add(2 * i * w), m, _mm256_add_pd(l, hi));
                _mm256_maskstore_pd(dp.add((2 * i + 1) * w), m, _mm256_sub_pd(l, hi));
            }
        } else {
            for i in 0..n / 2 {
                let l = sp.add(i * w);
                let hi = sp.add((h + i) * w);
                add_row(l, hi, dp.add(2 * i * w), w);
                sub_row(l, hi, dp.add((2 * i + 1) * w), w);
            }
        }
        if n % 2 == 1 {
            core::ptr::copy_nonoverlapping(sp.add((h - 1) * w), dp.add((n - 1) * w), w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random doubles (no external RNG dep).
    fn field(len: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 11) as f64 / (1u64 << 53) as f64) * 200.0 - 100.0
            })
            .collect()
    }

    #[test]
    fn all_tiers_agree_on_smoke_batches() {
        for &(n, w) in &[(0usize, 3usize), (1, 4), (2, 1), (7, 5), (16, 8), (33, 9)] {
            let src = field(n * w, (n * 31 + w) as u64);
            for op in WaveletOp::ALL {
                let mut want = vec![0.0; n * w];
                apply_at(Level::Scalar, op, &src, &mut want, n, w);
                for level in Level::ALL.into_iter().filter(|l| l.is_available()) {
                    let mut got = vec![0.0; n * w];
                    apply_at(level, op, &src, &mut got, n, w);
                    let wb: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                    let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(wb, gb, "{op:?} n={n} w={w} at {}", level.name());
                }
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip_through_batches() {
        let (n, w) = (37, 8);
        let src = field(n * w, 99);
        for (fwd, inv) in [
            (WaveletOp::HaarForward, WaveletOp::HaarInverse),
            (WaveletOp::Cdf53Forward, WaveletOp::Cdf53Inverse),
            (WaveletOp::Cdf97Forward, WaveletOp::Cdf97Inverse),
        ] {
            let mut mid = vec![0.0; n * w];
            let mut back = vec![0.0; n * w];
            let level = crate::dispatch::level();
            apply_at(level, fwd, &src, &mut mid, n, w);
            apply_at(level, inv, &mid, &mut back, n, w);
            for (a, b) in src.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9, "{fwd:?}: {a} vs {b}");
            }
        }
    }
}
