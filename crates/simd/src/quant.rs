//! Vectorized quantizer scans.
//!
//! Kernels bit-identical to the scalar loops they replace in
//! `crates/quant` (pinned by `crates/quant/tests/simd_equivalence.rs`):
//!
//! - [`min_max`] — the histogram/spike range scan, with the serial
//!   first-seen semantics for NaN and signed zero preserved;
//! - [`pack_bools`] / [`unpack_bools`] — bitmap pack/unpack between one
//!   bool per element and LSB-first u64 words.
//!
//! Float kernels never reassociate: `min_max` reduces per-lane
//! accumulators in lane order with the same strict comparisons the
//! serial scan uses (plus a signed-zero fixup, see below).

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

/// Packs one bool per bit into LSB-first u64 words (bit `i` of the
/// result is `flags[i]`, in word `i / 64` at position `i % 64`). The
/// result always has `flags.len().div_ceil(64)` words with a clear
/// tail.
pub fn pack_bools(flags: &[bool]) -> Vec<u64> {
    pack_bools_at(dispatch::level(), flags)
}

/// [`pack_bools`] at an explicit tier.
pub fn pack_bools_at(level: Level, flags: &[bool]) -> Vec<u64> {
    level.assert_available();
    match level {
        Level::Scalar => scalar::pack_bools(flags),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: assert_available above verified AVX2 is present.
        Level::Avx2 => unsafe { avx2::pack_bools(flags) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => scalar::pack_bools(flags),
    }
}

/// Inverse of [`pack_bools`]: expands `len` bits of LSB-first words
/// into one bool per element.
///
/// Panics unless `words.len() == len.div_ceil(64)`.
pub fn unpack_bools(words: &[u64], len: usize) -> Vec<bool> {
    unpack_bools_at(dispatch::level(), words, len)
}

/// [`unpack_bools`] at an explicit tier.
pub fn unpack_bools_at(level: Level, words: &[u64], len: usize) -> Vec<bool> {
    assert_eq!(words.len(), len.div_ceil(64), "unpack_bools word count must match len");
    level.assert_available();
    match level {
        Level::Scalar => scalar::unpack_bools(words, len),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: assert_available above verified AVX2 is present.
        Level::Avx2 => unsafe { avx2::unpack_bools(words, len) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => scalar::unpack_bools(words, len),
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

    pub(super) fn pack_bools(flags: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; flags.len().div_ceil(64)];
        for (i, &f) in flags.iter().enumerate() {
            if f {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        words
    }

    pub(super) fn unpack_bools(words: &[u64], len: usize) -> Vec<bool> {
        (0..len).map(|i| words[i / 64] & (1u64 << (i % 64)) != 0).collect()
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
    /// AVX2 must be available. `bool` is guaranteed to be one byte
    /// holding 0 or 1, so `cmpgt(v, 0)` marks exactly the true flags
    /// and `movemask` collects them 32 at a time; `i` stays a multiple
    /// of 32, so each mask lands inside one u64 word.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pack_bools(flags: &[bool]) -> Vec<u64> {
        let len = flags.len();
        let mut words = vec![0u64; len.div_ceil(64)];
        let p = flags.as_ptr().cast::<u8>();
        let zero = _mm256_setzero_si256();
        let mut i = 0;
        while i + 32 <= len {
            let v = _mm256_loadu_si256(p.add(i).cast::<__m256i>());
            let m = _mm256_movemask_epi8(_mm256_cmpgt_epi8(v, zero)) as u32 as u64;
            words[i / 64] |= m << (i % 64);
            i += 32;
        }
        while i < len {
            if flags[i] {
                words[i / 64] |= 1u64 << (i % 64);
            }
            i += 1;
        }
        words
    }

    /// # Safety
    /// AVX2 available; `words.len() == len.div_ceil(64)`. Expands one
    /// mask byte to 8 bool bytes: broadcast the byte, AND against the
    /// per-lane bit masks, compare-equal, mask to 0/1 — writing 0/1
    /// bytes into `Vec<bool>` storage is valid. `i` stays a multiple
    /// of 8 so each byte comes from a single word.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack_bools(words: &[u64], len: usize) -> Vec<bool> {
        let mut out = vec![false; len];
        #[allow(overflowing_literals)]
        let bits = _mm_set_epi8(
            0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04,
            0x02, 0x01,
        );
        let one = _mm_set1_epi8(1);
        let p = out.as_mut_ptr().cast::<u8>();
        let mut i = 0;
        while i + 8 <= len {
            let byte = ((words[i / 64] >> (i % 64)) & 0xFF) as i8;
            let sel = _mm_and_si128(_mm_set1_epi8(byte), bits);
            let booleans = _mm_and_si128(_mm_cmpeq_epi8(sel, bits), one);
            _mm_storel_epi64(p.add(i).cast::<__m128i>(), booleans);
            i += 8;
        }
        while i < len {
            out[i] = words[i / 64] & (1u64 << (i % 64)) != 0;
            i += 1;
        }
        out
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
    fn pack_unpack_roundtrip_all_tiers() {
        for len in [0usize, 1, 7, 8, 15, 16, 17, 63, 64, 65, 100, 127, 128, 321] {
            let flags: Vec<bool> = (0..len).map(|i| (i * 7 + 3) % 5 < 2).collect();
            let want = scalar_pack(&flags);
            for level in tiers() {
                let words = pack_bools_at(level, &flags);
                assert_eq!(words, want, "pack {} len={len}", level.name());
                let back = unpack_bools_at(level, &words, len);
                assert_eq!(back, flags, "unpack {} len={len}", level.name());
            }
        }
    }

    fn scalar_pack(flags: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; flags.len().div_ceil(64)];
        for (i, &f) in flags.iter().enumerate() {
            if f {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        words
    }
}
