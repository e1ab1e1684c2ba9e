//! The multi-pass quantizers the fused ones replaced, kept as the test
//! oracle: a `k`-bin histogram with per-bin counts and sums over its
//! own range, one bin formula call per value and pass, a bool per
//! value packed into the bitmap afterwards, and a bit-at-a-time
//! reconstruction. The proptest below holds [`crate::simple`],
//! [`crate::spike`] (their `bin_width`s too) and
//! [`Quantized::reconstruct`] to them bit for bit.

use crate::bitmap::Bitmap;
use crate::types::{QuantError, Quantized};

/// The bin of `v` in a `k`-bin equal-width histogram over `[lo, hi]`.
fn bin_index(v: f64, lo: f64, hi: f64, k: usize) -> usize {
    if hi <= lo {
        return 0;
    }
    let t = (v - lo) / (hi - lo);
    let b = (t * k as f64) as isize;
    b.clamp(0, k as isize - 1) as usize
}

/// An equal-width histogram over its values' own min/max range.
struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
    sums: Vec<f64>,
}

impl Histogram {
    fn build(values: &[f64], k: usize) -> Self {
        let (lo, hi) = ckpt_simd::quant::min_max(values).expect("non-empty values");
        let mut h = Histogram { lo, hi, counts: vec![0; k], sums: vec![0.0; k] };
        for &v in values {
            let b = h.bin_of(v);
            h.counts[b] += 1;
            h.sums[b] += v;
        }
        h
    }

    fn bin_of(&self, v: f64) -> usize {
        bin_index(v, self.lo, self.hi, self.counts.len())
    }

    fn detect_spikes(&self, multiplier: f64) -> Vec<bool> {
        let total: usize = self.counts.iter().sum();
        let d = self.counts.len();
        if multiplier == 1.0 {
            return self.counts.iter().map(|&c| c * d >= total).collect();
        }
        assert!(multiplier >= 0.0 && multiplier.is_finite(), "bad threshold multiplier");
        let threshold = multiplier * total as f64 / d as f64;
        self.counts.iter().map(|&c| c as f64 >= threshold).collect()
    }
}

fn empty() -> Quantized {
    Quantized {
        len: 0,
        bitmap: Bitmap::zeros(0),
        indexes: Vec::new(),
        averages: Vec::new(),
        raw: Vec::new(),
        bin_width: 0.0,
    }
}

pub(crate) fn simple(values: &[f64], n: usize) -> Result<Quantized, QuantError> {
    if n == 0 || n > 256 {
        return Err(QuantError::BadDivisionNumber(n));
    }
    if values.is_empty() {
        return Ok(empty());
    }
    let hist = Histogram::build(values, n);
    const EMPTY: u16 = u16::MAX;
    let mut remap = vec![EMPTY; n];
    let mut averages = Vec::new();
    for (bin, slot) in remap.iter_mut().enumerate() {
        if hist.counts[bin] != 0 {
            *slot = averages.len() as u16;
            averages.push(hist.sums[bin] / hist.counts[bin] as f64);
        }
    }
    let indexes = values.iter().map(|&v| remap[hist.bin_of(v)] as u8).collect();
    Ok(Quantized {
        len: values.len(),
        bitmap: Bitmap::ones(values.len()),
        indexes,
        averages,
        raw: Vec::new(),
        bin_width: (hist.hi - hist.lo) / n as f64,
    })
}

pub(crate) fn spike(
    values: &[f64],
    n: usize,
    d: usize,
    multiplier: f64,
) -> Result<Quantized, QuantError> {
    if n == 0 || n > 256 {
        return Err(QuantError::BadDivisionNumber(n));
    }
    if d == 0 {
        return Err(QuantError::BadSpikePartitions(d));
    }
    if values.is_empty() {
        return Ok(empty());
    }
    let hist = Histogram::build(values, d);
    let spiked = hist.detect_spikes(multiplier);
    let mut detected = Vec::new();
    let mut raw = Vec::new();
    let mut bitmap = Bitmap::zeros(values.len());
    for (i, &v) in values.iter().enumerate() {
        if spiked[hist.bin_of(v)] {
            bitmap.set(i, true);
            detected.push(v);
        } else {
            raw.push(v);
        }
    }
    let inner = simple(&detected, n)?;
    Ok(Quantized {
        len: values.len(),
        bitmap,
        indexes: inner.indexes,
        averages: inner.averages,
        raw,
        bin_width: inner.bin_width,
    })
}

pub(crate) fn reconstruct(q: &Quantized) -> Vec<f64> {
    let (mut qi, mut ri) = (0, 0);
    q.bitmap
        .iter()
        .map(|bit| {
            if bit {
                qi += 1;
                q.averages[q.indexes[qi - 1] as usize]
            } else {
                ri += 1;
                q.raw[ri - 1]
            }
        })
        .collect()
}

mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Bits of `v`, with every NaN one value: IEEE-754 leaves which
    /// payload survives a NaN + NaN sum to the compiler (DESIGN.md §16),
    /// so only NaN-ness is pinned where an average sums several NaNs.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() }).collect()
    }

    fn same(got: &Quantized, want: &Quantized) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.len, want.len);
        prop_assert_eq!(&got.bitmap, &want.bitmap);
        prop_assert_eq!(&got.indexes, &want.indexes);
        prop_assert_eq!(bits(&got.averages), bits(&want.averages));
        let raw_bits = |q: &Quantized| q.raw.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(raw_bits(got), raw_bits(want));
        prop_assert_eq!(bits(&[got.bin_width]), bits(&[want.bin_width]));
        prop_assert_eq!(bits(&got.reconstruct()), bits(&reconstruct(want)));
        Ok(())
    }

    /// A stream of `len` values of one `kind`: a spiky band, a band
    /// sprinkled with specials, a constant, raw bit patterns, or a few
    /// repeated values sitting on bin edges.
    fn stream(kind: usize, len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        (0..len)
            .map(|i| {
                let r = next();
                let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
                match kind {
                    0 if i % 9 == 0 => (unit - 0.5) * 8.0,
                    0 => (unit - 0.5) * 1e-3,
                    1 => match r % 13 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        3 => -0.0,
                        4 => 0.0,
                        5 => 1e-310,
                        _ => (unit - 0.5) * 4.0,
                    },
                    2 => 3.25,
                    3 => f64::from_bits(r),
                    _ => (r % 5) as f64 * 0.25,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 160 })]

        #[test]
        fn fused_quantizers_equal_the_multi_pass_oracle(
            kind in 0usize..5,
            len in 0usize..700,
            seed in any::<u64>(),
            pick in (0usize..5, 0usize..3, 0usize..4),
        ) {
            let values = stream(kind, len, seed);
            let d = [1, 64, 256, 257, 65_535][pick.0];
            let n = [1, 128, 256][pick.1];
            let m = [1.0, 0.0, 0.5, 4.0][pick.2];
            same(&crate::simple::quantize(&values, n).unwrap(), &simple(&values, n).unwrap())?;
            let got = crate::spike::quantize_with_threshold(&values, n, d, m).unwrap();
            same(&got, &spike(&values, n, d, m).unwrap())?;
            // The histogram-only width, on specials and raw bit patterns too.
            let width = crate::spike::bin_width(&values, n, d).unwrap();
            let want = spike(&values, n, d, 1.0).unwrap().bin_width;
            prop_assert_eq!(bits(&[width]), bits(&[want]));
            let width = crate::simple::bin_width(&values, n).unwrap();
            prop_assert_eq!(bits(&[width]), bits(&[simple(&values, n).unwrap().bin_width]));
        }
    }

    #[test]
    fn every_bitmap_byte_shape_reconstructs_like_the_bit_walk() {
        // All-ones, all-zero and mixed bytes, full and partial words.
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 130, 1000] {
            let values: Vec<f64> = (0..len)
                .map(|i| if (i / 8) % 3 == 0 || i % 5 == 0 { (i % 4) as f64 } else { 1e3 + i as f64 })
                .collect();
            let q = crate::spike::quantize(&values, 4, 8).unwrap();
            assert_eq!(bits(&q.reconstruct()), bits(&reconstruct(&q)), "len {len}");
        }
    }
}
