//! Proposed quantization with spike detection (Section III-B-2).
//!
//! High-band distributions of smooth mesh data have a sharp spike around
//! zero. Quantizing sparse tail partitions wastes table entries and
//! inflates error, so the proposed method:
//!
//! 1. splits the range into `d` partitions (paper: `d = 64`),
//! 2. detects *spiked* partitions — those holding at least the average
//!    count `N_total / d` (Equation 4),
//! 3. applies the simple `n`-partition quantization **only to the values
//!    inside detected partitions** (over the detected values' own
//!    range); every other value passes through exactly.
//!
//! The bitmap distinguishes the two populations, exactly as the output
//! format of Figure 5 requires.

use crate::bitmap::Bitmap;
use crate::simple;
use crate::types::{QuantError, Quantized};
use ckpt_simd::quant::{bin_indexes, min_max};

/// Runs the proposed quantization with division number `n` and
/// spike-detection partition count `d` (Equation 4 threshold).
pub fn quantize(values: &[f64], n: usize, d: usize) -> Result<Quantized, QuantError> {
    quantize_with_threshold(values, n, d, 1.0)
}

/// The proposed quantization with an adjustable spike threshold:
/// partitions with `count >= multiplier × N_total / d` are detected.
/// `multiplier = 1.0` is the paper's Equation 4; the ablation bench
/// sweeps it (smaller ⇒ quantize more values ⇒ better rate, worse
/// error).
///
/// The passes: [`spikes`], then one split into bitmap words and the
/// detected and raw streams, whose sizes the counts already give; the
/// detected stream then goes through the simple quantizer's passes.
pub fn quantize_with_threshold(
    values: &[f64],
    n: usize,
    d: usize,
    multiplier: f64,
) -> Result<Quantized, QuantError> {
    check(n, d)?;
    let Some(Spikes { bins, spiked, hits }) = spikes(values, d, multiplier) else {
        return Ok(Quantized {
            len: 0,
            bitmap: Bitmap::zeros(0),
            indexes: Vec::new(),
            averages: Vec::new(),
            raw: Vec::new(),
            bin_width: 0.0,
        });
    };
    let total = values.len();

    // Branch-free split: every value is stored at the cursor of both
    // streams and only the cursor of its own stream advances, so each
    // stream carries one spare slot for the last overwrite.
    let mut words = vec![0u64; total.div_ceil(64)];
    let mut detected = vec![0.0; hits + 1];
    let mut raw = vec![0.0; total - hits + 1];
    let (mut di, mut ri) = (0, 0);
    for ((word, vals), bins) in words.iter_mut().zip(values.chunks(64)).zip(bins.chunks(64)) {
        let mut w = 0u64;
        for (j, (&v, &b)) in vals.iter().zip(bins).enumerate() {
            let hit = usize::from(spiked[usize::from(b)]);
            detected[di] = v;
            raw[ri] = v;
            di += hit;
            ri += 1 - hit;
            w |= (hit as u64) << j;
        }
        *word = w;
    }
    detected.truncate(hits);
    raw.truncate(total - hits);

    let (indexes, averages, bin_width) = simple::encode(&detected, n);
    let bitmap = Bitmap::from_words(total, words);
    Ok(Quantized { len: total, bitmap, indexes, averages, raw, bin_width })
}

/// The bin width [`quantize`] reports for `values`
/// ([`Quantized::bin_width`], bit for bit): the detected values' range
/// over `n`, 0 when there are none. Only the histogram passes run, then
/// one scan for the detected range; no bitmap, index or average is
/// built.
pub fn bin_width(values: &[f64], n: usize, d: usize) -> Result<f64, QuantError> {
    check(n, d)?;
    let Some(Spikes { bins, spiked, .. }) = spikes(values, d, 1.0) else {
        return Ok(0.0);
    };
    // The first-seen strict-compare scan `min_max` makes over the
    // detected stream, so signed zeros resolve as they do there.
    let mut detected = values.iter().zip(&bins).filter(|(_, &b)| spiked[usize::from(b)] != 0);
    let Some((&first, _)) = detected.next() else {
        return Ok(0.0);
    };
    let (mut lo, mut hi) = (first, first);
    for (&v, _) in detected {
        if v < lo {
            lo = v;
        }
        if v > hi {
            hi = v;
        }
    }
    Ok((hi - lo) / n as f64)
}

fn check(n: usize, d: usize) -> Result<(), QuantError> {
    if n == 0 || n > 256 {
        return Err(QuantError::BadDivisionNumber(n));
    }
    if d == 0 || d > u16::MAX.into() {
        return Err(QuantError::BadSpikePartitions(d));
    }
    Ok(())
}

/// The spike histogram of `values`: each value's bin of `d` over their
/// range, which bins are spiked (1) or not (0), and how many values sit
/// in spiked bins. `None` for an empty stream.
struct Spikes {
    bins: Vec<u16>,
    spiked: Vec<u8>,
    hits: usize,
}

/// The histogram passes [`quantize_with_threshold`] and [`bin_width`]
/// share: the range, one bin per value, the counts, the spike mask.
fn spikes(values: &[f64], d: usize, multiplier: f64) -> Option<Spikes> {
    let (lo, hi) = min_max(values)?;
    let mut bins = vec![0u16; values.len()];
    bin_indexes(values, lo, hi, d, &mut bins);

    let counts = counts(&bins, d);
    let total = values.len();
    let spiked: Vec<u8> = if multiplier == 1.0 {
        // Equation 4 in integers: `count * d >= total`.
        counts.iter().map(|&c| u8::from(c * d >= total)).collect()
    } else {
        assert!(multiplier >= 0.0 && multiplier.is_finite(), "bad threshold multiplier");
        let threshold = multiplier * total as f64 / d as f64;
        counts.iter().map(|&c| u8::from(c as f64 >= threshold)).collect()
    };
    let hits = counts.iter().zip(&spiked).map(|(&c, &s)| c * usize::from(s)).sum();
    Some(Spikes { bins, spiked, hits })
}

/// Per-bin counts of `bins` (each below `k`), accumulated in four
/// interleaved tables so repeats of one bin do not serialize on one
/// counter.
fn counts(bins: &[u16], k: usize) -> Vec<usize> {
    let mut tables = vec![0usize; 4 * k];
    let (t01, t23) = tables.split_at_mut(2 * k);
    let (t0, t1) = t01.split_at_mut(k);
    let (t2, t3) = t23.split_at_mut(k);
    let mut quads = bins.chunks_exact(4);
    for q in &mut quads {
        t0[usize::from(q[0])] += 1;
        t1[usize::from(q[1])] += 1;
        t2[usize::from(q[2])] += 1;
        t3[usize::from(q[3])] += 1;
    }
    for &b in quads.remainder() {
        t0[usize::from(b)] += 1;
    }
    for (((a, b), c), d) in t0.iter_mut().zip(&*t1).zip(&*t2).zip(&*t3) {
        *a += b + c + d;
    }
    tables.truncate(k);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spiky distribution: a large mass near zero plus sparse tails,
    /// mimicking a wavelet high band of smooth data.
    fn spiky(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                if i % 10 == 0 {
                    // Sparse tail values up to +/- 4.
                    let sign = if i % 20 == 0 { 1.0 } else { -1.0 };
                    sign * (1.0 + (i % 7) as f64 * 0.45)
                } else {
                    // Spike: tiny values around zero.
                    ((i * 37 % 100) as f64 - 50.0) / 5000.0
                }
            })
            .collect()
    }

    #[test]
    fn detects_and_quantizes_only_the_spike() {
        let values = spiky(1000);
        let q = quantize(&values, 8, 64).unwrap();
        q.validate().unwrap();
        // The spike (90% of mass) is quantized; tails pass through.
        assert!(q.coverage() > 0.6, "coverage {}", q.coverage());
        assert!(q.coverage() < 1.0, "tails must not be quantized");
        // Pass-through values are bit-exact.
        let rec = q.reconstruct();
        for (i, (&v, &r)) in values.iter().zip(&rec).enumerate() {
            if !q.bitmap.get(i) {
                assert_eq!(v, r, "raw value at {i} must be exact");
            }
        }
    }

    #[test]
    fn proposed_max_error_below_simple_on_spiky_data() {
        // The paper's core claim: for the same n, the proposed method has
        // (much) lower max error because sparse tail partitions are not
        // collapsed to coarse averages.
        let values = spiky(10_000);
        for n in [1usize, 4, 16, 128] {
            let qs = crate::simple::quantize(&values, n).unwrap();
            let qp = quantize(&values, n, 64).unwrap();
            let max = |q: &Quantized| {
                values
                    .iter()
                    .zip(q.reconstruct())
                    .map(|(&v, r)| (v - r).abs())
                    .fold(0.0f64, f64::max)
            };
            assert!(
                max(&qp) <= max(&qs) + 1e-12,
                "n={n}: proposed {} vs simple {}",
                max(&qp),
                max(&qs)
            );
        }
    }

    #[test]
    fn uniform_distribution_degenerates_to_simple() {
        // When every partition holds the average count, everything is
        // detected and the method equals simple quantization.
        let values: Vec<f64> = (0..640).map(|i| i as f64).collect();
        let qp = quantize(&values, 8, 64).unwrap();
        assert_eq!(qp.coverage(), 1.0);
        let qs = crate::simple::quantize(&values, 8).unwrap();
        assert_eq!(qp.reconstruct(), qs.reconstruct());
    }

    #[test]
    fn all_identical_values_fully_quantized_exact() {
        let values = [2.5; 100];
        let q = quantize(&values, 16, 64).unwrap();
        q.validate().unwrap();
        assert_eq!(q.coverage(), 1.0);
        assert_eq!(q.reconstruct(), values.to_vec());
    }

    #[test]
    fn index_table_stays_within_one_byte() {
        let values = spiky(5000);
        let q = quantize(&values, 256, 64).unwrap();
        assert!(q.averages.len() <= 256);
        q.validate().unwrap();
    }

    #[test]
    fn spike_detection_matches_equation_4() {
        // 10 values, d = 5 bins, so the threshold is 2 per bin; the bin
        // counts are [6, 0, 2, 1, 1], so bins 0 and 2 are detected.
        let values = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.5, 0.52, 0.7, 0.99];
        let q = quantize(&values, 4, 5).unwrap();
        let bits: Vec<bool> = q.bitmap.iter().collect();
        assert_eq!(bits, [true, true, true, true, true, true, true, true, false, false]);
        assert_eq!(q.raw, [0.7, 0.99]);
    }

    #[test]
    fn wide_spike_partitions_use_the_same_rule() {
        // Bins past 256 (the `--d` flag takes up to 65,535). With more
        // bins than values every occupied bin passes the rule, as does
        // the one bin of d = 1.
        let values: Vec<f64> = spiky(3000)
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 10 == 0 { v + i as f64 / 3000.0 } else { v })
            .collect();
        for d in [257usize, 1024] {
            let q = quantize(&values, 16, d).unwrap();
            q.validate().unwrap();
            assert!(q.coverage() > 0.0 && q.coverage() < 1.0, "d={d}");
        }
        for d in [1usize, 65_535] {
            assert_eq!(quantize(&values, 16, d).unwrap().coverage(), 1.0, "d={d}");
        }
        assert_eq!(quantize(&values, 16, 65_536), Err(QuantError::BadSpikePartitions(65_536)));
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(quantize(&[1.0], 0, 64).is_err());
        assert!(quantize(&[1.0], 300, 64).is_err());
        assert!(quantize(&[1.0], 8, 0).is_err());
    }

    #[test]
    fn empty_input_ok() {
        let q = quantize(&[], 8, 64).unwrap();
        assert_eq!(q.len, 0);
        q.validate().unwrap();
    }

    #[test]
    fn quantized_fraction_of_bytes_shrinks_with_tails() {
        // The raw stream length equals the number of pass-through values.
        let values = spiky(1000);
        let q = quantize(&values, 8, 64).unwrap();
        assert_eq!(q.raw.len() + q.indexes.len(), values.len());
        assert!(!q.raw.is_empty());
    }

    #[test]
    fn detected_region_error_bounded_by_inner_width() {
        let values = spiky(2000);
        let n = 32;
        let q = quantize(&values, n, 64).unwrap();
        let rec = q.reconstruct();
        // Detected values live inside the spike; the inner quantizer's
        // partition width is (detected range)/n.
        let detected: Vec<f64> = values
            .iter()
            .enumerate()
            .filter(|(i, _)| q.bitmap.get(*i))
            .map(|(_, &v)| v)
            .collect();
        let lo = detected.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = detected.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let width = (hi - lo) / n as f64;
        for (i, (&v, &r)) in values.iter().zip(&rec).enumerate() {
            if q.bitmap.get(i) {
                assert!((v - r).abs() <= width.max(1e-15), "at {i}");
            }
        }
    }
}

#[cfg(test)]
mod threshold_tests {
    use super::*;

    /// Same spiky shape as `tests::spiky`: heavy mass near zero, sparse
    /// tails.
    fn spiky(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                if i % 10 == 0 {
                    let sign = if i % 20 == 0 { 1.0 } else { -1.0 };
                    sign * (1.0 + (i % 7) as f64 * 0.45)
                } else {
                    ((i * 37 % 100) as f64 - 50.0) / 5000.0
                }
            })
            .collect()
    }

    #[test]
    fn multiplier_one_matches_equation_4() {
        let values = spiky(2000);
        let a = quantize(&values, 16, 64).unwrap();
        let b = quantize_with_threshold(&values, 16, 64, 1.0).unwrap();
        assert_eq!(a.reconstruct(), b.reconstruct());
        assert_eq!(a.coverage(), b.coverage());
    }

    #[test]
    fn lower_threshold_quantizes_more() {
        let values = spiky(2000);
        let strict = quantize_with_threshold(&values, 16, 64, 4.0).unwrap();
        let eq4 = quantize_with_threshold(&values, 16, 64, 1.0).unwrap();
        let lax = quantize_with_threshold(&values, 16, 64, 0.1).unwrap();
        assert!(strict.coverage() <= eq4.coverage());
        assert!(eq4.coverage() <= lax.coverage());
        assert!(lax.coverage() > strict.coverage(), "sweep must actually move coverage");
    }

    #[test]
    fn zero_threshold_degenerates_to_simple() {
        let values = spiky(1000);
        let all = quantize_with_threshold(&values, 8, 64, 0.0).unwrap();
        assert_eq!(all.coverage(), 1.0);
        let simple = crate::simple::quantize(&values, 8).unwrap();
        assert_eq!(all.reconstruct(), simple.reconstruct());
    }

    #[test]
    fn bad_multiplier_panics() {
        let values = spiky(100);
        let r = std::panic::catch_unwind(|| {
            let _ = quantize_with_threshold(&values, 8, 64, f64::NAN);
        });
        assert!(r.is_err());
    }
}
