//! SIMD ↔ scalar equivalence harness for the quantizer kernels.
//!
//! Each ckpt-simd quant kernel (`min_max`, `bin_indexes`) is pinned
//! against an inline serial reference written in the exact
//! association/comparison order the quantizers used before
//! vectorization — bit-for-bit, across every runtime-available tier,
//! including NaN, ±inf, signed zeros, subnormals, bin edges and
//! degenerate ranges.

#![allow(clippy::needless_update)]

use ckpt_simd::dispatch::Level;
use ckpt_simd::quant;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn available_tiers() -> Vec<Level> {
    Level::ALL.into_iter().filter(|l| l.is_available()).collect()
}

/// Serial reference: strict-compare first-seen min/max from element 0.
fn ref_min_max(values: &[f64]) -> Option<(f64, f64)> {
    let (&first, rest) = values.split_first()?;
    let mut lo = first;
    let mut hi = first;
    for &v in rest {
        if v < lo {
            lo = v;
        }
        if v > hi {
            hi = v;
        }
    }
    Some((lo, hi))
}

fn lcg_values(seed: u64, len: usize, with_specials: bool) -> Vec<f64> {
    let mut state = seed | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    (0..len)
        .map(|k| {
            if with_specials {
                match k % 11 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    4 => 0.0,
                    _ => f64::from_bits(next()),
                }
            } else {
                ((next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 100.0
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn min_max_matches_reference(len in 0usize..300, seed in any::<u64>(), specials in any::<bool>()) {
        let values = lcg_values(seed, len, specials);
        let want = ref_min_max(&values).map(|(a, b)| (a.to_bits(), b.to_bits()));
        for level in available_tiers() {
            let got = quant::min_max_at(level, &values).map(|(a, b)| (a.to_bits(), b.to_bits()));
            prop_assert_eq!(got, want, "level={:?} len={}", level, len);
        }
    }

    #[test]
    fn bin_indexes_match_reference(
        len in 0usize..300,
        seed in any::<u64>(),
        specials in any::<bool>(),
        pick in (0usize..6, 0usize..3),
    ) {
        let values = lcg_values(seed, len, specials);
        let k = [1, 2, 64, 256, 257, 65_536][pick.0];
        // The values' own range (which NaN first or an infinity makes
        // NaN or infinite), a fixed one, or a degenerate one.
        let (lo, hi) = match pick.1 {
            0 => ref_min_max(&values).unwrap_or((0.0, 1.0)),
            1 => (-20.0, 30.0),
            _ => (5.0, 5.0),
        };
        all_tiers_match(&values, lo, hi, k)?;
    }
}

/// Serial reference: the bin formula with its saturating cast.
fn ref_bin(v: f64, lo: f64, hi: f64, k: usize) -> usize {
    if hi <= lo {
        return 0;
    }
    let t = (v - lo) / (hi - lo);
    let b = (t * k as f64) as isize;
    b.clamp(0, k as isize - 1) as usize
}

/// Every tier's `bin_indexes` against [`ref_bin`].
fn all_tiers_match(values: &[f64], lo: f64, hi: f64, k: usize) -> Result<(), TestCaseError> {
    let want: Vec<usize> = values.iter().map(|&v| ref_bin(v, lo, hi, k)).collect();
    for level in available_tiers() {
        let mut bins = vec![0u16; values.len()];
        quant::bin_indexes_at(level, values, lo, hi, k, &mut bins);
        let got: Vec<usize> = bins.iter().map(|&b| usize::from(b)).collect();
        prop_assert_eq!(&got, &want, "level={:?} k={} lo={} hi={}", level, k, lo, hi);
    }
    Ok(())
}

#[test]
fn bin_indexes_edge_cases_match_reference() {
    let check = |values: &[f64], lo: f64, hi: f64, k: usize| {
        all_tiers_match(values, lo, hi, k).unwrap_or_else(|e| panic!("{e:?}"));
    };
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 4.0,
        f64::MAX,
        f64::MIN,
    ];
    for k in [1usize, 2, 3, 7, 64, 256, 257, 65_535, 65_536] {
        // Every bin edge of [-1, 3], the values either side of it, and
        // the ends; then the same stream behind a NaN, an infinity and
        // a subnormal, and every tail length 1–3 past a vector.
        let (lo, hi) = (-1.0f64, 3.0f64);
        let edges: Vec<f64> = (0..=k.min(300))
            .flat_map(|b| {
                let e = lo + (hi - lo) * b as f64 / k as f64;
                [e, f64::from_bits(e.to_bits() + 1), f64::from_bits(e.to_bits().wrapping_sub(1))]
            })
            .collect();
        check(&edges, lo, hi, k);
        for &s in &specials {
            let mut v = vec![s];
            v.extend_from_slice(&edges);
            check(&v, lo, hi, k);
            v.rotate_left(1);
            check(&v, lo, hi, k);
            for tail in 1..=3 {
                check(&v[..4 + tail], lo, hi, k);
            }
        }
        // Ranges a special makes: NaN, infinite, subnormal-wide.
        for (a, b) in [
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
            (f64::NEG_INFINITY, 1.0),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (0.0, f64::MIN_POSITIVE / 4.0),
            (-0.0, 0.0),
            (f64::MIN, f64::MAX),
        ] {
            check(&specials, a, b, k);
            check(&edges, a, b, k);
        }
    }
}
