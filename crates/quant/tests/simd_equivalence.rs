//! SIMD ↔ scalar equivalence harness for the quantizer kernels.
//!
//! Each ckpt-simd quant kernel is pinned against an inline serial
//! reference written in the exact association/comparison order the
//! quantizers used before vectorization — bit-for-bit, across every
//! runtime-available tier, including NaN, ±inf, signed zeros and
//! degenerate ranges.

#![allow(clippy::needless_update)]

use ckpt_simd::dispatch::Level;
use ckpt_simd::quant;
use proptest::prelude::*;

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
    fn pack_unpack_matches_reference(len in 0usize..520, seed in any::<u64>()) {
        let mut state = seed | 1;
        let flags: Vec<bool> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state & 4096 != 0
            })
            .collect();
        // Serial reference pack: LSB-first bit loop.
        let mut want = vec![0u64; len.div_ceil(64)];
        for (i, &f) in flags.iter().enumerate() {
            if f {
                want[i / 64] |= 1u64 << (i % 64);
            }
        }
        for level in available_tiers() {
            let packed = quant::pack_bools_at(level, &flags);
            prop_assert_eq!(&packed, &want, "pack level={:?} len={}", level, len);
            let unpacked = quant::unpack_bools_at(level, &packed, len);
            prop_assert_eq!(&unpacked, &flags, "unpack level={:?} len={}", level, len);
        }
    }
}
