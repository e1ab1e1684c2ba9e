//! SIMD ↔ scalar equivalence harness for the batched wavelet kernels.
//!
//! The ckpt-simd contract (DESIGN.md §16) is that every tier produces
//! bit-identical output. This harness pins it against the crate's own
//! 1-d reference kernels: a batch of `w` lanes run through
//! [`ckpt_simd::wavelet::apply_at`] must equal `w` independent
//! [`forward_1d`]/[`inverse_1d`] calls, bit for bit, for every
//! available tier — including infinities, signed zeros, subnormals,
//! and the odd-length / empty edge cases.
//!
//! One carve-out, straight from IEEE-754 §6.2: when *both* operands of
//! an arithmetic op are NaN, which payload propagates is unspecified —
//! x86 keeps the first source operand, and LLVM freely commutes scalar
//! `fadd`, so not even two scalar compilations of the same expression
//! pin it. The contract is therefore: NaN-ness of every output element
//! is tier-independent (checked exactly), NaN *payload* bits are
//! compared only where they are well-defined (everywhere except
//! multi-NaN arithmetic interactions — the comparison canonicalizes
//! NaNs, and all non-NaN outputs must match bit for bit).

#![allow(clippy::needless_update)]

use ckpt_simd::dispatch::Level;
use ckpt_simd::wavelet::{apply_at, WaveletOp};
use ckpt_wavelet::{cdf53, cdf97, haar};
use proptest::prelude::*;

/// The trusted reference: gather each lane out of the batch layout
/// (`src[k * w + j]` = element `k` of lane `j`), run the crate's 1-d
/// kernel, scatter back.
fn reference(op: WaveletOp, src: &[f64], n: usize, w: usize) -> Vec<f64> {
    let mut out = vec![0.0; n * w];
    let mut lane_in = vec![0.0; n];
    let mut lane_out = vec![0.0; n];
    for j in 0..w {
        for k in 0..n {
            lane_in[k] = src[k * w + j];
        }
        match op {
            WaveletOp::HaarForward => haar::forward_1d(&lane_in, &mut lane_out),
            WaveletOp::HaarInverse => haar::inverse_1d(&lane_in, &mut lane_out),
            WaveletOp::Cdf53Forward => cdf53::forward_1d(&lane_in, &mut lane_out),
            WaveletOp::Cdf53Inverse => cdf53::inverse_1d(&lane_in, &mut lane_out),
            WaveletOp::Cdf97Forward => cdf97::forward_1d(&lane_in, &mut lane_out),
            WaveletOp::Cdf97Inverse => cdf97::inverse_1d(&lane_in, &mut lane_out),
        }
        for k in 0..n {
            out[k * w + j] = lane_out[k];
        }
    }
    out
}

/// Bit pattern for comparison: exact bits for every non-NaN value
/// (sign of zero, subnormals, infinities all significant); NaNs
/// collapse to one marker, so NaN-ness must agree per element while
/// the IEEE-unspecified payload choice may not (module docs).
fn comparison_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| if v.is_nan() { 0x7ff8_0000_0000_0000 } else { v.to_bits() }).collect()
}

/// Every runtime-available tier (always includes Scalar).
fn available_tiers() -> Vec<Level> {
    Level::ALL.into_iter().filter(|l| l.is_available()).collect()
}

/// The proptests sample short lanes and narrow batches; the mesh's
/// passes are longer and wider. Every op, on every tier, at every
/// `n` ∈ {2, 82, 1156} (the 1156 × 82 × 2 mesh's axis lengths) × `w` ∈
/// {1, 2, 3, 7, 8, 164, 256} (both sides of the 5/3 kernels' switch
/// from lane sweeps to row loops, the middle axis's 2, the first
/// axis's 164, a last-axis tile's 256), bit for bit against the 1-d
/// kernels on finite data.
#[test]
fn every_tier_matches_the_reference_on_the_mesh_pass_shapes() {
    let mut state = 0x2015_u64;
    for n in [2usize, 82, 1156] {
        for w in [1usize, 2, 3, 7, 8, 164, 256] {
            let src: Vec<f64> = (0..n * w)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0e4
                })
                .collect();
            for op in WaveletOp::ALL {
                let want: Vec<u64> = reference(op, &src, n, w).iter().map(|v| v.to_bits()).collect();
                for level in available_tiers() {
                    let mut dst = vec![0.0f64; n * w];
                    apply_at(level, op, &src, &mut dst, n, w);
                    let got: Vec<u64> = dst.iter().map(|v| v.to_bits()).collect();
                    assert!(got == want, "op={op:?} level={level:?} n={n} w={w}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn every_tier_matches_the_reference_bit_for_bit(
        n in 0usize..34, w in 0usize..10, seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        // Raw bit patterns cover NaN payloads, ±inf, subnormals and
        // huge magnitudes; a few are pinned so every case sees them.
        let src: Vec<f64> = (0..n * w)
            .map(|k| match k % 13 {
                0 => f64::from_bits(0x7ff8_dead_beef_0001), // NaN w/ payload
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                4 => f64::from_bits(next() >> 12), // subnormal territory
                _ => f64::from_bits(next()),
            })
            .collect();
        for op in WaveletOp::ALL {
            let want = comparison_bits(&reference(op, &src, n, w));
            for level in available_tiers() {
                let mut dst = vec![0.0f64; n * w];
                apply_at(level, op, &src, &mut dst, n, w);
                let got = comparison_bits(&dst);
                prop_assert_eq!(
                    &got, &want,
                    "op={:?} level={:?} n={} w={}", op, level, n, w
                );
            }
        }
    }

    #[test]
    fn single_nan_payload_propagates_bit_exactly(
        n in 1usize..40, w in 1usize..10, pos_seed in any::<u64>(), seed in any::<u64>(),
    ) {
        // With one NaN in otherwise bounded finite data, every NaN in
        // flight carries the same bits, so the IEEE operand-order
        // ambiguity collapses and payload propagation IS well-defined:
        // here the comparison is exact to the last payload bit.
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0e4
        };
        let mut src: Vec<f64> = (0..n * w).map(|_| next()).collect();
        src[(pos_seed as usize) % (n * w)] = f64::from_bits(0x7ff8_dead_beef_0001);
        for op in WaveletOp::ALL {
            let want: Vec<u64> = reference(op, &src, n, w).iter().map(|v| v.to_bits()).collect();
            for level in available_tiers() {
                let mut dst = vec![0.0f64; n * w];
                apply_at(level, op, &src, &mut dst, n, w);
                let got: Vec<u64> = dst.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(
                    &got, &want,
                    "op={:?} level={:?} n={} w={}", op, level, n, w
                );
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip_is_tier_independent(
        n in 1usize..40, w in 1usize..9, seed in any::<u64>(),
    ) {
        // Not just fwd == fwd across tiers: the *composition* the
        // pipeline actually runs (forward on one tier at save time,
        // inverse on another at restore time) must land on identical
        // bits regardless of which tier ran which half.
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0e4
        };
        let src: Vec<f64> = (0..n * w).map(|_| next()).collect();
        for (fwd, inv) in [
            (WaveletOp::HaarForward, WaveletOp::HaarInverse),
            (WaveletOp::Cdf53Forward, WaveletOp::Cdf53Inverse),
            (WaveletOp::Cdf97Forward, WaveletOp::Cdf97Inverse),
        ] {
            let mut want: Option<Vec<u64>> = None;
            for save_tier in available_tiers() {
                for restore_tier in available_tiers() {
                    let mut mid = vec![0.0f64; n * w];
                    let mut back = vec![0.0f64; n * w];
                    apply_at(save_tier, fwd, &src, &mut mid, n, w);
                    apply_at(restore_tier, inv, &mid, &mut back, n, w);
                    let bits: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
                    match &want {
                        None => want = Some(bits),
                        Some(w0) => prop_assert_eq!(
                            &bits, w0,
                            "save={:?} restore={:?} op={:?}", save_tier, restore_tier, fwd
                        ),
                    }
                }
            }
        }
    }
}
