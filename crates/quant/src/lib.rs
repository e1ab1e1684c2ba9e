//! # ckpt-quant
//!
//! Quantization and index encoding for wavelet high-frequency bands,
//! implementing both methods of Section III-B of the paper:
//!
//! * **Simple quantization** ([`simple`]): split the value range into `n`
//!   equal partitions, replace every value with its partition average.
//! * **Proposed quantization** ([`spike`]): split the range into `d`
//!   partitions (the paper uses `d = 64`), detect "spiked" partitions
//!   holding at least the average count `N_total / d`, and apply the
//!   simple method *only* to values inside detected partitions; all other
//!   values stay exact.
//!
//! Both produce a [`Quantized`] stream: a [`Bitmap`] of which positions
//! were quantized, one `u8` index per quantized position into the
//! `average[..]` table (Section III-C: one byte suffices because useful
//! `n` never exceeds 256), and the untouched raw values. Reconstruction
//! ([`Quantized::reconstruct`]) is exact for raw positions and returns
//! the partition average for quantized ones.

#![forbid(unsafe_code)]

pub mod bitmap;
#[cfg(test)]
mod oracle;
pub mod simple;
pub mod spike;
pub mod types;

pub use bitmap::Bitmap;
pub use types::{Method, QuantConfig, QuantError, Quantized};

/// Quantizes `values` with the configured method.
///
/// This is the single entry point the pipeline uses; it dispatches to
/// [`simple::quantize`] or [`spike::quantize`].
pub fn quantize(values: &[f64], config: &QuantConfig) -> Result<Quantized, QuantError> {
    match config.method {
        Method::Simple => simple::quantize(values, config.n),
        Method::Proposed => spike::quantize(values, config.n, config.d),
    }
}

/// The bin width [`quantize`] would report ([`Quantized::bin_width`],
/// bit for bit), from the histogram passes alone: the product writer
/// sizes its grids from it and builds no quantized stream.
pub fn bin_width(values: &[f64], config: &QuantConfig) -> Result<f64, QuantError> {
    match config.method {
        Method::Simple => simple::bin_width(values, config.n),
        Method::Proposed => spike::bin_width(values, config.n, config.d),
    }
}

/// Alias of [`quantize`]: the quantizer is serial at every thread count
/// (EXPERIMENTS.md, pass 4 — the fan-out was slower on two threads) and
/// `threads` is ignored. Kept only because the frozen `e2e/` probe
/// calls this name; it goes with the next benchmark-only PR (ROADMAP).
pub fn quantize_threaded(
    values: &[f64],
    config: &QuantConfig,
    _threads: usize,
) -> Result<Quantized, QuantError> {
    quantize(values, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_matches_direct_calls() {
        let values: Vec<f64> = (0..500).map(|i| ((i as f64) * 0.13).sin()).collect();
        let cfg = QuantConfig { method: Method::Simple, n: 8, d: 64 };
        let a = quantize(&values, &cfg).unwrap();
        let b = simple::quantize(&values, 8).unwrap();
        assert_eq!(a.reconstruct(), b.reconstruct());

        let cfg = QuantConfig { method: Method::Proposed, n: 8, d: 64 };
        let a = quantize(&values, &cfg).unwrap();
        let b = spike::quantize(&values, 8, 64).unwrap();
        assert_eq!(a.reconstruct(), b.reconstruct());
    }

    /// A stream of `len` values: a spike around zero with a sparse
    /// tail, signed zeros, and an offset so the range need not hold 0.
    fn band(len: usize, seed: u64, offset: f64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..len)
            .map(|i| {
                s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                let unit = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                match s >> 60 {
                    0 => offset + unit * 40.0,
                    1 => -0.0,
                    2 => 0.0,
                    _ => offset + unit * 1e-2 * (1 + i % 3) as f64,
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 256 })]

        /// `bin_width` runs the histogram passes only, and reports what
        /// the whole quantizer does, bit for bit, for either method.
        #[test]
        fn bin_width_is_the_quantizers_own_bin_width(
            len in 0usize..2_000,
            seed in proptest::prelude::any::<u64>(),
            offset in -1e3f64..1e3,
            pick in (0usize..4, 0usize..5),
        ) {
            let values = band(len, seed, offset);
            let n = [1, 7, 128, 256][pick.0];
            let d = [1, 5, 64, 257, 65_535][pick.1];
            for method in [Method::Proposed, Method::Simple] {
                let cfg = QuantConfig { method, n, d };
                let want = quantize(&values, &cfg).unwrap().bin_width;
                let got = bin_width(&values, &cfg).unwrap();
                proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?}", method);
            }
            let want = spike::quantize(&values, n, d).unwrap().bin_width;
            proptest::prop_assert_eq!(spike::bin_width(&values, n, d).unwrap().to_bits(), want.to_bits());
            let want = simple::quantize(&values, n).unwrap().bin_width;
            proptest::prop_assert_eq!(simple::bin_width(&values, n).unwrap().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn bin_width_refuses_what_quantize_refuses() {
        for (n, d) in [(0, 64), (257, 64), (8, 0), (8, 65_536)] {
            let cfg = QuantConfig { method: Method::Proposed, n, d };
            assert_eq!(bin_width(&[1.0], &cfg), quantize(&[1.0], &cfg).map(|q| q.bin_width));
        }
        let simple = QuantConfig { method: Method::Simple, n: 0, d: 64 };
        assert_eq!(bin_width(&[1.0], &simple), Err(QuantError::BadDivisionNumber(0)));
        assert_eq!(bin_width(&[], &QuantConfig { method: Method::Proposed, n: 8, d: 64 }), Ok(0.0));
    }
}
