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
}
