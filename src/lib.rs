//! # lossy-ckpt
//!
//! Umbrella crate for the reproduction of *"Exploration of Lossy
//! Compression for Application-level Checkpoint/Restart"* (Sasaki, Sato,
//! Endo, Matsuoka — IPDPS 2015).
//!
//! Re-exports the workspace crates under one name so examples and
//! downstream users can depend on a single package:
//!
//! * [`tensor`] — N-d arrays and synthetic mesh fields,
//! * [`wavelet`] — Haar, CDF 5/3 and CDF 9/7 transforms,
//! * [`quant`] — simple and spike-detecting quantizers,
//! * [`deflate`] — from-scratch DEFLATE/gzip,
//! * [`core`] — the lossy checkpoint compression pipeline,
//! * [`sim`] — the NICAM-substitute climate proxy with
//!   checkpoint/restart,
//! * [`store`] — the crash-consistent on-disk checkpoint repository,
//! * [`serve`] — concurrent checkpoint serving (snapshot sessions and
//!   CRC-verified range reads over the read-only `SRV1` socket
//!   protocol).
//!
//! See `README.md` for a tour and `DESIGN.md` for the paper-to-module
//! map.

#![forbid(unsafe_code)]

pub use ckpt_core as core;
pub use ckpt_deflate as deflate;
pub use ckpt_quant as quant;
pub use ckpt_serve as serve;
pub use ckpt_sim as sim;
pub use ckpt_store as store;
pub use ckpt_tensor as tensor;
pub use ckpt_wavelet as wavelet;

/// The most common entry points, re-exported flat.
pub mod prelude {
    pub use ckpt_core::metrics::{compression_rate, relative_error, RelativeError};
    pub use ckpt_core::{
        CompressStats, Compressed, Compressor, CompressorConfig, Container, StreamLayout,
    };
    pub use ckpt_quant::{Method, QuantConfig};
    pub use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};
    pub use ckpt_tensor::Tensor;
    pub use ckpt_wavelet::WaveletPlan;
}
