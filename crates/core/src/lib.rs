//! # ckpt-core
//!
//! The paper's contribution: floating-point lossy compression for
//! application-level checkpoints (Section III), end to end:
//!
//! 1. **Wavelet transformation** — the paper's Haar, or the product's
//!    CDF 5/3, over every axis ([`ckpt_wavelet`]),
//! 2. **Quantization** — simple or spike-detecting proposed method
//!    ([`ckpt_quant`]),
//! 3. **Encoding** — the paper's one-byte table indexes and bitmap, or
//!    the product's grid integers ([`StreamLayout`]),
//! 4. **Formatting** — the Figure 5 byte layout ([`codec`], over the
//!    shared [`ckpt_deflate::frame`] cursor),
//! 5. **gzip** — DEFLATE over the formatted output ([`ckpt_deflate`]),
//!    in memory: the codec writes no files.
//!
//! The high-level entry points are [`Compressor`] (single arrays) and
//! [`checkpoint`] (multi-variable checkpoint files). [`metrics`]
//! implements the paper's compression rate (Eq. 5) and relative error
//! (Eq. 6); [`bound`] adds the error-bound-driven mode the paper lists
//! as future work.
//!
//! ```
//! use ckpt_core::{Compressor, CompressorConfig};
//! use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};
//!
//! let field = generate(&FieldSpec::small(FieldKind::Temperature, 1));
//! let compressor = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
//! let packed = compressor.compress(&field).unwrap();
//! let restored = Compressor::decompress(&packed.bytes).unwrap();
//! let err = ckpt_core::metrics::relative_error(&field, &restored).unwrap();
//! assert!(err.average < 0.01); // << 1% average relative error
//! assert!(packed.stats.compression_rate() < 60.0); // way below gzip's ~85%
//! ```

#![forbid(unsafe_code)]

pub mod bound;
pub mod checkpoint;
pub mod codec;
pub mod config;
pub mod error;
pub mod incremental;
pub mod metrics;
pub mod shuffle;
pub mod timing;

pub use codec::{
    compress_exact, CompressStats, Compressed, Compressor, StreamError, StreamedCompressed,
};
pub use config::{CompressorConfig, Container, StreamLayout};
pub use error::CkptError;
pub use timing::StageTimings;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CkptError>;
