//! # ckpt-wavelet
//!
//! Haar wavelet transforms for checkpoint mesh data, exactly as used by
//! the paper (Section III-A):
//!
//! ```text
//! L[i] = (A[2i] + A[2i+1]) / 2        (low-frequency band)
//! H[i] = (A[2i] - A[2i+1]) / 2        (high-frequency band)
//! ```
//!
//! * [`haar`] — the 1-d forward/inverse kernels (odd lengths supported by
//!   passing the trailing element through to the low band); with
//!   [`cdf53`] and [`cdf97`], the reference the batched `ckpt-simd`
//!   kernels are pinned to,
//! * [`transform`] — separable single-level transforms over any subset of
//!   axes of an N-d [`ckpt_tensor::Tensor`], in place: each axis pass
//!   runs the batched kernels over whole rows,
//! * [`subband`] — the axis-aligned block layout of the `2^k` subbands a
//!   `k`-axis transform produces (`LL…L` plus `2^k − 1` high bands),
//! * [`multilevel`] — recursive decomposition of the low band (an
//!   extension beyond the paper's single level; see DESIGN.md §5).
//!
//! ## Numerical losslessness
//!
//! The averaging Haar pair reconstructs `a = L + H`, `b = L − H`. In
//! IEEE-754 arithmetic the forward/inverse roundtrip is exact whenever
//! `a + b` and `a − b` are exactly representable (e.g. dyadic data), and
//! within 1–2 ulp otherwise. The quantization stage downstream introduces
//! errors many orders of magnitude larger, so the paper calls this
//! transform "lossless" — tests in this crate pin down the precise
//! contract.

#![forbid(unsafe_code)]

pub mod cdf53;
pub mod cdf97;
pub mod haar;
pub mod multilevel;
pub mod subband;
pub mod transform;

pub use multilevel::{MultiLevel, WaveletPlan};
pub use subband::{Subband, SubbandKind};
pub use transform::{forward, inverse, Kernel};
