//! ckpt-simd: runtime-dispatched SIMD kernels for the checkpoint
//! compression hot paths (DESIGN.md §16).
//!
//! Two tiers — AVX2 and portable scalar — selected once per process by
//! CPU feature detection ([`dispatch::level`]), overridable with the
//! `CKPT_FORCE_SCALAR` environment variable (CI fallback coverage) or
//! [`dispatch::set_override`] (equivalence harnesses).
//!
//! The contract every kernel in this crate obeys: **all tiers produce
//! bit-identical output**. The pipeline's determinism guarantees
//! (serial ↔ threaded bit-identity, reproducible containers) survive
//! kernel dispatch because which tier runs is never observable in the
//! output, only in the wall clock. See the module docs in [`wavelet`]
//! and [`quant`] for the per-kernel arguments, and the proptest
//! harnesses in `crates/wavelet/tests/simd_equivalence.rs` /
//! `crates/quant/tests/simd_equivalence.rs` for the machine-checked
//! version.

pub mod dispatch;
pub mod quant;
pub mod wavelet;

pub use dispatch::{level, set_override, Level};
