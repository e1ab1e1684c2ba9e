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
//! output, only in the wall clock. See the module docs in [`wavelet`],
//! [`quant`] and [`crc32`] for the per-kernel arguments, and the
//! proptest harnesses in `crates/wavelet/tests/simd_equivalence.rs` /
//! `crates/quant/tests/simd_equivalence.rs` / `ckpt_deflate::crc32`'s
//! tests for the machine-checked version.
//!
//! This is the one crate in the workspace allowed `unsafe` (every other
//! product crate is `#![forbid(unsafe_code)]`), and every `unsafe`
//! block here states its invariant in a `// SAFETY:` comment.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod crc32;
pub mod dispatch;
pub mod quant;
pub mod wavelet;

pub use dispatch::{level, set_override, Level};
