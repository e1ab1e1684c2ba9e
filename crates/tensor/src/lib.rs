//! # ckpt-tensor
//!
//! Owned N-dimensional arrays over `Copy` scalars, plus the access patterns
//! the wavelet/quantization pipeline needs:
//!
//! * [`Shape`] — dimension bookkeeping with row-major strides,
//! * [`Tensor`] — an owned, contiguous, row-major N-d array,
//! * axis-aligned block copy-in/copy-out ([`Tensor::read_block`],
//!   [`Tensor::write_block`]) for wavelet subband extraction,
//! * element statistics ([`stats`]),
//! * synthetic smooth mesh fields ([`fields`]) that stand in for the
//!   NICAM climate arrays of the paper (pressure / temperature / wind).
//!
//! The crate is free of `unsafe` (forbidden below) and external array
//! dependencies: it is one of the substrates this reproduction builds from
//! scratch.

#![forbid(unsafe_code)]

pub mod block;
pub mod error;
pub mod fields;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
