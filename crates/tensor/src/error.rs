//! Error type for tensor construction and access.

use std::fmt;

/// Errors produced by shape/tensor constructors and block accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// A shape with zero dimensions or a zero-length dimension was given
    /// where a non-degenerate shape is required.
    EmptyShape,
    /// The number of elements implied by the shape does not match the
    /// provided data length.
    LengthMismatch { expected: usize, got: usize },
    /// An axis index was out of range for the tensor's dimensionality.
    AxisOutOfRange { axis: usize, ndim: usize },
    /// An axis was named more than once where each may appear at most
    /// once.
    DuplicateAxis { axis: usize },
    /// A multi-dimensional index or block exceeded the tensor bounds.
    OutOfBounds { axis: usize, index: usize, dim: usize },
    /// A block descriptor had a different rank than the tensor.
    RankMismatch { expected: usize, got: usize },
    /// The product of the dimensions overflows `usize`.
    Overflow,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::EmptyShape => write!(f, "shape must have at least one non-zero dimension"),
            TensorError::LengthMismatch { expected, got } => {
                write!(f, "data length {got} does not match shape volume {expected}")
            }
            TensorError::AxisOutOfRange { axis, ndim } => {
                write!(f, "axis {axis} out of range for {ndim}-dimensional tensor")
            }
            TensorError::DuplicateAxis { axis } => write!(f, "axis {axis} given more than once"),
            TensorError::OutOfBounds { axis, index, dim } => {
                write!(f, "index {index} out of bounds for axis {axis} with extent {dim}")
            }
            TensorError::RankMismatch { expected, got } => {
                write!(f, "expected rank {expected}, got {got}")
            }
            TensorError::Overflow => write!(f, "shape volume overflows usize"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TensorError::LengthMismatch { expected: 6, got: 5 };
        assert!(e.to_string().contains('6'));
        assert!(e.to_string().contains('5'));
        let e = TensorError::AxisOutOfRange { axis: 3, ndim: 2 };
        assert!(e.to_string().contains("axis 3"));
        let e = TensorError::OutOfBounds { axis: 1, index: 9, dim: 4 };
        assert!(e.to_string().contains("extent 4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
