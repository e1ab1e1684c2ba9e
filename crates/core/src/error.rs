//! Unified error type for the compression pipeline.

use ckpt_deflate::frame::FrameError;
use ckpt_deflate::DeflateError;
use ckpt_quant::QuantError;
use ckpt_tensor::TensorError;
use std::fmt;

/// Any failure in compression, decompression, or checkpoint I/O.
#[derive(Debug)]
pub enum CkptError {
    /// Shape/axis/block errors from the tensor substrate.
    Tensor(TensorError),
    /// Quantizer parameter or stream errors.
    Quant(QuantError),
    /// DEFLATE/gzip errors.
    Deflate(DeflateError),
    /// Malformed compressed-array or checkpoint framing.
    Format(String),
    /// Byte-level framing errors (truncation, length overflow, bad
    /// magic or version, bad UTF-8) from the frame reader/writer.
    Wire(FrameError),
    /// Filesystem I/O during checkpoint read/write.
    Io(std::io::Error),
    /// Error-bound search could not meet the requested bound.
    BoundUnreachable { requested: f64, achieved: f64 },
    /// The lossy path takes finite values only: `index` is the first
    /// NaN or infinity of the array (docs/FORMAT.md, "Non-finite
    /// values").
    NonFinite { index: usize, value: f64 },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Tensor(e) => write!(f, "tensor error: {e}"),
            CkptError::Quant(e) => write!(f, "quantizer error: {e}"),
            CkptError::Deflate(e) => write!(f, "deflate error: {e}"),
            CkptError::Format(why) => write!(f, "format error: {why}"),
            CkptError::Wire(e) => write!(f, "format error: {e}"),
            CkptError::Io(e) => write!(f, "io error: {e}"),
            CkptError::BoundUnreachable { requested, achieved } => write!(
                f,
                "error bound {requested} unreachable; best achieved {achieved}"
            ),
            CkptError::NonFinite { index, value } => write!(
                f,
                "value {value} at index {index} is not finite; lossy compression takes finite arrays only"
            ),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Tensor(e) => Some(e),
            CkptError::Quant(e) => Some(e),
            CkptError::Deflate(e) => Some(e),
            CkptError::Wire(e) => Some(e),
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for CkptError {
    fn from(e: TensorError) -> Self {
        CkptError::Tensor(e)
    }
}

impl From<QuantError> for CkptError {
    fn from(e: QuantError) -> Self {
        CkptError::Quant(e)
    }
}

impl From<DeflateError> for CkptError {
    fn from(e: DeflateError) -> Self {
        CkptError::Deflate(e)
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

impl From<FrameError> for CkptError {
    fn from(e: FrameError) -> Self {
        CkptError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CkptError = TensorError::EmptyShape.into();
        assert!(e.to_string().contains("tensor"));
        let e: CkptError = QuantError::BadDivisionNumber(0).into();
        assert!(e.to_string().contains("quantizer"));
        let e: CkptError = DeflateError::UnexpectedEof.into();
        assert!(e.to_string().contains("deflate"));
        let e = CkptError::Format("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
        let e = CkptError::BoundUnreachable { requested: 1e-9, achieved: 1e-3 };
        assert!(e.to_string().contains("unreachable"));
        let e = CkptError::NonFinite { index: 7, value: f64::NEG_INFINITY };
        assert!(e.to_string().contains("value -inf at index 7 is not finite"), "{e}");
    }

    #[test]
    fn source_chain() {
        use std::error::Error;
        let e: CkptError = TensorError::EmptyShape.into();
        assert!(e.source().is_some());
        assert!(CkptError::Format("x".into()).source().is_none());
    }
}
