//! The owned, contiguous N-d array.

use crate::shape::Shape;
use crate::{Result, TensorError};

/// An owned, contiguous, row-major N-dimensional array.
///
/// `T` is any `Copy` scalar; the pipeline instantiates `f64` for mesh data
/// and `u8` for quantization indexes.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Copy> Tensor<T> {
    /// Builds a tensor from a flat row-major buffer.
    pub fn from_vec(dims: &[usize], data: Vec<T>) -> Result<Self> {
        let shape = Shape::new(dims)?;
        if shape.volume() != data.len() {
            return Err(TensorError::LengthMismatch { expected: shape.volume(), got: data.len() });
        }
        Ok(Tensor { shape, data })
    }

    /// Builds a tensor filled with a single value.
    pub fn full(dims: &[usize], value: T) -> Result<Self> {
        let shape = Shape::new(dims)?;
        let data = vec![value; shape.volume()];
        Ok(Tensor { shape, data })
    }

    /// Builds a tensor by evaluating `f` at every multi-index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> T) -> Result<Self> {
        let shape = Shape::new(dims)?;
        let mut data = Vec::with_capacity(shape.volume());
        for off in 0..shape.volume() {
            let idx = shape.unravel(off);
            data.push(f(&idx));
        }
        Ok(Tensor { shape, data })
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Extents per axis (shorthand for `shape().dims()`).
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of axes.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: degenerate shapes are rejected at construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Flat mutable row-major view of the elements.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Checked element read at a multi-index.
    pub fn get(&self, index: &[usize]) -> Result<T> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Checked element write at a multi-index.
    pub fn set(&mut self, index: &[usize], value: T) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(T) -> T) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

impl Tensor<f64> {
    /// Zero-filled f64 tensor.
    pub fn zeros(dims: &[usize]) -> Result<Self> {
        Self::full(dims, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(&[2, 3], vec![0.0f64; 6]).is_ok());
        assert!(matches!(
            Tensor::from_vec(&[2, 3], vec![0.0f64; 5]),
            Err(TensorError::LengthMismatch { expected: 6, got: 5 })
        ));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[3, 4]).unwrap();
        t.set(&[2, 1], 7.5).unwrap();
        assert_eq!(t.get(&[2, 1]).unwrap(), 7.5);
        assert_eq!(t.as_slice()[2 * 4 + 1], 7.5);
    }

    #[test]
    fn from_fn_sees_every_index_once() {
        let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f64).unwrap();
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn map_inplace_applies_everywhere() {
        let mut t = Tensor::full(&[2, 2], 2.0f64).unwrap();
        t.map_inplace(|v| v * 3.0);
        assert!(t.as_slice().iter().all(|&v| v == 6.0));
    }

    #[test]
    fn into_vec_preserves_order() {
        let t = Tensor::from_vec(&[4], vec![1u8, 2, 3, 4]).unwrap();
        assert_eq!(t.into_vec(), vec![1, 2, 3, 4]);
    }
}
