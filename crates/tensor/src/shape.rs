//! Shapes and row-major stride arithmetic.

use crate::{Result, TensorError};

/// The dimensions of an N-d tensor together with row-major strides.
///
/// The last axis is contiguous (stride 1); earlier axes stride over the
/// products of the later extents, matching C / NumPy default layout. The
/// rank is arbitrary, though the checkpoint pipeline mostly uses 1–3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    dims: Vec<usize>,
    strides: Vec<usize>,
    volume: usize,
}

impl Shape {
    /// Builds a shape from dimension extents.
    ///
    /// Fails with [`TensorError::EmptyShape`] if `dims` is empty or any
    /// extent is zero, and with [`TensorError::Overflow`] if the element
    /// count overflows `usize`.
    pub fn new(dims: &[usize]) -> Result<Self> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(TensorError::EmptyShape);
        }
        let mut volume: usize = 1;
        for &d in dims {
            volume = volume.checked_mul(d).ok_or(TensorError::Overflow)?;
        }
        let mut strides = vec![1usize; dims.len()];
        for axis in (0..dims.len().saturating_sub(1)).rev() {
            strides[axis] = strides[axis + 1] * dims[axis + 1];
        }
        Ok(Shape { dims: dims.to_vec(), strides, volume })
    }

    /// Extents per axis.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Row-major strides per axis, in elements.
    #[inline]
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Number of axes.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn volume(&self) -> usize {
        self.volume
    }

    /// Extent of one axis, checked.
    pub fn dim(&self, axis: usize) -> Result<usize> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange { axis, ndim: self.ndim() })
    }

    /// Linearizes a multi-index into a flat offset, bounds-checked.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.ndim() {
            return Err(TensorError::RankMismatch { expected: self.ndim(), got: index.len() });
        }
        let mut off = 0usize;
        for (axis, (&i, (&d, &s))) in
            index.iter().zip(self.dims.iter().zip(self.strides.iter())).enumerate()
        {
            if i >= d {
                return Err(TensorError::OutOfBounds { axis, index: i, dim: d });
            }
            off += i * s;
        }
        Ok(off)
    }

    /// Inverse of [`Shape::offset`]: converts a flat offset back into a
    /// multi-index. Panics if `offset >= volume`.
    pub fn unravel(&self, mut offset: usize) -> Vec<usize> {
        assert!(offset < self.volume, "offset {offset} out of range {}", self.volume);
        let mut idx = vec![0usize; self.ndim()];
        for (axis, &s) in self.strides.iter().enumerate() {
            idx[axis] = offset / s;
            offset %= s;
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[4, 3, 2]).unwrap();
        assert_eq!(s.strides(), &[6, 2, 1]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.ndim(), 3);
    }

    #[test]
    fn one_dimensional() {
        let s = Shape::new(&[7]).unwrap();
        assert_eq!(s.strides(), &[1]);
        assert_eq!(s.offset(&[3]).unwrap(), 3);
    }

    #[test]
    fn rejects_empty_and_zero() {
        assert_eq!(Shape::new(&[]), Err(TensorError::EmptyShape));
        assert_eq!(Shape::new(&[3, 0]), Err(TensorError::EmptyShape));
    }

    #[test]
    fn rejects_overflow() {
        assert_eq!(Shape::new(&[usize::MAX, 2]), Err(TensorError::Overflow));
    }

    #[test]
    fn offset_roundtrips_with_unravel() {
        let s = Shape::new(&[3, 4, 5]).unwrap();
        for off in 0..s.volume() {
            let idx = s.unravel(off);
            assert_eq!(s.offset(&idx).unwrap(), off);
        }
    }

    #[test]
    fn offset_checks_bounds_and_rank() {
        let s = Shape::new(&[2, 2]).unwrap();
        assert!(matches!(s.offset(&[0, 2]), Err(TensorError::OutOfBounds { axis: 1, .. })));
        assert!(matches!(s.offset(&[0]), Err(TensorError::RankMismatch { .. })));
    }

    #[test]
    #[should_panic]
    fn unravel_panics_out_of_range() {
        let s = Shape::new(&[2, 2]).unwrap();
        let _ = s.unravel(4);
    }
}
