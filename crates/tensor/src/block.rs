//! Axis-aligned block (hyper-rectangle) copy-in / copy-out.
//!
//! After an in-place per-axis Haar step, each wavelet subband occupies an
//! axis-aligned block of the tensor (e.g. `LL` is the low half along both
//! axes of a 2-d array). The quantizer extracts those blocks with
//! [`Tensor::read_block`] and the inverse pipeline restores them with
//! [`Tensor::write_block`].

use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// An axis-aligned block: `start[a] .. start[a] + size[a]` along each axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Inclusive start index per axis.
    pub start: Vec<usize>,
    /// Extent per axis (all extents must be >= 1).
    pub size: Vec<usize>,
}

impl Block {
    /// Builds a block, validating it against a shape.
    pub fn new(shape: &Shape, start: &[usize], size: &[usize]) -> Result<Self> {
        if start.len() != shape.ndim() || size.len() != shape.ndim() {
            return Err(TensorError::RankMismatch { expected: shape.ndim(), got: start.len().max(size.len()) });
        }
        for (axis, ((&b, &s), &d)) in start.iter().zip(size).zip(shape.dims()).enumerate() {
            if s == 0 {
                return Err(TensorError::EmptyShape);
            }
            if b.checked_add(s).is_none_or(|end| end > d) {
                return Err(TensorError::OutOfBounds { axis, index: b.saturating_add(s - 1), dim: d });
            }
        }
        Ok(Block { start: start.to_vec(), size: size.to_vec() })
    }

    /// Number of elements in the block.
    pub fn volume(&self) -> usize {
        self.size.iter().product()
    }

    /// The shape of one plane of the block's last two axes: `rows` runs
    /// of `run` contiguous elements, each `pitch` past the one before.
    /// A 1-d block is a plane of one row.
    fn plane(&self, shape: &Shape) -> (usize, usize, usize) {
        let ndim = self.size.len();
        let run = self.size[ndim - 1];
        match ndim {
            1 => (1, run, run),
            _ => (self.size[ndim - 2], shape.strides()[ndim - 2], run),
        }
    }

    /// Calls `f(offset)` with the flat offset of the first element of
    /// every plane of the block (see [`Block::plane`]), one per index of
    /// the leading axes, in row-major order of the block-local index.
    fn for_each_plane(&self, shape: &Shape, mut f: impl FnMut(usize)) {
        let lead = self.size.len().saturating_sub(2);
        let strides = shape.strides();
        let mut local = vec![0usize; lead];
        let mut off: usize = self.start.iter().zip(strides).map(|(&b, &s)| b * s).sum();
        loop {
            f(off);
            // Row-major advance of the leading-axes cursor, updating the
            // flat offset incrementally.
            let mut axis = lead;
            loop {
                if axis == 0 {
                    return;
                }
                axis -= 1;
                local[axis] += 1;
                off += strides[axis];
                if local[axis] < self.size[axis] {
                    break;
                }
                off -= strides[axis] * self.size[axis];
                local[axis] = 0;
            }
        }
    }
}

impl<T: Copy> Tensor<T> {
    /// Copies the elements of an axis-aligned block into a fresh vector,
    /// in row-major order of the block-local index.
    pub fn read_block(&self, start: &[usize], size: &[usize]) -> Result<Vec<T>> {
        let mut out = Vec::new();
        self.read_block_into(start, size, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::read_block`], appending to `out`: gathering several
    /// blocks into one vector reserved once copies each value once.
    pub fn read_block_into(&self, start: &[usize], size: &[usize], out: &mut Vec<T>) -> Result<()> {
        let block = Block::new(self.shape(), start, size)?;
        let (rows, pitch, run) = block.plane(self.shape());
        out.reserve(block.volume());
        let data = self.as_slice();
        block.for_each_plane(self.shape(), |off| {
            let plane = data[off..].chunks(pitch).take(rows);
            if run == 1 {
                out.extend(plane.map(|row| row[0]));
            } else {
                for row in plane {
                    out.extend_from_slice(&row[..run]);
                }
            }
        });
        Ok(())
    }

    /// Writes `src` (row-major block-local order) into an axis-aligned
    /// block. `src.len()` must equal the block volume.
    pub fn write_block(&mut self, start: &[usize], size: &[usize], src: &[T]) -> Result<()> {
        let block = Block::new(self.shape(), start, size)?;
        if src.len() != block.volume() {
            return Err(TensorError::LengthMismatch { expected: block.volume(), got: src.len() });
        }
        let shape = self.shape().clone();
        let (rows, pitch, run) = block.plane(&shape);
        let data = self.as_mut_slice();
        let mut src = src.chunks_exact(run);
        block.for_each_plane(&shape, |off| {
            let plane = data[off..].chunks_mut(pitch).zip(src.by_ref().take(rows));
            if run == 1 {
                for (row, v) in plane {
                    row[0] = v[0];
                }
            } else {
                for (row, v) in plane {
                    row[..run].copy_from_slice(v);
                }
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    impl Block {
        /// The oracle the row copies are held to: every flat offset of
        /// the block, one at a time, in row-major order of the
        /// block-local index.
        fn for_each_offset(&self, shape: &Shape, mut f: impl FnMut(usize)) {
            let ndim = self.start.len();
            let strides = shape.strides();
            let mut local = vec![0usize; ndim];
            let mut off: usize = self.start.iter().zip(strides).map(|(&b, &s)| b * s).sum();
            loop {
                f(off);
                let mut axis = ndim;
                loop {
                    if axis == 0 {
                        return;
                    }
                    axis -= 1;
                    local[axis] += 1;
                    off += strides[axis];
                    if local[axis] < self.size[axis] {
                        break;
                    }
                    off -= strides[axis] * self.size[axis];
                    local[axis] = 0;
                }
            }
        }
    }

    /// `read_block` and `write_block` on `t` against the per-element
    /// walk; `fresh` makes the values written.
    fn rows_match_the_walk<T: Copy + PartialEq + std::fmt::Debug>(
        t: &Tensor<T>,
        start: &[usize],
        size: &[usize],
        fresh: impl Fn(usize) -> T,
    ) -> std::result::Result<(), TestCaseError> {
        let block = Block::new(t.shape(), start, size).unwrap();
        let mut want = Vec::new();
        block.for_each_offset(t.shape(), |off| want.push(t.as_slice()[off]));
        prop_assert_eq!(&t.read_block(start, size).unwrap(), &want);
        // Appending after what a vector already holds.
        let mut appended = vec![fresh(usize::MAX); 3];
        t.read_block_into(start, size, &mut appended).unwrap();
        prop_assert_eq!(&appended[..3], &[fresh(usize::MAX); 3][..]);
        prop_assert_eq!(&appended[3..], &want[..]);

        let src: Vec<T> = (0..block.volume()).map(fresh).collect();
        let mut got = t.clone();
        got.write_block(start, size, &src).unwrap();
        let mut want = t.clone();
        let mut values = src.iter();
        block.for_each_offset(t.shape(), |off| want.as_mut_slice()[off] = *values.next().unwrap());
        prop_assert_eq!(got, want);
        Ok(())
    }

    proptest! {
        #[test]
        fn row_copies_equal_the_per_element_walk(
            axes in prop::collection::vec((1usize..=9, 0usize..9, 1usize..=9), 1..=5),
            seed in 0u64..1 << 20,
        ) {
            // Per axis: the extent, then a start and a size folded into it.
            let dims: Vec<usize> = axes.iter().map(|a| a.0).collect();
            let start: Vec<usize> = axes.iter().map(|&(d, s, _)| s % d).collect();
            let size: Vec<usize> =
                axes.iter().zip(&start).map(|(&(d, _, z), &b)| 1 + (z - 1) % (d - b)).collect();
            let f = Tensor::from_fn(&dims, |i| {
                i.iter().fold(seed as f64, |acc, &v| acc * 10.0 + v as f64)
            })
            .unwrap();
            rows_match_the_walk(&f, &start, &size, |k| -(k as f64) - 0.5)?;
            let b = Tensor::from_fn(&dims, |i| {
                i.iter().fold(seed as u8, |acc, &v| acc.wrapping_mul(31).wrapping_add(v as u8))
            })
            .unwrap();
            rows_match_the_walk(&b, &start, &size, |k| (k as u8).wrapping_mul(7) ^ 0x5A)?;
        }
    }

    #[test]
    fn a_start_near_usize_max_is_out_of_bounds() {
        let mut t = Tensor::<f64>::zeros(&[2, 2]).unwrap();
        assert!(matches!(
            t.read_block(&[usize::MAX, 0], &[2, 1]),
            Err(TensorError::OutOfBounds { axis: 0, dim: 2, .. })
        ));
        assert!(matches!(
            t.write_block(&[0, usize::MAX], &[1, 2], &[1.0, 2.0]),
            Err(TensorError::OutOfBounds { axis: 1, dim: 2, .. })
        ));
        assert_eq!(t.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn block_validation() {
        let shape = Shape::new(&[4, 6]).unwrap();
        assert!(Block::new(&shape, &[0, 0], &[4, 6]).is_ok());
        assert!(Block::new(&shape, &[2, 3], &[2, 3]).is_ok());
        assert!(matches!(
            Block::new(&shape, &[2, 3], &[3, 3]),
            Err(TensorError::OutOfBounds { axis: 0, .. })
        ));
        assert!(Block::new(&shape, &[0], &[4]).is_err());
        assert!(Block::new(&shape, &[0, 0], &[0, 6]).is_err());
    }

    #[test]
    fn read_block_row_major_order() {
        let t = Tensor::from_fn(&[4, 4], |i| (i[0] * 4 + i[1]) as f64).unwrap();
        let q = t.read_block(&[2, 0], &[2, 2]).unwrap();
        assert_eq!(q, vec![8.0, 9.0, 12.0, 13.0]);
    }

    #[test]
    fn write_block_roundtrip() {
        let mut t = Tensor::<f64>::zeros(&[3, 3, 3]).unwrap();
        let vals: Vec<f64> = (0..8).map(|v| v as f64 + 1.0).collect();
        t.write_block(&[1, 1, 1], &[2, 2, 2], &vals).unwrap();
        let back = t.read_block(&[1, 1, 1], &[2, 2, 2]).unwrap();
        assert_eq!(back, vals);
        // Elements outside the block untouched.
        assert_eq!(t.get(&[0, 0, 0]).unwrap(), 0.0);
        assert_eq!(t.get(&[1, 1, 0]).unwrap(), 0.0);
    }

    #[test]
    fn write_block_checks_length() {
        let mut t = Tensor::<f64>::zeros(&[4, 4]).unwrap();
        assert!(matches!(
            t.write_block(&[0, 0], &[2, 2], &[1.0; 3]),
            Err(TensorError::LengthMismatch { expected: 4, got: 3 })
        ));
    }

    #[test]
    fn full_tensor_block_equals_slice() {
        let t = Tensor::from_fn(&[2, 3, 4], |i| (i[0] * 12 + i[1] * 4 + i[2]) as f64).unwrap();
        let all = t.read_block(&[0, 0, 0], &[2, 3, 4]).unwrap();
        assert_eq!(all.as_slice(), t.as_slice());
    }

    #[test]
    fn disjoint_quadrants_cover_2d() {
        let t = Tensor::from_fn(&[4, 4], |i| (i[0] * 4 + i[1]) as f64).unwrap();
        let mut collected: Vec<f64> = Vec::new();
        for (r, c) in [(0, 0), (0, 2), (2, 0), (2, 2)] {
            collected.extend(t.read_block(&[r, c], &[2, 2]).unwrap());
        }
        collected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..16).map(|v| v as f64).collect();
        assert_eq!(collected, expect);
    }
}
