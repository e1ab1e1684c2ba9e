//! Separable single-level transforms over the axes of an N-d tensor.
//!
//! The paper transforms a 2-d array by applying the 1-d kernel to every
//! row (x-axis) and then every column (y-axis); a 3-d array additionally
//! along z (Section III-A). [`forward`] does exactly that for all axes
//! with the paper's Haar kernel; [`forward_axes`] takes the axes and the
//! kernel, which is what [`crate::MultiLevel`] needs.
//!
//! The transform is in place: after `forward`, the low band occupies the
//! low half of every transformed axis and the high bands the high halves,
//! in the block layout described by [`crate::subband`].
//!
//! Every axis pass runs the batched `ckpt-simd` kernels over whole rows.
//! On a leading axis the tensor already is their batch layout, so the
//! kernel reads the tensor and writes a second buffer of its size, and
//! the two swap; only the last axis, whose lanes are contiguous, gathers
//! tiles (see `transform_axis`).

use ckpt_simd::wavelet::WaveletOp;
use ckpt_tensor::{Result, Tensor, TensorError};

/// How many values a last-axis tile holds at least: `ceil(512 / n)`
/// lanes of `n`. A short axis (the mesh's n = 2) then takes a few
/// hundred kernel calls per pass, each long enough to pay for its
/// set-up, and each tile row is gathered in one sweep over the lanes.
const TILE_VALUES: usize = 512;

/// The fewest lanes in a last-axis tile, so a long axis still fills
/// two AVX2 vectors per tile row.
const MIN_TILE_LANES: usize = 8;

/// Which 1-d wavelet kernel to apply per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// The paper's averaging Haar pair (Equations 2/3).
    #[default]
    Haar,
    /// CDF 5/3 (LeGall) lifting kernel — JPEG 2000's lossless kernel,
    /// the crate's extension beyond the paper.
    Cdf53,
    /// CDF 9/7 lifting kernel — JPEG 2000's lossy kernel, the
    /// strongest decorrelator of the family.
    Cdf97,
}

impl Kernel {
    /// The batched multi-lane form of this kernel/direction in
    /// `ckpt-simd` (bit-identical to the 1-d reference kernels of this
    /// crate).
    fn batch_op(self, forward_dir: bool) -> WaveletOp {
        match (self, forward_dir) {
            (Kernel::Haar, true) => WaveletOp::HaarForward,
            (Kernel::Haar, false) => WaveletOp::HaarInverse,
            (Kernel::Cdf53, true) => WaveletOp::Cdf53Forward,
            (Kernel::Cdf53, false) => WaveletOp::Cdf53Inverse,
            (Kernel::Cdf97, true) => WaveletOp::Cdf97Forward,
            (Kernel::Cdf97, false) => WaveletOp::Cdf97Inverse,
        }
    }
}

/// Applies `op` along every lane of `axis`; `scratch` is a buffer the
/// passes of one call share.
///
/// Around the axis the tensor is `[outer][n][inner]`. For every axis
/// but the last, a block (one `outer` index) *is* batch layout with
/// `w = inner`: element `k` of lane `j` sits at `block[k·inner + j]`.
/// So the kernel reads each block where it lies and writes it, whole
/// rows at a time, into the same place of a tensor-sized `scratch`,
/// which then becomes the tensor's buffer (the old buffer becomes
/// `scratch`). The last axis (`inner == 1`) has contiguous lanes
/// instead: tiles of at least [`TILE_VALUES`] values are gathered into
/// batch layout, run through the kernel and scattered back in place.
/// Lanes are independent, so per-lane arithmetic is the batched
/// kernels' on every axis, whatever the tile width.
fn transform_axis(
    t: &mut Tensor<f64>,
    axis: usize,
    op: WaveletOp,
    scratch: &mut Vec<f64>,
) -> Result<()> {
    let n = t.shape().dim(axis)?;
    let outer: usize = t.dims()[..axis].iter().product();
    let inner: usize = t.dims()[axis + 1..].iter().product();
    let level = ckpt_simd::dispatch::level();
    let buf = t.as_mut_slice();
    if inner > 1 {
        scratch.resize(buf.len(), 0.0);
        for (src, dst) in buf.chunks_exact(n * inner).zip(scratch.chunks_exact_mut(n * inner)) {
            ckpt_simd::wavelet::apply_at(level, op, src, dst, n, inner);
        }
        let dims = t.dims().to_vec();
        let done = Tensor::from_vec(&dims, std::mem::take(scratch))?;
        *scratch = std::mem::replace(t, done).into_vec();
        return Ok(());
    }
    let lanes = TILE_VALUES.div_ceil(n).max(MIN_TILE_LANES).min(outer);
    // Grow only: a longer scratch keeps its length, so a later
    // leading-axis pass has nothing left to zero-fill.
    if scratch.len() < 2 * n * lanes {
        scratch.resize(2 * n * lanes, 0.0);
    }
    let (tile, done) = scratch[..2 * n * lanes].split_at_mut(n * lanes);
    for rows in buf.chunks_mut(n * lanes) {
        let w = rows.len() / n;
        let (tile, done) = (&mut tile[..n * w], &mut done[..n * w]);
        for (k, tile_row) in tile.chunks_exact_mut(w).enumerate() {
            for (slot, lane) in tile_row.iter_mut().zip(rows.chunks_exact(n)) {
                *slot = lane[k];
            }
        }
        ckpt_simd::wavelet::apply_at(level, op, tile, done, n, w);
        for (k, done_row) in done.chunks_exact(w).enumerate() {
            for (&v, lane) in done_row.iter().zip(rows.chunks_exact_mut(n)) {
                lane[k] = v;
            }
        }
    }
    Ok(())
}

/// Single-level forward transform with `kernel` along the given axes,
/// in order; any subset of `0..ndim`, each at most once.
pub fn forward_axes(t: &mut Tensor<f64>, axes: &[usize], kernel: Kernel) -> Result<()> {
    validate_axes(t, axes)?;
    let mut scratch = Vec::new();
    for &axis in axes {
        transform_axis(t, axis, kernel.batch_op(true), &mut scratch)?;
    }
    Ok(())
}

/// Undoes [`forward_axes`] called with the same `axes` and `kernel`
/// (reverse axis order).
pub fn inverse_axes(t: &mut Tensor<f64>, axes: &[usize], kernel: Kernel) -> Result<()> {
    inverse_axes_with(t, axes, kernel, &mut Vec::new())
}

/// [`inverse_axes`] with a caller's buffer as the passes' scratch: its
/// contents are overwritten, and a capacity of the tensor's volume
/// saves the allocation (a leading-axis pass swaps it with the
/// tensor's buffer, so either may come back in `scratch`).
pub fn inverse_axes_with(
    t: &mut Tensor<f64>,
    axes: &[usize],
    kernel: Kernel,
    scratch: &mut Vec<f64>,
) -> Result<()> {
    validate_axes(t, axes)?;
    for &axis in axes.iter().rev() {
        transform_axis(t, axis, kernel.batch_op(false), scratch)?;
    }
    Ok(())
}

/// Single-level forward Haar transform along *all* axes (the paper's
/// 2-d/3-d procedure).
pub fn forward(t: &mut Tensor<f64>) -> Result<()> {
    let axes: Vec<usize> = (0..t.ndim()).collect();
    forward_axes(t, &axes, Kernel::Haar)
}

/// Inverse of [`forward`].
pub fn inverse(t: &mut Tensor<f64>) -> Result<()> {
    let axes: Vec<usize> = (0..t.ndim()).collect();
    inverse_axes(t, &axes, Kernel::Haar)
}

fn validate_axes(t: &Tensor<f64>, axes: &[usize]) -> Result<()> {
    let ndim = t.ndim();
    let mut seen = vec![false; ndim];
    for &a in axes {
        if a >= ndim {
            return Err(TensorError::AxisOutOfRange { axis: a, ndim });
        }
        if seen[a] {
            return Err(TensorError::DuplicateAxis { axis: a });
        }
        seen[a] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subband::{self, SubbandKind};

    fn ramp(dims: &[usize]) -> Tensor<f64> {
        Tensor::from_fn(dims, |idx| {
            idx.iter().enumerate().map(|(a, &i)| (a + 1) as f64 * i as f64).sum::<f64>() + 5.0
        })
        .unwrap()
    }

    #[test]
    fn matches_paper_2d_example_structure() {
        // A constant 2x2 block: all high bands must be exactly zero and
        // LL must hold the average.
        let t = Tensor::from_vec(&[2, 2], vec![3.0, 3.0, 3.0, 3.0]).unwrap();
        let mut w = t.clone();
        forward(&mut w).unwrap();
        assert_eq!(w.get(&[0, 0]).unwrap(), 3.0); // LL
        assert_eq!(w.get(&[0, 1]).unwrap(), 0.0); // LH
        assert_eq!(w.get(&[1, 0]).unwrap(), 0.0); // HL
        assert_eq!(w.get(&[1, 1]).unwrap(), 0.0); // HH
    }

    #[test]
    fn hand_computed_2d_case() {
        // Rows: [1 3], [5 9].
        // Row transform:  [2 -1], [7 -2]
        // Col transform:  L=[4.5 -1.5], H=[-2.5 0.5]
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 3.0, 5.0, 9.0]).unwrap();
        let mut w = t.clone();
        // x (rows) then y (cols), as the paper.
        forward_axes(&mut w, &[1, 0], Kernel::Haar).unwrap();
        assert_eq!(w.get(&[0, 0]).unwrap(), 4.5); // LL
        assert_eq!(w.get(&[0, 1]).unwrap(), -1.5); // LH (high along x)
        assert_eq!(w.get(&[1, 0]).unwrap(), -2.5); // HL (high along y)
        assert_eq!(w.get(&[1, 1]).unwrap(), 0.5); // HH
    }

    #[test]
    fn roundtrip_exact_on_integer_mesh_3d() {
        let t = Tensor::from_fn(&[8, 6, 4], |i| (i[0] * 31 + i[1] * 7 + i[2]) as f64).unwrap();
        let mut w = t.clone();
        forward(&mut w).unwrap();
        inverse(&mut w).unwrap();
        assert_eq!(w.as_slice(), t.as_slice());
    }

    #[test]
    fn roundtrip_exact_with_odd_extents() {
        let t = ramp(&[7, 5, 3]);
        let mut w = t.clone();
        forward(&mut w).unwrap();
        inverse(&mut w).unwrap();
        assert_eq!(w.as_slice(), t.as_slice());
    }

    #[test]
    fn subset_of_axes_roundtrips() {
        let t = ramp(&[6, 4, 2]);
        let mut w = t.clone();
        forward_axes(&mut w, &[0, 2], Kernel::Haar).unwrap();
        assert_ne!(w.as_slice(), t.as_slice());
        inverse_axes(&mut w, &[0, 2], Kernel::Haar).unwrap();
        assert_eq!(w.as_slice(), t.as_slice());
    }

    #[test]
    fn linear_ramp_high_bands_are_constant_small() {
        // For a linear ramp along an axis with slope s, H = -s/2
        // everywhere: the high band concentrates to a single value.
        let t = Tensor::from_fn(&[16], |i| 2.0 * i[0] as f64).unwrap();
        let mut w = t.clone();
        forward(&mut w).unwrap();
        let h = &w.as_slice()[8..];
        assert!(h.iter().all(|&v| v == -1.0), "high band {h:?}");
    }

    #[test]
    fn high_band_energy_small_for_smooth_field() {
        use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};
        let t = generate(&FieldSpec::small(FieldKind::Temperature, 9));
        let mut w = t.clone();
        forward(&mut w).unwrap();
        let (lo, hi) = t.min_max();
        let range = hi - lo;
        for band in subband::subbands(w.shape()).unwrap() {
            if band.kind == SubbandKind::Low {
                continue;
            }
            let vals = w.read_block(&band.start, &band.size).unwrap();
            let max_abs = vals.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            assert!(
                max_abs < 0.2 * range,
                "band {} max {max_abs} vs range {range}",
                band.name()
            );
        }
    }

    #[test]
    fn duplicate_or_invalid_axes_rejected() {
        let mut t = ramp(&[4, 4]);
        let err = forward_axes(&mut t, &[0, 0], Kernel::Haar).unwrap_err();
        assert_eq!(err, TensorError::DuplicateAxis { axis: 0 });
        assert_eq!(err.to_string(), "axis 0 given more than once");
        let err = forward_axes(&mut t, &[2], Kernel::Haar).unwrap_err();
        assert_eq!(err.to_string(), "axis 2 out of range for 2-dimensional tensor");
        assert!(inverse_axes(&mut t, &[1, 1], Kernel::Haar).is_err());
        assert!(inverse_axes(&mut t, &[2], Kernel::Haar).is_err());
        assert_eq!(t, ramp(&[4, 4]));
    }

    /// The reference an axis pass is held to: every lane read element
    /// by element with `Tensor::get`, run through the 1-d kernel, and
    /// written back.
    fn lane_by_lane(t: &mut Tensor<f64>, axis: usize, kernel: Kernel, forward_dir: bool) {
        use crate::{cdf53, cdf97, haar};
        let n = t.dims()[axis];
        let (mut lane, mut out) = (vec![0.0; n], vec![0.0; n]);
        for off in 0..t.len() {
            let mut idx = t.shape().unravel(off);
            if idx[axis] != 0 {
                continue;
            }
            for (k, v) in lane.iter_mut().enumerate() {
                idx[axis] = k;
                *v = t.get(&idx).unwrap();
            }
            match (kernel, forward_dir) {
                (Kernel::Haar, true) => haar::forward_1d(&lane, &mut out),
                (Kernel::Haar, false) => haar::inverse_1d(&lane, &mut out),
                (Kernel::Cdf53, true) => cdf53::forward_1d(&lane, &mut out),
                (Kernel::Cdf53, false) => cdf53::inverse_1d(&lane, &mut out),
                (Kernel::Cdf97, true) => cdf97::forward_1d(&lane, &mut out),
                (Kernel::Cdf97, false) => cdf97::inverse_1d(&lane, &mut out),
            }
            for (k, &v) in out.iter().enumerate() {
                idx[axis] = k;
                t.set(&idx, v).unwrap();
            }
        }
    }

    #[test]
    fn every_axis_pass_is_the_1d_reference_applied_lane_by_lane() {
        let bits = |t: &Tensor<f64>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for dims in [
            &[1156usize, 82, 2][..],
            &[13, 7, 5],
            &[64, 32],
            &[3],
            &[1, 1],
            &[2, 3, 4, 5],
            // An n = 2 last axis whose 3471 lanes are not a whole number
            // of 256-lane tiles.
            &[1157, 3, 2],
            // A long last axis: one tile, narrower than the 8-lane minimum.
            &[3, 1000],
            // A wide inner run (axis 0's rows are 300 lanes) and a last
            // axis whose 2-lane tile is all SIMD tail.
            &[2, 300],
            // An extent-1 axis in the middle.
            &[5, 1, 7],
        ] {
            // A ramp under a non-linear term, so no high band is constant.
            let t = Tensor::from_fn(dims, |idx| {
                let r: usize = idx.iter().enumerate().map(|(a, &i)| (a + 1) * i).sum();
                5.0 + r as f64 * 0.7 + ((r * r) % 17) as f64 / 3.0
            })
            .unwrap();
            for kernel in [Kernel::Haar, Kernel::Cdf53, Kernel::Cdf97] {
                for axis in 0..dims.len() {
                    let (mut got, mut want) = (t.clone(), t.clone());
                    forward_axes(&mut got, &[axis], kernel).unwrap();
                    lane_by_lane(&mut want, axis, kernel, true);
                    assert_eq!(bits(&got), bits(&want), "forward {kernel:?} {dims:?} axis {axis}");
                    inverse_axes(&mut got, &[axis], kernel).unwrap();
                    lane_by_lane(&mut want, axis, kernel, false);
                    assert_eq!(bits(&got), bits(&want), "inverse {kernel:?} {dims:?} axis {axis}");
                }
            }
        }
    }

    #[test]
    fn forward_then_inverse_is_stable_under_repetition() {
        let t = ramp(&[10, 6]);
        let mut w = t.clone();
        for _ in 0..5 {
            forward(&mut w).unwrap();
            inverse(&mut w).unwrap();
        }
        assert_eq!(w.as_slice(), t.as_slice());
    }
}
