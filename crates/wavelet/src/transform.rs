//! Separable single-level transforms over the axes of an N-d tensor.
//!
//! The paper transforms a 2-d array by applying the 1-d kernel to every
//! row (x-axis) and then every column (y-axis); a 3-d array additionally
//! along z (Section III-A). [`forward`] does exactly that for all axes
//! with the paper's Haar kernel; [`forward_axes`] takes the axes, the
//! kernel and a thread count, which is what [`crate::MultiLevel`] needs.
//!
//! The transform is in place: after `forward`, the low band occupies the
//! low half of every transformed axis and the high bands the high halves,
//! in the block layout described by [`crate::subband`].

use crate::{cdf53, haar};
use ckpt_simd::wavelet::WaveletOp;
use ckpt_tensor::{lanes::Lane, Result, Tensor, TensorError};

/// How many lanes a batched kernel call processes at once. Eight f64
/// columns are two AVX2 vectors per row — wide enough to amortize the
/// batch gather, narrow enough that the interleaved scratch stays in
/// L1 for the lane lengths the pipeline uses.
const LANE_BATCH: usize = 8;

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
    #[inline]
    fn forward_lane(self, src: &[f64], dst: &mut [f64]) {
        match self {
            Kernel::Haar => haar::forward_1d(src, dst),
            Kernel::Cdf53 => cdf53::forward_1d(src, dst),
            Kernel::Cdf97 => crate::cdf97::forward_1d(src, dst),
        }
    }

    #[inline]
    fn inverse_lane(self, src: &[f64], dst: &mut [f64]) {
        match self {
            Kernel::Haar => haar::inverse_1d(src, dst),
            Kernel::Cdf53 => cdf53::inverse_1d(src, dst),
            Kernel::Cdf97 => crate::cdf97::inverse_1d(src, dst),
        }
    }

    /// The batched multi-lane form of this kernel/direction in
    /// `ckpt-simd` (bit-identical to the per-lane fns above).
    #[inline]
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

/// Length of the maximal run of batchable lanes starting at `lanes[i]`:
/// same stride and length, starts increasing by exactly 1. For a
/// non-last axis the lane iterator yields runs of `dims[last]` such
/// lanes, whose element `k` sits at `start + j + k·stride` — `w`
/// *contiguous* values per row, which is what the batched kernels eat.
/// Contiguous (stride-1) lanes never batch — they are already
/// cache-friendly and their starts are `len` apart anyway.
///
/// Runs are capped at the stride: lanes partition the tensor, so a
/// longer run would alias row 0 of one lane with row 1 of another.
fn run_width(lanes: &[Lane], i: usize) -> usize {
    let base = lanes[i];
    if base.stride <= 1 {
        return 1;
    }
    let mut w = 1;
    while i + w < lanes.len()
        && w < base.stride
        && lanes[i + w].stride == base.stride
        && lanes[i + w].len == base.len
        && lanes[i + w].start == base.start + w
    {
        w += 1;
    }
    w
}

/// Applies the chosen 1-d kernel along every lane of `axis`, in place,
/// fanning lanes out over `threads` scoped workers. Lanes partition the
/// tensor's elements, so workers read and write disjoint index sets;
/// per-lane arithmetic is the serial code, so output is bit-identical
/// for every thread count.
fn transform_axis(
    t: &mut Tensor<f64>,
    axis: usize,
    kernel: Kernel,
    forward_dir: bool,
    threads: usize,
) -> Result<()> {
    let lanes: Vec<_> = t.lanes(axis)?.collect();
    let len = t.shape().dim(axis)?;
    let workers = ckpt_pool::clamp_workers(threads, lanes.len());
    if workers == 1 {
        process_lanes(t.as_mut_slice(), &lanes, len, kernel, forward_dir);
        return Ok(());
    }
    let ranges = ckpt_pool::partition_ranges(lanes.len(), workers);
    let buf = t.as_mut_slice();
    let buf_len = buf.len();
    let ptr = ckpt_pool::SendPtr::new(buf.as_mut_ptr(), buf_len);
    let lanes = &lanes;
    let op = kernel.batch_op(forward_dir);
    std::thread::scope(|scope| {
        for range in ranges {
            scope.spawn(move || {
                let mut gather = vec![0.0f64; len];
                let mut result = vec![0.0f64; len];
                let mut batch_in = vec![0.0f64; len * LANE_BATCH];
                let mut batch_out = vec![0.0f64; len * LANE_BATCH];
                let my_lanes = &lanes[range];
                let mut i = 0;
                while i < my_lanes.len() {
                    let w = run_width(my_lanes, i).min(LANE_BATCH);
                    if w >= 2 {
                        let lane = my_lanes[i];
                        for k in 0..lane.len {
                            for (j, slot) in
                                batch_in[k * w..(k + 1) * w].iter_mut().enumerate()
                            {
                                // SAFETY: lanes partition the tensor
                                // and this worker owns a disjoint lane
                                // range; start + j + k·stride
                                // enumerates exactly the elements of
                                // the w owned lanes starting at
                                // `lane`, all in bounds.
                                *slot = unsafe { ptr.read(lane.start + j + k * lane.stride) };
                            }
                        }
                        ckpt_simd::wavelet::apply(
                            op,
                            &batch_in[..lane.len * w],
                            &mut batch_out[..lane.len * w],
                            lane.len,
                            w,
                        );
                        for k in 0..lane.len {
                            for (j, &r) in batch_out[k * w..(k + 1) * w].iter().enumerate() {
                                // SAFETY: same disjoint-lane argument
                                // as the read above; this worker
                                // exclusively owns these w lanes.
                                unsafe { ptr.write(lane.start + j + k * lane.stride, r) };
                            }
                        }
                        i += w;
                        continue;
                    }
                    let lane = my_lanes[i];
                    for (k, g) in gather.iter_mut().enumerate().take(lane.len) {
                        // SAFETY: a lane's index set {start + k·stride,
                        // k < len} lies in bounds of the tensor buffer,
                        // lanes partition the tensor, and each worker
                        // owns a disjoint lane range — so no other
                        // thread touches these indices.
                        *g = unsafe { ptr.read(lane.start + k * lane.stride) };
                    }
                    if forward_dir {
                        kernel.forward_lane(&gather, &mut result);
                    } else {
                        kernel.inverse_lane(&gather, &mut result);
                    }
                    for (k, &r) in result.iter().enumerate().take(lane.len) {
                        // SAFETY: same disjoint-lane argument as the
                        // read above; this worker exclusively owns
                        // every index of this lane.
                        unsafe { ptr.write(lane.start + k * lane.stride, r) };
                    }
                    i += 1;
                }
            });
        }
    });
    Ok(())
}

/// Serial lane walk: maximal runs of batchable lanes go through the
/// `ckpt-simd` batched kernels (contiguous row reads instead of the
/// cache-hostile per-element strided gather); stride-1 and isolated
/// lanes keep the 1-d kernel path. Output is bit-identical to the
/// per-lane loop for every input — the batched kernels perform the
/// same per-lane arithmetic in the same order.
fn process_lanes(buf: &mut [f64], lanes: &[Lane], len: usize, kernel: Kernel, forward_dir: bool) {
    let op = kernel.batch_op(forward_dir);
    let mut gather = vec![0.0f64; len];
    let mut result = vec![0.0f64; len];
    let mut batch_in = vec![0.0f64; len * LANE_BATCH];
    let mut batch_out = vec![0.0f64; len * LANE_BATCH];
    let mut i = 0;
    while i < lanes.len() {
        let w = run_width(lanes, i).min(LANE_BATCH);
        if w >= 2 {
            let lane = lanes[i];
            for k in 0..lane.len {
                let row = lane.start + k * lane.stride;
                batch_in[k * w..(k + 1) * w].copy_from_slice(&buf[row..row + w]);
            }
            ckpt_simd::wavelet::apply(
                op,
                &batch_in[..lane.len * w],
                &mut batch_out[..lane.len * w],
                lane.len,
                w,
            );
            for k in 0..lane.len {
                let row = lane.start + k * lane.stride;
                buf[row..row + w].copy_from_slice(&batch_out[k * w..(k + 1) * w]);
            }
            i += w;
            continue;
        }
        let lane = lanes[i];
        if lane.stride == 1 {
            gather.copy_from_slice(&buf[lane.start..lane.start + lane.len]);
        } else {
            for (k, g) in gather.iter_mut().enumerate().take(lane.len) {
                *g = buf[lane.start + k * lane.stride];
            }
        }
        if forward_dir {
            kernel.forward_lane(&gather, &mut result);
        } else {
            kernel.inverse_lane(&gather, &mut result);
        }
        if lane.stride == 1 {
            buf[lane.start..lane.start + lane.len].copy_from_slice(&result);
        } else {
            for (k, &r) in result.iter().enumerate().take(lane.len) {
                buf[lane.start + k * lane.stride] = r;
            }
        }
        i += 1;
    }
}

/// Single-level forward transform with `kernel` along the given axes,
/// in order; any subset of `0..ndim`, each at most once. Lanes fan out
/// over `threads` scoped workers: output is bit-identical for every
/// thread count, and `threads <= 1` runs the serial loop inline.
pub fn forward_axes(
    t: &mut Tensor<f64>,
    axes: &[usize],
    kernel: Kernel,
    threads: usize,
) -> Result<()> {
    validate_axes(t, axes)?;
    for &axis in axes {
        transform_axis(t, axis, kernel, true, threads)?;
    }
    Ok(())
}

/// Undoes [`forward_axes`] called with the same `axes` and `kernel`
/// (reverse axis order), with the same bit-identical-to-serial
/// guarantee.
pub fn inverse_axes(
    t: &mut Tensor<f64>,
    axes: &[usize],
    kernel: Kernel,
    threads: usize,
) -> Result<()> {
    validate_axes(t, axes)?;
    for &axis in axes.iter().rev() {
        transform_axis(t, axis, kernel, false, threads)?;
    }
    Ok(())
}

/// Single-level forward Haar transform along *all* axes (the paper's
/// 2-d/3-d procedure).
pub fn forward(t: &mut Tensor<f64>) -> Result<()> {
    let axes: Vec<usize> = (0..t.ndim()).collect();
    forward_axes(t, &axes, Kernel::Haar, 1)
}

/// Inverse of [`forward`].
pub fn inverse(t: &mut Tensor<f64>) -> Result<()> {
    let axes: Vec<usize> = (0..t.ndim()).collect();
    inverse_axes(t, &axes, Kernel::Haar, 1)
}

fn validate_axes(t: &Tensor<f64>, axes: &[usize]) -> Result<()> {
    let ndim = t.ndim();
    let mut seen = vec![false; ndim];
    for &a in axes {
        if a >= ndim {
            return Err(TensorError::AxisOutOfRange { axis: a, ndim });
        }
        if seen[a] {
            return Err(TensorError::AxisOutOfRange { axis: a, ndim });
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
        forward_axes(&mut w, &[1, 0], Kernel::Haar, 1).unwrap();
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
        forward_axes(&mut w, &[0, 2], Kernel::Haar, 1).unwrap();
        assert_ne!(w.as_slice(), t.as_slice());
        inverse_axes(&mut w, &[0, 2], Kernel::Haar, 1).unwrap();
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
                "band {:?} max {max_abs} vs range {range}",
                band.mask
            );
        }
    }

    #[test]
    fn duplicate_or_invalid_axes_rejected() {
        let mut t = ramp(&[4, 4]);
        assert!(forward_axes(&mut t, &[0, 0], Kernel::Haar, 1).is_err());
        assert!(forward_axes(&mut t, &[2], Kernel::Haar, 1).is_err());
    }

    #[test]
    fn threaded_transform_is_bit_identical_to_serial() {
        for dims in [&[64usize, 32][..], &[13, 7, 5], &[1156, 82, 2], &[3], &[1, 1]] {
            let t = ramp(dims);
            let axes: Vec<usize> = (0..dims.len()).collect();
            for kernel in [Kernel::Haar, Kernel::Cdf53, Kernel::Cdf97] {
                let mut serial = t.clone();
                forward_axes(&mut serial, &axes, kernel, 1).unwrap();
                for threads in [1usize, 2, 4, 8] {
                    let mut par = t.clone();
                    forward_axes(&mut par, &axes, kernel, threads).unwrap();
                    assert_eq!(
                        par.as_slice(),
                        serial.as_slice(),
                        "forward dims={dims:?} kernel={kernel:?} threads={threads}"
                    );
                    inverse_axes(&mut par, &axes, kernel, threads).unwrap();
                    let mut undone = serial.clone();
                    inverse_axes(&mut undone, &axes, kernel, 1).unwrap();
                    assert_eq!(
                        par.as_slice(),
                        undone.as_slice(),
                        "inverse dims={dims:?} kernel={kernel:?} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn threaded_rejects_bad_axes_too() {
        let mut t = ramp(&[4, 4]);
        assert!(forward_axes(&mut t, &[0, 0], Kernel::Haar, 4).is_err());
        assert!(inverse_axes(&mut t, &[2], Kernel::Haar, 4).is_err());
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
