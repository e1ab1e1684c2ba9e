//! Multi-level decomposition (extension beyond the paper's single level).
//!
//! The paper applies one transform level; JPEG-2000-style codecs recurse
//! on the low band. [`MultiLevel`] implements that recursion so the bench
//! suite can quantify what additional levels would have bought the paper
//! (DESIGN.md §5, ablation "multi-level wavelet decomposition").
//!
//! Because each level's low band is anchored at the origin, level-`l`
//! subband coordinates expressed in the level-`l` low-region index space
//! are also valid global coordinates — so block reads/writes against the
//! full tensor work unchanged.

use crate::haar;
use crate::subband::{self, Subband, SubbandKind};
use crate::transform;
use ckpt_tensor::{Result, Shape, Tensor};

/// A decomposition plan: how many transform levels to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveletPlan {
    /// Number of levels; the paper uses 1.
    pub levels: usize,
}

impl WaveletPlan {
    /// The paper's configuration.
    pub const SINGLE: WaveletPlan = WaveletPlan { levels: 1 };

    /// Builds a plan, clamping to the maximum useful depth for `dims`
    /// (the depth at which every axis has collapsed to extent 1).
    pub fn clamped(levels: usize, dims: &[usize]) -> WaveletPlan {
        WaveletPlan { levels: levels.min(max_levels(dims)) }
    }
}

/// The deepest level at which some axis still has a high half.
pub fn max_levels(dims: &[usize]) -> usize {
    let mut dims = dims.to_vec();
    let mut levels = 0;
    while dims.iter().any(|&d| d >= 2) {
        for d in &mut dims {
            *d = haar::low_len(*d);
        }
        levels += 1;
    }
    levels
}

/// Dimensions of the low region after `level` applications of the
/// transform.
pub fn low_dims_at_level(dims: &[usize], level: usize) -> Vec<usize> {
    let mut out = dims.to_vec();
    for _ in 0..level {
        for d in &mut out {
            *d = haar::low_len(*d);
        }
    }
    out
}

/// Multi-level transformer.
#[derive(Debug, Clone, Copy)]
pub struct MultiLevel {
    plan: WaveletPlan,
    kernel: transform::Kernel,
}

impl MultiLevel {
    /// Creates a transformer for the given plan (Haar kernel, as the
    /// paper).
    pub fn new(plan: WaveletPlan) -> Self {
        MultiLevel { plan, kernel: transform::Kernel::Haar }
    }

    /// Creates a transformer with an explicit kernel.
    pub fn with_kernel(plan: WaveletPlan, kernel: transform::Kernel) -> Self {
        MultiLevel { plan, kernel }
    }

    /// Does nothing: the transform is serial at every thread count
    /// (a lane fan-out existed and bought nothing on two threads —
    /// EXPERIMENTS.md pass 7). Kept only because the frozen `e2e/`
    /// probe calls it; it goes in the next benchmark-only PR.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// The plan in use.
    pub fn plan(&self) -> WaveletPlan {
        self.plan
    }

    /// The kernel in use.
    pub fn kernel(&self) -> transform::Kernel {
        self.kernel
    }

    /// The low region each level transforms, shallowest first: the
    /// plan's levels down to the first whose every axis is below 2
    /// (regions only shrink, so no deeper level has a high half).
    fn regions(&self, dims: &[usize]) -> Vec<Vec<usize>> {
        (0..self.plan.levels)
            .map(|level| low_dims_at_level(dims, level))
            .take_while(|region| region.iter().any(|&d| d >= 2))
            .collect()
    }

    /// Forward transform: `levels` recursive applications, each on the
    /// previous level's low region.
    pub fn forward(&self, t: &mut Tensor<f64>) -> Result<()> {
        for region in self.regions(t.dims()) {
            on_region(t, &region, |sub, axes| transform::forward_axes(sub, axes, self.kernel))?;
        }
        Ok(())
    }

    /// Inverse transform; undoes [`MultiLevel::forward`].
    pub fn inverse(&self, t: &mut Tensor<f64>) -> Result<()> {
        self.inverse_with(t, &mut Vec::new())
    }

    /// [`MultiLevel::inverse`] with a caller's buffer as every level's
    /// scratch ([`transform::inverse_axes_with`]).
    pub fn inverse_with(&self, t: &mut Tensor<f64>, scratch: &mut Vec<f64>) -> Result<()> {
        for region in self.regions(t.dims()).iter().rev() {
            on_region(t, region, |sub, axes| {
                transform::inverse_axes_with(sub, axes, self.kernel, scratch)
            })?;
        }
        Ok(())
    }

    /// Every subband of the decomposition in global coordinates: the high
    /// bands of each level (shallowest first), then the single deepest
    /// low band last.
    pub fn all_subbands(&self, shape: &Shape) -> Result<Vec<Subband>> {
        let dims = shape.dims().to_vec();
        let mut out = Vec::new();
        // Before any level runs, the "low band" is the untransformed
        // tensor itself: with a zero-level plan (the lossless stream
        // `ckpt_core::compress_exact` writes) every element belongs to
        // it. The first loop iteration replaces this with the real
        // level-0 low block; when it breaks immediately (all dims < 2)
        // the two coincide, since `low_len(d) == d` for `d < 2`.
        let mut deepest_low = Subband {
            kind: SubbandKind::Low,
            start: vec![0; dims.len()],
            size: dims.clone(),
        };
        for region in self.regions(&dims) {
            let region_shape = Shape::new(&region)?;
            for band in subband::subbands(&region_shape)? {
                match band.kind {
                    SubbandKind::High => out.push(band),
                    SubbandKind::Low => deepest_low = band,
                }
            }
        }
        out.push(deepest_low);
        Ok(out)
    }
}

/// Runs `pass` over every axis of `t`'s low region anchored at the
/// origin: on `t` itself when the region is the whole tensor, else on
/// a copy of the region written back.
fn on_region(
    t: &mut Tensor<f64>,
    region: &[usize],
    pass: impl FnOnce(&mut Tensor<f64>, &[usize]) -> Result<()>,
) -> Result<()> {
    let axes: Vec<usize> = (0..region.len()).collect();
    if region == t.dims() {
        return pass(t, &axes);
    }
    let zeros = vec![0usize; region.len()];
    let mut sub = Tensor::from_vec(region, t.read_block(&zeros, region)?)?;
    pass(&mut sub, &axes)?;
    t.write_block(&zeros, region, sub.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(dims: &[usize]) -> Tensor<f64> {
        Tensor::from_fn(dims, |i| {
            i.iter().map(|&v| v as f64).sum::<f64>().sin() * 100.0 + 250.0
        })
        .unwrap()
    }

    #[test]
    fn single_level_matches_plain_transform() {
        let t = field(&[8, 6]);
        let mut a = t.clone();
        let mut b = t.clone();
        MultiLevel::new(WaveletPlan::SINGLE).forward(&mut a).unwrap();
        transform::forward(&mut b).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn multi_level_roundtrip_exact_on_integer_data() {
        let t = Tensor::from_fn(&[16, 8, 4], |i| (i[0] * 64 + i[1] * 8 + i[2]) as f64).unwrap();
        for levels in 1..=4 {
            let ml = MultiLevel::new(WaveletPlan { levels });
            let mut w = t.clone();
            ml.forward(&mut w).unwrap();
            ml.inverse(&mut w).unwrap();
            assert_eq!(w.as_slice(), t.as_slice(), "levels={levels}");
        }
    }

    #[test]
    fn roundtrip_with_odd_dims_and_deep_plan() {
        let t = field(&[13, 7]);
        let ml = MultiLevel::new(WaveletPlan::clamped(10, &[13, 7]));
        let mut w = t.clone();
        ml.forward(&mut w).unwrap();
        ml.inverse(&mut w).unwrap();
        for (a, b) in w.as_slice().iter().zip(t.as_slice()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn max_levels_counts_until_collapse() {
        assert_eq!(max_levels(&[1]), 0);
        assert_eq!(max_levels(&[2]), 1);
        assert_eq!(max_levels(&[8]), 3);
        assert_eq!(max_levels(&[8, 2]), 3); // axis 1 collapses after 1 level
        assert_eq!(max_levels(&[5]), 3); // 5 -> 3 -> 2 -> 1
    }

    #[test]
    fn low_dims_shrink_per_level() {
        assert_eq!(low_dims_at_level(&[1156, 82, 2], 1), vec![578, 41, 1]);
        assert_eq!(low_dims_at_level(&[1156, 82, 2], 2), vec![289, 21, 1]);
        assert_eq!(low_dims_at_level(&[8, 8], 3), vec![1, 1]);
    }

    #[test]
    fn all_subbands_partition_for_two_levels() {
        let shape = Shape::new(&[8, 8]).unwrap();
        let ml = MultiLevel::new(WaveletPlan { levels: 2 });
        let bands = ml.all_subbands(&shape).unwrap();
        // Level 0: 3 high bands; level 1: 3 high bands; 1 deepest low.
        assert_eq!(bands.len(), 7);
        let total: usize = bands.iter().map(|b| b.volume()).sum();
        assert_eq!(total, 64);
        let low_count = bands.iter().filter(|b| b.kind == SubbandKind::Low).count();
        assert_eq!(low_count, 1);
        assert_eq!(bands.last().unwrap().size, vec![2, 2]);
    }

    #[test]
    fn clamped_plan_does_not_exceed_max() {
        let p = WaveletPlan::clamped(99, &[8, 8]);
        assert_eq!(p.levels, 3);
    }

    #[test]
    fn deeper_levels_shrink_exact_low_band() {
        // Multi-level should concentrate more of the volume into high
        // bands (which quantize to 1 byte), the ablation's motivation.
        let shape = Shape::new(&[64, 64]).unwrap();
        let l1 = MultiLevel::new(WaveletPlan { levels: 1 }).all_subbands(&shape).unwrap();
        let l3 = MultiLevel::new(WaveletPlan { levels: 3 }).all_subbands(&shape).unwrap();
        let low1 = l1.last().unwrap().volume();
        let low3 = l3.last().unwrap().volume();
        assert!(low3 < low1);
        assert_eq!(low1, 1024);
        assert_eq!(low3, 64);
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::*;
    use crate::transform::Kernel;

    #[test]
    fn cdf53_multilevel_roundtrips() {
        let t = Tensor::from_fn(&[24, 10], |i| {
            ((i[0] * 3 + i[1]) as f64 * 0.21).sin() * 40.0 + 250.0
        })
        .unwrap();
        for levels in 1..=3 {
            let ml = MultiLevel::with_kernel(WaveletPlan { levels }, Kernel::Cdf53);
            let mut w = t.clone();
            ml.forward(&mut w).unwrap();
            ml.inverse(&mut w).unwrap();
            for (a, b) in w.as_slice().iter().zip(t.as_slice()) {
                assert!((a - b).abs() < 1e-9, "levels={levels}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn kernel_accessor() {
        let ml = MultiLevel::with_kernel(WaveletPlan::SINGLE, Kernel::Cdf53);
        assert_eq!(ml.kernel(), Kernel::Cdf53);
        assert_eq!(MultiLevel::new(WaveletPlan::SINGLE).kernel(), Kernel::Haar);
    }
}
