//! Subband layout after a single-level transform over all axes.
//!
//! With the `[L | H]` lane layout, the transformed tensor decomposes into
//! `2^ndim` axis-aligned blocks: one per choice of Low/High along each
//! axis. For 2-d these are the paper's `LL`, `LH`, `HL`, `HH` (Figure 3);
//! for 3-d, one low block plus seven high blocks.
//!
//! A subband is identified by which axes it takes the high half of.
//! Axes whose extent is 1 have no high half, so only the axes of extent
//! ≥ 2 — at most `log2(volume)` of them — split; every other axis is
//! low in every band.

use crate::haar;
use ckpt_tensor::{Result, Shape};

/// Low (the single `LL…L` block) or High (everything else).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubbandKind {
    /// The all-low block: kept exact by the paper's pipeline.
    Low,
    /// A high-frequency block: subject to quantization.
    High,
}

/// One subband: its kind and its block coordinates in the transformed
/// tensor. A band is high along axis `a` exactly when `start[a] != 0`:
/// a low half starts at 0 and a high half after a non-empty low half.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subband {
    /// Low for the all-low block, High otherwise.
    pub kind: SubbandKind,
    /// Block start per axis.
    pub start: Vec<usize>,
    /// Block extent per axis.
    pub size: Vec<usize>,
}

impl Subband {
    /// Number of elements in the subband.
    pub fn volume(&self) -> usize {
        self.size.iter().product()
    }

    /// A short name like `LL`, `HL`, `LHH` (first axis first).
    pub fn name(&self) -> String {
        self.start.iter().map(|&s| if s != 0 { 'H' } else { 'L' }).collect()
    }
}

/// Enumerates all non-empty subbands of a transformed shape, low band
/// first, then high bands in ascending mask order (bit `a` set ⇒ high
/// along axis `a`). Masks run over the axes of extent ≥ 2 alone — a mask
/// with the bit of a length-1 axis set would denote an empty band — so
/// there are `2^k` of them for `k` such axes, and `2^k ≤ volume` keeps
/// the count within the tensor's own size however many axes of extent 1
/// the shape declares. The order is the full-mask order: dropping
/// always-clear bits preserves it.
pub fn subbands(shape: &Shape) -> Result<Vec<Subband>> {
    let dims = shape.dims();
    let split: Vec<usize> = (0..dims.len()).filter(|&a| haar::high_len(dims[a]) > 0).collect();
    let low = low_subband(shape);
    let count = 1usize << split.len();
    let mut out = Vec::with_capacity(count);
    out.push(low.clone());
    for mask in 1..count {
        let mut band = Subband { kind: SubbandKind::High, ..low.clone() };
        for (bit, &a) in split.iter().enumerate() {
            if mask >> bit & 1 == 1 {
                band.start[a] = haar::low_len(dims[a]);
                band.size[a] = haar::high_len(dims[a]);
            }
        }
        out.push(band);
    }
    Ok(out)
}

/// The high-frequency subbands only (every band the quantizer touches).
pub fn high_subbands(shape: &Shape) -> Result<Vec<Subband>> {
    Ok(subbands(shape)?.into_iter().filter(|b| b.kind == SubbandKind::High).collect())
}

/// The single low band.
pub fn low_subband(shape: &Shape) -> Subband {
    Subband {
        kind: SubbandKind::Low,
        start: vec![0; shape.ndim()],
        size: shape.dims().iter().map(|&d| haar::low_len(d)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_tensor::Tensor;

    #[test]
    fn two_d_produces_paper_quadrants() {
        let shape = Shape::new(&[4, 6]).unwrap();
        let bands = subbands(&shape).unwrap();
        assert_eq!(bands.len(), 4);
        // Ascending mask order: bit 0 = axis 0, so mask 1 is high along
        // the first axis (HL), mask 2 along the second (LH).
        let names: Vec<String> = bands.iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["LL", "HL", "LH", "HH"]);
        assert_eq!(bands[0].start, vec![0, 0]);
        assert_eq!(bands[0].size, vec![2, 3]);
        assert_eq!(bands[3].start, vec![2, 3]);
        assert_eq!(bands[3].size, vec![2, 3]);
    }

    #[test]
    fn three_d_produces_eight_bands() {
        let shape = Shape::new(&[8, 6, 4]).unwrap();
        let bands = subbands(&shape).unwrap();
        assert_eq!(bands.len(), 8, "paper: one low + seven high bands in 3-d");
        assert_eq!(bands.iter().filter(|b| b.kind == SubbandKind::High).count(), 7);
    }

    #[test]
    fn bands_partition_the_tensor() {
        for dims in [&[6usize, 4][..], &[7, 5], &[4, 6, 2], &[5, 3, 3]] {
            let shape = Shape::new(dims).unwrap();
            let bands = subbands(&shape).unwrap();
            let total: usize = bands.iter().map(|b| b.volume()).sum();
            assert_eq!(total, shape.volume(), "dims {dims:?}");
            // And they are disjoint: paint each band into a grid.
            let mut t = Tensor::full(dims, 0u8).unwrap();
            for band in &bands {
                let vals = t.read_block(&band.start, &band.size).unwrap();
                assert!(vals.iter().all(|&v| v == 0), "band overlap at {:?}", band.name());
                t.write_block(&band.start, &band.size, &vec![1u8; band.volume()]).unwrap();
            }
            assert!(t.as_slice().iter().all(|&v| v == 1));
        }
    }

    #[test]
    fn length_one_axis_has_no_high_band() {
        let shape = Shape::new(&[4, 1]).unwrap();
        let bands = subbands(&shape).unwrap();
        // Masks with the axis-1 bit set are empty: only LL and HL remain.
        assert_eq!(bands.len(), 2);
        assert_eq!(bands[0].name(), "LL");
        assert_eq!(bands[1].name(), "HL");
    }

    #[test]
    fn odd_extents_follow_ceil_floor_split() {
        let shape = Shape::new(&[5]).unwrap();
        let bands = subbands(&shape).unwrap();
        assert_eq!(bands[0].size, vec![3]); // low: ceil(5/2)
        assert_eq!(bands[1].start, vec![3]);
        assert_eq!(bands[1].size, vec![2]); // high: floor(5/2)
    }

    #[test]
    fn high_subbands_excludes_low() {
        let shape = Shape::new(&[4, 4]).unwrap();
        let highs = high_subbands(&shape).unwrap();
        assert_eq!(highs.len(), 3);
        assert!(highs.iter().all(|b| b.kind == SubbandKind::High));
        assert_eq!(low_subband(&shape).name(), "LL");
    }

    #[test]
    fn paper_mesh_dims_band_volumes() {
        // The NICAM array 1156 x 82 x 2: low band is 578 x 41 x 1.
        let shape = Shape::new(&[1156, 82, 2]).unwrap();
        let low = low_subband(&shape);
        assert_eq!(low.size, vec![578, 41, 1]);
        let high_total: usize =
            high_subbands(&shape).unwrap().iter().map(|b| b.volume()).sum();
        assert_eq!(high_total, shape.volume() - low.volume());
        // Low band is exactly 1/8 of the data, so even a perfect pipeline
        // cannot go below cr = 12.5% while the low band stays f64 — which
        // is why the paper's best rates hover at 11-16% after gzip.
        assert_eq!(low.volume() * 8, shape.volume());
    }

    #[test]
    fn length_one_axes_cost_nothing_however_many() {
        // 40 axes (the parent reserved and walked 2^40 masks here): one
        // axis splits, so two bands come back, in the order and with
        // the blocks the full-mask enumeration gives.
        let mut dims = vec![1usize; 40];
        dims[0] = 2;
        let bands = subbands(&Shape::new(&dims).unwrap()).unwrap();
        assert_eq!(bands.len(), 2);
        assert_eq!(bands[0].kind, SubbandKind::Low);
        assert_eq!((bands[1].start[0], bands[1].size[0]), (1, 1));
        assert_eq!(bands[1].name(), format!("H{}", "L".repeat(39)));
        // Extent-1 axes between split ones keep the full-mask order.
        let spread = Shape::new(&[4, 1, 3, 1, 1, 2]).unwrap();
        let names: Vec<String> = subbands(&spread).unwrap().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            ["LLLLLL", "HLLLLL", "LLHLLL", "HLHLLL", "LLLLLH", "HLLLLH", "LLHLLH", "HLHLLH"]
        );
        let dims = vec![1usize; 255];
        assert_eq!(subbands(&Shape::new(&dims).unwrap()).unwrap().len(), 1);
    }
}
