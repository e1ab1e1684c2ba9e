//! Domain decomposition: per-rank sub-arrays of a global mesh.
//!
//! The paper's scaling argument (Section IV-D) assumes each of `P`
//! processes owns a constant-size piece of the global state and
//! compresses it independently. This module provides that structure:
//! a contiguous 1-d decomposition along the x axis (NICAM's large
//! dimension), so the figure binaries' parallel rank runs are fed
//! *actual* sub-domain arrays rather than copies of one array.

use ckpt_core::{CkptError, Result};
use ckpt_tensor::Tensor;

/// Splits a tensor into `ranks` contiguous chunks along axis 0.
///
/// Chunk extents differ by at most one (block distribution). Fails if
/// `ranks` exceeds the axis extent or is zero.
pub fn split_x(global: &Tensor<f64>, ranks: usize) -> Result<Vec<Tensor<f64>>> {
    let nx = global.dims()[0];
    if ranks == 0 || ranks > nx {
        return Err(CkptError::Format(format!(
            "cannot split x extent {nx} into {ranks} ranks"
        )));
    }
    let mut out = Vec::with_capacity(ranks);
    let mut start = 0usize;
    for r in 0..ranks {
        let end = (r + 1) * nx / ranks;
        let mut begin_idx = vec![0usize; global.ndim()];
        begin_idx[0] = start;
        let mut size = global.dims().to_vec();
        size[0] = end - start;
        let vals = global.read_block(&begin_idx, &size)?;
        out.push(Tensor::from_vec(&size, vals)?);
        start = end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};

    fn field() -> Tensor<f64> {
        generate(&FieldSpec::small(FieldKind::Temperature, 61))
    }

    /// Axis 0 is the outermost in row-major order, so rank chunks laid
    /// end to end are the global array: they cover it, in order.
    fn concat(chunks: &[Tensor<f64>]) -> Vec<f64> {
        chunks.iter().flat_map(|c| c.as_slice()).copied().collect()
    }

    #[test]
    fn split_covers_the_global_array_in_order() {
        let g = field();
        for ranks in [1usize, 2, 3, 7, 16] {
            let chunks = split_x(&g, ranks).unwrap();
            assert_eq!(chunks.len(), ranks);
            assert!(chunks.iter().all(|c| c.dims()[1..] == g.dims()[1..]), "ranks={ranks}");
            assert_eq!(concat(&chunks), g.as_slice(), "ranks={ranks}");
        }
    }

    #[test]
    fn block_distribution_is_balanced() {
        let g = field(); // x extent 64 (FieldSpec::small)
        let nx = g.dims()[0];
        let chunks = split_x(&g, 7).unwrap();
        let extents: Vec<usize> = chunks.iter().map(|c| c.dims()[0]).collect();
        let min = *extents.iter().min().unwrap();
        let max = *extents.iter().max().unwrap();
        assert!(max - min <= 1, "imbalanced: {extents:?}");
        assert_eq!(extents.iter().sum::<usize>(), nx);
    }

    #[test]
    fn invalid_rank_counts_rejected() {
        let g = field();
        assert!(split_x(&g, 0).is_err());
        assert!(split_x(&g, 10_000).is_err());
    }

    #[test]
    fn per_rank_lossy_checkpoints_reassemble_within_tolerance() {
        use ckpt_core::{Compressor, CompressorConfig};
        let g = field();
        let chunks = split_x(&g, 4).unwrap();
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let restored: Vec<Tensor<f64>> = chunks
            .iter()
            .map(|c| Compressor::decompress(&comp.compress(c).unwrap().bytes).unwrap())
            .collect();
        let back = Tensor::from_vec(g.dims(), concat(&restored)).unwrap();
        let err = ckpt_core::metrics::relative_error(&g, &back).unwrap();
        assert!(err.average < 1e-3, "per-rank pipeline avg err {}", err.average);
    }
}
