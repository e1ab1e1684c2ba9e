//! Parallel per-rank compression.
//!
//! The paper's scaling argument rests on compression being
//! embarrassingly parallel: every process compresses its own checkpoint
//! independently. This driver plays the role of `R` MPI ranks on one
//! node — each rank's array is compressed on a worker thread — and is
//! what the Figure 9 harness uses to measure per-rank compression time
//! under realistic contention.

use ckpt_core::{Compressed, Compressor, Result};
use ckpt_tensor::Tensor;

/// Compresses one array per rank on `threads` work-stealing workers
/// (`ckpt_pool::ordered_pipeline`, the fan-out the chunked container
/// uses). Results come back in rank order; the first error (if any) is
/// returned and abandons the ranks not yet started.
pub fn compress_ranks(
    ranks: &[Tensor<f64>],
    compressor: &Compressor,
    threads: usize,
) -> Result<Vec<Compressed>> {
    assert!(threads >= 1, "need at least one worker");
    let mut out = Vec::with_capacity(ranks.len());
    ckpt_pool::ordered_pipeline(
        ranks.len(),
        threads,
        |i| compressor.compress(&ranks[i]),
        |_, compressed: Result<Compressed>| {
            out.push(compressed?);
            Ok(())
        },
    )
    .map(|()| out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::CompressorConfig;
    use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};

    fn rank_fields(n: usize) -> Vec<Tensor<f64>> {
        (0..n)
            .map(|i| generate(&FieldSpec::small(FieldKind::Temperature, i as u64)))
            .collect()
    }

    #[test]
    fn parallel_matches_serial_output() {
        let ranks = rank_fields(8);
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let serial: Vec<_> = ranks.iter().map(|t| comp.compress(t).unwrap().bytes).collect();
        for threads in [1usize, 2, 4, 8] {
            let parallel = compress_ranks(&ranks, &comp, threads).unwrap();
            assert_eq!(parallel.len(), 8);
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s, &p.bytes, "threads={threads}");
            }
        }
    }

    #[test]
    fn results_stay_in_rank_order() {
        let ranks = rank_fields(5);
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let out = compress_ranks(&ranks, &comp, 3).unwrap();
        for (tensor, c) in ranks.iter().zip(&out) {
            let back = Compressor::decompress(&c.bytes).unwrap();
            // Each decompressed rank matches its own input (order not
            // scrambled): compare a robust statistic.
            assert!((back.mean() - tensor.mean()).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_and_single_rank() {
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        assert!(compress_ranks(&[], &comp, 4).unwrap().is_empty());
        let one = rank_fields(1);
        assert_eq!(compress_ranks(&one, &comp, 4).unwrap().len(), 1);
    }

    #[test]
    fn more_threads_than_ranks_is_fine() {
        let ranks = rank_fields(3);
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let out = compress_ranks(&ranks, &comp, 64).unwrap();
        assert_eq!(out.len(), 3);
    }
}
