//! Parallel per-rank compression with std scoped threads.
//!
//! The paper's scaling argument rests on compression being
//! embarrassingly parallel: every process compresses its own checkpoint
//! independently. This driver plays the role of `R` MPI ranks on one
//! node — each rank's array is compressed on a worker thread — and is
//! what the Figure 9 harness uses to measure per-rank compression time
//! under realistic contention.

use ckpt_core::{Compressed, Compressor, Result, StreamError};
use ckpt_tensor::Tensor;

/// Compresses one array per rank, fanning the ranks out over `threads`
/// workers. Results come back in rank order; the first error (if any)
/// is returned.
pub fn compress_ranks(
    ranks: &[Tensor<f64>],
    compressor: &Compressor,
    threads: usize,
) -> Result<Vec<Compressed>> {
    compress_ranks_with(ranks, compressor, threads, 1)
}

/// [`compress_ranks`] with two levels of parallelism: `threads` rank
/// workers, each compressing its ranks with `threads_per_rank`
/// intra-array workers (the [`ckpt_core::CompressorConfig::threads`]
/// knob). Useful when there are more cores than ranks.
///
/// `threads_per_rank == 1` leaves each compressor exactly as
/// configured; `> 1` overrides the intra-array thread count.
pub fn compress_ranks_with(
    ranks: &[Tensor<f64>],
    compressor: &Compressor,
    threads: usize,
    threads_per_rank: usize,
) -> Result<Vec<Compressed>> {
    assert!(threads >= 1, "need at least one worker");
    let compressor = if threads_per_rank > 1 {
        Compressor::new(compressor.config().with_threads(threads_per_rank))?
    } else {
        *compressor
    };
    let compressor = &compressor;
    if ranks.is_empty() {
        return Ok(Vec::new());
    }
    let threads = threads.min(ranks.len());
    let mut slots: Vec<Option<Result<Compressed>>> = Vec::new();
    slots.resize_with(ranks.len(), || None);

    // Static block partition: rank i goes to worker i * threads / n.
    std::thread::scope(|scope| {
        let mut rest = &mut slots[..];
        let mut offset = 0usize;
        for w in 0..threads {
            let begin = w * ranks.len() / threads;
            let end = (w + 1) * ranks.len() / threads;
            let (chunk, tail) = rest.split_at_mut(end - begin);
            rest = tail;
            let ranks = &ranks[offset..offset + chunk.len()];
            offset += chunk.len();
            scope.spawn(move || {
                for (slot, tensor) in chunk.iter_mut().zip(ranks) {
                    *slot = Some(compressor.compress(tensor));
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every slot is filled by its worker"))
        .collect()
}

/// Compresses the ranks on a work-stealing worker set and hands each
/// finished [`Compressed`] to `consume` **in rank order, as soon as it
/// and its predecessors are done** — the caller (typically a store
/// writer) overlaps its I/O for rank *k* with compression of ranks
/// *k+1…n*. A bounded window keeps at most a few finished ranks
/// buffered when the consumer is the slow side.
///
/// The compressed bytes are identical to [`compress_ranks`]; only
/// wall-clock changes. Consumer errors surface as
/// [`StreamError::Sink`] and abandon the remaining ranks.
pub fn compress_ranks_pipelined<E, C>(
    ranks: &[Tensor<f64>],
    compressor: &Compressor,
    threads: usize,
    mut consume: C,
) -> std::result::Result<(), StreamError<E>>
where
    C: FnMut(usize, Compressed) -> std::result::Result<(), E>,
{
    let workers = ckpt_pool::clamp_workers(threads, ranks.len());
    ckpt_pool::ordered_pipeline(
        ranks.len(),
        workers,
        0,
        |i| compressor.compress(&ranks[i]),
        |i, result: Result<Compressed>| match result {
            Ok(c) => consume(i, c).map_err(StreamError::Sink),
            Err(e) => Err(StreamError::Ckpt(e)),
        },
    )
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

    #[test]
    fn nested_parallelism_decodes_to_serial_values() {
        let ranks = rank_fields(4);
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let serial = compress_ranks(&ranks, &comp, 1).unwrap();
        let nested = compress_ranks_with(&ranks, &comp, 2, 4).unwrap();
        assert_eq!(nested.len(), serial.len());
        for (s, n) in serial.iter().zip(&nested) {
            // threads_per_rank > 1 switches to the chunked container, so
            // bytes differ; the decompressed values must not.
            let sv = Compressor::decompress(&s.bytes).unwrap();
            let nv = Compressor::decompress_with(&n.bytes, 4, usize::MAX).unwrap();
            assert_eq!(sv.as_slice(), nv.as_slice());
        }
    }

    #[test]
    fn pipelined_delivers_identical_bytes_in_rank_order() {
        let ranks = rank_fields(6);
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let serial = compress_ranks(&ranks, &comp, 1).unwrap();
        for threads in [1usize, 2, 4] {
            let mut seen = Vec::new();
            compress_ranks_pipelined(&ranks, &comp, threads, |i, c| {
                assert_eq!(i, seen.len(), "ranks must arrive in order");
                seen.push(c.bytes);
                Ok::<(), std::convert::Infallible>(())
            })
            .unwrap();
            assert_eq!(seen.len(), serial.len());
            for (s, p) in serial.iter().zip(&seen) {
                assert_eq!(&s.bytes, p, "threads={threads}");
            }
        }
    }

    #[test]
    fn pipelined_consumer_error_aborts() {
        let ranks = rank_fields(4);
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let mut delivered = 0usize;
        let err = compress_ranks_pipelined(&ranks, &comp, 2, |_, _| {
            delivered += 1;
            if delivered == 2 {
                Err("sink full")
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(matches!(err, StreamError::Sink("sink full")));
        assert_eq!(delivered, 2);
    }

    #[test]
    fn threads_per_rank_one_is_byte_identical() {
        let ranks = rank_fields(3);
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let a = compress_ranks(&ranks, &comp, 2).unwrap();
        let b = compress_ranks_with(&ranks, &comp, 2, 1).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bytes, y.bytes);
        }
    }
}
