//! Scoped worker-thread helpers for intra-array parallelism.
//!
//! Every parallel stage in the pipeline follows the same shape: split
//! a known amount of work into `workers` contiguous shards, run one
//! scoped thread per shard (`std::thread::scope`, so borrowed slices
//! work without `'static` bounds), and combine the per-shard results
//! in shard order so the outcome is independent of scheduling.
//!
//! `workers == 1` never spawns: the closure runs inline on the calling
//! thread, which keeps the serial path allocation- and syscall-free.

use std::ops::Range;
use std::sync::OnceLock;

pub mod pipeline;
mod steal;

pub use pipeline::ordered_pipeline;

/// Clamps a requested thread count to something sane: zero is treated
/// as "unspecified" and becomes 1, and the count is capped by `work`
/// so no worker starts with an empty shard.
pub fn effective_workers(requested: usize, work: usize) -> usize {
    requested.max(1).min(work.max(1))
}

/// The host's available hardware parallelism, queried once and cached.
/// Falls back to 1 when the platform cannot answer.
pub fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// [`effective_workers`] with an additional cap at the host's core
/// count: requesting 8 threads on a 2-core box spawns 2 workers, not 8
/// threads fighting over 2 cores. Use this to size *spawn counts* only
/// — anything that shapes output bytes (container format, chunk
/// layout) must key on the requested count so results stay
/// host-independent.
pub fn clamp_workers(requested: usize, work: usize) -> usize {
    effective_workers(requested.max(1).min(host_parallelism()), work)
}

/// Splits `0..n` into `workers` contiguous near-even ranges, in order.
/// The first `n % workers` ranges are one element longer. Returns
/// fewer than `workers` ranges only when `n < workers`; `n == 0`
/// yields a single empty range so callers always get at least one
/// shard to hand to a worker.
pub fn partition_ranges(n: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = effective_workers(workers, n);
    if n == 0 {
        // One empty range, deliberately: vec![0..0] is the shard list,
        // not a shorthand for the range's elements.
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..0];
    }
    let base = n / workers;
    let extra = n % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Maps `f` over contiguous shards of `items` on scoped threads,
/// returning one result per shard in shard order. The shard layout
/// depends only on `items.len()` and `workers`, so combining results
/// in order is deterministic.
pub fn map_shards<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> U + Sync,
{
    let ranges = partition_ranges(items.len(), workers);
    if ranges.len() == 1 {
        return vec![f(0, items)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .enumerate()
            .map(|(w, r)| {
                let shard = &items[r.clone()];
                scope.spawn({ let f = &f; move || f(w, shard) })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_workers_clamps_both_ends() {
        assert_eq!(effective_workers(0, 10), 1);
        assert_eq!(effective_workers(4, 10), 4);
        assert_eq!(effective_workers(16, 3), 3);
        assert_eq!(effective_workers(8, 0), 1);
    }

    #[test]
    fn clamp_workers_respects_host_cores() {
        let cores = host_parallelism();
        assert!(cores >= 1);
        assert!(clamp_workers(1024, 1024) <= cores);
        assert_eq!(clamp_workers(0, 10), 1);
        assert_eq!(clamp_workers(1, 10), 1);
        // Work cap still applies after the host cap.
        assert_eq!(clamp_workers(1024, 1), 1);
    }

    #[test]
    fn partitions_cover_everything_in_order() {
        for n in [0usize, 1, 2, 5, 7, 64, 1000] {
            for workers in [1usize, 2, 3, 4, 8, 13] {
                let ranges = partition_ranges(n, workers);
                let mut covered = 0;
                for r in &ranges {
                    assert_eq!(r.start, covered, "gap at n={n} workers={workers}");
                    covered = r.end;
                }
                assert_eq!(covered, n);
                if n > 0 {
                    assert!(ranges.iter().all(|r| !r.is_empty()));
                    let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(max - min <= 1, "uneven split {lens:?}");
                }
            }
        }
    }

    #[test]
    fn map_shards_matches_serial_map() {
        let items: Vec<u64> = (0..997).collect();
        let serial: u64 = items.iter().sum();
        for workers in [1usize, 2, 3, 8] {
            let partials = map_shards(&items, workers, |_, shard| {
                shard.iter().sum::<u64>()
            });
            assert_eq!(partials.iter().sum::<u64>(), serial);
        }
    }
}
