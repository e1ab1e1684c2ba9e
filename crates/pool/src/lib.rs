//! Scoped worker-thread helpers for intra-array parallelism.
//!
//! Every parallel stage in the pipeline follows the same shape: split
//! a known amount of work into `workers` contiguous shards, run each
//! shard on its own thread (scoped — `std::thread::scope` — so borrowed
//! slices work without `'static` bounds), and combine the per-shard
//! results in shard order so the outcome is independent of scheduling.
//!
//! The calling thread always runs shard 0 itself, so `workers == 1`
//! never spawns (the serial path stays allocation- and syscall-free)
//! and `workers == n` spawns `n - 1` threads, not `n` with the caller
//! idle in a join holding its own working set.

#![forbid(unsafe_code)]

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

/// Maps `f` over contiguous shards of `items`, returning one result per
/// shard in shard order. Shard 0 runs on the calling thread; every
/// other shard gets a scoped thread. The shard layout depends only on
/// `items.len()` and `workers`, so combining results in order is
/// deterministic.
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
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .enumerate()
            .skip(1)
            .map(|(w, r)| {
                let shard = &items[r.clone()];
                scope.spawn(move || f(w, shard))
            })
            .collect();
        let mut out = Vec::with_capacity(ranges.len());
        out.push(f(0, &items[ranges[0].clone()]));
        out.extend(handles.into_iter().map(|h| h.join().expect("worker thread panicked")));
        out
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

    #[test]
    fn map_shards_runs_shard_0_on_the_caller_and_keeps_shard_order() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        for workers in 1..=8 {
            let shards = map_shards(&items, workers, |w, shard| {
                (w, shard.to_vec(), std::thread::current().id())
            });
            assert_eq!(shards.len(), workers);
            let ranges = partition_ranges(items.len(), workers);
            for (i, ((w, shard, thread), r)) in shards.iter().zip(&ranges).enumerate() {
                assert_eq!(*w, i, "workers={workers}: result {i} is shard {w}'s");
                assert_eq!(shard[..], items[r.clone()], "workers={workers}, shard {i}");
                assert_eq!(*thread == caller, i == 0, "workers={workers}, shard {i}");
            }
        }
    }
}
