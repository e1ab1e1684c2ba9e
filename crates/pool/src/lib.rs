//! Scoped worker-thread helpers for intra-array parallelism.
//!
//! Every parallel stage runs its work on scoped threads
//! (`std::thread::scope`, so borrowed slices work without `'static`
//! bounds) through one fan-out, [`map_tasks`]: every worker claims the
//! next task index from one counter, and the results come back in index
//! order, so the outcome is independent of scheduling. A task is one
//! natural unit of work — a gzip member, a rank's segment, a chain's
//! link — so tasks of uneven cost keep every worker busy. The worker
//! count says only how many threads claim tasks: it never decides where
//! a task begins or ends, nor any byte of the result.
//!
//! The calling thread is always worker 0 and runs task 0, so
//! `workers == 1` never spawns (the serial path stays allocation- and
//! syscall-free) and `workers == n` spawns `n - 1` threads, not `n` with
//! the caller idle in a join holding its own working set.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Clamps a requested thread count to something sane: zero is treated
/// as "unspecified" and becomes 1, and the count is capped by `work`
/// so no worker starts without a task.
fn effective_workers(requested: usize, work: usize) -> usize {
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

/// The worker count [`map_tasks`] settles on (zero means one, and no
/// more workers than units of `work`), with an additional cap at the
/// host's core count: requesting 8 threads on a 2-core box spawns 2 workers, not 8
/// threads fighting over 2 cores. It sizes spawn counts only: no output
/// byte depends on it, nor on the requested count.
pub fn clamp_workers(requested: usize, work: usize) -> usize {
    effective_workers(requested.max(1).min(host_parallelism()), work)
}

/// Runs `f(i)` for every `i in 0..tasks` on `workers` threads and
/// returns the results in index order. Workers claim indexes in
/// ascending order from one shared counter, so a slow task holds up
/// only the worker running it. The caller is worker 0 and runs task 0,
/// so `workers == 1` spawns nothing; a panic in any task reaches the
/// caller with its original payload once the other workers finish.
pub fn map_tasks<U, F>(tasks: usize, workers: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = effective_workers(workers, tasks);
    // Task 0 is the caller's. The counter hands out unique indexes only
    // (its RMWs are totally ordered); results travel by the joins.
    let next = AtomicUsize::new(1);
    let run = |mut i: usize| {
        let mut done = Vec::new();
        while i < tasks {
            done.push((i, f(i)));
            i = next.fetch_add(1, Ordering::Relaxed);
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|_| scope.spawn(|| run(next.fetch_add(1, Ordering::Relaxed))))
            .collect();
        let mut done = run(0);
        for h in handles {
            match h.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, u)| u).collect()
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
    fn map_tasks_runs_every_index_once_and_returns_them_in_order() {
        for tasks in [0usize, 1, 97] {
            for workers in [1usize, 2, 3, 8] {
                let runs: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
                let out = map_tasks(tasks, workers, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i * 3
                });
                let what = format!("tasks={tasks} workers={workers}");
                assert_eq!(out, (0..tasks).map(|i| i * 3).collect::<Vec<_>>(), "{what}");
                assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{what}");
            }
        }
    }

    /// Task 0 is the caller's: a chain restore's task 0 is the full, so
    /// the full is decoded where it is kept.
    #[test]
    fn map_tasks_runs_task_0_on_the_caller() {
        let caller = std::thread::current().id();
        for (tasks, workers) in [(1usize, 1usize), (1, 4), (2, 2), (3, 3), (64, 8)] {
            let threads = map_tasks(tasks, workers, |_| std::thread::current().id());
            assert_eq!(threads[0], caller, "tasks={tasks} workers={workers}");
        }
    }

    #[test]
    fn map_tasks_with_more_workers_than_tasks() {
        assert_eq!(map_tasks(3, 16, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn map_tasks_propagates_a_task_panic() {
        let caught = std::panic::catch_unwind(|| {
            map_tasks(50, 3, |i| {
                if i == 20 {
                    panic!("task 20");
                }
                i
            })
        });
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 20"));
    }
}
