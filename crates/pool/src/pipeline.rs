//! Ordered producer/consumer pipeline: overlap task production (CPU
//! work on stealing workers) with in-order consumption (typically I/O
//! on the calling thread).
//!
//! [`ordered_pipeline`] runs `produce(i)` for `i in 0..tasks` on a
//! work-stealing worker set while the *calling thread* receives each
//! result **in task order** and hands it to `consume`. A bounded
//! reorder window provides backpressure: no worker starts task `i`
//! until fewer than `window` tasks separate it from the next index the
//! consumer is waiting on, so memory stays bounded even when the
//! consumer (a throttled disk, a slow socket) is the slow side.
//!
//! This is the primitive behind the pipelined checkpoint save: gzip
//! members are produced by the workers and appended to the store
//! segment by the caller while later chunks still compress, turning
//! `compress + write` wall-clock into roughly `max(compress, write)`.
//!
//! Unlike the shard helpers in the crate root, a single worker is
//! still spawned as a real thread: overlap with the consumer is the
//! whole point, and it pays even on one core whenever `consume` blocks
//! on I/O rather than burning CPU.

use crate::steal::StealQueue;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};

/// Reorder state shared between the producers and the consumer.
struct Reorder<T> {
    /// Finished results not yet consumed, keyed by task index.
    done: BTreeMap<usize, T>,
    /// The task index the consumer will take next.
    next: usize,
    /// Set by the consumer on error: producers drain and exit.
    aborted: bool,
}

/// Runs `produce` over `0..tasks` on `workers` stealing threads while
/// the calling thread applies `consume` to every result in task order.
/// Returns the first `consume` error; remaining production is
/// abandoned (already-running tasks finish, their results are
/// dropped).
///
/// A panic inside `produce` aborts the pipeline and propagates.
pub fn ordered_pipeline<T, E, P, C>(
    tasks: usize,
    workers: usize,
    produce: P,
    mut consume: C,
) -> Result<(), E>
where
    T: Send,
    P: Fn(usize) -> T + Sync,
    C: FnMut(usize, T) -> Result<(), E>,
{
    if tasks == 0 {
        return Ok(());
    }
    let workers = crate::effective_workers(workers, tasks);
    let window = reorder_window(workers);
    let queue = StealQueue::new(tasks, workers);
    let shared: Mutex<Reorder<T>> =
        Mutex::new(Reorder { done: BTreeMap::new(), next: 0, aborted: false });
    let ready = Condvar::new();
    let space = Condvar::new();

    let mut out: Result<(), E> = Ok(());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let queue = &queue;
            let shared = &shared;
            let (ready, space) = (&ready, &space);
            let produce = &produce;
            scope.spawn(move || {
                // On panic inside `produce`, wake everyone so neither
                // side waits forever on a result that will never come;
                // the scope then propagates the panic to the caller.
                let guard = WakeOnUnwind { shared, ready, space };
                while let Some(i) = queue.pop(w) {
                    {
                        let mut g = shared.lock().expect("pipeline lock");
                        while !g.aborted && i >= g.next.saturating_add(window) {
                            g = space.wait(g).expect("pipeline lock");
                        }
                        if g.aborted {
                            break;
                        }
                    }
                    let value = produce(i);
                    let mut g = shared.lock().expect("pipeline lock");
                    let is_next = i == g.next;
                    g.done.insert(i, value);
                    drop(g);
                    if is_next {
                        ready.notify_all();
                    }
                }
                std::mem::forget(guard);
            });
        }

        // The consumer runs on the calling thread so `consume` can
        // borrow mutably from the caller (a file writer, a Vec).
        for _ in 0..tasks {
            let (i, value) = {
                let mut g = shared.lock().expect("pipeline lock");
                loop {
                    if g.aborted {
                        // A producer panicked; the scope will re-raise.
                        return;
                    }
                    let next = g.next;
                    if let Some(v) = g.done.remove(&next) {
                        g.next = next + 1;
                        drop(g);
                        space.notify_all();
                        break (next, v);
                    }
                    g = ready.wait(g).expect("pipeline lock");
                }
            };
            if let Err(e) = consume(i, value) {
                out = Err(e);
                let mut g = shared.lock().expect("pipeline lock");
                g.aborted = true;
                g.done.clear();
                drop(g);
                space.notify_all();
                ready.notify_all();
                return;
            }
        }
    });
    out
}

/// Finished-but-unconsumed tasks the producers may run ahead by: every
/// worker can have one task in flight and one parked, plus slack for
/// the consumer's hand-off.
fn reorder_window(workers: usize) -> usize {
    2 * workers + 2
}

/// Sets `aborted` and wakes both sides if the owning producer unwinds.
struct WakeOnUnwind<'a, T> {
    shared: &'a Mutex<Reorder<T>>,
    ready: &'a Condvar,
    space: &'a Condvar,
}

impl<T> Drop for WakeOnUnwind<'_, T> {
    fn drop(&mut self) {
        if let Ok(mut g) = self.shared.lock() {
            g.aborted = true;
        }
        self.ready.notify_all();
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn consumes_every_task_in_order() {
        for workers in [1usize, 2, 4] {
            let mut seen = Vec::new();
            let r: Result<(), Infallible> = ordered_pipeline(
                97,
                workers,
                |i| i * 2,
                |i, v| {
                    assert_eq!(v, i * 2);
                    seen.push(i);
                    Ok(())
                },
            );
            r.unwrap();
            assert_eq!(seen, (0..97).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let r: Result<(), Infallible> =
            ordered_pipeline(0, 4, |_| unreachable!(), |_, ()| Ok(()));
        r.unwrap();
    }

    #[test]
    fn consumer_error_stops_production_early() {
        let produced = AtomicUsize::new(0);
        let r: Result<(), &'static str> = ordered_pipeline(
            if cfg!(miri) { 500 } else { 10_000 },
            4,
            |i| {
                produced.fetch_add(1, Ordering::Relaxed);
                i
            },
            |i, _| if i == 5 { Err("sink full") } else { Ok(()) },
        );
        assert_eq!(r, Err("sink full"));
        // The window bounds how far production ran past the failure.
        assert!(
            produced.load(Ordering::Relaxed) < 100,
            "produced {} tasks after an early abort",
            produced.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn window_bounds_outstanding_results() {
        // With a slow consumer, producers must never run more than
        // `window + workers` tasks ahead of consumption.
        let workers = 4usize;
        let window = reorder_window(workers);
        let produced = AtomicUsize::new(0);
        let r: Result<(), Infallible> = ordered_pipeline(
            if cfg!(miri) { 60 } else { 200 },
            workers,
            |i| {
                produced.fetch_add(1, Ordering::Relaxed);
                i
            },
            |i, _| {
                // Miri's isolated clock makes sleeping an error; the
                // window assertion below still holds without the
                // artificially slow consumer.
                if i < 8 && !cfg!(miri) {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                let ahead = produced.load(Ordering::Relaxed).saturating_sub(i);
                assert!(
                    ahead <= window + workers + 1,
                    "production ran {ahead} tasks ahead at i={i}"
                );
                Ok(())
            },
        );
        r.unwrap();
    }

    #[test]
    fn producer_panic_propagates() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), Infallible> = ordered_pipeline(
                50,
                3,
                |i| {
                    if i == 20 {
                        panic!("boom");
                    }
                    i
                },
                |_, _| Ok(()),
            );
        }));
        assert!(caught.is_err(), "panic must reach the caller");
    }
}
