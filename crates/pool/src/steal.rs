//! Work-stealing task queue for coarse-grained chunk work.
//!
//! The static shard fan-out in the crate root hands every worker one
//! contiguous range up front, which load-balances badly when task
//! costs vary (gzip members over mixed-entropy regions). [`StealQueue`]
//! keeps one deque per worker instead: a worker pops from the *front*
//! of its own deque and, when that runs dry, steals from the *back* of
//! the fullest victim. Tasks are plain `usize` indexes, so the queue
//! stays allocation-light and the caller keeps full control of what a
//! task means.
//!
//! Tasks here are coarse (a 1 MiB gzip member costs milliseconds), so
//! the deques are plain `Mutex<VecDeque>`s — the lock is taken once
//! per task, which is noise next to the task body. No atomics-heavy
//! Chase–Lev machinery is warranted at this grain.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Per-worker deques of pending task indexes with stealing.
pub(crate) struct StealQueue {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueue {
    /// Seeds `tasks` indexes (`0..tasks`) round-robin across `workers`
    /// deques (worker `w` gets `w`, `w + workers`, …), so the globally
    /// smallest pending task is always at the front of some deque —
    /// the ordered pipeline wants tasks finished roughly in index
    /// order.
    pub(crate) fn new(tasks: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        let mut deques: Vec<VecDeque<usize>> =
            (0..workers).map(|_| VecDeque::new()).collect();
        for t in 0..tasks {
            deques[t % workers].push_back(t);
        }
        StealQueue { deques: deques.into_iter().map(Mutex::new).collect() }
    }

    /// Pops the next task for `worker`: its own front first, then a
    /// steal from the back of the fullest other deque. `None` means
    /// every deque is empty — with all tasks seeded up front, that is
    /// a permanent condition, so workers can exit on it.
    pub(crate) fn pop(&self, worker: usize) -> Option<usize> {
        if let Some(t) = self.deques[worker].lock().expect("deque lock").pop_front() {
            return Some(t);
        }
        // Steal: scan for the victim with the most pending work and
        // take from its back (the tasks its owner would reach last).
        loop {
            let mut victim: Option<(usize, usize)> = None;
            for (v, deque) in self.deques.iter().enumerate() {
                if v == worker {
                    continue;
                }
                let len = deque.lock().expect("deque lock").len();
                if len > 0 && victim.is_none_or(|(_, best)| len > best) {
                    victim = Some((v, len));
                }
            }
            let (v, _) = victim?;
            // The victim may have drained between the scan and the
            // steal; re-scan rather than give up.
            if let Some(t) = self.deques[v].lock().expect("deque lock").pop_back() {
                return Some(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_task_runs_exactly_once() {
        for (tasks, workers) in [(0usize, 3usize), (1, 1), (7, 3), (100, 4), (5, 16)] {
            let queue = StealQueue::new(tasks, workers);
            let mut seen = vec![false; tasks];
            for w in (0..workers.max(1)).cycle() {
                match queue.pop(w) {
                    Some(t) => {
                        assert!(!seen[t], "task {t} popped twice");
                        seen[t] = true;
                    }
                    None => break,
                }
            }
            assert!(seen.iter().all(|&s| s), "{tasks} tasks {workers} workers");
        }
    }

    #[test]
    fn stealing_drains_an_idle_victim() {
        // Worker 1 never pops; the other workers must steal its seeds.
        let queue = StealQueue::new(64, 4);
        let mut count = 0;
        while queue.pop(0).is_some() {
            count += 1;
        }
        assert_eq!(count, 64);
    }
}
