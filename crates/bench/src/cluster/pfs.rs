//! Discrete-event simulation of the shared parallel filesystem.
//!
//! The Figure 9 model assumes perfectly aggregated bandwidth: `P`
//! writers drain `P × size` bytes at a fixed rate. Real checkpoint
//! traffic is messier — ranks finish compressing at different times and
//! share the link while active. This module simulates that with a
//! fair-share (processor-sharing) bandwidth model: at any instant every
//! active writer receives `B / active` bytes/second; events fire when a
//! writer starts or finishes, re-dividing the bandwidth.
//!
//! Purpose (DESIGN.md §5): validate the closed-form model — for equal
//! sizes and simultaneous starts the simulation must land exactly on
//! `total / B` — and quantify what compression-time jitter does to the
//! checkpoint barrier (the part the analytical model cannot see).

/// One rank's checkpoint write request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteRequest {
    /// Time the rank finishes compressing and starts writing (seconds).
    pub start: f64,
    /// Bytes to write.
    pub bytes: f64,
}

/// Result of simulating one checkpoint wave.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveResult {
    /// Per-rank completion times, in request order.
    pub finish: Vec<f64>,
    /// When the whole checkpoint completed (the barrier time).
    pub makespan: f64,
    /// Aggregate bytes written.
    pub total_bytes: f64,
}

/// Simulates a set of write requests sharing `bandwidth` bytes/second
/// fairly. Pure processor sharing: no per-stream cap, no seek costs —
/// the same idealization the paper's model makes, minus the
/// simultaneous-start assumption.
pub fn simulate_wave(requests: &[WriteRequest], bandwidth: f64) -> WaveResult {
    assert!(bandwidth > 0.0, "bandwidth must be positive");
    let n = requests.len();
    let mut remaining: Vec<f64> = requests.iter().map(|r| r.bytes.max(0.0)).collect();
    let mut finish = vec![0.0f64; n];
    let mut done = vec![false; n];

    // Event times: all starts, processed in order; between events the
    // active set is constant so progress is linear.
    let mut now = requests.iter().map(|r| r.start).fold(f64::INFINITY, f64::min);
    if !now.is_finite() {
        return WaveResult { finish, makespan: 0.0, total_bytes: 0.0 };
    }
    now = now.max(0.0);

    loop {
        let active: Vec<usize> = (0..n)
            .filter(|&i| !done[i] && requests[i].start <= now + 1e-15 && remaining[i] > 0.0)
            .collect();
        // Zero-byte writers complete instantly at their start time.
        for i in 0..n {
            if !done[i] && remaining[i] <= 0.0 && requests[i].start <= now + 1e-15 {
                finish[i] = requests[i].start.max(now);
                done[i] = true;
            }
        }
        let next_start = (0..n)
            .filter(|&i| !done[i] && requests[i].start > now + 1e-15)
            .map(|i| requests[i].start)
            .fold(f64::INFINITY, f64::min);
        if active.is_empty() {
            if next_start.is_finite() {
                now = next_start;
                continue;
            }
            break;
        }
        // Time until the first active writer drains at the shared rate.
        let rate = bandwidth / active.len() as f64;
        let drain = active
            .iter()
            .map(|&i| remaining[i] / rate)
            .fold(f64::INFINITY, f64::min);
        let step = drain.min(next_start - now);
        for &i in &active {
            remaining[i] -= rate * step;
        }
        now += step;
        for &i in &active {
            if remaining[i] <= 1e-9 {
                remaining[i] = 0.0;
                finish[i] = now;
                done[i] = true;
            }
        }
    }

    let makespan = finish.iter().cloned().fold(0.0f64, f64::max);
    let total_bytes = requests.iter().map(|r| r.bytes).sum();
    WaveResult { finish, makespan, total_bytes }
}

/// Convenience: a uniform checkpoint wave — `ranks` writers of equal
/// size, with per-rank start times (compression-completion jitter).
pub fn uniform_wave(ranks: usize, bytes_per_rank: f64, starts: &[f64]) -> Vec<WriteRequest> {
    assert_eq!(starts.len(), ranks);
    starts.iter().map(|&s| WriteRequest { start: s, bytes: bytes_per_rank }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::IoModel;

    #[test]
    fn simultaneous_equal_writers_match_closed_form() {
        // The validation DESIGN.md promises: the event simulation must
        // reproduce the analytical model exactly in its regime.
        let io = IoModel::paper();
        for p in [1usize, 256, 2048] {
            let reqs = uniform_wave(p, io.bytes_per_process, &vec![0.0; p]);
            let result = simulate_wave(&reqs, io.pfs_bandwidth);
            let expected = io.io_seconds(p as u64, 1.0);
            assert!(
                (result.makespan - expected).abs() < 1e-9,
                "P={p}: sim {} vs model {}",
                result.makespan,
                expected
            );
            // Fair sharing with equal sizes: everyone finishes together.
            for &f in &result.finish {
                assert!((f - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn single_writer_gets_full_bandwidth() {
        let reqs = [WriteRequest { start: 2.0, bytes: 100.0 }];
        let r = simulate_wave(&reqs, 50.0);
        assert!((r.finish[0] - 4.0).abs() < 1e-12); // starts at 2, writes 2s
        assert_eq!(r.makespan, r.finish[0]);
    }

    #[test]
    fn unequal_sizes_fair_share() {
        // Two writers, 10 and 30 bytes, B = 10 B/s. Shared: each gets 5.
        // Writer 1 drains at t=2; writer 2 then gets full rate:
        // remaining 20 at 10 B/s -> finishes at t=4.
        let reqs =
            [WriteRequest { start: 0.0, bytes: 10.0 }, WriteRequest { start: 0.0, bytes: 30.0 }];
        let r = simulate_wave(&reqs, 10.0);
        assert!((r.finish[0] - 2.0).abs() < 1e-9, "{:?}", r.finish);
        assert!((r.finish[1] - 4.0).abs() < 1e-9, "{:?}", r.finish);
    }

    #[test]
    fn staggered_starts_overlap_correctly() {
        // Writer A: start 0, 10 bytes; writer B: start 1, 10 bytes; B=10.
        // t in [0,1): A alone at 10 B/s -> drains to 0 at t=1? A has 10
        // bytes, rate 10 => would finish exactly at t=1 as B starts.
        let reqs =
            [WriteRequest { start: 0.0, bytes: 10.0 }, WriteRequest { start: 1.0, bytes: 10.0 }];
        let r = simulate_wave(&reqs, 10.0);
        assert!((r.finish[0] - 1.0).abs() < 1e-9, "{:?}", r.finish);
        assert!((r.finish[1] - 2.0).abs() < 1e-9, "{:?}", r.finish);
    }

    #[test]
    fn work_conservation() {
        // Total bytes / bandwidth lower-bounds the makespan; with all
        // starts at 0 it equals it.
        let sizes = [5.0, 17.0, 3.0, 41.0, 11.0];
        let reqs: Vec<WriteRequest> =
            sizes.iter().map(|&b| WriteRequest { start: 0.0, bytes: b }).collect();
        let r = simulate_wave(&reqs, 7.0);
        let lower = sizes.iter().sum::<f64>() / 7.0;
        assert!((r.makespan - lower).abs() < 1e-9, "work conservation violated");
    }

    #[test]
    fn compression_jitter_extends_the_barrier() {
        // Same bytes, but ranks start writing as their compression
        // finishes: the barrier moves by at most the jitter (with
        // slack reclaimed by sharing).
        let io = IoModel::paper();
        let p = 64usize;
        let aligned = uniform_wave(p, io.bytes_per_process, &vec![0.050; p]);
        let t_aligned = simulate_wave(&aligned, io.pfs_bandwidth).makespan;
        let jittered: Vec<f64> = (0..p).map(|i| 0.050 + 0.010 * (i as f64 / p as f64)).collect();
        let t_jitter =
            simulate_wave(&uniform_wave(p, io.bytes_per_process, &jittered), io.pfs_bandwidth)
                .makespan;
        assert!(t_jitter >= t_aligned - 1e-12);
        assert!(t_jitter <= t_aligned + 0.010 + 1e-9, "jitter bound violated");
    }

    #[test]
    fn zero_byte_and_empty_requests() {
        let r = simulate_wave(&[], 10.0);
        assert_eq!(r.makespan, 0.0);
        let r = simulate_wave(&[WriteRequest { start: 3.0, bytes: 0.0 }], 10.0);
        assert_eq!(r.finish[0], 3.0);
    }
}
