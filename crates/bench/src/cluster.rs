//! The Section IV-D checkpoint-time model, and ([`pfs`]) a
//! discrete-event simulation of the shared filesystem that checks it.
//!
//! The paper's Figure 9 is itself an estimate: measured single-node
//! compression times combined with an assumed 20 GB/s filesystem.
//! `fig9` and `fig9_sim` repeat that estimation procedure with the
//! stage times measured on this host.
//!
//! Assumptions, straight from the paper:
//!
//! * weak scaling: every process owns a constant-size checkpoint
//!   (1.5 MB in the paper — one NICAM array);
//! * all processes write to one shared parallel filesystem with a fixed
//!   aggregate bandwidth (20 GB/s in the paper), so I/O time grows
//!   linearly in the process count `P`:
//!   `io = bytes_per_process × P / bandwidth` (× the compression rate
//!   when compressing);
//! * compression runs in parallel on every process, so its wall time is
//!   constant in `P`.
//!
//! Consequences the paper reports and [`ScalingTable`] exposes: the
//! compressed line has a flatter slope; beyond a crossover `P` the
//! compressed total wins; asymptotically the saving approaches
//! `1 − cr` (81% at cr = 19%).

use std::time::Duration;

pub mod pfs;

/// Parallel filesystem and per-process checkpoint parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoModel {
    /// Aggregate filesystem bandwidth in bytes/second (paper: 20 GB/s).
    pub pfs_bandwidth: f64,
    /// Uncompressed checkpoint bytes per process (paper: 1.5 MB).
    pub bytes_per_process: f64,
}

impl IoModel {
    /// The paper's Figure 9 parameters.
    pub fn paper() -> Self {
        IoModel { pfs_bandwidth: 20.0e9, bytes_per_process: 1.5e6 }
    }

    /// I/O seconds to drain `P` processes' checkpoints scaled by a size
    /// factor (1.0 = uncompressed, `cr` = compressed).
    pub fn io_seconds(&self, processes: u64, size_factor: f64) -> f64 {
        debug_assert!(size_factor >= 0.0);
        self.bytes_per_process * size_factor * processes as f64 / self.pfs_bandwidth
    }
}

/// A measured compression profile: the constant-in-P part of the cost.
#[derive(Debug, Clone, Copy)]
pub struct CompressionProfile {
    /// Compression rate as a fraction (paper text uses 0.19; its formula
    /// plugs in 0.12).
    pub rate: f64,
    /// Measured per-process compression time, every stage included.
    pub compression: Duration,
}

/// One row of the Figure 9 data: costs at a given parallelism.
#[derive(Debug, Clone, Copy)]
pub struct CostEstimate {
    /// Process count.
    pub processes: u64,
    /// Checkpoint time without compression (pure I/O), seconds.
    pub uncompressed: f64,
    /// I/O component with compression, seconds.
    pub compressed_io: f64,
    /// Constant compression component, seconds.
    pub compression: f64,
}

impl CostEstimate {
    /// Total with compression.
    pub fn compressed_total(&self) -> f64 {
        self.compressed_io + self.compression
    }

    /// Relative saving vs the uncompressed baseline (1.0 = free).
    pub fn saving(&self) -> f64 {
        1.0 - self.compressed_total() / self.uncompressed
    }
}

/// The full scaling sweep of Figure 9.
#[derive(Debug, Clone)]
pub struct ScalingTable {
    io: IoModel,
    profile: CompressionProfile,
}

impl ScalingTable {
    /// Builds the model from filesystem parameters and a measured
    /// compression profile.
    pub fn new(io: IoModel, profile: CompressionProfile) -> Self {
        assert!(profile.rate > 0.0 && profile.rate <= 1.0, "rate must be a fraction");
        ScalingTable { io, profile }
    }

    /// Cost estimate at one parallelism.
    pub fn estimate(&self, processes: u64) -> CostEstimate {
        CostEstimate {
            processes,
            uncompressed: self.io.io_seconds(processes, 1.0),
            compressed_io: self.io.io_seconds(processes, self.profile.rate),
            compression: self.profile.compression.as_secs_f64(),
        }
    }

    /// Sweeps a range of parallelisms (the paper plots 256..=2048 step
    /// 256).
    pub fn sweep(&self, parallelisms: impl IntoIterator<Item = u64>) -> Vec<CostEstimate> {
        parallelisms.into_iter().map(|p| self.estimate(p)).collect()
    }

    /// The smallest process count at which compression wins
    /// (Equation 1: `C + T_comp < T_orig`), or `None` if it never does
    /// within `limit`.
    pub fn crossover(&self, limit: u64) -> Option<u64> {
        // Solve C + cr·k·P < k·P  =>  P > C / (k·(1−cr)) with
        // k = bytes_per_process / bandwidth, then verify: where the
        // bound is a whole number the cost ties there, and a tie is
        // not a win.
        let k = self.io.bytes_per_process / self.io.pfs_bandwidth;
        let c = self.profile.compression.as_secs_f64();
        if self.profile.rate >= 1.0 {
            return None;
        }
        let p = (c / (k * (1.0 - self.profile.rate))).ceil().max(1.0) as u64;
        (p..=limit).find(|&p| {
            let row = self.estimate(p);
            row.compressed_total() < row.uncompressed
        })
    }

    /// The asymptotic saving `1 − cr` the paper quotes as "about 81%".
    pub fn asymptotic_saving(&self) -> f64 {
        1.0 - self.profile.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(ms: u64, rate: f64) -> CompressionProfile {
        CompressionProfile { rate, compression: Duration::from_millis(ms) }
    }

    #[test]
    fn io_time_scales_linearly() {
        let io = IoModel::paper();
        let t1 = io.io_seconds(256, 1.0);
        let t2 = io.io_seconds(512, 1.0);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
        // 2048 procs x 1.5 MB / 20 GB/s = 153.6 ms, matching the ~160 ms
        // top of the paper's uncompressed line.
        let t = io.io_seconds(2048, 1.0);
        assert!((t - 0.1536).abs() < 1e-9, "{t}");
    }

    #[test]
    fn compression_constant_in_p() {
        let table = ScalingTable::new(IoModel::paper(), profile(20, 0.19));
        let a = table.estimate(256);
        let b = table.estimate(2048);
        assert_eq!(a.compression, b.compression);
        assert!(b.compressed_io > a.compressed_io);
    }

    #[test]
    fn crossover_matches_paper_ballpark() {
        // Paper: ~20 ms compression, rate 0.19-ish, crossover around
        // P ≈ 768. With C = 45 ms and the paper's formula factor 0.12:
        // P = 0.045 / (7.5e-5 * 0.88) = 682.
        let table = ScalingTable::new(IoModel::paper(), profile(45, 0.12));
        let p = table.crossover(10_000).unwrap();
        assert!((500..1100).contains(&p), "crossover {p}");
        // Verified against the estimates themselves.
        let before = table.estimate(p - 1);
        let after = table.estimate(p + 1);
        assert!(before.compressed_total() >= before.uncompressed * 0.99);
        assert!(after.compressed_total() < after.uncompressed * 1.01);
    }

    #[test]
    fn savings_approach_asymptote() {
        let table = ScalingTable::new(IoModel::paper(), profile(20, 0.19));
        assert!((table.asymptotic_saving() - 0.81).abs() < 1e-12);
        let at_2048 = table.estimate(2048).saving();
        let at_1m = table.estimate(1_000_000).saving();
        assert!(at_1m > at_2048);
        assert!(at_1m < table.asymptotic_saving());
        assert!((table.asymptotic_saving() - at_1m) < 0.01);
    }

    #[test]
    fn paper_55_percent_at_2048() {
        // "With 2048 processes, our estimation indicates that we can
        // reduce checkpoint costs by 55%." Reproduced with compression
        // cost ~40 ms and rate 0.12: saving = 1 - (0.12*153.6ms + 40ms)/153.6ms.
        let table = ScalingTable::new(IoModel::paper(), profile(40, 0.12));
        let s = table.estimate(2048).saving();
        assert!((0.45..0.70).contains(&s), "saving {s}");
    }

    #[test]
    fn sweep_covers_requested_points() {
        let table = ScalingTable::new(IoModel::paper(), profile(20, 0.19));
        let rows = table.sweep((1..=8).map(|i| i * 256));
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].processes, 256);
        assert_eq!(rows[7].processes, 2048);
        // Uncompressed line is strictly increasing.
        for w in rows.windows(2) {
            assert!(w[1].uncompressed > w[0].uncompressed);
        }
    }

    /// Where `C / (k·(1−cr))` is a whole number the two costs tie at
    /// that `P`: compression does not win there, one process later it
    /// does.
    #[test]
    fn crossover_steps_past_an_exact_tie() {
        for (micros, rate, tie) in [(37_500, 0.5, 1000), (30_000, 0.6, 1000), (75_000, 0.5, 2000)] {
            let measured = CompressionProfile { rate, compression: Duration::from_micros(micros) };
            let table = ScalingTable::new(IoModel::paper(), measured);
            assert_eq!(table.estimate(tie).saving(), 0.0, "{micros} us, rate {rate}");
            assert_eq!(table.crossover(1 << 20), Some(tie + 1), "{micros} us, rate {rate}");
            assert_eq!(table.crossover(tie), None, "{micros} us, rate {rate}");
        }
    }

    #[test]
    fn no_crossover_when_rate_is_one() {
        let table = ScalingTable::new(IoModel::paper(), profile(20, 1.0));
        assert_eq!(table.crossover(1 << 40), None);
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        let _ = ScalingTable::new(IoModel::paper(), profile(20, 0.0));
    }
}
