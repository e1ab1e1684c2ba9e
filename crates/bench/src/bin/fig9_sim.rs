//! Figure 9, validated by discrete-event simulation.
//!
//! The paper's Figure 9 is a closed-form estimate (constant compression
//! time + linear I/O). This harness replays the same scenario through
//! the fair-share PFS simulator (`ckpt_bench::cluster::pfs`): per-rank
//! compression times measured on this host (with realistic jitter),
//! each rank starting its write when its compression finishes. The
//! simulated barrier time should bracket the analytical line — and
//! shows the one effect the closed form cannot: compression jitter
//! partially hides behind I/O at scale.

use ckpt_bench::cluster::pfs::{simulate_wave, WriteRequest};
use ckpt_bench::cluster::IoModel;
use ckpt_bench::{split_x, temperature_nicam};
use ckpt_core::{Compressor, CompressorConfig};

fn main() {
    // Measure real per-rank compression times and sizes on 8 sub-domains.
    let global = temperature_nicam();
    let sample_ranks = 8usize;
    let chunks = split_x(&global, sample_ranks).unwrap();
    let compressor = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let mut comp_times = Vec::new();
    let mut comp_sizes = Vec::new();
    for c in &chunks {
        let packed = compressor.compress(c).unwrap();
        comp_times.push(packed.timings.total().as_secs_f64());
        comp_sizes.push(packed.bytes.len() as f64);
    }
    let mean_time = comp_times.iter().sum::<f64>() / comp_times.len() as f64;
    let mean_size = comp_sizes.iter().sum::<f64>() / comp_sizes.len() as f64;
    println!(
        "measured per-rank compression: mean {:.2} ms (jitter {:.2}..{:.2} ms), mean size {:.0} B",
        mean_time * 1e3,
        comp_times.iter().cloned().fold(f64::INFINITY, f64::min) * 1e3,
        comp_times.iter().cloned().fold(0.0f64, f64::max) * 1e3,
        mean_size
    );
    println!();

    let io = IoModel::paper();
    // Paper scenario: every rank owns a full 1.5 MB variable; scale the
    // measured per-subdomain numbers up to the full per-process size.
    let scale = io.bytes_per_process / (chunks[0].len() as f64 * 8.0);
    let per_proc_comp: Vec<f64> = comp_times.iter().map(|t| t * scale).collect();
    let per_proc_size = mean_size * scale;

    println!(
        "{:>8}{:>18}{:>18}{:>18}",
        "P", "analytic [ms]", "simulated [ms]", "uncompressed [ms]"
    );
    for p in (1..=8).map(|i| i * 256) {
        // Analytical: constant compression + aggregated I/O.
        let comp_const = per_proc_comp.iter().cloned().fold(0.0f64, f64::max);
        let analytic = comp_const + per_proc_size * p as f64 / io.pfs_bandwidth;
        // Simulated: each rank starts writing when its (sampled)
        // compression finishes.
        let requests: Vec<WriteRequest> = (0..p)
            .map(|i| WriteRequest {
                start: per_proc_comp[i % per_proc_comp.len()],
                bytes: per_proc_size,
            })
            .collect();
        let sim = simulate_wave(&requests, io.pfs_bandwidth);
        let uncompressed = io.io_seconds(p as u64, 1.0);
        println!(
            "{:>8}{:>18.2}{:>18.2}{:>18.2}",
            p,
            analytic * 1e3,
            sim.makespan * 1e3,
            uncompressed * 1e3
        );
    }
    println!();
    println!(
        "simulated <= analytic everywhere: writes overlap the stragglers'\n\
         compression, so the closed form of Figure 9 is (mildly) pessimistic\n\
         about the compressed line — its crossover claim is conservative."
    );
}
