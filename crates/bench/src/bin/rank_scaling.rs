//! Validation of the paper's embarrassing-parallelism premise: the
//! Figure 9 model assumes per-process compression time is independent
//! of how many processes compress at once. This harness decomposes the
//! global mesh into per-rank sub-domains (as a real MPI run would own
//! them), compresses all ranks concurrently with varying worker
//! counts, and reports per-rank wall time. Every worker count must
//! write each rank's bytes as one worker does.

use ckpt_bench::{ms, split_x};
use ckpt_core::{Compressor, CompressorConfig};
use ckpt_sim::{ClimateSim, SimConfig};
use std::time::Instant;

fn main() {
    // Produce a real simulation state and decompose it.
    let mut sim = ClimateSim::new(SimConfig::nicam_like(3));
    sim.run(20);
    let global = sim.variable("temperature").unwrap().clone();
    let ranks = 8;
    let chunks = split_x(&global, ranks).unwrap();
    let bytes_per_rank = chunks[0].len() * 8;

    let compressor = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    println!(
        "=== Per-rank compression under contention ({} ranks x {} KB) ===",
        ranks,
        bytes_per_rank / 1024
    );
    println!();
    println!("{:>10}{:>16}{:>20}", "workers", "wall [ms]", "per-rank [ms]");

    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // One rank per task, claimed by the next free worker; results come
    // back in rank order.
    let compress_all = |workers: usize| -> Vec<Vec<u8>> {
        ckpt_pool::map_tasks(ranks, workers, |i| compressor.compress(&chunks[i]).unwrap().bytes)
    };
    let serial = compress_all(1);
    for workers in [1usize, 2, 4, 8] {
        // Median of 3 runs.
        let mut samples = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            let out = compress_all(workers);
            samples.push(t0.elapsed());
            assert!(out == serial, "{workers} workers changed a rank's bytes");
        }
        samples.sort();
        let wall = samples[1];
        println!(
            "{:>10}{:>16}{:>20}",
            workers,
            ms(wall),
            ms(wall / ranks as u32)
        );
    }
    println!();
    println!(
        "hardware threads: {hw}. With enough cores, wall time divides by the\n\
         worker count while per-rank cost stays flat — the property that makes\n\
         compression time constant in P in Figure 9's model."
    );
}
