//! Figure 9 reproduction: estimated overall checkpoint time vs
//! parallelism, with the measured compression-stage breakdown.
//!
//! Procedure, exactly as Section IV-D: measure the per-process
//! compression cost (1.5 MB array, gzipped via a temporary file as the
//! paper's implementation did) on this host, take the
//! measured compression rate, then combine with the analytical I/O
//! model (20 GB/s shared PFS, weak scaling). Compression time is
//! constant in P; I/O grows linearly; the compressed line is flatter
//! and crosses below the uncompressed line (paper: around P ≈ 768).

use ckpt_bench::cluster::{CompressionProfile, IoModel, ScalingTable};
use ckpt_bench::{compress_via_temp_file, median_stage_timings, ms, temperature_nicam};
use ckpt_core::{Compressor, CompressorConfig, Container};

fn main() {
    let t = temperature_nicam();

    // Measure the per-process compression profile: each stage's median
    // over 5 warm runs. The rate is the same on every run.
    let mut rate = 0.0f64;
    let timings = median_stage_timings(5, || {
        let (timings, percent) = compress_via_temp_file(&t, CompressorConfig::paper_proposed());
        rate = percent / 100.0;
        timings
    });

    println!("=== Figure 9: overall checkpoint time vs parallelism ===");
    println!();
    println!("measured per-process compression profile (1.5 MB array, per-stage median of 5):");
    for (label, d) in timings.breakdown() {
        println!("  {:<30} {:>9} ms", label, ms(d));
    }
    println!("  {:<30} {:>9} ms", "total compression", ms(timings.total()));
    println!("  compression rate               {:>8.2} %", rate * 100.0);
    println!();

    let profile = CompressionProfile { rate, compression: timings.total() };
    let table = ScalingTable::new(IoModel::paper(), profile);
    println!(
        "{:>8}{:>16}{:>16}{:>16}{:>12}",
        "P", "w/o comp [ms]", "comp I/O [ms]", "w/ comp [ms]", "saving"
    );
    for row in table.sweep((1..=8).map(|i| i * 256)) {
        println!(
            "{:>8}{:>16.2}{:>16.2}{:>16.2}{:>11.1}%",
            row.processes,
            row.uncompressed * 1e3,
            row.compressed_io * 1e3,
            row.compressed_total() * 1e3,
            row.saving() * 100.0
        );
    }
    println!();
    match table.crossover(1 << 24) {
        Some(p) => println!("crossover: compression wins beyond P = {p} (paper: ~768)"),
        None => println!("crossover: none within 2^24 processes"),
    }
    println!(
        "asymptotic saving: {:.1}% (paper: ~81% at cr = 19%)",
        table.asymptotic_saving() * 100.0
    );

    // Ablation: the paper says the temp-file cost "will be mostly
    // eliminated by compressing ... in memory".
    let mem_cfg = CompressorConfig::paper_proposed().with_container(Container::Gzip);
    let mem_comp = Compressor::new(mem_cfg).unwrap();
    let mem_timings = median_stage_timings(5, || mem_comp.compress(&t).unwrap().timings.into());
    println!();
    println!(
        "ablation (paper's stated future fix): in-memory gzip total = {} ms vs temp-file gzip {} ms",
        ms(mem_timings.total()),
        ms(timings.total())
    );
}
