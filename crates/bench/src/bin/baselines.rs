//! Baseline comparison: the approaches the paper's Sections I and V
//! argue against, measured against the lossy pipeline on the same
//! simulation states.
//!
//! * **Incremental checkpointing** — after a real simulation step every
//!   page of every physical array is dirty, so the increment
//!   degenerates to a (lossless) full checkpoint.
//! * **gzip-only** — lossless compression of the raw arrays.
//! * **Lossy pipeline** — simple and proposed quantization, n = 128.

use ckpt_core::incremental;
use ckpt_core::metrics::compression_rate;
use ckpt_core::{Compressor, CompressorConfig};
use ckpt_deflate::{gzip, Level};
use ckpt_sim::{ClimateSim, SimConfig};

fn main() {
    // Two consecutive checkpoint states of the climate proxy, the
    // scenario incremental checkpointing targets.
    let mut sim = ClimateSim::new(SimConfig::nicam_like(9));
    sim.run(100);
    let base = sim.variable("temperature").unwrap().clone();
    sim.run(10); // a typical checkpoint interval later
    let current = sim.variable("temperature").unwrap().clone();
    let full_bytes = current.len() * 8;

    println!("=== Baselines vs the lossy pipeline (temperature, {} bytes raw) ===", full_bytes);
    println!();

    let (inc, stats) = incremental::increment(&base, &current, Level::Default).unwrap();
    println!(
        "incremental (10 steps apart) : {:>8} bytes  rate {:>6.2}%   dirty pages {:.1}%",
        inc.len(),
        stats.compression_rate(),
        stats.dirty_fraction() * 100.0
    );

    let mut raw = Vec::with_capacity(full_bytes);
    for &v in current.as_slice() {
        raw.extend_from_slice(&v.to_le_bytes());
    }
    let gz = gzip::compress(&raw, Level::Default);
    println!(
        "gzip-only (lossless)         : {:>8} bytes  rate {:>6.2}%",
        gz.len(),
        compression_rate(full_bytes, gz.len())
    );

    let fpc = ckpt_bench::fpc::compress(current.as_slice());
    println!(
        "FPC (lossless, paper's [17]) : {:>8} bytes  rate {:>6.2}%",
        fpc.len(),
        compression_rate(full_bytes, fpc.len())
    );

    for (label, cfg) in [
        ("lossy simple n=128          ", CompressorConfig::paper_simple()),
        ("lossy proposed n=128        ", CompressorConfig::paper_proposed()),
    ] {
        let packed = Compressor::new(cfg).unwrap().compress(&current).unwrap();
        println!(
            "{label} : {:>8} bytes  rate {:>6.2}%",
            packed.bytes.len(),
            packed.stats.compression_rate()
        );
    }

    println!();
    println!(
        "paper's Section V claim: mesh codes update every page each step, so\n\
         incremental == full checkpoint; only lossy compression escapes the\n\
         lossless floor. Dirty fraction measured above: {:.1}%.",
        stats.dirty_fraction() * 100.0
    );
}
