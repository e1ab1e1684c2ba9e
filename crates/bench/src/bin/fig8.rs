//! Figure 8 reproduction: average relative error vs division number
//! `n`, simple vs proposed quantization, temperature array.
//!
//! Paper: simple falls 0.74% → 0.025%, proposed 0.49% → 0.0056%;
//! proposed stays below simple at every n.

use ckpt_bench::{compress_and_measure, paper_stream, temperature_nicam, DIVISION_NUMBERS};
use ckpt_core::CompressorConfig;

fn main() {
    // The stream the paper measured: the product's moves every rate.
    let simple = paper_stream(CompressorConfig::paper_simple());
    let proposed = paper_stream(CompressorConfig::paper_proposed());
    let t = temperature_nicam();
    println!("=== Figure 8: average relative error [%] vs division number (temperature) ===");
    println!();
    println!("{:>10}{:>14}{:>14}", "n", "simple", "proposed");
    let mut ordering_holds = true;
    for &n in &DIVISION_NUMBERS {
        let (_, es) = compress_and_measure(&t, simple.with_n(n));
        let (_, ep) = compress_and_measure(&t, proposed.with_n(n));
        ordering_holds &= ep.average <= es.average;
        println!(
            "{:>10}{:>13.5}%{:>13.5}%",
            n,
            es.average_percent(),
            ep.average_percent()
        );
    }
    println!();
    println!(
        "shape check: errors fall with n; proposed <= simple at every n: {}",
        if ordering_holds { "HOLDS" } else { "VIOLATED" }
    );
}
