//! Figure 7 reproduction: compression rate vs division number `n`,
//! simple vs proposed quantization, temperature array.
//!
//! Paper: simple grows 11.06% → 12.10% and proposed 14.43% → 16.75%
//! over n = 1..128; both increase gradually, proposed sits higher.

use ckpt_bench::{compress_and_measure, paper_stream, temperature_nicam, DIVISION_NUMBERS};
use ckpt_core::CompressorConfig;

fn main() {
    // The stream the paper measured: the product's moves every rate.
    let simple = paper_stream(CompressorConfig::paper_simple());
    let proposed = paper_stream(CompressorConfig::paper_proposed());
    let t = temperature_nicam();
    println!("=== Figure 7: compression rate [%] vs division number (temperature) ===");
    println!();
    println!("{:>10}{:>12}{:>12}", "n", "simple", "proposed");
    let mut simple_rates = Vec::new();
    let mut proposed_rates = Vec::new();
    for &n in &DIVISION_NUMBERS {
        let (s, _) = compress_and_measure(&t, simple.with_n(n));
        let (p, _) = compress_and_measure(&t, proposed.with_n(n));
        simple_rates.push(s.stats.compression_rate());
        proposed_rates.push(p.stats.compression_rate());
        println!(
            "{:>10}{:>11.2}%{:>11.2}%",
            n,
            s.stats.compression_rate(),
            p.stats.compression_rate()
        );
    }
    println!();
    println!(
        "shape check: simple {:.2}% -> {:.2}% (paper 11.06 -> 12.10), proposed {:.2}% -> {:.2}% (paper 14.43 -> 16.75)",
        simple_rates[0],
        simple_rates.last().unwrap(),
        proposed_rates[0],
        proposed_rates.last().unwrap()
    );
}
