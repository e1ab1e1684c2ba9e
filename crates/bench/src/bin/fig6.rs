//! Figure 6 reproduction: compression rates of gzip vs the lossy
//! pipeline with simple and proposed quantization (n = 128).
//!
//! Paper values: gzip 86.78%; lossy simple ~12%; lossy proposed ~17%
//! (temperature array). Lower is better.

use ckpt_bench::{compress_and_measure, paper_stream, raw_bytes, temperature_nicam};
use ckpt_core::metrics::compression_rate;
use ckpt_core::CompressorConfig;
use ckpt_deflate::{gzip, Level};

fn main() {
    let t = temperature_nicam();
    let raw = raw_bytes(&t);

    let gz = gzip::compress(&raw, Level::Default);
    let gzip_rate = compression_rate(raw.len(), gz.len());

    // The stream the paper measured: the product's moves every rate.
    let paper = |cfg: CompressorConfig| compress_and_measure(&t, paper_stream(cfg)).0;
    let simple = paper(CompressorConfig::paper_simple());
    let proposed = paper(CompressorConfig::paper_proposed());

    println!("=== Figure 6: compression rate [%], temperature array (lower is better) ===");
    println!();
    println!("{:<34}{:>10}{:>12}", "method", "ours", "paper");
    println!("{:<34}{:>9.2}%{:>11}", "gzip (lossless)", gzip_rate, "86.78%");
    println!(
        "{:<34}{:>9.2}%{:>11}",
        "lossy, simple quantization n=128",
        simple.stats.compression_rate(),
        "~12.1%"
    );
    println!(
        "{:<34}{:>9.2}%{:>11}",
        "lossy, proposed quantization n=128",
        proposed.stats.compression_rate(),
        "~16.8%"
    );
    println!();
    println!(
        "shape check: lossless is insufficient ({:.1}%), lossy cuts size by >{:.0}x",
        gzip_rate,
        gzip_rate / proposed.stats.compression_rate()
    );
}
