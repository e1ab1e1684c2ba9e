//! Section IV-C in-text numbers: compression rate and error ranges
//! across *all* physical arrays (the paper reports simple cr 11–13%,
//! proposed 13–29%; simple avg error 0.0053–14.56%, proposed
//! 0.0004–1.19%; max errors up to 56.84% simple vs 5.94% proposed).

use ckpt_bench::{all_nicam_arrays, compress_and_measure, paper_stream};
use ckpt_core::CompressorConfig;

fn main() {
    // The stream the paper measured: the product's moves every rate.
    let simple = paper_stream(CompressorConfig::paper_simple());
    let proposed = paper_stream(CompressorConfig::paper_proposed());
    println!("=== Section IV-C: per-array compression rate and relative errors (n = 128) ===");
    println!();
    println!(
        "{:<14}{:>9}{:>12}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "array", "method", "cr [%]", "avg err[%]", "max err[%]", "cr(prop)", "avg(prop)", "max(prop)"
    );
    let mut s_cr = (f64::INFINITY, f64::NEG_INFINITY);
    let mut p_cr = (f64::INFINITY, f64::NEG_INFINITY);
    let mut s_max = f64::NEG_INFINITY;
    let mut p_max = f64::NEG_INFINITY;
    for (name, t) in all_nicam_arrays() {
        let (cs, es) = compress_and_measure(&t, simple);
        let (cp, ep) = compress_and_measure(&t, proposed);
        s_cr = (s_cr.0.min(cs.stats.compression_rate()), s_cr.1.max(cs.stats.compression_rate()));
        p_cr = (p_cr.0.min(cp.stats.compression_rate()), p_cr.1.max(cp.stats.compression_rate()));
        s_max = s_max.max(es.max_percent());
        p_max = p_max.max(ep.max_percent());
        println!(
            "{:<14}{:>9}{:>11.2}%{:>11.4}%{:>11.4}%{:>11.2}%{:>11.4}%{:>11.4}%",
            name,
            "s/p",
            cs.stats.compression_rate(),
            es.average_percent(),
            es.max_percent(),
            cp.stats.compression_rate(),
            ep.average_percent(),
            ep.max_percent()
        );
    }
    println!();
    println!(
        "ranges: simple cr {:.1}-{:.1}% (paper 11-13), proposed cr {:.1}-{:.1}% (paper 13-29)",
        s_cr.0, s_cr.1, p_cr.0, p_cr.1
    );
    println!(
        "worst max error: simple {s_max:.3}% vs proposed {p_max:.3}% (paper: 56.84% vs 5.94%) — proposed improves the tail"
    );
}
