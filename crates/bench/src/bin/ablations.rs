//! The DESIGN.md §5 ablation suite, as one text report: every design
//! choice the paper made (or deferred to future work), toggled on the
//! same NICAM-shaped temperature array.
//!
//! * quantizing the low band (the paper keeps it exact — here's why),
//! * wavelet depth 1..3 (the paper uses a single level),
//! * spike partition count `d` (the paper fixes 64),
//! * spike threshold multiplier (Equation 4 uses 1.0),
//! * byte transposition of the f64 region (the paper's "more
//!   appropriate than gzip" future work, and the product default since
//!   PR 15 — every other row toggles its one choice against the paper's
//!   untransposed stream; the product row also carries the grid and
//!   the default's CDF 5/3 kernel),
//! * final container (in-memory gzip vs the paper's temp-file gzip).

use ckpt_bench::{compress_and_measure, compress_via_temp_file, paper_stream, temperature_nicam};
use ckpt_core::{Compressor, CompressorConfig, Container, StreamLayout};
use ckpt_quant::spike;
use ckpt_tensor::Tensor;

fn line(label: &str, rate: f64, avg: f64, max: f64) {
    println!("{label:<44} cr {rate:>6.2}%   avg err {avg:>9.5}%   max err {max:>9.5}%");
}

fn measure(t: &Tensor<f64>, cfg: CompressorConfig, label: &str) {
    let (packed, err) = compress_and_measure(t, cfg);
    line(label, packed.stats.compression_rate(), err.average_percent(), err.max_percent());
}

/// The paper's configuration, writing the paper's stream.
fn proposed() -> CompressorConfig {
    paper_stream(CompressorConfig::paper_proposed())
}

fn main() {
    let t = temperature_nicam();
    println!("=== Ablations (temperature, 1156 x 82 x 2, n = 128, d = 64 unless noted) ===");
    println!();

    println!("-- quantizer (paper: simple & proposed) --");
    let simple = paper_stream(CompressorConfig::paper_simple());
    measure(&t, simple, "simple (equal-width)");
    measure(&t, proposed(), "proposed (spike detection)");
    println!();

    println!("-- low band: exact (paper) vs quantized --");
    measure(&t, proposed(), "low band exact (paper)");
    measure(&t, proposed().with_layout(StreamLayout::QuantizedLowBand), "low band quantized");
    println!();

    println!("-- wavelet depth (paper: 1 level) --");
    for levels in [1usize, 2, 3] {
        measure(
            &t,
            proposed().with_levels(levels),
            &format!("levels = {levels}"),
        );
    }
    println!();

    println!("-- spike partition count d (paper: 64) --");
    for d in [16usize, 64, 256, 1024] {
        measure(&t, proposed().with_d(d), &format!("d = {d}"));
    }
    println!();

    println!("-- spike threshold multiplier (Equation 4: 1.0) --");
    // Reuse the pipeline's wavelet stage, sweep the quantizer directly.
    let mut w = t.clone();
    ckpt_wavelet::forward(&mut w).unwrap();
    let mut stream = Vec::new();
    for band in ckpt_wavelet::subband::high_subbands(w.shape()).unwrap() {
        stream.extend(w.read_block(&band.start, &band.size).unwrap());
    }
    for m in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let q = spike::quantize_with_threshold(&stream, 128, 64, m).unwrap();
        let rec = q.reconstruct();
        let lo = stream.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = stream.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let max_err = stream
            .iter()
            .zip(&rec)
            .map(|(a, b)| (a - b).abs() / (hi - lo))
            .fold(0.0f64, f64::max);
        println!(
            "threshold x {m:<4}  coverage {:>6.1}%   raw doubles {:>8}   high-band max err {:>9.5}%",
            q.coverage() * 100.0,
            q.raw.len(),
            max_err * 100.0
        );
    }
    println!();

    println!("-- wavelet kernel (paper: Haar; CDF 5/3 = JPEG 2000's) --");
    measure(&t, proposed(), "Haar (paper)");
    measure(
        &t,
        proposed().with_kernel(ckpt_wavelet::Kernel::Cdf53),
        "CDF 5/3",
    );
    measure(
        &t,
        proposed().with_kernel(ckpt_wavelet::Kernel::Cdf97),
        "CDF 9/7",
    );
    println!();

    println!("-- byte shuffle of the value sections, and the grid it carries (product default) --");
    measure(&t, proposed(), "shuffle off (paper's stream)");
    measure(&t, CompressorConfig::paper_proposed(), "shuffle + grid + CDF 5/3 (product default)");
    println!();

    println!("-- container (timings on this host) --");
    let in_memory = Compressor::new(proposed().with_container(Container::Gzip))
        .unwrap()
        .compress(&t)
        .unwrap();
    let (via_file, via_file_rate) = compress_via_temp_file(&t, proposed());
    for (label, rate, total) in [
        ("gzip in memory", in_memory.stats.compression_rate(), in_memory.timings.total()),
        ("gzip via temp file (paper impl)", via_file_rate, via_file.total()),
    ] {
        println!(
            "{label:<44} cr {rate:>6.2}%   compression {:>8.2} ms",
            total.as_secs_f64() * 1e3
        );
    }
}
