//! Compare the wavelet kernels this library offers beyond the paper's
//! Haar, under both of the paper's quantizers — the "improvement of the
//! compression algorithm" its conclusion anticipates.
//!
//! ```text
//! cargo run --release --example kernel_comparison
//! ```

use lossy_ckpt::prelude::*;
use lossy_ckpt::wavelet::Kernel;

fn main() {
    let field = generate(&FieldSpec::nicam_like(FieldKind::Temperature, 12));
    println!(
        "temperature {:?} ({} bytes raw), n = 128, d = 64\n",
        field.dims(),
        field.len() * 8
    );
    println!(
        "{:<34}{:>12}{:>14}{:>14}",
        "configuration", "rate [%]", "avg err [%]", "max err [%]"
    );

    let mut rows: Vec<(String, CompressorConfig)> = Vec::new();
    for (kname, kernel) in
        [("Haar (paper)", Kernel::Haar), ("CDF 5/3", Kernel::Cdf53), ("CDF 9/7", Kernel::Cdf97)]
    {
        for (qname, method) in [("simple", Method::Simple), ("proposed", Method::Proposed)] {
            rows.push((
                format!("{kname} + {qname}"),
                CompressorConfig::paper_proposed().with_kernel(kernel).with_method(method),
            ));
        }
    }

    for (label, cfg) in rows {
        let compressor = Compressor::new(cfg).unwrap();
        let packed = compressor.compress(&field).unwrap();
        let restored = Compressor::decompress(&packed.bytes).unwrap();
        let err = relative_error(&field, &restored).unwrap();
        println!(
            "{label:<34}{:>12.2}{:>14.5}{:>14.5}",
            packed.stats.compression_rate(),
            err.average_percent(),
            err.max_percent()
        );
    }

    println!(
        "\nReading the table: stronger kernels (5/3, 9/7) tighten the high-band\n\
         spike, cutting error at slightly higher rate; the paper's proposed\n\
         method owns the error tail at its rate point under every kernel."
    );
}
