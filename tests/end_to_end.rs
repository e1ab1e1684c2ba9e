//! Cross-crate integration: simulation → lossy checkpoint → restart →
//! continue, plus the full pipeline over every field kind — the
//! paper's workflow, end to end.

use lossy_ckpt::core::bound::compress_bounded;
use lossy_ckpt::core::checkpoint::{Checkpoint, CheckpointBuilder};
use lossy_ckpt::prelude::*;
use lossy_ckpt::sim::{ClimateSim, SimConfig};

#[test]
fn simulation_checkpoint_restart_continue() {
    let cfg = SimConfig::small(101);
    let mut sim = ClimateSim::new(cfg);
    sim.run(80);

    let compressor = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let (image, _) = sim.checkpoint(Some(&compressor)).unwrap();

    // The checkpoint is much smaller than raw state.
    let raw_bytes = 4 * cfg.variable_bytes();
    assert!(image.len() * 2 < raw_bytes, "{} vs {raw_bytes}", image.len());

    // Restart and continue: the run stays physical and close to the
    // reference.
    let mut restarted = ClimateSim::restore(cfg, &image).unwrap();
    assert_eq!(restarted.step_count(), 80);
    sim.run(60);
    restarted.run(60);
    let ref_t = sim.variable("temperature").unwrap();
    let res_t = restarted.variable("temperature").unwrap();
    let err = relative_error(ref_t, res_t).unwrap();
    assert!(err.average < 0.02, "divergence too large: {}", err.average);
}

#[test]
fn every_field_kind_roundtrips_through_the_full_pipeline() {
    for kind in FieldKind::ALL {
        let field = generate(&FieldSpec::small(kind, 33));
        for cfg in [CompressorConfig::paper_simple(), CompressorConfig::paper_proposed()] {
            let compressor = Compressor::new(cfg).unwrap();
            let packed = compressor.compress(&field).unwrap();
            let restored = Compressor::decompress(&packed.bytes).unwrap();
            let err = relative_error(&field, &restored).unwrap();
            assert!(
                err.average < 0.02,
                "{} / {:?}: avg err {}",
                kind.name(),
                cfg.quant.method,
                err.average
            );
            assert!(packed.stats.compression_rate() < 100.0, "{}", kind.name());
        }
    }
}

#[test]
fn figure6_ordering_holds_end_to_end() {
    // gzip lossless must be far worse (higher rate) than either lossy
    // configuration.
    let field = generate(&FieldSpec::nicam_like(FieldKind::Temperature, 6));
    let mut raw = Vec::with_capacity(field.len() * 8);
    for &v in field.as_slice() {
        raw.extend_from_slice(&v.to_le_bytes());
    }
    let gz = lossy_ckpt::deflate::gzip::compress(&raw, lossy_ckpt::deflate::Level::Default);
    let gzip_rate = compression_rate(raw.len(), gz.len());

    for cfg in [CompressorConfig::paper_simple(), CompressorConfig::paper_proposed()] {
        let lossy_rate = Compressor::new(cfg)
            .unwrap()
            .compress(&field)
            .unwrap()
            .stats
            .compression_rate();
        assert!(
            lossy_rate * 2.0 < gzip_rate,
            "{:?}: lossy {lossy_rate:.1}% vs gzip {gzip_rate:.1}%",
            cfg.quant.method
        );
    }
}

#[test]
fn figures_7_and_8_trends_hold_end_to_end() {
    let field = generate(&FieldSpec::small(FieldKind::Temperature, 8));
    let mut last_err = f64::INFINITY;
    for n in [1usize, 4, 16, 64, 128] {
        let compressor = Compressor::new(CompressorConfig::paper_proposed().with_n(n)).unwrap();
        let packed = compressor.compress(&field).unwrap();
        let restored = Compressor::decompress(&packed.bytes).unwrap();
        let err = relative_error(&field, &restored).unwrap();
        // Fig. 8 trend: error falls (weakly) as n grows. Allow small
        // non-monotonic jitter because averages move between bins.
        assert!(
            err.average <= last_err * 1.5 + 1e-12,
            "n={n}: error {} after {}",
            err.average,
            last_err
        );
        last_err = err.average;
    }
}

#[test]
fn multi_variable_checkpoint_with_mixed_configs() {
    // Different compressors per variable, raw for one of them — a
    // realistic application policy.
    let fields: Vec<(&str, _)> = FieldKind::ALL
        .iter()
        .map(|&k| (k.name(), generate(&FieldSpec::small(k, 55))))
        .collect();

    let tight = Compressor::new(CompressorConfig::paper_proposed().with_n(256)).unwrap();
    let loose = Compressor::new(CompressorConfig::paper_proposed().with_n(4)).unwrap();

    let mut builder = CheckpointBuilder::new(500);
    builder.add_lossy(fields[0].0, &fields[0].1, &tight).unwrap();
    builder.add_lossy(fields[1].0, &fields[1].1, &loose).unwrap();
    builder.add_raw(fields[2].0, &fields[2].1).unwrap();
    builder.add_lossy(fields[3].0, &fields[3].1, &tight).unwrap();
    let image = builder.into_bytes();

    let ck = Checkpoint::from_bytes(&image).unwrap();
    assert_eq!(ck.step(), 500);
    // Raw variable is exact.
    assert_eq!(ck.restore(fields[2].0).unwrap().as_slice(), fields[2].1.as_slice());
    // Tight beats loose on error.
    let e_tight = relative_error(&fields[0].1, &ck.restore(fields[0].0).unwrap()).unwrap();
    let e_loose = relative_error(&fields[1].1, &ck.restore(fields[1].0).unwrap()).unwrap();
    assert!(e_tight.average < 0.01);
    assert!(e_loose.average < 0.05);
}

#[test]
fn bounded_compression_integrates_with_checkpointing() {
    let field = generate(&FieldSpec::small(FieldKind::WindU, 3));
    let bound = 1e-3;
    let result = compress_bounded(&field, CompressorConfig::paper_proposed(), bound).unwrap();
    assert!(result.error.average <= bound);
    // The bounded stream is a normal stream: decompression just works.
    let restored = Compressor::decompress(&result.compressed.bytes).unwrap();
    assert_eq!(restored.dims(), field.dims());
}

#[test]
fn a_constant_field_restores_exactly_through_the_no_grid_fallback() {
    // Every high-band coefficient of a constant field is zero, so the
    // quantizer's bin width is 0 and no grid fits: the default writes
    // the transposed spike stream, whose exact low band holds the field.
    let field = Tensor::full(&[64, 32], 273.15).unwrap();
    let compressor = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let packed = compressor.compress(&field).unwrap();
    let restored = Compressor::decompress(&packed.bytes).unwrap();
    assert_eq!(restored.as_slice(), field.as_slice(), "constant field must be exact");
}

#[test]
fn extension_configs_all_roundtrip_end_to_end() {
    // Every combination of kernel x quantizer decompresses through the
    // same self-describing stream path.
    use lossy_ckpt::wavelet::Kernel;
    let field = generate(&FieldSpec::small(FieldKind::Temperature, 88));
    for kernel in [Kernel::Haar, Kernel::Cdf53, Kernel::Cdf97] {
        for method in [Method::Simple, Method::Proposed] {
            let cfg = CompressorConfig::paper_proposed()
                .with_kernel(kernel)
                .with_method(method)
                .with_n(32);
            let compressor = Compressor::new(cfg).unwrap();
            let packed = compressor.compress(&field).unwrap();
            let restored = Compressor::decompress(&packed.bytes).unwrap();
            let err = relative_error(&field, &restored).unwrap();
            assert!(
                err.average < 0.02,
                "{kernel:?}+{method:?}: avg err {}",
                err.average
            );
        }
    }
}

#[test]
fn stronger_kernels_reduce_error_at_same_n() {
    use lossy_ckpt::wavelet::Kernel;
    let field = generate(&FieldSpec::small(FieldKind::Pressure, 89));
    let err_of = |kernel| {
        let cfg = CompressorConfig::paper_proposed().with_kernel(kernel);
        let packed = Compressor::new(cfg).unwrap().compress(&field).unwrap();
        relative_error(&field, &Compressor::decompress(&packed.bytes).unwrap())
            .unwrap()
            .average
    };
    let haar = err_of(Kernel::Haar);
    let cdf53 = err_of(Kernel::Cdf53);
    let cdf97 = err_of(Kernel::Cdf97);
    assert!(cdf53 <= haar * 1.5, "5/3 {cdf53} vs haar {haar}");
    assert!(cdf97 <= cdf53 * 1.5, "9/7 {cdf97} vs 5/3 {cdf53}");
}

#[test]
fn fpc_lossless_baseline_is_bit_exact_on_simulation_state() {
    use lossy_ckpt::sim::{ClimateSim, SimConfig};
    let mut sim = ClimateSim::new(SimConfig::small(90));
    sim.run(30);
    let t = sim.variable("temperature").unwrap();
    let packed = ckpt_bench::fpc::compress(t.as_slice());
    let back = ckpt_bench::fpc::decompress(&packed).unwrap();
    for (a, b) in t.as_slice().iter().zip(&back) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert!(packed.len() < t.len() * 8, "smooth state must compress");
}

/// The entropy stage's rate, pinned: the four arrays of a small climate
/// state at the paper's proposed setting take no more bytes than when
/// blocks began to end where the symbol statistics change. A match
/// finder or block rule that gives bytes back fails here by name.
#[test]
fn a_small_climate_state_compresses_to_at_most_its_recorded_bytes() {
    let mut sim = ClimateSim::new(SimConfig::small(2015));
    sim.run(24);
    let compressor = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let stored: usize = sim
        .variables()
        .iter()
        .map(|(_, field)| compressor.compress(field).unwrap().bytes.len())
        .sum();
    // 37,023 B before the split rule, TOO_FAR and the retuned chain.
    assert!(stored <= 37_019, "{stored} B");
}
