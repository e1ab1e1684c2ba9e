//! Programmatic assertions of every figure's *shape* claim at test
//! scale — the same checks the bench harness prints, but enforced in
//! CI so a regression that flips a paper conclusion fails the build.

use ckpt_bench::cluster::{CompressionProfile, IoModel, ScalingTable};
use lossy_ckpt::prelude::*;
use lossy_ckpt::sim::{divergence_experiment, SimConfig};

fn temperature() -> Tensor<f64> {
    generate(&FieldSpec::small(FieldKind::Temperature, 2015))
}

/// Rate and error of `cfg` on the stream the paper measured
/// (untransposed; the product default is not what its figures show).
fn rate_and_error(cfg: CompressorConfig, t: &Tensor<f64>) -> (f64, f64) {
    let c = Compressor::new(ckpt_bench::paper_stream(cfg)).unwrap();
    let packed = c.compress(t).unwrap();
    let restored = Compressor::decompress(&packed.bytes).unwrap();
    let err = relative_error(t, &restored).unwrap();
    (packed.stats.compression_rate(), err.average)
}

#[test]
fn fig6_lossless_is_insufficient_lossy_is_not() {
    let t = temperature();
    let mut raw = Vec::new();
    for &v in t.as_slice() {
        raw.extend_from_slice(&v.to_le_bytes());
    }
    let gz = lossy_ckpt::deflate::gzip::compress(&raw, lossy_ckpt::deflate::Level::Default);
    let gzip_rate = compression_rate(raw.len(), gz.len());
    assert!(gzip_rate > 60.0, "gzip on f64 mesh data must stay poor: {gzip_rate:.1}%");

    let (simple_rate, _) = rate_and_error(CompressorConfig::paper_simple(), &t);
    let (proposed_rate, _) = rate_and_error(CompressorConfig::paper_proposed(), &t);
    assert!(simple_rate < gzip_rate / 2.0, "simple {simple_rate:.1}% vs gzip {gzip_rate:.1}%");
    assert!(proposed_rate < gzip_rate / 1.5, "proposed {proposed_rate:.1}%");
}

#[test]
fn fig7_rates_grow_gradually_with_n_proposed_above_simple() {
    let t = temperature();
    let mut prev_s = 0.0;
    for n in [1usize, 8, 64, 128] {
        let (s, _) = rate_and_error(CompressorConfig::paper_simple().with_n(n), &t);
        let (p, _) = rate_and_error(CompressorConfig::paper_proposed().with_n(n), &t);
        assert!(p > s, "n={n}: proposed rate {p:.2}% must exceed simple {s:.2}%");
        assert!(s >= prev_s - 0.5, "n={n}: simple rate should not drop sharply");
        prev_s = s;
    }
}

#[test]
fn fig8_errors_fall_with_n_proposed_below_simple() {
    let t = temperature();
    let mut prev_s = f64::INFINITY;
    let mut prev_p = f64::INFINITY;
    for n in [1usize, 8, 64, 128] {
        let (_, es) = rate_and_error(CompressorConfig::paper_simple().with_n(n), &t);
        let (_, ep) = rate_and_error(CompressorConfig::paper_proposed().with_n(n), &t);
        assert!(ep <= es, "n={n}: proposed err {ep} must be <= simple {es}");
        assert!(es <= prev_s * 1.2, "n={n}: simple error must fall (or hold)");
        assert!(ep <= prev_p * 1.2, "n={n}: proposed error must fall (or hold)");
        prev_s = es;
        prev_p = ep;
    }
}

#[test]
fn fig9_crossover_exists_and_saving_approaches_asymptote() {
    // Use a synthetic but realistic profile (the shape claim does not
    // depend on this host's speed).
    let compression = std::time::Duration::from_millis(40);
    let table =
        ScalingTable::new(IoModel::paper(), CompressionProfile { rate: 0.25, compression });
    let crossover = table.crossover(1 << 20).expect("crossover must exist");
    // Below the crossover compression loses; above it wins.
    let below = table.estimate(crossover / 2);
    let above = table.estimate(crossover * 4);
    assert!(below.compressed_total() > below.uncompressed);
    assert!(above.compressed_total() < above.uncompressed);
    // Saving grows toward 1 - rate with P.
    assert!(above.saving() < table.asymptotic_saving());
    assert!(table.estimate(crossover * 64).saving() > above.saving());
}

#[test]
fn fig10_proposed_diverges_less_and_nothing_blows_up() {
    let cfg = SimConfig::small(77);
    let simple = Compressor::new(CompressorConfig::paper_simple()).unwrap();
    let proposed = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let ts = divergence_experiment(cfg, &simple, 100, 200, 40).unwrap();
    let tp = divergence_experiment(cfg, &proposed, 100, 200, 40).unwrap();
    let mean = |t: &[lossy_ckpt::sim::DivergencePoint]| {
        t.iter().map(|p| p.avg_rel_error).sum::<f64>() / t.len() as f64
    };
    assert!(mean(&tp) < mean(&ts), "proposed must stay below simple");
    for p in ts.iter().chain(&tp) {
        assert!(p.avg_rel_error.is_finite() && p.avg_rel_error < 0.1, "no blow-up: {p:?}");
    }
    // Errors remain far below the few-percent inherent error budget the
    // paper cites.
    assert!(mean(&ts) < 0.01);
}

/// Restart safety of the grid: a restart from the gridded default
/// diverges from the reference run no more than one from the exact
/// stream the paper wrote (the same quantizer, low band and
/// pass-through values as doubles), within 10%.
#[test]
fn the_grid_does_not_raise_restart_divergence() {
    let cfg = SimConfig::small(77);
    let gridded = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let exact = Compressor::new(ckpt_bench::paper_stream(CompressorConfig::paper_proposed())).unwrap();
    let header = |c: &Compressor| {
        let bytes = c.compress(&temperature()).unwrap().bytes;
        lossy_ckpt::core::codec::read_header(&bytes).unwrap().grid_exponent
    };
    assert!(header(&gridded).is_some() && header(&exact).is_none(), "one gridded, one not");
    let mean = |c: &Compressor| {
        let trace = divergence_experiment(cfg, c, 100, 200, 40).unwrap();
        trace.iter().map(|p| p.avg_rel_error).sum::<f64>() / trace.len() as f64
    };
    let (with_grid, without) = (mean(&gridded), mean(&exact));
    assert!(with_grid <= 1.1 * without, "gridded {with_grid:e} vs exact {without:e}");
}

#[test]
fn equation_1_viability_condition() {
    // C + T_comp < T_orig at large P — the premise of Section II-A,
    // checked with real measured quantities at small scale.
    let t = temperature();
    let c = Compressor::new(ckpt_bench::paper_stream(CompressorConfig::paper_proposed())).unwrap();
    let packed = c.compress(&t).unwrap();
    let io = IoModel::paper();
    let profile = CompressionProfile {
        rate: packed.stats.compression_rate() / 100.0,
        compression: packed.timings.total(),
    };
    let table = ScalingTable::new(io, profile);
    // At a million processes the inequality must hold comfortably.
    let row = table.estimate(1 << 20);
    assert!(
        row.compressed_total() < row.uncompressed,
        "Equation 1 must hold at scale: {} vs {}",
        row.compressed_total(),
        row.uncompressed
    );
}
