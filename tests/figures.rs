//! Programmatic assertions of every figure's *shape* claim at test
//! scale — the same checks the bench harness prints, but enforced in
//! CI so a regression that flips a paper conclusion fails the build.

use ckpt_bench::cluster::{CompressionProfile, IoModel, ScalingTable};
use ckpt_bench::paper_stream;
use lossy_ckpt::core::codec::StoredLayout;
use lossy_ckpt::prelude::*;
use lossy_ckpt::sim::{divergence_experiment, SimConfig};

fn temperature() -> Tensor<f64> {
    generate(&FieldSpec::small(FieldKind::Temperature, 2015))
}

/// Rate and error of `cfg` on the stream the paper measured
/// (untransposed, Haar; the product default is not what its figures
/// show).
fn rate_and_error(cfg: CompressorConfig, t: &Tensor<f64>) -> (f64, f64) {
    let c = Compressor::new(paper_stream(cfg)).unwrap();
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

/// Restart safety of the uniform grid: a restart from the default —
/// the low band on a grid of step `s`, every high-band coefficient on
/// one of step `q` — diverges from the reference run no more than one
/// from the stream the paper wrote (the spike quantizer, the low band
/// and the pass-through values as doubles): the mean and the maximum of
/// the trace's average relative error each within 10% of the paper's,
/// for the spike quantizer at Haar, CDF 5/3 and CDF 9/7, one level, and
/// for the simple one, whose step is twice as coarse, at Haar. The
/// default (CDF 5/3, one level) also stays within 10% of the paper
/// configuration's: Haar, one level, the paper's stream. The runs
/// share one reference trajectory: one checkpoint image per stream,
/// restarted side by side.
#[test]
fn the_grid_does_not_raise_restart_divergence() {
    use lossy_ckpt::sim::ClimateSim;
    use lossy_ckpt::wavelet::Kernel;
    let cfg = SimConfig::small(77);
    let (checkpoint_step, extra_steps, sample_every) = (100, 200, 40);
    let mut streams = Vec::new();
    let proposed = CompressorConfig::paper_proposed();
    let configs = [Kernel::Haar, Kernel::Cdf53, Kernel::Cdf97].map(|k| proposed.with_kernel(k));
    for base in configs.into_iter().chain([CompressorConfig::paper_simple().with_kernel(Kernel::Haar)]) {
        let kernel = (base.quant.method, base.kernel);
        let gridded = Compressor::new(base).unwrap();
        let paper = Compressor::new(base.with_layout(StreamLayout::Paper)).unwrap();
        let layout = |c: &Compressor| {
            let h = lossy_ckpt::core::codec::read_header(&c.compress(&temperature()).unwrap().bytes);
            h.unwrap().layout
        };
        let uniform = matches!(layout(&gridded), StoredLayout::Uniform { .. });
        assert!(uniform, "{kernel:?}: the default is the uniform grid");
        let spike = StoredLayout::Spike { transposed: false, low_band_quantized: false };
        assert_eq!(layout(&paper), spike, "{kernel:?}: the paper's stream has no grid");
        streams.push((base, kernel, gridded, paper));
    }

    let mut reference = ClimateSim::new(cfg);
    reference.run(checkpoint_step);
    let mut restarted: Vec<ClimateSim> = streams
        .iter()
        .flat_map(|(_, _, gridded, paper)| [gridded, paper])
        .map(|c| ClimateSim::restore(cfg, &reference.checkpoint(Some(c)).unwrap().0).unwrap())
        .collect();
    let mut traces = vec![Vec::new(); restarted.len()];
    for k in 0..=extra_steps {
        if k > 0 {
            reference.step();
            restarted.iter_mut().for_each(ClimateSim::step);
        }
        if k % sample_every == 0 {
            let truth = reference.variable("temperature").unwrap();
            for (sim, trace) in restarted.iter().zip(&mut traces) {
                let e = relative_error(truth, sim.variable("temperature").unwrap()).unwrap();
                trace.push(e.average);
            }
        }
    }
    let mean_max = |t: &[f64]| (t.iter().sum::<f64>() / t.len() as f64, t.iter().copied().fold(0.0, f64::max));
    for ((_, kernel, ..), pair) in streams.iter().zip(traces.chunks(2)) {
        let ((mean, max), (paper_mean, paper_max)) = (mean_max(&pair[0]), mean_max(&pair[1]));
        assert!(mean <= 1.1 * paper_mean, "{kernel:?}: mean {mean:e} vs the paper's {paper_mean:e}");
        assert!(max <= 1.1 * paper_max, "{kernel:?}: max {max:e} vs the paper's {paper_max:e}");
    }
    // The default's own stream against the paper configuration's.
    let at = |cfg: CompressorConfig| streams.iter().position(|s| s.0 == cfg).unwrap();
    let (mean, max) = mean_max(&traces[2 * at(proposed)]);
    let (paper_mean, paper_max) = mean_max(&traces[2 * at(proposed.with_kernel(Kernel::Haar)) + 1]);
    assert!(mean <= 1.1 * paper_mean, "default: mean {mean:e} vs the paper's {paper_mean:e}");
    assert!(max <= 1.1 * paper_max, "default: max {max:e} vs the paper's {paper_max:e}");
}

#[test]
fn equation_1_viability_condition() {
    // C + T_comp < T_orig at large P — the premise of Section II-A,
    // checked with real measured quantities at small scale.
    let t = temperature();
    let c = Compressor::new(paper_stream(CompressorConfig::paper_proposed())).unwrap();
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
