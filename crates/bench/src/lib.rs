//! # ckpt-bench
//!
//! Shared harness for the figure/table reproduction binaries (one per
//! figure of the paper's evaluation, see DESIGN.md §4). Throughput is
//! measured by the `e2e/` benchmark, not here. The measurement
//! scaffolding the paper's evaluation leans on lives here too, not in
//! the product: the Section IV-D scaling model ([`cluster`]), the
//! per-rank decomposition its binaries feed it ([`split_x`]), FPC
//! ([`fpc`], its lossless reference [17]) and the temporary-file gzip
//! of Fig. 9's stage stack ([`compress_via_temp_file`]).
//!
//! Binaries (`cargo run --release -p ckpt-bench --bin <name>`):
//!
//! | binary        | reproduces                                          |
//! |---------------|-----------------------------------------------------|
//! | `table1`      | Table I (host spec + model parameters)              |
//! | `fig6`        | Fig. 6: gzip vs lossy (simple/proposed, n = 128)    |
//! | `fig7`        | Fig. 7: compression rate vs division number         |
//! | `fig8`        | Fig. 8: average relative error vs division number   |
//! | `fig9`        | Fig. 9: checkpoint time vs parallelism, stage stack |
//! | `fig9_sim`    | Fig. 9 replayed through the fair-share PFS model    |
//! | `fig10`       | Fig. 10: post-restart error evolution               |
//! | `all_arrays`  | Section IV-C in-text per-array ranges               |
//! | `baselines`   | Sections I/V: incremental, gzip, FPC vs lossy       |
//! | `ablations`   | DESIGN.md §5: each design choice toggled            |
//! | `rank_scaling`| per-rank compression time at 1–8 workers            |

use ckpt_core::metrics::RelativeError;
use ckpt_core::timing::timed;
use ckpt_core::{
    CkptError, Compressed, Compressor, CompressorConfig, Container, StageTimings, StreamLayout,
};
use ckpt_deflate::gzip;
use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};
use ckpt_tensor::Tensor;
use std::time::{Duration, Instant};

pub mod cluster;
pub mod fpc;

/// The paper's default evaluation subject: the temperature array of the
/// NICAM-shaped mesh (1156 × 82 × 2, 1.5 MB of f64).
pub fn temperature_nicam() -> Tensor<f64> {
    generate(&FieldSpec::nicam_like(FieldKind::Temperature, 2015))
}

/// All four physical arrays at NICAM shape, with their names.
pub fn all_nicam_arrays() -> Vec<(&'static str, Tensor<f64>)> {
    FieldKind::ALL
        .iter()
        .map(|&k| (k.name(), generate(&FieldSpec::nicam_like(k, 2015))))
        .collect()
}

/// Serializes a tensor to its raw little-endian bytes (what an
/// uncompressed checkpoint writes).
pub fn raw_bytes(t: &Tensor<f64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(t.len() * 8);
    for &v in t.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// `cfg` writing the stream the paper measured: its layout and its
/// Haar kernel. The figures compare their rates with the paper's, which
/// the product default's stream and kernel would move.
pub fn paper_stream(cfg: CompressorConfig) -> CompressorConfig {
    cfg.with_layout(StreamLayout::Paper).with_kernel(ckpt_wavelet::Kernel::Haar)
}

/// Compresses and measures the roundtrip error in one call.
pub fn compress_and_measure(
    tensor: &Tensor<f64>,
    cfg: CompressorConfig,
) -> (Compressed, RelativeError) {
    let compressor = Compressor::new(cfg).expect("valid config");
    let packed = compressor.compress(tensor).expect("compression succeeds");
    let restored = Compressor::decompress(&packed.bytes).expect("decompression succeeds");
    let err = ckpt_core::metrics::relative_error(tensor, &restored).expect("same shape");
    (packed, err)
}

/// Splits a tensor into `ranks` contiguous chunks along axis 0 (NICAM's
/// large dimension): the per-rank sub-domains of Section IV-D, where
/// each of `P` processes owns a constant-size piece of the global state
/// and compresses it independently.
///
/// Chunk extents differ by at most one (block distribution). Fails if
/// `ranks` exceeds the axis extent or is zero.
pub fn split_x(global: &Tensor<f64>, ranks: usize) -> ckpt_core::Result<Vec<Tensor<f64>>> {
    let nx = global.dims()[0];
    if ranks == 0 || ranks > nx {
        return Err(CkptError::Format(format!(
            "cannot split x extent {nx} into {ranks} ranks"
        )));
    }
    let mut out = Vec::with_capacity(ranks);
    let mut start = 0usize;
    for r in 0..ranks {
        let end = (r + 1) * nx / ranks;
        let mut begin_idx = vec![0usize; global.ndim()];
        begin_idx[0] = start;
        let mut size = global.dims().to_vec();
        size[0] = end - start;
        let vals = global.read_block(&begin_idx, &size)?;
        out.push(Tensor::from_vec(&size, vals)?);
        start = end;
    }
    Ok(out)
}

/// Fig. 9's stage stack: the pipeline's own stages, and the paper's
/// temporary-file write before gzip, which is no stage of this
/// pipeline ([`compress_via_temp_file`] times it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fig9Timings {
    /// Wavelet, quantization, formatting and gzip.
    pub stages: StageTimings,
    /// Writing the formatted stream to a temporary file and reading it
    /// back.
    pub temp_file_write: Duration,
}

impl From<StageTimings> for Fig9Timings {
    fn from(stages: StageTimings) -> Self {
        Fig9Timings { stages, temp_file_write: Duration::ZERO }
    }
}

impl Fig9Timings {
    /// Total across all five bars.
    pub fn total(&self) -> Duration {
        self.stages.total() + self.temp_file_write
    }

    /// The paper's Figure 9 labels and values, in its stacking order.
    pub fn breakdown(&self) -> [(&'static str, Duration); 5] {
        let [wavelet, quantize, other, gzip] = self.stages.breakdown();
        [wavelet, quantize, other, ("temporal file write for gzip", self.temp_file_write), gzip]
    }
}

/// Compresses `tensor` under `cfg` as the paper's implementation did:
/// the formatted stream (`cfg` with [`Container::None`]) goes to a
/// temporary file and is read back, and what was read is gzipped at
/// `cfg.level` — the bytes the in-memory single-member gzip path
/// compresses. Returns the timings and the compression rate in percent.
/// The file, one per process, is removed on every exit.
pub fn compress_via_temp_file(tensor: &Tensor<f64>, cfg: CompressorConfig) -> (Fig9Timings, f64) {
    let compressor = Compressor::new(cfg.with_container(Container::None)).expect("valid config");
    let formatted = compressor.compress(tensor).expect("compression succeeds");
    let path = std::env::temp_dir().join(format!("ckpt-fig9-{}.bin", std::process::id()));
    let start = Instant::now();
    let read_back = std::fs::write(&path, &formatted.bytes).and_then(|()| std::fs::read(&path));
    let temp_file_write = start.elapsed();
    let _ = std::fs::remove_file(&path);
    let read_back = read_back.expect("temporary file round trip");
    let mut stages = formatted.timings;
    let packed = timed(&mut stages.gzip, || gzip::compress(&read_back, cfg.level));
    let rate = ckpt_core::metrics::compression_rate(formatted.stats.original_bytes, packed.len());
    (Fig9Timings { stages, temp_file_write }, rate)
}

/// Each bar's median over `runs` executions of `f` (warm: one
/// discarded warm-up run), so every bar of a Fig. 9 stack is the middle
/// sample of its own stage rather than the stages of whichever run came
/// last. The total of the result is the sum of the bar medians.
pub fn median_stage_timings(runs: usize, mut f: impl FnMut() -> Fig9Timings) -> Fig9Timings {
    assert!(runs >= 1);
    f(); // warm-up
    let samples: Vec<Fig9Timings> = (0..runs).map(|_| f()).collect();
    let median = |stage: fn(&Fig9Timings) -> Duration| {
        let mut values: Vec<Duration> = samples.iter().map(stage).collect();
        values.sort();
        values[values.len() / 2]
    };
    Fig9Timings {
        stages: StageTimings {
            wavelet: median(|t| t.stages.wavelet),
            quantize_encode: median(|t| t.stages.quantize_encode),
            format: median(|t| t.stages.format),
            gzip: median(|t| t.stages.gzip),
        },
        temp_file_write: median(|t| t.temp_file_write),
    }
}

/// Prints a fixed-width table row to stdout.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, &w)| format!("{c:>w$}"))
        .collect();
    println!("{}", line.join("  "));
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// The division numbers the paper sweeps in Figures 7 and 8.
pub const DIVISION_NUMBERS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nicam_array_is_paper_sized() {
        let t = temperature_nicam();
        assert_eq!(t.dims(), &[1156, 82, 2]);
        assert_eq!(raw_bytes(&t).len(), 1_516_672);
    }

    #[test]
    fn all_arrays_have_names_and_shapes() {
        let arrays = all_nicam_arrays();
        assert_eq!(arrays.len(), 4);
        assert!(arrays.iter().any(|(n, _)| *n == "temperature"));
        for (_, t) in &arrays {
            assert_eq!(t.dims(), &[1156, 82, 2]);
        }
    }

    #[test]
    fn compress_and_measure_is_sane() {
        let t = ckpt_tensor::fields::generate(&FieldSpec::small(FieldKind::Temperature, 1));
        let (packed, err) = compress_and_measure(&t, CompressorConfig::paper_proposed());
        assert!(packed.stats.compression_rate() < 100.0);
        assert!(err.average < 0.01);
    }

    fn split_field() -> Tensor<f64> {
        generate(&FieldSpec::small(FieldKind::Temperature, 61))
    }

    /// Axis 0 is the outermost in row-major order, so rank chunks laid
    /// end to end are the global array: they cover it, in order.
    fn concat(chunks: &[Tensor<f64>]) -> Vec<f64> {
        chunks.iter().flat_map(|c| c.as_slice()).copied().collect()
    }

    #[test]
    fn split_covers_the_global_array_in_order() {
        let g = split_field();
        for ranks in [1usize, 2, 3, 7, 16] {
            let chunks = split_x(&g, ranks).unwrap();
            assert_eq!(chunks.len(), ranks);
            assert!(chunks.iter().all(|c| c.dims()[1..] == g.dims()[1..]), "ranks={ranks}");
            assert_eq!(concat(&chunks), g.as_slice(), "ranks={ranks}");
        }
    }

    #[test]
    fn block_distribution_is_balanced() {
        let g = split_field(); // x extent 64 (FieldSpec::small)
        let nx = g.dims()[0];
        let chunks = split_x(&g, 7).unwrap();
        let extents: Vec<usize> = chunks.iter().map(|c| c.dims()[0]).collect();
        let min = *extents.iter().min().unwrap();
        let max = *extents.iter().max().unwrap();
        assert!(max - min <= 1, "imbalanced: {extents:?}");
        assert_eq!(extents.iter().sum::<usize>(), nx);
    }

    #[test]
    fn invalid_rank_counts_rejected() {
        let g = split_field();
        assert!(split_x(&g, 0).is_err());
        assert!(split_x(&g, 10_000).is_err());
    }

    #[test]
    fn per_rank_lossy_checkpoints_reassemble_within_tolerance() {
        let g = split_field();
        let chunks = split_x(&g, 4).unwrap();
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let restored: Vec<Tensor<f64>> = chunks
            .iter()
            .map(|c| Compressor::decompress(&comp.compress(c).unwrap().bytes).unwrap())
            .collect();
        let back = Tensor::from_vec(g.dims(), concat(&restored)).unwrap();
        let err = ckpt_core::metrics::relative_error(&g, &back).unwrap();
        assert!(err.average < 1e-3, "per-rank pipeline avg err {}", err.average);
    }

    /// The warm-up run is dropped, and each stage takes the middle of
    /// its own samples, not the stages of one run.
    #[test]
    fn median_stage_timings_takes_each_stages_middle_sample() {
        let ms = |v: u64| Duration::from_millis(v);
        let runs = [(90, 90), (1, 30), (3, 10), (2, 20)].map(|(wavelet, gzip)| StageTimings {
            wavelet: ms(wavelet),
            gzip: ms(gzip),
            ..StageTimings::new()
        });
        let mut next = runs.iter();
        let median = median_stage_timings(3, || (*next.next().unwrap()).into());
        assert_eq!((median.stages.wavelet, median.stages.gzip), (ms(2), ms(20)));
        assert_eq!(median.total(), ms(22));
    }
}
