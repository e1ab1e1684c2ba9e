//! The `ckpt` subcommands.

use crate::args::{parse_dims, Args};
use ckpt_core::bound::compress_bounded;
use ckpt_core::codec::StoredLayout;
#[cfg(test)]
use ckpt_core::metrics::relative_error;
use ckpt_core::{Compressor, CompressorConfig, Container};
use ckpt_quant::Method;
use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};
use ckpt_tensor::{Shape, Tensor};

pub const USAGE: &str = "\
ckpt — wavelet-based lossy checkpoint compression (IPDPS'15 reproduction)

USAGE:
  ckpt compress   <in.f64> --dims AxBxC [--method proposed|simple] [--n 1..256]
                  [--d 64] [--levels 1] [--kernel cdf53|haar|cdf97]
                  [--container gzip|none]
                  [--threads N] [--chunk-bytes BYTES]
                  [--bound FRACTION] [-o out.wck]
  ckpt decompress <in.wck> [-o out.f64]
  ckpt info       <in.wck>
  ckpt gen        --dims AxBxC [--kind temperature|pressure|wind_u|wind_v]
                  [--seed N] -o out.f64
  ckpt store      save|restore|list|verify|gc|compact … (see `ckpt store help`)
  ckpt serve      <dir> --socket <path> [--for-ms N]
  ckpt fetch      <socket> [--list true | [--gen N] [--rank N] -o out]

Raw array files are row-major little-endian f64.

`ckpt info` prints the stream header's wavelet kernel and levels, its
layout (on the uniform grid with the low band's predictor), the low
band's grid step (`none` for exact doubles) and, on the uniform grid,
the high band's step and both bands' byte planes; on a
WPK1 chunked stream a per-member breakdown (member count, chunk size,
compressed/uncompressed bytes).
`ckpt store` manages a crash-consistent on-disk checkpoint
repository with atomic commit, full+incremental generation chains, and
GC. `ckpt serve` exports a
store's committed generations over a Unix socket against epoch-pinned
snapshots (saves and GC keep running underneath); `ckpt fetch` pulls a
generation from a running server with CRC-verified ranged reads.

--threads says only how many workers deflate one array's chunks; no
byte depends on it. A formatted stream longer than --chunk-bytes
(default 1 MiB) goes out as a chunked multi-member gzip stream whose
members deflate and inflate in parallel; a shorter one is one gzip
member. The wavelet and the quantizer are serial. `decompress` inflates
a chunked stream on the host's cores.";

pub(crate) fn read_raw_tensor(path: &str, dims: &[usize]) -> Result<Tensor<f64>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    // `--dims` comes from argv: the volume and the byte count are
    // checked products, not `usize` arithmetic that wraps.
    let volume = Shape::new(dims).map_err(|e| e.to_string())?.volume();
    if volume.checked_mul(8) != Some(bytes.len()) {
        return Err(format!(
            "{path}: {} bytes but dims {dims:?} imply {volume} doubles",
            bytes.len()
        ));
    }
    let data: Vec<f64> =
        bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect();
    Tensor::from_vec(dims, data).map_err(|e| e.to_string())
}

pub(crate) fn write_raw_tensor(path: &str, t: &Tensor<f64>) -> Result<(), String> {
    let mut bytes = Vec::with_capacity(t.len() * 8);
    for &v in t.as_slice() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))
}

/// The flags `ckpt compress` takes.
const COMPRESS_FLAGS: &[&str] = &[
    "dims",
    "method",
    "n",
    "d",
    "levels",
    "kernel",
    "container",
    "threads",
    "chunk-bytes",
    "bound",
    "out",
];

fn config_from(args: &Args) -> Result<CompressorConfig, String> {
    let mut cfg = CompressorConfig::paper_proposed();
    cfg = match args.get("method").unwrap_or("proposed") {
        "proposed" => cfg.with_method(Method::Proposed),
        "simple" => cfg.with_method(Method::Simple),
        other => return Err(format!("unknown --method {other:?} (proposed|simple)")),
    };
    cfg = cfg.with_n(args.get_or("n", 128usize)?);
    cfg = cfg.with_d(args.get_or("d", 64usize)?);
    cfg = cfg.with_levels(args.get_or("levels", 1usize)?);
    // Without --kernel, the product default's.
    cfg = match args.get("kernel") {
        None => cfg,
        Some("haar") => cfg.with_kernel(ckpt_wavelet::Kernel::Haar),
        Some("cdf53") => cfg.with_kernel(ckpt_wavelet::Kernel::Cdf53),
        Some("cdf97") => cfg.with_kernel(ckpt_wavelet::Kernel::Cdf97),
        Some(other) => return Err(format!("unknown --kernel {other:?} (cdf53|haar|cdf97)")),
    };
    cfg = match args.get("container").unwrap_or("gzip") {
        "gzip" => cfg.with_container(Container::Gzip),
        "none" => cfg.with_container(Container::None),
        other => return Err(format!("unknown --container {other:?} (gzip|none)")),
    };
    cfg = cfg.with_threads(args.get_or("threads", 1usize)?);
    if let Some(raw) = args.get("chunk-bytes") {
        let chunk: usize =
            raw.parse().map_err(|_| format!("invalid --chunk-bytes {raw:?}"))?;
        cfg = cfg.with_chunk_bytes(chunk);
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

pub fn compress(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "compress", COMPRESS_FLAGS)?;
    let input = args.one_positional("input file")?;
    let dims = parse_dims(args.get("dims").ok_or("--dims is required for compress")?)?;
    let tensor = read_raw_tensor(input, &dims)?;
    let cfg = config_from(&args)?;
    let out_path = args.get("out").map(str::to_string).unwrap_or(format!("{input}.wck"));

    let (compressed, err) = if let Some(bound_raw) = args.get("bound") {
        let bound: f64 =
            bound_raw.parse().map_err(|_| format!("invalid --bound {bound_raw:?}"))?;
        let r = compress_bounded(&tensor, cfg, bound).map_err(|e| e.to_string())?;
        eprintln!("bound {bound} met with n = {} ({} probes)", r.n, r.probes);
        (r.compressed, Some(r.error))
    } else {
        let compressor = Compressor::new(cfg).map_err(|e| e.to_string())?;
        (compressor.compress(&tensor).map_err(|e| e.to_string())?, None)
    };
    std::fs::write(&out_path, &compressed.bytes).map_err(|e| format!("writing {out_path}: {e}"))?;

    eprintln!(
        "{input} ({} bytes) -> {out_path} ({} bytes), compression rate {:.2}%",
        tensor.len() * 8,
        compressed.bytes.len(),
        compressed.stats.compression_rate(),
    );
    if let Some(e) = err {
        eprintln!("measured avg relative error {:.6}%", e.average_percent());
    }
    Ok(())
}

pub fn decompress(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "decompress", &["out"])?;
    let input = args.one_positional("input file")?;
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    // A read shapes no bytes, so it keys on the host's cores.
    let threads = ckpt_pool::host_parallelism();
    let tensor = Compressor::decompress_with(&bytes, threads, usize::MAX)
        .map_err(|e| e.to_string())?;
    let out_path = args
        .get("out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{}.f64", input.trim_end_matches(".wck")));
    write_raw_tensor(&out_path, &tensor)?;
    eprintln!("{input} -> {out_path}, dims {:?}", tensor.dims());
    Ok(())
}

pub fn info(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "info", &[])?;
    let input = args.one_positional("input file")?;
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let tensor = Compressor::decompress(&bytes).map_err(|e| e.to_string())?;
    let header = ckpt_core::codec::read_header(&bytes).map_err(|e| e.to_string())?;
    let (lo, hi) = tensor.min_max();
    let kernel = match header.kernel {
        ckpt_wavelet::Kernel::Haar => "haar",
        ckpt_wavelet::Kernel::Cdf53 => "cdf53",
        ckpt_wavelet::Kernel::Cdf97 => "cdf97",
    };
    say!("file            : {input}");
    say!("kernel, levels  : {kernel}, {}", header.levels);
    say!("layout          : {:?}", header.layout);
    let step = |e: i16| format!("2^{e} ({:e})", 2f64.powi(e.into()));
    match header.layout {
        StoredLayout::Spike { .. } => say!("grid step       : none"),
        StoredLayout::SpikeGrid { exponent: e } => say!("grid step       : {}", step(e)),
        StoredLayout::Uniform { low_exponent, high_exponent, widths: [low, high], .. } => {
            say!("grid step       : {}", step(low_exponent));
            say!("high-band step  : {}", step(high_exponent));
            say!("plane widths    : low band {low}, high band {high}");
        }
    }
    say!("compressed bytes: {}", bytes.len());
    say!("dims            : {:?}", tensor.dims());
    say!("elements        : {}", tensor.len());
    say!("raw bytes       : {}", tensor.len() * 8);
    say!(
        "compression rate: {:.2}%",
        100.0 * bytes.len() as f64 / (tensor.len() * 8) as f64
    );
    say!("value range     : [{lo}, {hi}]");
    say!("mean            : {}", tensor.mean());
    print_chunked_breakdown(&bytes)
}

/// For WPK1 chunked streams, a per-member table of stored and inflated
/// sizes, read from the container's header and chunk index. The
/// decompress `info` ran first has checked every member's CRC.
fn print_chunked_breakdown(bytes: &[u8]) -> Result<(), String> {
    use ckpt_deflate::chunked::{self, HEADER_BYTES};
    // The container is always outermost: it wraps the WCK1 stream.
    if !chunked::is_chunked(bytes) {
        return Ok(());
    }
    let header = chunked::parse_header(bytes).map_err(|e| e.to_string())?;
    let index = bytes.get(HEADER_BYTES..HEADER_BYTES + header.index_bytes()).unwrap_or_default();
    let members = header.members(index, bytes.len() as u64).map_err(|e| e.to_string())?;
    say!("container       : WPK1 chunked, {} members", header.chunk_count);
    say!("chunk bytes     : {} ({} total uncompressed)", header.chunk_bytes, header.total);
    say!("{:>7} {:>12} {:>14}", "member", "compressed", "uncompressed");
    for (i, m) in members.iter().enumerate() {
        say!("{i:>7} {:>12} {:>14}", m.compressed_len, m.uncompressed_len);
    }
    Ok(())
}

pub fn gen(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "gen", &["dims", "kind", "seed", "out"])?;
    let dims = parse_dims(args.get("dims").ok_or("--dims is required for gen")?)?;
    let out = args.get("out").ok_or("-o/--out is required for gen")?;
    let kind = match args.get("kind").unwrap_or("temperature") {
        "temperature" => FieldKind::Temperature,
        "pressure" => FieldKind::Pressure,
        "wind_u" => FieldKind::WindU,
        "wind_v" => FieldKind::WindV,
        other => return Err(format!("unknown --kind {other:?}")),
    };
    let seed = args.get_or("seed", 7u64)?;
    let spec = FieldSpec { dims: dims.clone(), kind, seed, harmonics: 12, noise_amp: 1e-4 };
    let tensor = generate(&spec);
    write_raw_tensor(out, &tensor)?;
    eprintln!("generated {} field {:?} -> {out} ({} bytes)", kind.name(), dims, tensor.len() * 8);
    Ok(())
}

/// Verifies a compress/decompress cycle on a tensor (used by tests).
#[cfg(test)]
pub fn roundtrip_error(t: &Tensor<f64>, cfg: CompressorConfig) -> f64 {
    let c = Compressor::new(cfg).unwrap();
    let packed = c.compress(t).unwrap();
    let restored = Compressor::decompress(&packed.bytes).unwrap();
    relative_error(t, &restored).unwrap().average
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `config_from` over the given `ckpt compress` flags.
    fn cfg(flags: &[&str]) -> Result<CompressorConfig, String> {
        let argv: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
        config_from(&Args::parse(&argv, "compress", COMPRESS_FLAGS)?)
    }

    fn tempfile(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("ckpt-cli-test-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn gen_compress_decompress_cycle() {
        let raw = tempfile("a.f64");
        let wck = tempfile("a.wck");
        let back = tempfile("a.back.f64");

        gen(&["--dims".into(), "32x8x2".into(), "-o".into(), raw.clone()]).unwrap();
        compress(&[
            raw.clone(),
            "--dims".into(),
            "32x8x2".into(),
            "--n".into(),
            "64".into(),
            "-o".into(),
            wck.clone(),
        ])
        .unwrap();
        decompress(&[wck.clone(), "-o".into(), back.clone()]).unwrap();

        let original = read_raw_tensor(&raw, &[32, 8, 2]).unwrap();
        let restored = read_raw_tensor(&back, &[32, 8, 2]).unwrap();
        let err = relative_error(&original, &restored).unwrap();
        assert!(err.average < 0.01, "{}", err.average);

        let compressed_len = std::fs::metadata(&wck).unwrap().len();
        assert!(compressed_len < std::fs::metadata(&raw).unwrap().len());

        info(std::slice::from_ref(&wck)).unwrap();
        for p in [raw, wck, back] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn bounded_compress_cli_path() {
        let raw = tempfile("b.f64");
        let wck = tempfile("b.wck");
        gen(&["--dims".into(), "64x16".into(), "-o".into(), raw.clone()]).unwrap();
        compress(&[
            raw.clone(),
            "--dims".into(),
            "64x16".into(),
            "--bound".into(),
            "0.001".into(),
            "-o".into(),
            wck.clone(),
        ])
        .unwrap();
        assert!(std::fs::metadata(&wck).unwrap().len() > 0);
        let _ = std::fs::remove_file(raw);
        let _ = std::fs::remove_file(wck);
    }

    #[test]
    fn threaded_cli_cycle_matches_serial() {
        let raw = tempfile("t.f64");
        let wck_s = tempfile("t.serial.wck");
        let wck_p = tempfile("t.par.wck");
        let back = tempfile("t.back.f64");

        gen(&["--dims".into(), "48x12x2".into(), "-o".into(), raw.clone()]).unwrap();
        compress(&[raw.clone(), "--dims".into(), "48x12x2".into(), "-o".into(), wck_s.clone()])
            .unwrap();
        compress(&[
            raw.clone(),
            "--dims".into(),
            "48x12x2".into(),
            "--threads".into(),
            "4".into(),
            "--chunk-bytes".into(),
            "8192".into(),
            "-o".into(),
            wck_p.clone(),
        ])
        .unwrap();
        decompress(&[wck_p.clone(), "-o".into(), back.clone()]).unwrap();
        let refused = decompress(&[wck_p.clone(), "--threads".into(), "4".into()]);
        assert!(refused.unwrap_err().contains("unknown flag --threads"));

        let serial = Compressor::decompress(&std::fs::read(&wck_s).unwrap()).unwrap();
        let restored = read_raw_tensor(&back, &[48, 12, 2]).unwrap();
        assert_eq!(serial.as_slice(), restored.as_slice());

        assert!(cfg(&["--threads", "0"]).is_err());
        for p in [raw, wck_s, wck_p, back] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn the_output_file_holds_the_bytes_compress_returns() {
        let raw = tempfile("s.f64");
        let wck = tempfile("s.wck");
        gen(&["--dims".into(), "64x16x2".into(), "-o".into(), raw.clone()]).unwrap();
        let tensor = read_raw_tensor(&raw, &[64, 16, 2]).unwrap();
        for threads in [1usize, 4] {
            compress(&[
                raw.clone(),
                "--dims".into(),
                "64x16x2".into(),
                "--threads".into(),
                threads.to_string(),
                "--chunk-bytes".into(),
                "4096".into(),
                "-o".into(),
                wck.clone(),
            ])
            .unwrap();
            let cfg =
                CompressorConfig::paper_proposed().with_threads(threads).with_chunk_bytes(4096);
            let in_memory = Compressor::new(cfg).unwrap().compress(&tensor).unwrap();
            assert_eq!(std::fs::read(&wck).unwrap(), in_memory.bytes, "threads={threads}");
        }
        let _ = std::fs::remove_file(raw);
        let _ = std::fs::remove_file(wck);
    }

    #[test]
    fn info_reports_chunked_member_breakdown() {
        let raw = tempfile("m.f64");
        let wck = tempfile("m.wck");
        gen(&["--dims".into(), "64x16x2".into(), "-o".into(), raw.clone()]).unwrap();
        compress(&[
            raw.clone(),
            "--dims".into(),
            "64x16x2".into(),
            "--threads".into(),
            "4".into(),
            "--chunk-bytes".into(),
            "2048".into(),
            "-o".into(),
            wck.clone(),
        ])
        .unwrap();
        let bytes = std::fs::read(&wck).unwrap();
        assert!(ckpt_deflate::chunked::is_chunked(&bytes), "a threaded stream is a WPK1 container");
        let header = ckpt_deflate::chunked::parse_header(&bytes).unwrap();
        assert!(header.chunk_count > 1, "expected multiple members");
        // The print path runs end to end on a real file.
        info(std::slice::from_ref(&wck)).unwrap();
        // Serial gzip output has no container to report.
        let wck_s = tempfile("m.serial.wck");
        compress(&[raw.clone(), "--dims".into(), "64x16x2".into(), "-o".into(), wck_s.clone()])
            .unwrap();
        assert!(!ckpt_deflate::chunked::is_chunked(&std::fs::read(&wck_s).unwrap()));
        for p in [raw, wck, wck_s] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn size_mismatch_rejected() {
        let raw = tempfile("c.f64");
        std::fs::write(&raw, [0u8; 24]).unwrap();
        let err = compress(&[raw.clone(), "--dims".into(), "2x2".into()]).unwrap_err();
        assert!(err.contains("imply"), "{err}");
        // Extents whose product (2^64) or byte count (2^61 · 8) does
        // not fit a usize are a mismatch too, not a wrapped 0.
        for dims in ["4294967296x4294967296", "2305843009213693952"] {
            let err = compress(&[raw.clone(), "--dims".into(), dims.into()]).unwrap_err();
            assert!(err.contains("overflow") || err.contains("imply"), "{dims}: {err}");
        }
        let _ = std::fs::remove_file(raw);
    }

    #[test]
    fn bad_flags_rejected() {
        assert!(cfg(&["--method", "magic"]).is_err());
        assert!(cfg(&["--n", "0"]).is_err());
        assert!(
            cfg(&["--container", "7z"]).is_err()
        );
        assert!(gen(&["--dims".into(), "4x4".into()]).is_err()); // missing -o
    }

    #[test]
    fn retired_values_fail_with_the_surviving_ones() {
        for (flag, retired, survivors) in [
            ("--container", "zlib", "(gzip|none)"),
            ("--container", "tempfile", "(gzip|none)"),
            ("--method", "lloyd", "(proposed|simple)"),
        ] {
            let err = cfg(&[flag, retired])
                .expect_err(retired);
            assert!(err.contains(retired) && err.contains(survivors), "{flag} {retired}: {err}");
        }
    }

    #[test]
    fn d_is_bounded_by_its_header_field() {
        let d = |v: &str| cfg(&["--d", v]);
        assert_eq!(d("65535").unwrap().quant.d, 65_535);
        for too_big in ["65536", "65600", "1000000000000"] {
            assert!(d(too_big).unwrap_err().contains("outside 1..=65535"), "--d {too_big}");
        }
    }

    #[test]
    fn simple_and_proposed_both_reachable_from_cli_config() {
        let t = generate(&FieldSpec::small(FieldKind::Temperature, 5));
        let simple = cfg(&["--method", "simple", "--n", "16"])
        .unwrap();
        let proposed = cfg(&["--method", "proposed", "--n", "16"])
        .unwrap();
        assert!(roundtrip_error(&t, proposed) <= roundtrip_error(&t, simple));
    }
}
