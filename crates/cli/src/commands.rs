//! The `ckpt` subcommands.

use crate::args::{parse_dims, Args};
use ckpt_core::bound::compress_bounded;
#[cfg(test)]
use ckpt_core::metrics::relative_error;
use ckpt_core::{Compressor, CompressorConfig, Container};
use ckpt_deflate::Level;
use ckpt_quant::Method;
use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};
use ckpt_tensor::{Shape, Tensor};

pub const USAGE: &str = "\
ckpt — wavelet-based lossy checkpoint compression (IPDPS'15 reproduction)

USAGE:
  ckpt compress   <in.f64> --dims AxBxC [--method proposed|simple] [--n 1..256]
                  [--d 64] [--levels 1] [--kernel haar|cdf53|cdf97]
                  [--container gzip|tempfile|none]
                  [--level store|fast|default]
                  [--threads N] [--chunk-bytes BYTES]
                  [--bound FRACTION] [-o out.wck]
  ckpt decompress <in.wck> [--threads N] [-o out.f64]
  ckpt info       <in.wck>
  ckpt gen        --dims AxBxC [--kind temperature|pressure|wind_u|wind_v]
                  [--seed N] -o out.f64
  ckpt store      save|restore|list|verify|gc|compact … (see `ckpt store help`)
  ckpt serve      <dir> --socket <path> [--for-ms N]
  ckpt fetch      <socket> [--list true | [--gen N] [--rank N] -o out]
  ckpt replicate  <dir> [--to <socket> | --to-dir <dir> | --adopt <socket>]

Raw array files are row-major little-endian f64.

`ckpt info` on a WPK1 chunked stream additionally prints a per-member
breakdown (member count, compressed/uncompressed bytes, per-member CRC
status). `ckpt store` manages a crash-consistent on-disk checkpoint
repository with atomic commit, full+incremental generation chains, and
GC; `ckpt store restore --stream`/`--resume` runs a resumable
streaming restore with durable progress tokens. `ckpt serve` exports a
store's committed generations over a Unix socket against epoch-pinned
snapshots (saves and GC keep running underneath); `ckpt fetch` pulls a
generation from a running server with CRC-verified ranged reads.
`ckpt replicate` pushes committed generations to a buddy store (local
dir or served socket) behind a durable replication cursor, or rebuilds
a lost primary by adopting the buddy's contents.

--threads 1 (the default) writes one gzip member; more threads deflate
one array's chunks in parallel (gzip switches to a chunked multi-member
stream so decompression parallelizes too; the wavelet and the quantizer
are serial, and decompressed values are identical either way).";

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

/// Parses a `--level` value; shared with `ckpt store save`.
pub(crate) fn parse_level(name: &str) -> Result<Level, String> {
    match name {
        "store" => Ok(Level::Store),
        "fast" => Ok(Level::Fast),
        "default" => Ok(Level::Default),
        other => Err(format!("unknown --level {other:?} (store|fast|default)")),
    }
}

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
    cfg = match args.get("kernel").unwrap_or("haar") {
        "haar" => cfg.with_kernel(ckpt_wavelet::Kernel::Haar),
        "cdf53" => cfg.with_kernel(ckpt_wavelet::Kernel::Cdf53),
        "cdf97" => cfg.with_kernel(ckpt_wavelet::Kernel::Cdf97),
        other => return Err(format!("unknown --kernel {other:?}")),
    };
    cfg = match args.get("container").unwrap_or("gzip") {
        "gzip" => cfg.with_container(Container::Gzip),
        "tempfile" => cfg.with_container(Container::TempFileGzip),
        "none" => cfg.with_container(Container::None),
        other => return Err(format!("unknown --container {other:?} (gzip|tempfile|none)")),
    };
    cfg = cfg.with_level(parse_level(args.get("level").unwrap_or("default"))?);
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
    let args = Args::parse(argv)?;
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
    let args = Args::parse(argv)?;
    let input = args.one_positional("input file")?;
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let threads = args.get_or("threads", 1usize)?;
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
    let args = Args::parse(argv)?;
    let input = args.one_positional("input file")?;
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let tensor = Compressor::decompress(&bytes).map_err(|e| e.to_string())?;
    let (lo, hi) = tensor.min_max();
    println!("file            : {input}");
    println!("compressed bytes: {}", bytes.len());
    println!("dims            : {:?}", tensor.dims());
    println!("elements        : {}", tensor.len());
    println!("raw bytes       : {}", tensor.len() * 8);
    println!(
        "compression rate: {:.2}%",
        100.0 * bytes.len() as f64 / (tensor.len() * 8) as f64
    );
    println!("value range     : [{lo}, {hi}]");
    println!("mean            : {}", tensor.mean());
    print_chunked_breakdown(&bytes);
    Ok(())
}

/// For WPK1 chunked streams, a per-member table: stored size, expected
/// inflated size, and whether each member's CRC checks out.
fn print_chunked_breakdown(bytes: &[u8]) {
    // The container is always outermost: it wraps the WCK1 stream.
    if !ckpt_deflate::chunked::is_chunked(bytes) {
        return;
    }
    let Ok(info) = ckpt_deflate::chunked::inspect(bytes) else { return };
    println!("container       : WPK1 chunked, {} members", info.chunk_count);
    println!(
        "chunk bytes     : {} ({} total uncompressed)",
        info.chunk_bytes, info.total_uncompressed
    );
    println!(
        "combined crc    : {:08x} ({})",
        info.stored_crc,
        if info.combined_crc_ok { "ok" } else { "MISMATCH" }
    );
    println!("{:>7} {:>12} {:>14} {:>10} crc", "member", "compressed", "uncompressed", "crc32");
    for m in &info.members {
        println!(
            "{:>7} {:>12} {:>14} {:>10} {}",
            m.index,
            m.compressed_len,
            m.uncompressed_len,
            format!("{:08x}", m.stored_crc),
            if m.crc_ok { "ok" } else { "BAD" }
        );
    }
}

pub fn gen(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
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
        decompress(&[wck_p.clone(), "--threads".into(), "4".into(), "-o".into(), back.clone()])
            .unwrap();

        let serial = Compressor::decompress(&std::fs::read(&wck_s).unwrap()).unwrap();
        let restored = read_raw_tensor(&back, &[48, 12, 2]).unwrap();
        assert_eq!(serial.as_slice(), restored.as_slice());

        assert!(config_from(&Args::parse(&["--threads".into(), "0".into()]).unwrap()).is_err());
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
        let breakdown = ckpt_deflate::chunked::inspect(&bytes).unwrap();
        assert!(breakdown.chunk_count > 1, "expected multiple members");
        assert!(breakdown.all_ok());
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
        assert!(config_from(&Args::parse(&["--method".into(), "magic".into()]).unwrap()).is_err());
        assert!(config_from(&Args::parse(&["--n".into(), "0".into()]).unwrap()).is_err());
        assert!(
            config_from(&Args::parse(&["--container".into(), "7z".into()]).unwrap()).is_err()
        );
        assert!(config_from(&Args::parse(&["--level".into(), "turbo".into()]).unwrap()).is_err());
        assert!(gen(&["--dims".into(), "4x4".into()]).is_err()); // missing -o
    }

    #[test]
    fn retired_values_fail_with_the_surviving_ones() {
        for (flag, retired, survivors) in [
            ("--level", "best", "(store|fast|default)"),
            ("--container", "zlib", "(gzip|tempfile|none)"),
            ("--method", "lloyd", "(proposed|simple)"),
        ] {
            let err = config_from(&Args::parse(&[flag.into(), retired.into()]).unwrap())
                .expect_err(retired);
            assert!(err.contains(retired) && err.contains(survivors), "{flag} {retired}: {err}");
        }
    }

    #[test]
    fn d_is_bounded_by_its_header_field() {
        let d = |v: &str| config_from(&Args::parse(&["--d".into(), v.into()]).unwrap());
        assert_eq!(d("65535").unwrap().quant.d, 65_535);
        for too_big in ["65536", "65600", "1000000000000"] {
            assert!(d(too_big).unwrap_err().contains("outside 1..=65535"), "--d {too_big}");
        }
    }

    #[test]
    fn level_flag_reaches_the_compressor_config() {
        for (name, level) in
            [("store", Level::Store), ("fast", Level::Fast), ("default", Level::Default)]
        {
            let cfg =
                config_from(&Args::parse(&["--level".into(), name.into()]).unwrap()).unwrap();
            assert_eq!(cfg.level, level);
        }
        let default = config_from(&Args::parse(&[]).unwrap()).unwrap();
        assert_eq!(default.level, Level::Default);
    }

    #[test]
    fn simple_and_proposed_both_reachable_from_cli_config() {
        let t = generate(&FieldSpec::small(FieldKind::Temperature, 5));
        let simple = config_from(
            &Args::parse(&["--method".into(), "simple".into(), "--n".into(), "16".into()])
                .unwrap(),
        )
        .unwrap();
        let proposed = config_from(
            &Args::parse(&["--method".into(), "proposed".into(), "--n".into(), "16".into()])
                .unwrap(),
        )
        .unwrap();
        assert!(roundtrip_error(&t, proposed) <= roundtrip_error(&t, simple));
    }
}
