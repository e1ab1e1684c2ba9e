//! `ckpt store` — operate a crash-consistent checkpoint repository.

use crate::args::Args;
use ckpt_deflate::Level;
use ckpt_store::{SegmentFormat, Store};

pub const STORE_USAGE: &str = "\
USAGE:
  ckpt store save    <dir> <rank0-file> [rank1-file ...] [--step N]
                     [--format checkpoint|array|auto] [--base GEN]
                     [--threads N]
                     [--error-bound EPS --dims AxBxC]
  ckpt store restore <dir> [--gen N] [--rank N] [--raw true] -o out
  ckpt store list    <dir>
  ckpt store verify  <dir>
  ckpt store gc      <dir> [--keep N]
  ckpt store compact <dir> [--max-depth N] [--manifest-only true]
                     [--threads N]

save sniffs the payload format from its magic (CKPT image vs WCK1/WPK1
array) unless --format is given; --base GEN saves the files as INC2
increments chained onto generation GEN. A --base payload that is not
already a packed increment (INC2, or the older INC1) of GEN's shape is
treated as the full current array:
the store materializes the base generation, computes the increment
itself, and compresses it. With --error-bound the
payload files are instead raw little-endian f64 arrays of --dims: each
rank is compressed with the smallest division number meeting the bound
(average relative error <= EPS), and the bound is recorded durably in
the generation's manifest. A plain full save streams each payload file
into its segment in 1 MiB appends whatever --threads says; --threads
fans out the rank segment writes of --base and --error-bound saves,
whose payloads are built in memory. restore materializes the latest committed
generation (or --gen): a checkpoint image is written verbatim, an
array chain is decompressed, increments applied, and written as raw
little-endian f64 (--raw true copies the segment bytes instead).
gc keeps the newest --keep (default 2) full
generations plus every increment whose whole chain survives;
unreadable segments are moved to quarantine/, never deleted.

compact bounds the store's open and restore cost as generations
accumulate: increment chains deeper than --max-depth (default 8) are
rewritten into fresh full generations (bit-exact with chain replay)
and the old links retired, then the live state is written as a CSM2
manifest snapshot and the CSM1 log truncated, making reopen cost
O(live generations). --manifest-only true skips the chain rewrite.";

pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = argv.split_first() else {
        eprintln!("{STORE_USAGE}");
        return Err("missing store subcommand".into());
    };
    match sub.as_str() {
        "save" => save(rest),
        "restore" => restore(rest),
        "list" => list(rest),
        "verify" => verify(rest),
        "gc" => gc(rest),
        "compact" => compact(rest),
        "help" => {
            say!("{STORE_USAGE}");
            Ok(())
        }
        other => Err(format!("unknown store subcommand {other:?}; try `ckpt store help`")),
    }
}

pub(crate) fn open(dir: &str) -> Result<Store, String> {
    let store = Store::open(dir).map_err(|e| format!("opening store {dir}: {e}"))?;
    let report = store.open_report();
    if report.truncated_bytes > 0 || !report.rolled_back_gens.is_empty() {
        eprintln!(
            "recovery: truncated {} torn manifest bytes, rolled back generations {:?}",
            report.truncated_bytes, report.rolled_back_gens
        );
    }
    if !report.quarantined_files.is_empty() {
        eprintln!("recovery: quarantined {:?}", report.quarantined_files);
    }
    Ok(store)
}

/// Guesses the segment format from the payload's leading magic.
fn sniff_format(head: &[u8]) -> SegmentFormat {
    if head.starts_with(&ckpt_deflate::frame::CKPT.magic) {
        SegmentFormat::Checkpoint
    } else {
        SegmentFormat::Array // WCK1/WPK1/raw all save as arrays
    }
}

fn save(argv: &[String]) -> Result<(), String> {
    let flags = ["step", "format", "base", "threads", "error-bound", "dims"];
    let args = Args::parse(argv, "store save", &flags)?;
    let [dir, files @ ..] = args.positional.as_slice() else {
        return Err("save needs a store dir and at least one payload file".into());
    };
    if files.is_empty() {
        return Err("save needs at least one payload file (one per rank)".into());
    }
    let step = args.get_or("step", 0u64)?;
    let threads = args.get_or("threads", 1usize)?;

    let base: Option<u64> = match args.get("base") {
        Some(raw) => {
            Some(raw.parse().map_err(|_| format!("invalid --base {raw:?}"))?)
        }
        None => None,
    };

    let mut store = open(dir)?;
    if let Some(raw) = args.get("error-bound") {
        if base.is_some() {
            return Err("--error-bound cannot be combined with --base".into());
        }
        let eps: f64 = raw.parse().map_err(|_| format!("invalid --error-bound {raw:?}"))?;
        return save_bounded(&mut store, &args, files, step, threads, eps);
    }
    let Some(base) = base else {
        return save_streamed(&mut store, args.get("format"), files, step);
    };
    let payloads = files
        .iter()
        .enumerate()
        .map(|(rank, f)| {
            let bytes = std::fs::read(f).map_err(|e| format!("reading {f}: {e}"))?;
            build_increment(&store, base, rank, bytes)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let gen = store.save_increment(step, base, &refs, threads).map_err(|e| e.to_string())?;
    let total: usize = payloads.iter().map(Vec::len).sum();
    eprintln!("committed generation {gen} (step {step}, {} ranks, {total} bytes)", files.len());
    Ok(())
}

/// Full save, the one path at every `--threads`: streams each rank's
/// payload file into its segment through the store's
/// [`ckpt_store::SegmentWriter`] in bounded chunks, never holding a
/// whole payload in memory. Payload files are opened (and the format
/// sniffed) before the save starts, so argv mistakes fail cleanly
/// instead of poisoning the store mid-save.
fn save_streamed(
    store: &mut Store,
    format_flag: Option<&str>,
    files: &[String],
    step: u64,
) -> Result<(), String> {
    use std::io::{Read, Seek, SeekFrom};
    let mut handles = Vec::with_capacity(files.len());
    for f in files {
        handles.push(std::fs::File::open(f).map_err(|e| format!("reading {f}: {e}"))?);
    }
    let format = match format_flag.unwrap_or("auto") {
        "checkpoint" => SegmentFormat::Checkpoint,
        "array" => SegmentFormat::Array,
        "auto" => {
            let mut magic = [0u8; 4];
            let n = handles[0]
                .read(&mut magic)
                .map_err(|e| format!("reading {}: {e}", files[0]))?;
            handles[0].seek(SeekFrom::Start(0)).map_err(|e| e.to_string())?;
            sniff_format(&magic[..n])
        }
        other => return Err(format!("unknown --format {other:?}")),
    };
    let ranks = u32::try_from(files.len())
        .map_err(|_| format!("{} ranks exceed the u32 manifest field", files.len()))?;
    let mut total = 0u64;
    let gen = store
        .save_full_streamed(step, format, ranks, |rank, writer| {
            let file = &mut handles[rank as usize];
            let mut buf = vec![0u8; 1 << 20];
            loop {
                let n = file.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                writer.append(&buf[..n])?;
                total += n as u64;
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
    eprintln!(
        "committed generation {gen} (step {step}, {} ranks, {total} bytes)",
        files.len()
    );
    Ok(())
}

/// Error-bounded full save: each rank file is a raw f64 array of
/// `--dims`, compressed with the smallest division number whose
/// measured average relative error meets `eps`; the bound itself is
/// recorded in the generation's manifest so a later reader knows what
/// accuracy the stored data guarantees.
fn save_bounded(
    store: &mut Store,
    args: &Args,
    files: &[String],
    step: u64,
    threads: usize,
    eps: f64,
) -> Result<(), String> {
    let dims = crate::args::parse_dims(
        args.get("dims")
            .ok_or("--dims is required with --error-bound (payload files are raw f64 arrays)")?,
    )?;
    let cfg = ckpt_core::CompressorConfig::paper_proposed();
    let mut payloads = Vec::with_capacity(files.len());
    for (rank, f) in files.iter().enumerate() {
        let tensor = crate::commands::read_raw_tensor(f, &dims)?;
        let r = ckpt_core::bound::compress_bounded(&tensor, cfg, eps)
            .map_err(|e| format!("rank {rank}: {e}"))?;
        eprintln!(
            "rank {rank}: bound {eps} met with n = {} ({} probes, {:.6}% avg error)",
            r.n,
            r.probes,
            r.error.average_percent()
        );
        payloads.push(r.compressed.bytes);
    }
    let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let gen = store
        .save_full_bounded(step, SegmentFormat::Array, &refs, threads, eps)
        .map_err(|e| e.to_string())?;
    let total: usize = payloads.iter().map(Vec::len).sum();
    eprintln!(
        "committed generation {gen} (step {step}, {} ranks, {total} bytes, bound {eps})",
        files.len()
    );
    Ok(())
}

/// Prepares one rank's payload for an incremental save. A payload that
/// is already a packed increment passes through untouched if it applies
/// to the base generation — it decodes, and its XOR lands on the base's
/// shape — so the store never commits a link its own restore refuses;
/// anything else is taken to be the rank's full current array, and the
/// increment is computed here against the base generation and
/// compressed.
fn build_increment(
    store: &Store,
    base_gen: u64,
    rank: usize,
    bytes: Vec<u8>,
) -> Result<Vec<u8>, String> {
    use ckpt_core::incremental;
    let rank_u32 =
        u32::try_from(rank).map_err(|_| format!("rank {rank} exceeds the u32 manifest field"))?;
    let mut base = store
        .restore_array(base_gen, rank_u32)
        .map_err(|e| format!("rank {rank}: materializing base generation {base_gen}: {e}"))?;
    // `xor_into` refuses a wrong shape before touching `base`, so a
    // refused payload leaves the base intact for the array path.
    if incremental::decode(&bytes).and_then(|inc| inc.xor_into(&mut base)).is_ok() {
        return Ok(bytes);
    }
    let current = ckpt_core::Compressor::decompress(&bytes)
        .map_err(|e| format!("rank {rank}: payload is neither an increment nor a decodable array: {e}"))?;
    let (packed, stats) = incremental::increment(&base, &current, Level::Default)
        .map_err(|e| format!("rank {rank}: building increment: {e}"))?;
    eprintln!(
        "rank {rank}: built increment against gen {base_gen} ({}/{} pages dirty, {} bytes)",
        stats.dirty_pages,
        stats.pages,
        packed.len()
    );
    Ok(packed)
}

fn restore(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "store restore", &["gen", "rank", "raw", "out"])?;
    let dir = args.one_positional("store dir")?;
    let out = args.get("out").ok_or("-o/--out is required for restore")?;
    let rank = args.get_or("rank", 0u32)?;
    let raw = args.get_or("raw", false)?;

    let store = open(dir)?;
    let gen = match args.get("gen") {
        Some(g) => g.parse().map_err(|_| format!("invalid --gen {g:?}"))?,
        None => store
            .latest_committed()
            .ok_or("store has no committed generation to restore")?,
    };
    let info = store
        .generations()
        .into_iter()
        .find(|g| g.gen == gen)
        .ok_or_else(|| format!("generation {gen} not found"))?;

    if raw || info.format == SegmentFormat::Checkpoint {
        let bytes = store.read_segment(gen, rank).map_err(|e| e.to_string())?;
        std::fs::write(out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!(
            "restored gen {gen} rank {rank} ({} segment, {} bytes) -> {out}",
            info.format.name(),
            bytes.len()
        );
    } else {
        let tensor = store.restore_array(gen, rank).map_err(|e| e.to_string())?;
        crate::commands::write_raw_tensor(out, &tensor)?;
        let chain = store.resolve_chain(gen).map_err(|e| e.to_string())?;
        eprintln!(
            "restored gen {gen} rank {rank} (chain {chain:?}, dims {:?}) -> {out}",
            tensor.dims()
        );
    }
    Ok(())
}

fn list(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "store list", &[])?;
    let dir = args.one_positional("store dir")?;
    let store = open(dir)?;
    let gens = store.generations();
    if gens.is_empty() {
        say!("(empty store)");
        return Ok(());
    }
    say!("{:>8} {:>8} {:<10} {:>8} {:>5} {:>12} status", "gen", "step", "format", "base", "ranks", "bytes");
    for g in &gens {
        let status = match (g.committed, g.retired) {
            (_, Some(r)) => match r {
                ckpt_store::RetireReason::Gc => "retired(gc)",
                ckpt_store::RetireReason::Quarantine => "quarantined",
            },
            (true, None) => "committed",
            (false, None) => "uncommitted",
        };
        let base = if g.base_gen == g.gen { "-".to_string() } else { g.base_gen.to_string() };
        say!(
            "{:>8} {:>8} {:<10} {:>8} {:>5} {:>12} {status}",
            g.gen,
            g.step,
            g.format.name(),
            base,
            g.ranks,
            g.bytes
        );
    }
    if let Some(latest) = store.latest_committed() {
        say!("latest committed: generation {latest}");
    }
    Ok(())
}

fn verify(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "store verify", &[])?;
    let dir = args.one_positional("store dir")?;
    let store = open(dir)?;
    let report = store.verify().map_err(|e| e.to_string())?;
    say!("checked {} segments", report.segments_checked);
    if report.clean() {
        say!("store is clean");
        Ok(())
    } else {
        for (gen, rank, what) in &report.problems {
            say!("PROBLEM gen {gen} rank {rank}: {what}");
        }
        Err(format!("{} problems found", report.problems.len()))
    }
}

fn gc(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "store gc", &["keep"])?;
    let dir = args.one_positional("store dir")?;
    let keep = args.get_or("keep", 2usize)?;
    let mut store = open(dir)?;
    let report = store.gc(keep).map_err(|e| e.to_string())?;
    say!(
        "retained {:?}, pruned {:?} ({} files deleted), quarantined {:?}",
        report.retained, report.pruned, report.files_deleted, report.quarantined
    );
    Ok(())
}

fn compact(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "store compact", &["max-depth", "manifest-only", "threads"])?;
    let dir = args.one_positional("store dir")?;
    let max_depth = args.get_or("max-depth", 8usize)?;
    let threads = args.get_or("threads", 1usize)?;
    let manifest_only = args.get_or("manifest-only", false)?;
    let mut store = open(dir)?;
    if !manifest_only {
        let report = store.compact_chains(max_depth, threads).map_err(|e| e.to_string())?;
        for (old_tip, new_gen) in &report.rewritten {
            say!("rewrote chain tip {old_tip} as full generation {new_gen}");
        }
        say!(
            "chains: {} rewritten, {} links retired ({} files deleted), {} skipped pinned",
            report.rewritten.len(),
            report.retired.len(),
            report.files_deleted,
            report.pinned.len()
        );
    }
    let report = store.compact_manifest().map_err(|e| e.to_string())?;
    say!(
        "manifest: {} live generations snapshotted ({} pruned), {} snapshot bytes, \
         {} log bytes truncated",
        report.snapshot_gens, report.pruned_gens, report.snapshot_bytes, report.log_bytes_truncated
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(name: &str) -> String {
        let p = std::env::temp_dir().join(format!("ckpt-cli-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p.to_string_lossy().into_owned()
    }

    fn tempfile(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("ckpt-cli-store-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn save_list_verify_restore_gc_cycle() {
        let dir = tempdir("cycle");
        let raw = tempfile("cycle.f64");
        let wck = tempfile("cycle.wck");
        crate::commands::gen(&argv(&["--dims", "32x8", "-o", &raw])).unwrap();
        crate::commands::compress(&argv(&[&raw, "--dims", "32x8", "-o", &wck])).unwrap();

        // Two full generations.
        dispatch(&argv(&["save", &dir, &wck, "--step", "10"])).unwrap();
        dispatch(&argv(&["save", &dir, &wck, "--step", "20"])).unwrap();
        dispatch(&argv(&["list", &dir])).unwrap();
        dispatch(&argv(&["verify", &dir])).unwrap();

        // Restore the latest to raw f64 and compare with decompress.
        let back = tempfile("cycle.back.f64");
        dispatch(&argv(&["restore", &dir, "-o", &back])).unwrap();
        let direct = tempfile("cycle.direct.f64");
        crate::commands::decompress(&argv(&[&wck, "-o", &direct])).unwrap();
        assert_eq!(std::fs::read(&back).unwrap(), std::fs::read(&direct).unwrap());

        // Raw restore hands back the exact stored segment.
        let seg = tempfile("cycle.seg");
        dispatch(&argv(&["restore", &dir, "--gen", "1", "--raw", "true", "-o", &seg])).unwrap();
        assert_eq!(std::fs::read(&seg).unwrap(), std::fs::read(&wck).unwrap());

        // GC to one full.
        dispatch(&argv(&["gc", &dir, "--keep", "1"])).unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.latest_committed(), Some(2));
        assert!(store.read_segment(1, 0).is_err());
        drop(store);

        for p in [raw, wck, back, direct, seg] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_sniffs_checkpoint_magic_and_base_builds_chains() {
        use ckpt_core::checkpoint::CheckpointBuilder;
        use ckpt_core::incremental;
        use ckpt_deflate::Level;
        use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};

        let dir = tempdir("sniff");
        // A CKPT image is detected without --format.
        let field = generate(&FieldSpec::small(FieldKind::Temperature, 8));
        let mut b = CheckpointBuilder::new(5);
        b.add_raw("t", &field).unwrap();
        let ck = tempfile("sniff.ckpt");
        std::fs::write(&ck, b.into_bytes()).unwrap();
        dispatch(&argv(&["save", &dir, &ck, "--step", "5"])).unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.generations()[0].format, SegmentFormat::Checkpoint);
        drop(store);

        // An increment chained onto an array generation via --base.
        let comp =
            ckpt_core::Compressor::new(ckpt_core::CompressorConfig::paper_proposed()).unwrap();
        let packed = comp.compress(&field).unwrap().bytes;
        let arr = tempfile("sniff.wck");
        std::fs::write(&arr, &packed).unwrap();
        dispatch(&argv(&["save", &dir, &arr, "--step", "6"])).unwrap();

        let base = ckpt_core::Compressor::decompress(&packed).unwrap();
        let mut cur = base.clone();
        cur.map_inplace(|v| v + 2.0);
        let (inc, _) = incremental::increment(&base, &cur, Level::Default).unwrap();
        let incf = tempfile("sniff.inc");
        std::fs::write(&incf, &inc).unwrap();
        dispatch(&argv(&["save", &dir, &incf, "--step", "7", "--base", "2"])).unwrap();

        // Restoring the increment generation replays the chain.
        let out = tempfile("sniff.out.f64");
        dispatch(&argv(&["restore", &dir, "--gen", "3", "-o", &out])).unwrap();
        let bytes = std::fs::read(&out).unwrap();
        let restored: Vec<f64> =
            bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(restored, cur.as_slice());

        // Chaining onto a checkpoint generation is refused.
        assert!(dispatch(&argv(&["save", &dir, &incf, "--base", "1"])).is_err());

        for p in [ck, arr, incf, out] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_base_builds_the_increment_in_the_store() {
        let dir = tempdir("level");
        let raw = tempfile("level.f64");
        let wck = tempfile("level.wck");
        crate::commands::gen(&argv(&["--dims", "64x16", "-o", &raw])).unwrap();
        crate::commands::compress(&argv(&[&raw, "--dims", "64x16", "-o", &wck])).unwrap();
        dispatch(&argv(&["save", &dir, &wck, "--step", "1"])).unwrap();

        // Drift the state and compress the *full* new array — no
        // offline increment. `save --base` must build it in-store.
        let base = ckpt_core::Compressor::decompress(&std::fs::read(&wck).unwrap()).unwrap();
        let mut cur = base.clone();
        cur.map_inplace(|v| v + 1.5);
        let rawf = tempfile("level.cur.f64");
        let wck2 = tempfile("level.cur.wck");
        crate::commands::write_raw_tensor(&rawf, &cur).unwrap();
        crate::commands::compress(&argv(&[&rawf, "--dims", "64x16", "-o", &wck2])).unwrap();
        dispatch(&argv(&["save", &dir, &wck2, "--step", "2", "--base", "1"])).unwrap();

        // The stored segment is a packed INC2 increment, and the chain
        // restores to the lossy image the full array decodes to.
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.generations()[1].format, SegmentFormat::Increment);
        drop(store);
        let out = tempfile("level.out.f64");
        dispatch(&argv(&["restore", &dir, "--gen", "2", "-o", &out])).unwrap();
        let bytes = std::fs::read(&out).unwrap();
        let restored: Vec<f64> =
            bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect();
        let expect = ckpt_core::Compressor::decompress(&std::fs::read(&wck2).unwrap()).unwrap();
        assert_eq!(restored, expect.as_slice());

        for p in [raw, wck, rawf, wck2, out] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_base_refuses_increments_its_restore_would_refuse() {
        let dir = tempdir("refuse");
        let raw = tempfile("refuse.f64");
        let wck = tempfile("refuse.wck");
        crate::commands::gen(&argv(&["--dims", "64x16x2", "-o", &raw])).unwrap();
        crate::commands::compress(&argv(&[&raw, "--dims", "64x16x2", "-o", &wck])).unwrap();
        dispatch(&argv(&["save", &dir, &wck, "--step", "1"])).unwrap();
        let before = Store::open(&dir).unwrap().generations();

        // A lying dirty map (the increment parser refuses it), and an
        // intact 16x8 increment on a 64x16x2 base (its XOR would not
        // land): neither is an increment of gen 1, nor an array.
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/");
        for name in ["inc1_bad_page_map.bin", "valid_inc1.bin"] {
            let payload = format!("{corpus}{name}");
            let err = dispatch(&argv(&["save", &dir, &payload, "--step", "2", "--base", "1"]))
                .unwrap_err();
            assert!(err.contains("neither an increment nor a decodable array"), "{name}: {err}");
        }
        dispatch(&argv(&["verify", &dir])).unwrap();
        assert_eq!(Store::open(&dir).unwrap().generations(), before, "nothing was committed");

        for p in [raw, wck] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_flags_on_disk_corruption() {
        let dir = tempdir("verify");
        let wck = tempfile("verify.wck");
        let raw = tempfile("verify.f64");
        crate::commands::gen(&argv(&["--dims", "16x4", "-o", &raw])).unwrap();
        crate::commands::compress(&argv(&[&raw, "--dims", "16x4", "-o", &wck])).unwrap();
        dispatch(&argv(&["save", &dir, &wck])).unwrap();

        // Flip a byte in the committed segment.
        let seg = std::path::Path::new(&dir).join("segments").join("00000001.0.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[3] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();
        let err = dispatch(&argv(&["verify", &dir])).unwrap_err();
        assert!(err.contains("problems"), "{err}");

        let _ = std::fs::remove_file(raw);
        let _ = std::fs::remove_file(wck);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_save_records_the_bound_and_restores() {
        let dir = tempdir("bounded");
        let raw = tempfile("bounded.f64");
        crate::commands::gen(&argv(&["--dims", "32x8", "-o", &raw])).unwrap();
        dispatch(&argv(&[
            "save",
            &dir,
            &raw,
            "--step",
            "4",
            "--error-bound",
            "0.01",
            "--dims",
            "32x8",
        ]))
        .unwrap();

        let store = Store::open(&dir).unwrap();
        let info = &store.generations()[0];
        assert_eq!(info.error_bound, Some(0.01));
        assert_eq!(info.format, SegmentFormat::Array);
        drop(store);

        // The bounded payload is an ordinary array generation: the
        // plain restore path decodes it to raw f64.
        let out = tempfile("bounded.out.f64");
        dispatch(&argv(&["restore", &dir, "-o", &out])).unwrap();
        assert_eq!(std::fs::metadata(&out).unwrap().len(), 32 * 8 * 8);

        // Misuse is refused before anything is saved.
        assert!(
            dispatch(&argv(&["save", &dir, &raw, "--error-bound", "0.01"])).is_err(),
            "missing --dims"
        );
        assert!(dispatch(&argv(&[
            "save", &dir, &raw, "--error-bound", "0.01", "--dims", "32x8", "--base", "1"
        ]))
        .is_err());
        assert!(dispatch(&argv(&[
            "save", &dir, &raw, "--error-bound", "nope", "--dims", "32x8"
        ]))
        .is_err());

        for p in [raw, out] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_truncates_the_manifest_and_rewrites_chains() {
        let dir = tempdir("compact");
        let raw = tempfile("compact.f64");
        let wck = tempfile("compact.wck");
        crate::commands::gen(&argv(&["--dims", "32x8", "-o", &raw])).unwrap();
        crate::commands::compress(&argv(&[&raw, "--dims", "32x8", "-o", &wck])).unwrap();
        dispatch(&argv(&["save", &dir, &wck, "--step", "1"])).unwrap();

        // Build a 3-deep chain by drifting the full array twice.
        let base = ckpt_core::Compressor::decompress(&std::fs::read(&wck).unwrap()).unwrap();
        for (i, shift) in [1.5f64, 3.0].iter().enumerate() {
            let mut cur = base.clone();
            cur.map_inplace(|v| v + shift);
            let rawf = tempfile(&format!("compact.cur{i}.f64"));
            let wck2 = tempfile(&format!("compact.cur{i}.wck"));
            crate::commands::write_raw_tensor(&rawf, &cur).unwrap();
            crate::commands::compress(&argv(&[&rawf, "--dims", "32x8", "-o", &wck2])).unwrap();
            dispatch(&argv(&[
                "save",
                &dir,
                &wck2,
                "--step",
                &(i + 2).to_string(),
                "--base",
                &(i + 1).to_string(),
            ]))
            .unwrap();
            let _ = std::fs::remove_file(rawf);
            let _ = std::fs::remove_file(wck2);
        }

        let before = tempfile("compact.before.f64");
        dispatch(&argv(&["restore", &dir, "--gen", "3", "-o", &before])).unwrap();

        // Chain depth 3 > 1: the tip is rewritten as a full and the
        // manifest snapshot truncates the log.
        dispatch(&argv(&["compact", &dir, "--max-depth", "1"])).unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(store.open_report().snapshot_used, "reopen seeds from the CSM2 snapshot");
        let tip = store.latest_committed().unwrap();
        assert!(tip > 3, "rewritten tip is a fresh generation");
        assert_eq!(store.generations().iter().find(|g| g.gen == tip).unwrap().format,
            SegmentFormat::Array);
        drop(store);
        let after = tempfile("compact.after.f64");
        dispatch(&argv(&["restore", &dir, "--gen", &tip.to_string(), "-o", &after])).unwrap();
        assert_eq!(std::fs::read(&after).unwrap(), std::fs::read(&before).unwrap());

        // --manifest-only leaves chains alone and is idempotent.
        dispatch(&argv(&["compact", &dir, "--manifest-only", "true"])).unwrap();

        for p in [raw, wck, before, after] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(dispatch(&argv(&[])).is_err());
        assert!(dispatch(&argv(&["frobnicate", "/nope"])).is_err());
        assert!(dispatch(&argv(&["save"])).is_err());
        let dir = tempdir("badargs");
        assert!(dispatch(&argv(&["save", &dir])).is_err(), "no payload files");
        assert!(dispatch(&argv(&["restore", &dir, "-o", "/tmp/x"])).is_err(), "empty store");
        assert!(dispatch(&argv(&["save", &dir, "/no/such/file"])).is_err());
        dispatch(&argv(&["help"])).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
