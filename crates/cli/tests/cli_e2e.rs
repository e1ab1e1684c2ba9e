//! End-to-end tests of the installed `ckpt` binary (spawned as a real
//! process via `CARGO_BIN_EXE_ckpt`).

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ckpt"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ckpt-e2e-{}-{name}", std::process::id()))
}

#[test]
fn full_gen_compress_info_decompress_flow() {
    let raw = tmp("flow.f64");
    let wck = tmp("flow.wck");
    let back = tmp("flow.back.f64");

    let st = bin()
        .args(["gen", "--dims", "64x16x2", "--kind", "pressure", "-o"])
        .arg(&raw)
        .status()
        .unwrap();
    assert!(st.success());
    assert_eq!(std::fs::metadata(&raw).unwrap().len(), 64 * 16 * 2 * 8);

    let st = bin()
        .arg("compress")
        .arg(&raw)
        .args(["--dims", "64x16x2", "--method", "proposed", "--n", "64", "-o"])
        .arg(&wck)
        .status()
        .unwrap();
    assert!(st.success());
    let compressed = std::fs::metadata(&wck).unwrap().len();
    assert!(compressed < 64 * 16 * 2 * 8, "must shrink: {compressed}");

    let out = bin().arg("info").arg(&wck).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[64, 16, 2]"), "info output: {text}");
    assert!(text.contains("compression rate"));
    assert!(text.contains("layout          : Uniform {"), "info output: {text}");
    assert!(text.contains("low_predictor: Lorenzo }"), "info output: {text}");
    // No --kernel: the product default's.
    assert!(text.contains("kernel, levels  : cdf53, 1\n"), "info output: {text}");

    let st = bin().arg("decompress").arg(&wck).arg("-o").arg(&back).status().unwrap();
    assert!(st.success());
    assert_eq!(std::fs::metadata(&back).unwrap().len(), 64 * 16 * 2 * 8);

    // Values close to the original.
    let a = std::fs::read(&raw).unwrap();
    let b = std::fs::read(&back).unwrap();
    let to_f64 = |v: &[u8]| -> Vec<f64> {
        v.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
    };
    let (a, b) = (to_f64(&a), to_f64(&b));
    let lo = a.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = a.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let max_err = a
        .iter()
        .zip(&b)
        .map(|(x, y)| (x - y).abs() / (hi - lo))
        .fold(0.0f64, f64::max);
    assert!(max_err < 0.01, "relative error {max_err}");

    for p in [raw, wck, back] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn helpful_errors_and_usage() {
    let out = bin().output().unwrap();
    assert!(!out.status.success(), "no args must fail");

    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    // compress without --dims
    let out = bin().args(["compress", "/nonexistent.f64"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--dims"));
}

#[test]
fn bounded_mode_via_cli() {
    let raw = tmp("bound.f64");
    let wck = tmp("bound.wck");
    assert!(bin()
        .args(["gen", "--dims", "128x16", "-o"])
        .arg(&raw)
        .status()
        .unwrap()
        .success());
    let out = bin()
        .arg("compress")
        .arg(&raw)
        .args(["--dims", "128x16", "--bound", "0.001", "-o"])
        .arg(&wck)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bound"), "{stderr}");
    let _ = std::fs::remove_file(raw);
    let _ = std::fs::remove_file(wck);
}

#[test]
fn corrupt_input_reports_cleanly() {
    let bad = tmp("corrupt.wck");
    std::fs::write(&bad, b"this is not a checkpoint stream").unwrap();
    let out = bin().arg("decompress").arg(&bad).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error"), "{stderr}");
    let _ = std::fs::remove_file(bad);
}

/// A flag the verb does not take fails the run and is named, instead of
/// being ignored: `--thread 4` would have compressed on one thread, and
/// `store restore --resume` would have overwritten `-o` with a plain
/// restore. `--level` went with every effort but the default, so a
/// script that still asks for one is told, not served the default.
#[test]
fn a_flag_the_verb_does_not_take_fails_by_name() {
    let out = tmp("unknown-flag.out");
    for (args, flag, verb) in [
        (vec!["compress", "in.f64", "--dims", "16x8x2", "--thread", "4"], "--thread", "compress"),
        (vec!["compress", "in.f64", "--dims", "16x8x2", "--level", "fast"], "--level", "compress"),
        (vec!["store", "save", "st", "a.wck", "--level", "store"], "--level", "store save"),
        (vec!["store", "restore", "st", "--stream", "true"], "--stream", "store restore"),
        (vec!["store", "restore", "st", "--resume", "TOKEN"], "--resume", "store restore"),
    ] {
        let run = bin().args(&args).arg("-o").arg(&out).output().unwrap();
        assert!(!run.status.success(), "{args:?} succeeded");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag} for ckpt {verb}")), "{stderr}");
        assert!(!out.exists(), "{args:?} wrote its output");
    }
}

/// The buddy-replication verb is gone: a script that still calls it
/// fails by name and writes nothing, neither the buddy directory nor a
/// cursor in the store.
#[test]
fn the_retired_replicate_verb_is_an_unknown_subcommand() {
    let (store, buddy) = (tmp("replicate-store"), tmp("replicate-buddy"));
    let run = bin().arg("replicate").arg(&store).arg("--to-dir").arg(&buddy).output().unwrap();
    assert!(!run.status.success());
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("unknown subcommand \"replicate\""), "{stderr}");
    assert!(!store.exists() && !buddy.exists());
}

/// `ckpt info x | head -1`: the reader takes one line and closes the
/// pipe. The member table of a many-member WPK1 file is far larger than
/// a pipe buffer, so the verb's later writes fail with a broken pipe;
/// it must end its report quietly and exit 0, not panic.
#[test]
fn a_reader_that_closes_stdout_early_ends_the_report_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let raw = tmp("pipe.f64");
    let wck = tmp("pipe.wck");
    assert!(bin().args(["gen", "--dims", "64x16", "-o"]).arg(&raw).status().unwrap().success());
    let st = bin()
        .arg("compress")
        .arg(&raw)
        .args(["--dims", "64x16", "--threads", "2", "--chunk-bytes", "1", "-o"])
        .arg(&wck)
        .status()
        .unwrap();
    assert!(st.success());

    let mut child = bin()
        .arg("info")
        .arg(&wck)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert!(first.starts_with("file"), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    for p in [raw, wck] {
        let _ = std::fs::remove_file(p);
    }
}
