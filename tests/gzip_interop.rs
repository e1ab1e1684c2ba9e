//! Interoperability of the from-scratch DEFLATE codec with the system
//! `gzip` binary (skipped silently when no `gzip` is installed).
//!
//! These tests pin the substrate to the real format: our output must be
//! accepted and decoded by stock gzip, and stock gzip's output must
//! decode with our inflate.

use lossy_ckpt::deflate::{gzip, Level};
use std::io::Write;
use std::process::{Command, Stdio};

fn system_gzip_available() -> bool {
    Command::new("gzip")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

fn mesh_bytes() -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..40_000 {
        let v = 300.0 + (i as f64 * 0.003).sin() * 40.0;
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

#[test]
fn system_gzip_decodes_our_output() {
    if !system_gzip_available() {
        eprintln!("skipping: no system gzip");
        return;
    }
    let data = mesh_bytes();
    for level in [Level::Store, Level::Fast, Level::Default] {
        let packed = gzip::compress(&data, level);
        let mut child = Command::new("gzip")
            .arg("-dc")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gzip");
        child.stdin.as_mut().unwrap().write_all(&packed).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "gzip -dc rejected our {level:?} output");
        assert_eq!(out.stdout, data, "payload mismatch at {level:?}");
    }
}

#[test]
fn our_inflate_decodes_system_gzip_output() {
    if !system_gzip_available() {
        eprintln!("skipping: no system gzip");
        return;
    }
    let data = mesh_bytes();
    for flag in ["-1", "-6", "-9"] {
        let mut child = Command::new("gzip")
            .args(["-c", flag])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gzip");
        child.stdin.as_mut().unwrap().write_all(&data).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success());
        let decoded = gzip::decompress(&out.stdout)
            .unwrap_or_else(|e| panic!("our inflate failed on gzip {flag} output: {e}"));
        assert_eq!(decoded, data, "payload mismatch for gzip {flag}");
    }
}

#[test]
fn compressed_checkpoint_streams_survive_system_gzip_roundtrip() {
    // The actual pipeline output (Container::None) piped through the
    // *system* gzip and back, then decompressed by our codec stack — a
    // full cross-implementation loop.
    if !system_gzip_available() {
        eprintln!("skipping: no system gzip");
        return;
    }
    use lossy_ckpt::prelude::*;
    let field = generate(&FieldSpec::small(FieldKind::Temperature, 77));
    let cfg = CompressorConfig::paper_proposed().with_container(Container::None);
    let formatted = Compressor::new(cfg).unwrap().compress(&field).unwrap().bytes;

    let mut child = Command::new("gzip")
        .arg("-c")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(&formatted).unwrap();
    let gz = child.wait_with_output().unwrap().stdout;

    // Our decompressor sniffs the gzip container and parses the stream.
    let restored = Compressor::decompress(&gz).unwrap();
    let err = relative_error(&field, &restored).unwrap();
    assert!(err.average < 0.01);
}
