//! Interoperability of the from-scratch DEFLATE codec with the system
//! `gzip` binary (skipped silently when no `gzip` is installed).
//!
//! These tests pin the substrate to the real format: our output must be
//! accepted and decoded by stock gzip, and stock gzip's output must
//! decode with our inflate.

mod common;

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
    // The golden input's noise head goes out as a stored block (the
    // noise gate; `golden_bitstream` pins its bytes), the rest coded.
    let golden = common::golden_input();
    for (name, data) in [("mesh", mesh_bytes()), ("golden", golden)] {
        let packed = gzip::compress(&data, Level::Default);
        if name == "golden" {
            assert_eq!(packed[10] & 0b111, 0, "the noise head is not a stored block");
        }
        let mut child = Command::new("gzip")
            .arg("-dc")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gzip");
        child.stdin.as_mut().unwrap().write_all(&packed).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "gzip -dc rejected our {name} output");
        assert_eq!(out.stdout, data, "payload mismatch on {name}");
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

#[test]
fn system_gzip_decodes_a_checkpoint_stream_with_stored_runs_that_start_mid_byte() {
    // The product's lossless stream, which chain compaction writes: the
    // mantissa planes of its transposed f64 region go out as stored
    // runs the matcher never saw. (The lossy default stores its values
    // as grid integers, whose planes are not noise.) The first half of
    // the mesh holds values with 32 low zero bits, so each of the low
    // four planes opens with a coded run, and the stored run behind it
    // starts wherever that block's last code ends.
    if !system_gzip_available() {
        eprintln!("skipping: no system gzip");
        return;
    }
    use lossy_ckpt::deflate::deflate::GATE_BLOCK;
    use lossy_ckpt::prelude::*;
    let spec = FieldSpec { dims: vec![600, 82, 2], ..FieldSpec::small(FieldKind::Temperature, 5) };
    let mut field = generate(&spec);
    let half = field.len() / 2;
    for v in &mut field.as_mut_slice()[..half] {
        *v = f64::from_bits(v.to_bits() & !0xFFFF_FFFF);
    }
    let packed = lossy_ckpt::core::compress_exact(&field, Level::Default).unwrap();
    let formatted = gzip::decompress(&packed).unwrap();

    // A stored block holds its source verbatim behind LEN and NLEN; find
    // every gate block that starts one, and look at the byte each 3-bit
    // block header sits in: 0 or 1 only if the header starts the byte.
    let find = |needle: &[u8]| packed.windows(needle.len()).position(|w| w == needle);
    let stored_header = |at: usize| {
        let (len, nlen) = (&packed[at - 4..at - 2], &packed[at - 2..at]);
        len.iter().zip(nlen).all(|(l, n)| l ^ n == 0xFF)
    };
    let header_bytes: Vec<u8> = formatted
        .chunks_exact(GATE_BLOCK)
        .filter_map(|block| find(&block[..64]))
        .filter(|&at| at >= 5 && stored_header(at))
        .map(|at| packed[at - 5])
        .collect();
    assert!(!header_bytes.is_empty(), "no block of the stream was stored");
    assert!(header_bytes.iter().any(|&b| b > 1), "every stored run begins on a byte boundary");

    let mut child = Command::new("gzip")
        .arg("-dc")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gzip");
    // Fed from a thread: the output outgrows the pipe before the input ends.
    let mut stdin = child.stdin.take().unwrap();
    let feed = packed.clone();
    let writer = std::thread::spawn(move || stdin.write_all(&feed));
    let out = child.wait_with_output().unwrap();
    writer.join().unwrap().unwrap();
    assert!(out.status.success(), "gzip -dc rejected a stream with stored runs");
    assert!(out.stdout == formatted, "system gzip decoded something else");
    assert!(gzip::decompress(&packed).unwrap() == formatted);
}

/// Runs system `gzip` with `args` over `input`, fed from a thread so
/// an output that outgrows the pipe cannot stall the write.
fn system_gzip(args: &[&str], input: &[u8]) -> Vec<u8> {
    let mut child = Command::new("gzip")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gzip");
    let mut stdin = child.stdin.take().unwrap();
    let feed = input.to_vec();
    let writer = std::thread::spawn(move || stdin.write_all(&feed));
    let out = child.wait_with_output().unwrap();
    writer.join().unwrap().unwrap();
    assert!(out.status.success(), "gzip {args:?} failed");
    out.stdout
}

#[test]
fn our_inflate_decodes_system_gzip_recompressions_of_product_streams() {
    // Stock gzip shapes its blocks, tables and matches its own way at
    // each level: the inflate loop must decode what it did not shape,
    // bit for bit, on the two streams a restart inflates.
    if !system_gzip_available() {
        eprintln!("skipping: no system gzip");
        return;
    }
    use lossy_ckpt::core::incremental;
    use lossy_ckpt::prelude::*;
    let nicam = |seed| {
        generate(&FieldSpec { dims: vec![1156, 82, 2], ..FieldSpec::small(FieldKind::Temperature, seed) })
    };
    let (base, next) = (nicam(11), nicam(12));
    let none = CompressorConfig::paper_proposed().with_container(Container::None);
    let formatted = Compressor::new(none).unwrap().compress(&base).unwrap().bytes;
    let (increment, _) = incremental::increment(&base, &next, Level::Default).unwrap();
    let inner = gzip::decompress(&increment).unwrap();
    for (name, input) in [("formatted WCK1", &formatted), ("INC2 inner", &inner)] {
        for flag in ["-1", "-6", "-9"] {
            let gz = system_gzip(&["-c", flag], input);
            let decoded = gzip::decompress(&gz)
                .unwrap_or_else(|e| panic!("our inflate failed on gzip {flag} of the {name}: {e}"));
            assert!(decoded == *input, "gzip {flag} of the {name} decoded to something else");
        }
    }
}
