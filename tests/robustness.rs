//! Robustness: decompression must never panic, hang, or return wrong
//! data silently — whatever bytes arrive. Checkpoints outlive the
//! processes that wrote them and travel through storage stacks; a
//! corrupted restart file must fail *cleanly*.

use lossy_ckpt::prelude::*;

/// Deterministic byte mangler.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() >> 16) as usize % n.max(1)
    }
}

fn valid_stream(container: Container) -> Vec<u8> {
    let t = generate(&FieldSpec::small(FieldKind::Temperature, 99));
    let cfg = CompressorConfig::paper_proposed().with_container(container);
    Compressor::new(cfg).unwrap().compress(&t).unwrap().bytes
}

#[test]
fn random_single_byte_corruptions_never_panic() {
    for container in [Container::Gzip, Container::None] {
        let stream = valid_stream(container);
        let mut rng = Lcg(2024);
        let reference = Compressor::decompress(&stream).unwrap();
        for _ in 0..300 {
            let mut bad = stream.clone();
            let pos = rng.below(bad.len());
            let flip = (rng.next() as u8) | 1;
            bad[pos] ^= flip;
            match Compressor::decompress(&bad) {
                Err(_) => {} // clean failure: good
                Ok(out) => {
                    // Containered streams carry checksums, so success
                    // implies the corruption was immaterial (header
                    // padding etc.) and the data must match. The bare
                    // stream has no checksum; shape must still hold.
                    assert_eq!(out.dims(), reference.dims());
                }
            }
        }
    }
}

#[test]
fn random_truncations_never_panic() {
    let stream = valid_stream(Container::Gzip);
    let mut rng = Lcg(7);
    for _ in 0..200 {
        let cut = rng.below(stream.len());
        let _ = Compressor::decompress(&stream[..cut]); // any Result is fine
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = Lcg(11);
    for len in [0usize, 1, 7, 64, 1000, 65_536] {
        let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let _ = Compressor::decompress(&garbage);
        let _ = lossy_ckpt::core::checkpoint::Checkpoint::from_bytes(&garbage);
        let _ = lossy_ckpt::deflate::gzip::decompress(&garbage);
        let _ = ckpt_bench::fpc::decompress(&garbage);
    }
}

#[test]
fn truncated_and_mangled_checkpoint_images_fail_cleanly() {
    use lossy_ckpt::core::checkpoint::CheckpointBuilder;
    let t = generate(&FieldSpec::small(FieldKind::Pressure, 5));
    let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let mut b = CheckpointBuilder::new(9);
    b.add_lossy("p", &t, &comp).unwrap();
    b.add_raw("raw", &t).unwrap();
    let image = b.into_bytes();

    let mut rng = Lcg(13);
    for _ in 0..200 {
        let mut bad = image.clone();
        match rng.below(3) {
            0 => {
                let cut = rng.below(bad.len());
                bad.truncate(cut);
            }
            1 => {
                let pos = rng.below(bad.len());
                bad[pos] ^= (rng.next() as u8) | 1;
            }
            _ => {
                bad.push(rng.next() as u8);
            }
        }
        if let Ok(ck) = lossy_ckpt::core::checkpoint::Checkpoint::from_bytes(&bad) {
            // Parsing may survive (corruption in a payload); restoring
            // must still never panic.
            for name in ck.names() {
                let _ = ck.restore(name);
            }
        }
    }
}

#[test]
fn decompression_bomb_guard_holds_under_mutation() {
    let stream = valid_stream(Container::Gzip);
    let mut rng = Lcg(17);
    for round in 0..100 {
        let mut bad = stream.clone();
        let pos = rng.below(bad.len());
        bad[pos] ^= (rng.next() as u8) | 1;
        // With a tight limit, even a mangled stream may not materialize
        // more than the cap — on any thread count.
        let _ = Compressor::decompress_with(&bad, 1 + round % 4, 1 << 20);
    }
}

#[test]
fn decompress_with_limit_is_exact_on_every_container_and_thread_count() {
    use lossy_ckpt::core::CkptError;
    use lossy_ckpt::deflate::DeflateError;

    let t = generate(&FieldSpec::small(FieldKind::Temperature, 99));
    // (container, chunk bytes): a gzip stream longer than one chunk is
    // the chunked WPK1 container, one that fits a chunk a single gzip
    // member, whatever the thread count.
    let cases = [
        (Container::Gzip, 4096),
        (Container::Gzip, lossy_ckpt::deflate::chunked::DEFAULT_CHUNK_BYTES),
        (Container::None, 4096),
    ];
    for (container, chunk_bytes) in cases {
        let label = format!("{container:?} in chunks of {chunk_bytes} bytes");
        let cfg = CompressorConfig::paper_proposed().with_threads(2).with_chunk_bytes(chunk_bytes);
        let pack = |c| Compressor::new(cfg.with_container(c)).unwrap().compress(&t).unwrap().bytes;
        let stream = pack(container);
        // The limit counts formatted bytes: what `Container::None` emits.
        let exact = pack(Container::None).len();
        assert!(exact > 4096, "the WPK1 case needs a stream longer than its chunk");
        assert_eq!(
            lossy_ckpt::deflate::chunked::is_chunked(&stream),
            container == Container::Gzip && exact > chunk_bytes,
            "{label}: unexpected container framing"
        );

        let reference = Compressor::decompress(&stream).unwrap();
        for threads in [1usize, 2, 4] {
            for limit in [exact, usize::MAX] {
                let got = Compressor::decompress_with(&stream, threads, limit)
                    .unwrap_or_else(|e| panic!("{label} threads={threads} limit={limit}: {e}"));
                assert_eq!(got.dims(), reference.dims());
                let same_bits = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
                assert!(
                    got.as_slice().iter().zip(reference.as_slice()).all(same_bits),
                    "{label}: threads={threads} limit={limit} changed the restored values"
                );
            }
            // One byte under: refused by the container's own limit
            // check (before the output is allocated), or — with no
            // container — by the formatted-length check.
            match Compressor::decompress_with(&stream, threads, exact - 1) {
                Err(CkptError::Deflate(DeflateError::OutputLimit { limit })) => {
                    assert_eq!(limit, exact - 1, "{label} threads={threads}");
                    assert_ne!(container, Container::None);
                }
                Err(CkptError::Format(why)) => {
                    assert_eq!(container, Container::None, "{label} threads={threads}: {why}");
                }
                other => panic!("{label} threads={threads}: expected a limit error, got {other:?}"),
            }
        }
    }
}
