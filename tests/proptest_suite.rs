//! Property-based tests over the core invariants:
//!
//! * DEFLATE/gzip roundtrip on arbitrary byte strings,
//! * Haar transforms invert exactly on integer-valued tensors and
//!   within tolerance on arbitrary floats,
//! * quantizer error bounds and stream reassembly,
//! * pipeline roundtrip preserves shape and bounds error by
//!   construction,
//! * wire/bitmap serialization roundtrips.

// The shim ProptestConfig only carries `cases`, so `..default()` is
// redundant here — kept anyway so the blocks stay valid against the
// real proptest crate's multi-field config.
#![allow(clippy::needless_update)]

mod common;

use lossy_ckpt::prelude::*;
use lossy_ckpt::quant::{simple, spike, Bitmap};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn deflate_roundtrips_arbitrary_bytes(data in pvec(any::<u8>(), 0..20_000)) {
        let packed = lossy_ckpt::deflate::compress(&data, lossy_ckpt::deflate::Level::Default);
        prop_assert_eq!(&lossy_ckpt::deflate::decompress(&packed).unwrap(), &data);
    }

    /// The matcher's miss stride ramps up inside the noise runs and
    /// must drop back at every structured one.
    #[test]
    fn deflate_roundtrips_alternating_noise_and_structure(
        runs in pvec((1usize..=8192, any::<u64>()), 1..10),
    ) {
        let mut data = Vec::new();
        for (k, &(len, seed)) in runs.iter().enumerate() {
            if k % 2 == 0 {
                data.extend(common::lcg_bytes(len, seed));
            } else {
                let period = 1 + (seed % 300) as usize;
                data.extend((0..len).map(|j| (j % period) as u8 ^ (seed >> 32) as u8));
            }
        }
        let packed = lossy_ckpt::deflate::compress(&data, lossy_ckpt::deflate::Level::Default);
        prop_assert_eq!(&lossy_ckpt::deflate::decompress(&packed).unwrap(), &data);
    }

    #[test]
    fn gzip_container_roundtrips(data in pvec(any::<u8>(), 0..10_000)) {
        let g = lossy_ckpt::deflate::gzip::compress(&data, lossy_ckpt::deflate::Level::Default);
        prop_assert_eq!(&lossy_ckpt::deflate::gzip::decompress(&g).unwrap(), &data);
    }

    #[test]
    fn gzip_detects_any_single_byte_corruption_of_payload(
        data in pvec(any::<u8>(), 64..2_000),
        flip in any::<(usize, u8)>(),
    ) {
        let packed = lossy_ckpt::deflate::gzip::compress(&data, lossy_ckpt::deflate::Level::Default);
        let pos = 10 + flip.0 % (packed.len() - 18); // inside the deflate body / trailer
        let bit = flip.1 | 1; // non-zero xor
        let mut bad = packed.clone();
        bad[pos] ^= bit;
        // Either an explicit decode error or a checksum mismatch — but
        // never silently wrong data.
        if let Ok(out) = lossy_ckpt::deflate::gzip::decompress(&bad) { prop_assert_eq!(&out, &data, "corruption must not yield different data silently") }
    }

    #[test]
    fn haar_roundtrip_exact_on_integers(
        data in pvec(-1_000_000i32..1_000_000, 1..400),
    ) {
        let vals: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        let n = vals.len();
        let t = Tensor::from_vec(&[n], vals.clone()).unwrap();
        let mut w = t.clone();
        lossy_ckpt::wavelet::forward(&mut w).unwrap();
        lossy_ckpt::wavelet::inverse(&mut w).unwrap();
        prop_assert_eq!(w.as_slice(), t.as_slice());
    }

    #[test]
    fn haar_2d_roundtrip_tolerance_on_floats(
        rows in 1usize..12, cols in 1usize..12, seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0e4
        };
        let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
        let t = Tensor::from_vec(&[rows, cols], data).unwrap();
        let mut w = t.clone();
        lossy_ckpt::wavelet::forward(&mut w).unwrap();
        lossy_ckpt::wavelet::inverse(&mut w).unwrap();
        let scale = t.as_slice().iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (a, b) in t.as_slice().iter().zip(w.as_slice()) {
            prop_assert!((a - b).abs() <= scale * 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn simple_quantizer_error_bounded_by_partition_width(
        data in pvec(-1.0e6f64..1.0e6, 1..2_000),
        n in 1usize..=256,
    ) {
        let q = simple::quantize(&data, n).unwrap();
        q.validate().unwrap();
        let rec = q.reconstruct();
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let width = (hi - lo) / n as f64;
        for (v, r) in data.iter().zip(&rec) {
            prop_assert!((v - r).abs() <= width + 1e-9, "err {} width {width}", (v - r).abs());
        }
    }

    #[test]
    fn spike_quantizer_never_worse_than_simple_on_max_error(
        data in pvec(-100.0f64..100.0, 10..2_000),
        n in 1usize..=128,
        d in 2usize..=128,
    ) {
        let qs = simple::quantize(&data, n).unwrap();
        let qp = spike::quantize(&data, n, d).unwrap();
        qp.validate().unwrap();
        let max_err = |rec: Vec<f64>| {
            data.iter().zip(rec).map(|(v, r)| (v - r).abs()).fold(0.0f64, f64::max)
        };
        // Not a theorem for arbitrary data (detected range can shift
        // averages), but pass-through exactness means the proposed max
        // error is bounded by the simple *width*, which bounds simple's
        // max error too. Verify the weaker guaranteed form:
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let width = (hi - lo) / n as f64;
        prop_assert!(max_err(qp.reconstruct()) <= width + 1e-9);
        prop_assert!(max_err(qs.reconstruct()) <= width + 1e-9);
    }

    #[test]
    fn pipeline_roundtrip_any_shape(
        dims in prop::collection::vec(1usize..20, 1..4),
        seed in any::<u64>(),
        n in 1usize..=256,
    ) {
        let volume: usize = dims.iter().product();
        prop_assume!((2..5_000).contains(&volume));
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) as f64 * 0.01 + 200.0
        };
        let data: Vec<f64> = (0..volume).map(|_| next()).collect();
        let t = Tensor::from_vec(&dims, data).unwrap();
        let compressor = Compressor::new(CompressorConfig::paper_proposed().with_n(n)).unwrap();
        let packed = compressor.compress(&t).unwrap();
        let restored = Compressor::decompress(&packed.bytes).unwrap();
        prop_assert_eq!(restored.dims(), t.dims());
        let err = relative_error(&t, &restored).unwrap();
        // The wavelet halves values once; the quantizer error is bounded
        // by the (detected) partition width; normalised by the range the
        // error cannot exceed ~1/n + transform slack. Use a generous cap
        // that still catches real bugs.
        prop_assert!(err.max <= 2.0 / n as f64 + 1e-6, "max err {} for n={n}", err.max);
    }

    #[test]
    fn bitmap_bytes_roundtrip(bits in pvec(any::<bool>(), 0..500)) {
        let mut bm = Bitmap::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            bm.set(i, b);
        }
        let back = Bitmap::from_bytes(&bm.to_bytes(), bits.len()).unwrap();
        prop_assert_eq!(back, bm);
    }

    #[test]
    fn checkpoint_container_roundtrips_any_variable_set(
        names in prop::collection::hash_set("[a-z]{1,12}", 1..6),
        seed in any::<u64>(),
    ) {
        use lossy_ckpt::core::checkpoint::{Checkpoint, CheckpointBuilder};
        let mut builder = CheckpointBuilder::new(seed % 10_000);
        let mut originals = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let t = Tensor::from_fn(&[8 + i, 6], |idx| {
                (idx[0] * 31 + idx[1] * 7 + i) as f64 * 0.5
            }).unwrap();
            builder.add_raw(name, &t).unwrap();
            originals.push((name.clone(), t));
        }
        let image = builder.into_bytes();
        let ck = Checkpoint::from_bytes(&image).unwrap();
        for (name, t) in &originals {
            let restored = ck.restore(name).unwrap();
            prop_assert_eq!(restored.as_slice(), t.as_slice());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn byte_shuffle_is_a_permutation(
        bits in pvec(any::<u64>(), 0..700),
        cuts in any::<(usize, usize)>(),
    ) {
        use lossy_ckpt::core::shuffle::{read_planes, write_planes};
        // Three sections sharing one region, as the codec lays them out.
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let a = cuts.0 % (values.len() + 1);
        let b = a + cuts.1 % (values.len() - a + 1);
        let sections = [(0, &values[..a]), (a, &values[a..b]), (b, &values[b..])];
        let mut region = vec![0u8; values.len() * 8];
        for (at, section) in sections {
            write_planes(&mut region, at, section);
        }
        for (at, section) in sections {
            let back = read_planes(&region, at, section.len());
            prop_assert_eq!(back.len(), section.len());
            prop_assert!(back.iter().zip(section).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        // Multiset of bytes is preserved.
        let hist = |d: &[u8]| {
            let mut h = [0u32; 256];
            for &b in d { h[b as usize] += 1; }
            h
        };
        let plain: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        prop_assert_eq!(hist(&region), hist(&plain));
    }

    /// The transposed default puts the low band on the grid of step `s`
    /// and every high-band coefficient on that of step `q >= s`, each
    /// within half its step of the transform's value, so the restored
    /// array differs from the input by at most the one-level 3-d Haar
    /// inverse's gain (2 per axis, 8) times `q / 2`; the paper's stream
    /// writes other bytes.
    #[test]
    fn shuffled_pipeline_stays_within_its_grid_steps_of_the_input(
        seed in any::<u64>(),
        n in 1usize..=64,
    ) {
        let t = generate(&FieldSpec { dims: vec![24, 10, 2], kind: FieldKind::WindV,
                                      seed, harmonics: 5, noise_amp: 1e-4 });
        let base = CompressorConfig::paper_proposed().with_n(n);
        let plain = Compressor::new(base.with_layout(StreamLayout::Paper)).unwrap().compress(&t).unwrap();
        let shuf = Compressor::new(base).unwrap().compress(&t).unwrap();
        prop_assert!(plain.bytes != shuf.bytes, "the default transposes");
        let b = Compressor::decompress(&shuf.bytes).unwrap();
        use lossy_ckpt::core::codec::{read_header, StoredLayout};
        let StoredLayout::Uniform { high_exponent, .. } = read_header(&shuf.bytes).unwrap().layout else {
            panic!("the default grids");
        };
        let q = 2f64.powi(high_exponent.into());
        for (x, y) in t.as_slice().iter().zip(b.as_slice()) {
            // Plus a few ulps: the inverse rounds each sum it forms.
            let bound = 8.0 * q / 2.0 + 8.0 * f64::EPSILON * x.abs().max(y.abs());
            prop_assert!((x - y).abs() <= bound, "{x} vs {y}, step {q}");
        }
    }

    #[test]
    fn incremental_checkpoints_are_exact(
        seed in any::<u64>(),
        touches in pvec((0usize..2048, -10.0f64..10.0), 0..50),
    ) {
        use lossy_ckpt::core::incremental;
        let base = generate(&FieldSpec { dims: vec![32, 32, 2], kind: FieldKind::Pressure,
                                         seed, harmonics: 4, noise_amp: 1e-4 });
        let mut cur = base.clone();
        for &(pos, delta) in &touches {
            let n = cur.len();
            cur.as_mut_slice()[pos % n] += delta;
        }
        let (packed, stats) = incremental::increment(&base, &cur, lossy_ckpt::deflate::Level::Default).unwrap();
        let restored = incremental::apply(&base, &packed).unwrap();
        for (a, b) in restored.as_slice().iter().zip(cur.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert!(stats.dirty_fraction() <= 1.0);
    }

    /// `INC2` round-trips bit for bit whatever the dirty pattern: page
    /// `p` is clean, has one changed element, has every element changed,
    /// or a random half (`modes[p % len]`), over arbitrary bit patterns
    /// (NaNs and signed zeros included) and shapes whose last page is
    /// partial and whose dirty-element count is seldom a multiple of the
    /// 256-value transposition block or of a page.
    #[test]
    fn inc2_roundtrips_bit_exactly_over_any_dirty_pattern(
        dims in (1usize..=45, 1usize..=60),
        modes in pvec(0u8..4, 1..=6),
        seed in any::<u64>(),
    ) {
        use lossy_ckpt::core::incremental::{self, Layout, PAGE_ELEMS};
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let volume = dims.0 * dims.1;
        let data: Vec<f64> = (0..volume).map(|_| f64::from_bits(next())).collect();
        let base = Tensor::from_vec(&[dims.0, dims.1], data).unwrap();
        let mut cur = base.clone();
        for (p, page) in cur.as_mut_slice().chunks_mut(PAGE_ELEMS).enumerate() {
            let mode = modes[p % modes.len()];
            let one = next() as usize % page.len();
            for (k, v) in page.iter_mut().enumerate() {
                let change = match mode {
                    0 => false,
                    1 => k == one,
                    2 => true,
                    _ => next() >> 63 == 1,
                };
                if change {
                    *v = f64::from_bits(v.to_bits() ^ (next() | 1));
                }
            }
        }
        let dirty = base.as_slice().chunks(PAGE_ELEMS).zip(cur.as_slice().chunks(PAGE_ELEMS))
            .filter(|(a, b)| a.iter().zip(*b).any(|(x, y)| x.to_bits() != y.to_bits()))
            .count();

        let (packed, stats) = incremental::increment(&base, &cur, lossy_ckpt::deflate::Level::Default).unwrap();
        prop_assert_eq!(stats.dirty_pages, dirty);
        let inc = incremental::decode(&packed).unwrap();
        prop_assert_eq!(inc.layout(), Layout::Planes);
        let mut restored = base.clone();
        inc.xor_into(&mut restored).unwrap();
        for (a, b) in restored.as_slice().iter().zip(cur.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// An `INC2` increment's planes, gathered by the transpose kernel,
    /// XOR into a base exactly as the `INC1` oracle's words do. Shapes
    /// include 13×7×5 (one page of 455 values) and 13×7×5×3 (a last
    /// page of 341), so the final page's tail is no multiple of 8, and
    /// dirty maps run from one touched page to every page. Every value
    /// keeps its low bit set, so no page's change is a `0.0 → -0.0` the
    /// oracle's float compare would miss.
    #[test]
    fn inc2_xor_equals_the_inc1_oracle_bit_for_bit(
        shape in 0usize..4,
        every in 1usize..=5,
        density in 0u64..4,
        seed in any::<u64>(),
    ) {
        use lossy_ckpt::core::incremental::{self, Layout, PAGE_ELEMS};
        use lossy_ckpt::deflate::Level;
        let dims: &[usize] = [&[13, 7, 5][..], &[13, 7, 5, 3], &[1156, 3], &[9, 8]][shape];
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let volume: usize = dims.iter().product();
        let data: Vec<f64> = (0..volume).map(|_| f64::from_bits(next() | 1)).collect();
        let base = Tensor::from_vec(dims, data).unwrap();
        let mut cur = base.clone();
        for (p, page) in cur.as_mut_slice().chunks_mut(PAGE_ELEMS).enumerate() {
            if p % every != 0 {
                continue;
            }
            for v in page.iter_mut() {
                if next() % 4 <= density {
                    *v = f64::from_bits(v.to_bits() ^ (next() & !1 | 2));
                }
            }
        }

        let (inc2, _) = incremental::increment(&base, &cur, Level::Default).unwrap();
        let inc1 = common::inc1_increment(&base, &cur, Level::Default);
        let (planes, words) = (incremental::decode(&inc2).unwrap(), incremental::decode(&inc1).unwrap());
        prop_assert_eq!((planes.layout(), words.layout()), (Layout::Planes, Layout::Words));
        let (mut a, mut b) = (base.clone(), base.clone());
        planes.xor_into(&mut a).unwrap();
        words.xor_into(&mut b).unwrap();
        for ((x, y), z) in a.as_slice().iter().zip(b.as_slice()).zip(cur.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
            prop_assert_eq!(x.to_bits(), z.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn parallel_pipeline_matches_serial_for_any_thread_count(
        dims in prop::collection::vec(1usize..24, 1..4),
        seed in any::<u64>(),
    ) {
        let volume: usize = dims.iter().product();
        prop_assume!((2..6_000).contains(&volume));
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) as f64 * 0.01 + 250.0
        };
        let data: Vec<f64> = (0..volume).map(|_| next()).collect();
        let t = Tensor::from_vec(&dims, data).unwrap();

        let base = CompressorConfig::paper_proposed();
        let serial = Compressor::new(base).unwrap().compress(&t).unwrap();
        let sv = Compressor::decompress(&serial.bytes).unwrap();

        // threads = 1 is the exact serial path: byte-identical output.
        let one = Compressor::new(base.with_threads(1)).unwrap().compress(&t).unwrap();
        prop_assert_eq!(&one.bytes, &serial.bytes);

        for threads in [2usize, 4, 8] {
            let cfg = base.with_threads(threads).with_chunk_bytes(4096);
            let packed = Compressor::new(cfg).unwrap().compress(&t).unwrap();
            let pv = Compressor::decompress_with(&packed.bytes, threads, usize::MAX).unwrap();
            prop_assert_eq!(pv.dims(), sv.dims());
            for (a, b) in pv.as_slice().iter().zip(sv.as_slice()) {
                // Bit-identical values, not approximately equal.
                prop_assert_eq!(a.to_bits(), b.to_bits(), "threads={}", threads);
            }
        }
    }

    #[test]
    fn every_sink_receives_the_bytes_compress_returns(
        seed in any::<u64>(),
        threads in 1usize..=8,
        chunk_kib in 1usize..32,
    ) {
        let t = generate(&FieldSpec { dims: vec![20, 12, 2], kind: FieldKind::Temperature,
                                      seed, harmonics: 4, noise_amp: 1e-4 });
        let cfg = CompressorConfig::paper_proposed()
            .with_threads(threads)
            .with_chunk_bytes(chunk_kib * 1024);
        let comp = Compressor::new(cfg).unwrap();
        let in_memory = comp.compress(&t).unwrap();
        let mut sink = Scattered::default();
        let streamed = comp.compress_stream(&t, &mut sink).unwrap();
        prop_assert_eq!(&sink.0.concat(), &in_memory.bytes, "threads={} chunk_kib={}", threads, chunk_kib);
        prop_assert_eq!(streamed.stats, in_memory.stats);
    }

    #[test]
    fn chunked_container_roundtrips_and_is_thread_count_and_sink_invariant(
        data in pvec(any::<u8>(), 0..40_000),
        chunk_bytes in 1usize..10_000,
    ) {
        use lossy_ckpt::deflate::chunked;
        let level = lossy_ckpt::deflate::Level::Default;
        let reference = chunked::compress_chunked(&data, level, chunk_bytes, 1);
        for threads in [2usize, 4, 8] {
            let packed = chunked::compress_chunked(&data, level, chunk_bytes, threads);
            prop_assert_eq!(&packed, &reference, "compressed bytes must not depend on threads");
            let back = chunked::decompress_chunked(&packed, threads).unwrap();
            prop_assert_eq!(&back, &data);
            let mut sink = Scattered::default();
            let written =
                chunked::compress_chunked_stream(&data, level, chunk_bytes, threads, &mut sink)
                    .unwrap();
            prop_assert_eq!(&sink.0.concat(), &reference, "nor on the sink (threads={})", threads);
            prop_assert_eq!(written, reference.len());
        }
        prop_assert_eq!(&chunked::decompress_chunked(&reference, 1).unwrap(), &data);
    }
}

/// A stream sink that is not a `Vec`: appends are kept apart until the
/// bytes are asked for.
#[derive(Default)]
struct Scattered(Vec<Vec<u8>>);

impl lossy_ckpt::deflate::chunked::StreamSink for Scattered {
    type Error = std::convert::Infallible;

    fn write(&mut self, bytes: &[u8]) -> Result<(), Self::Error> {
        self.0.push(bytes.to_vec());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Store maintenance equivalences: chain compaction and CSM2 snapshots
// must be invisible to readers — same generations, same bytes (every `read_segment` is CRC-verified on the way out).

mod store_equivalence {
    use lossy_ckpt::core::{incremental, Compressor, CompressorConfig};
    use lossy_ckpt::deflate::Level;
    use lossy_ckpt::store::{SegmentFormat, Store};
    use lossy_ckpt::tensor::Tensor;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static CASE: AtomicUsize = AtomicUsize::new(0);

    fn scratch(tag: &str) -> PathBuf {
        let n = CASE.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir()
            .join(format!("ckpt-prop-store-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// One randomized save: `true` starts a fresh full (re-seeded from
    /// its own lossy round-trip), `false` chains an exact increment
    /// with `bump`-derived deltas onto the previous generation.
    type Op = (bool, u8);

    /// One step of a generation's life, every kind that appends records
    /// or rewrites the map.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Full,
        Bounded,
        Increment(u8),
        Gc(usize),
        CompactChains(usize),
        CompactManifest,
    }

    /// Applies `ops` starting at `step0` (the first save is always a
    /// full, so a later phase stands alone), returning the expected
    /// tensor per committed step.
    fn apply_ops(store: &mut Store, ops: &[Op], seed: u64, step0: u64) -> Vec<(u64, Tensor<f64>)> {
        let steps: Vec<Step> =
            ops.iter().map(|&(full, bump)| if full { Step::Full } else { Step::Increment(bump) }).collect();
        drive(store, &steps, seed, step0)
    }

    /// Memory equals replay: what the live store believes is exactly
    /// what a second open of the same directory rebuilds from disk —
    /// retired entries and error bounds included.
    fn assert_memory_equals_replay(store: &Store, after: Step) {
        let reopened = Store::open(store.root()).unwrap();
        assert_eq!(store.generations(), reopened.generations(), "after {after:?}");
        assert_eq!(store.latest_committed(), reopened.latest_committed(), "after {after:?}");
        assert_eq!(store.latest_full(), reopened.latest_full(), "after {after:?}");
    }

    /// Runs `steps` (the first is forced to a save that stands alone),
    /// checking memory against a reopen after every one. Returns the
    /// expected tensor per saved application step.
    fn drive(store: &mut Store, steps: &[Step], seed: u64, step0: u64) -> Vec<(u64, Tensor<f64>)> {
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let mut state = Tensor::from_fn(&[11, 4], |ix| {
            ((ix[0] * 4 + ix[1]) as f64 * 0.29 + (seed as f64 + step0 as f64) * 0.01).sin() * 45.0
                + 220.0
        })
        .unwrap();
        let mut prev_gen = 0;
        let mut expected = Vec::new();
        for (step, &op) in steps.iter().enumerate() {
            let step = step0 + step as u64;
            let stands_alone = matches!(op, Step::Full | Step::Bounded);
            let op = if step == step0 && !stands_alone { Step::Full } else { op };
            match op {
                Step::Full | Step::Bounded => {
                    let packed = comp.compress(&state).unwrap().bytes;
                    state = Compressor::decompress(&packed).unwrap();
                    let format = SegmentFormat::Array;
                    prev_gen = if matches!(op, Step::Full) {
                        store.save_full(step, format, &[&packed], 1).unwrap()
                    } else {
                        store.save_full_bounded(step, format, &[&packed], 1, 1e-3).unwrap()
                    };
                    expected.push((step, state.clone()));
                }
                Step::Increment(bump) => {
                    let mut next = state.clone();
                    for i in (0..next.len()).step_by(1 + (bump as usize % 9)) {
                        next.as_mut_slice()[i] += bump as f64 * 0.0625;
                    }
                    let (delta, _) = incremental::increment(&state, &next, Level::Default).unwrap();
                    prev_gen = store.save_increment(step, prev_gen, &[&delta], 1).unwrap();
                    state = next;
                    expected.push((step, state.clone()));
                }
                Step::Gc(keep) => {
                    store.gc(keep).unwrap();
                }
                Step::CompactChains(depth) => {
                    // A rewritten tip moves to a fresh id (same step).
                    let report = store.compact_chains(depth, 1).unwrap();
                    if let Some(&(_, new)) = report.rewritten.iter().find(|(old, _)| *old == prev_gen) {
                        prev_gen = new;
                    }
                }
                Step::CompactManifest => {
                    store.compact_manifest().unwrap();
                }
            }
            assert_memory_equals_replay(store, op);
        }
        expected
    }

    /// Every live committed generation's raw segment bytes, by gen id.
    fn live_bytes(store: &Store) -> Vec<(u64, u64, Vec<Vec<u8>>)> {
        store
            .generations()
            .into_iter()
            .filter(|g| g.committed && g.retired.is_none())
            .map(|g| {
                let segs =
                    (0..g.ranks).map(|r| store.read_segment(g.gen, r).unwrap()).collect();
                (g.gen, g.step, segs)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Chain compaction is invisible to restores: whatever mix of
        /// fulls and increments came before, every surviving step —
        /// and above all the newest — replays to bit-identical tensors
        /// after the pass, and the rewrite itself is a lossless full.
        #[test]
        fn compacted_chain_replays_bit_identically(
            ops in pvec((any::<bool>(), any::<u8>()), 2..14),
            seed in any::<u64>(),
            max_depth in 1usize..4,
        ) {
            let dir = scratch("compact");
            let mut store = Store::open(&dir).unwrap();
            let expected = apply_ops(&mut store, &ops, seed, 0);
            store.compact_chains(max_depth, 1).unwrap();

            // The newest step always survives with identical state.
            let (last_step, last_tensor) = expected.last().unwrap();
            let latest = store.latest_committed().unwrap();
            let info = store.generations().into_iter().find(|g| g.gen == latest).unwrap();
            prop_assert_eq!(info.step, *last_step);
            prop_assert!(store.restore_array(latest, 0).unwrap() == *last_tensor,
                         "latest diverged after compaction");

            // Every still-live step replays to exactly its pre-compaction
            // tensor, and no chain is deeper than the bound.
            for info in store.generations() {
                if !info.committed || info.retired.is_some() {
                    continue;
                }
                prop_assert!(store.resolve_chain(info.gen).unwrap().len() <= max_depth.max(1));
                let (_, want) = expected.iter().find(|(s, _)| *s == info.step)
                    .expect("live gen has a driven step");
                prop_assert!(store.restore_array(info.gen, 0).unwrap() == *want,
                             "step {} diverged after compaction", info.step);
            }
            prop_assert!(store.verify().unwrap().clean());
            let _ = fs::remove_dir_all(&dir);
        }

        /// Memory equals replay after every operation of a generation's
        /// life — save, bounded save, increment, `gc`,
        /// `compact_chains`, `compact_manifest` in any order (`drive`
        /// compares against a reopen after each) — and the newest state
        /// survives the whole history bit for bit.
        #[test]
        fn memory_equals_replay_after_every_operation(
            ops in pvec((0u8..9, any::<u8>()), 2..16),
            seed in any::<u64>(),
        ) {
            let steps: Vec<Step> = ops
                .iter()
                .map(|&(kind, arg)| match kind {
                    0 => Step::Full,
                    1 => Step::Bounded,
                    2 => Step::Gc(1 + arg as usize % 3),
                    3 => Step::CompactChains(1 + arg as usize % 3),
                    4 => Step::CompactManifest,
                    _ => Step::Increment(arg),
                })
                .collect();
            let dir = scratch("replay");
            let mut store = Store::open(&dir).unwrap();
            let expected = drive(&mut store, &steps, seed, 0);

            let (last_step, last_tensor) = expected.last().unwrap();
            let latest = store.latest_committed().unwrap();
            let info = store.generations().into_iter().find(|g| g.gen == latest).unwrap();
            prop_assert_eq!(info.step, *last_step);
            prop_assert!(store.restore_array(latest, 0).unwrap() == *last_tensor,
                         "the newest state diverged");
            prop_assert!(store.verify().unwrap().clean());
            let _ = fs::remove_dir_all(&dir);
        }

        /// A CSM2 snapshot open is state-identical to replaying the full
        /// CSM1 log: same live generations, same raw segment bytes.
        #[test]
        fn snapshot_open_matches_log_replay(
            ops in pvec((any::<bool>(), any::<u8>()), 2..14),
            seed in any::<u64>(),
            keep in 1usize..4,
        ) {
            let dir = scratch("snap");
            let mut store = Store::open(&dir).unwrap();
            apply_ops(&mut store, &ops, seed, 0);
            store.gc(keep).unwrap();
            drop(store);

            // Leg 1: pure CSM1 log replay.
            let replayed = Store::open(&dir).unwrap();
            prop_assert!(!replayed.open_report().snapshot_used);
            let before = live_bytes(&replayed);
            drop(replayed);

            // Leg 2: snapshot + truncate, then a CSM2-seeded open.
            let mut store = Store::open(&dir).unwrap();
            store.compact_manifest().unwrap();
            drop(store);
            let snapped = Store::open(&dir).unwrap();
            prop_assert!(snapped.open_report().snapshot_used);
            prop_assert!(!snapped.open_report().snapshot_fallback);
            prop_assert_eq!(live_bytes(&snapped), before,
                            "snapshot open diverged from log replay");
            prop_assert!(snapped.verify().unwrap().clean());
            let _ = fs::remove_dir_all(&dir);
        }

        /// A chain whose links mix both increment layouts — `INC1` from
        /// the test-only writer, `INC2` from this build's — restores
        /// bit for bit what the serial `apply` walk does; with links
        /// damaged on disk, both refuse with the earliest damaged
        /// link's error.
        #[test]
        fn a_chain_of_mixed_inc1_and_inc2_links_restores_as_the_serial_apply_walk(
            links in pvec((any::<bool>(), 0u8..8), 1..=7),
            seed in any::<u64>(),
        ) {
            let dir = scratch("mixed");
            let mut store = Store::open(&dir).unwrap();
            let mut state = Tensor::from_fn(&[37, 29], |ix| {
                ((ix[0] * 29 + ix[1]) as f64 * 0.13 + seed as f64 * 1e-3).cos() * 80.0 + 300.0
            })
            .unwrap();
            let full = lossy_ckpt::core::compress_exact(&state, Level::Default).unwrap();
            let mut tip = store.save_full(0, SegmentFormat::Array, &[&full], 1).unwrap();
            for (k, &(inc1, _)) in links.iter().enumerate() {
                let mut next = state.clone();
                next.map_inplace(|v| v * (1.0 + 1e-4 * (k + 1) as f64));
                let delta = if inc1 {
                    crate::common::inc1_increment(&state, &next, Level::Default)
                } else {
                    incremental::increment(&state, &next, Level::Default).unwrap().0
                };
                tip = store.save_increment(k as u64 + 1, tip, &[&delta], 1).unwrap();
                state = next;
            }
            let restored = store.restore_array(tip, 0).unwrap();
            let walked = serial_apply_walk(&store, tip).unwrap();
            prop_assert!(bits(&restored) == bits(&walked) && bits(&walked) == bits(&state));

            // Damage code 0 flips a byte of that link's segment; the
            // full is link 0 of the chain and is never damaged here.
            let chain = store.resolve_chain(tip).unwrap();
            for (&g, &(_, code)) in chain[1..].iter().zip(&links) {
                if code == 0 {
                    let path = store.root().join(format!("segments/{g:08}.0.seg"));
                    let mut bytes = fs::read(&path).unwrap();
                    let at = bytes.len() / 2;
                    bytes[at] ^= 0x08;
                    fs::write(&path, bytes).unwrap();
                }
            }
            let earliest = chain[1..].iter().zip(&links).find(|(_, &(_, code))| code == 0);
            match (store.restore_array(tip, 0), serial_apply_walk(&store, tip), earliest) {
                (Ok(a), Ok(b), None) => prop_assert!(bits(&a) == bits(&b)),
                (Err(a), Err(b), Some((g, _))) => {
                    prop_assert_eq!(a.to_string(), b.to_string());
                    prop_assert!(a.to_string().contains(&format!("gen {g} rank 0")), "{}", a);
                }
                (a, b, _) => prop_assert!(false, "restore {:?}, walk {:?}", a.map(|_| ()), b.map(|_| ())),
            }
            drop(store);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// The chain restore before links were decoded concurrently:
    /// decompress the full, then `incremental::apply` link by link.
    fn serial_apply_walk(store: &Store, tip: u64) -> lossy_ckpt::store::Result<Tensor<f64>> {
        let chain = store.resolve_chain(tip)?;
        let mut tensor = Compressor::decompress(&store.read_segment(chain[0], 0)?)?;
        for &g in &chain[1..] {
            tensor = incremental::apply(&tensor, &store.read_segment(g, 0)?)?;
        }
        Ok(tensor)
    }

    fn bits(t: &Tensor<f64>) -> Vec<u64> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }
}

/// Size guards for the matcher's miss stride on two small exact
/// payloads — an `INC1` increment (through the test-only writer) and a
/// `compress_exact` full, where a few-KB structured plane follows noise.
/// The constants are what the commit before the stride wrote for the
/// same inputs; the stride may cost at most the benchmark's 0.3%.
#[test]
fn the_miss_stride_costs_small_exact_payloads_under_three_permille() {
    use lossy_ckpt::core::compress_exact;
    use lossy_ckpt::deflate::Level;
    const INC1_BEFORE: usize = 637;
    const EXACT_BEFORE: usize = 19_070;
    let within = |now: usize, before: usize| now * 1000 <= before * 1003;

    let (base, cur) = common::inc_pair();
    let inc = common::inc1_increment(&base, &cur, Level::Default);
    assert!(within(inc.len(), INC1_BEFORE), "INC1 {} vs {INC1_BEFORE}", inc.len());

    let spec = FieldSpec { dims: vec![96, 16, 2], ..FieldSpec::small(FieldKind::Temperature, 5) };
    let exact = compress_exact(&generate(&spec), Level::Default).unwrap();
    assert!(within(exact.len(), EXACT_BEFORE), "exact full {} vs {EXACT_BEFORE}", exact.len());
}

/// The increment the store writes now, on the same sparse pair: its
/// byte planes cost no more than the `INC1` words did.
#[test]
fn an_inc2_increment_is_no_larger_than_the_inc1_one_on_the_small_payload() {
    use lossy_ckpt::core::incremental;
    use lossy_ckpt::deflate::Level;
    let (base, cur) = common::inc_pair();
    let (inc2, _) = incremental::increment(&base, &cur, Level::Default).unwrap();
    let inc1 = common::inc1_increment(&base, &cur, Level::Default);
    assert!(inc2.len() <= inc1.len(), "INC2 {} vs INC1 {}", inc2.len(), inc1.len());
}
