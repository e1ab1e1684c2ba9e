//! Deterministic inputs shared by `examples/gen_corpus.rs` (which
//! writes them under `tests/corpus/`) and `tests/corrupt_corpus.rs`
//! (which rebuilds them to compare): one valid sample per format in
//! `frame::FORMATS`, and the bases the damaged entries derive from.

#![allow(dead_code)] // each includer uses its own subset

use lossy_ckpt::core::checkpoint::CheckpointBuilder;
use lossy_ckpt::core::incremental;
use lossy_ckpt::deflate::frame::{self, Format, Writer};
use lossy_ckpt::deflate::{chunked, gzip, Level};
use lossy_ckpt::prelude::*;
use lossy_ckpt::quant::Bitmap;
use lossy_ckpt::serve::proto::{self, Request};
use lossy_ckpt::store::{SegmentFormat, Store};
use lossy_ckpt::wavelet::{Kernel, MultiLevel};
use std::fs;
use std::path::{Path, PathBuf};

/// The fixed input of `tests/corpus/golden_*.gz`: an LCG-noise head (poorly compressible), a
/// text run (dynamic-Huffman friendly), a zero page (RLE matches), and
/// an f64 table (the checkpoint-like section). Must never change — the
/// committed fixtures encode exactly these bytes.
pub fn golden_input() -> Vec<u8> {
    let mut data = Vec::with_capacity(104 * 1024);
    let mut state: u64 = 0x00C0_FFEE;
    for _ in 0..32 * 1024 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        data.push((state >> 33) as u8);
    }
    while data.len() < 64 * 1024 {
        data.extend_from_slice(b"the quick brown fox jumps over the lazy checkpoint. 0123456789 ");
    }
    data.truncate(64 * 1024);
    data.extend(std::iter::repeat_n(0u8, 8 * 1024));
    for i in 0..4096u32 {
        data.extend_from_slice(&f64::from(i).sqrt().to_le_bytes());
    }
    data
}

pub fn lcg_bytes(n: usize, mut state: u64) -> Vec<u8> {
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// Input of `tests/corpus/golden_wpk1_multichunk.bin`: alternating
/// incompressible and periodic stretches, so the members' sizes differ,
/// and a length that leaves an odd tail chunk.
pub fn golden_wpk1_input() -> Vec<u8> {
    let noise = lcg_bytes(GOLDEN_WPK1_LEN, 77);
    (0..GOLDEN_WPK1_LEN)
        .map(|i| if (i / 1500) % 2 == 0 { noise[i] } else { (i % 97) as u8 })
        .collect()
}

/// Six chunks: five of [`GOLDEN_WPK1_CHUNK`] bytes and a 521-byte tail.
pub const GOLDEN_WPK1_LEN: usize = 21_001;
pub const GOLDEN_WPK1_CHUNK: usize = 4096;

pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// `tests/corpus/valid_<magic>.bin`.
pub fn valid_path(f: &Format) -> PathBuf {
    corpus_dir().join(format!("valid_{}.bin", f.name().to_lowercase()))
}

/// The `INC1` writer as the last build that had one wrote it, kept as a
/// test oracle: no build writes `INC1` any more, every build reads it.
/// The `INC1` corpus entries and the store images that carry an
/// increment are built through it, so they regenerate byte for byte,
/// and chains can mix both layouts.
pub fn inc1_increment(base: &Tensor<f64>, current: &Tensor<f64>, level: Level) -> Vec<u8> {
    assert_eq!(base.dims(), current.dims(), "incremental base shape mismatch");
    let n = current.len();
    let pages = n.div_ceil(incremental::PAGE_ELEMS);

    let mut dirty = Vec::with_capacity(pages);
    let mut payload = Vec::new();
    for p in 0..pages {
        let lo = p * incremental::PAGE_ELEMS;
        let hi = (lo + incremental::PAGE_ELEMS).min(n);
        let a = &base.as_slice()[lo..hi];
        let b = &current.as_slice()[lo..hi];
        let is_dirty = a != b;
        dirty.push(is_dirty);
        if is_dirty {
            for (x, y) in a.iter().zip(b) {
                let xor = x.to_bits() ^ y.to_bits();
                payload.extend_from_slice(&xor.to_le_bytes());
            }
        }
    }

    let mut w = Writer::with_capacity(payload.len() + pages / 8 + 64);
    w.put_bytes(&frame::INC1.magic);
    w.put_u8(u8::try_from(current.ndim()).expect("at most 255 axes"));
    for &d in current.dims() {
        w.put_u64(d as u64);
    }
    w.put_u64(pages as u64);
    let mut bits = Bitmap::zeros(pages);
    for (i, &d) in dirty.iter().enumerate() {
        bits.set(i, d);
    }
    w.put_bytes(&bits.to_bytes());
    w.put_bytes(&payload);
    gzip::compress(&w.into_bytes(), level)
}

/// The base and current state the `INC1` and `INC2` entries are built
/// from.
pub fn inc_pair() -> (Tensor<f64>, Tensor<f64>) {
    let base = generate(&FieldSpec::small(FieldKind::Pressure, 11));
    let mut cur = base.clone();
    for i in (0..cur.len()).step_by(7) {
        cur.as_mut_slice()[i] += 1.5;
    }
    (base, cur)
}

/// A 16×8 field: big enough for every pipeline stage, small enough to
/// check in and to damage at every byte.
pub fn tiny_field(seed: u64) -> Tensor<f64> {
    let spec = FieldSpec { dims: vec![16, 8], ..FieldSpec::small(FieldKind::Temperature, seed) };
    generate(&spec)
}

/// The store's three states of one rank: the packed lossy array, what
/// it restores to, and that state nine elements later — the valid
/// `INC1` sample is the increment between the last two.
pub fn tiny_states() -> (Vec<u8>, Tensor<f64>, Tensor<f64>) {
    let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let full = comp.compress(&tiny_field(1)).unwrap().bytes;
    let base = Compressor::decompress(&full).unwrap();
    let mut next = base.clone();
    for v in next.as_mut_slice().iter_mut().take(9) {
        *v += 0.25;
    }
    (full, base, next)
}

/// The files of a deterministic three-generation store — a full array,
/// an `INC1` increment on it (through [`inc1_increment`], so the files
/// are the ones checked in), a manifest compaction, and one more full
/// under an error bound: `(manifest, manifest.snap, [segment of gen 1,
/// of gen 2, of gen 3])`.
pub struct StoreFiles {
    pub manifest: Vec<u8>,
    pub snapshot: Vec<u8>,
    pub segments: [Vec<u8>; 3],
}

pub fn store_files() -> StoreFiles {
    let dir = std::env::temp_dir().join(format!(
        "ckpt-corpus-store-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    let (full, base, next) = tiny_states();
    let inc = inc1_increment(&base, &next, Level::Default);

    let mut store = Store::open(&dir).unwrap();
    let g1 = store.save_full(10, SegmentFormat::Array, &[&full], 1).unwrap();
    store.save_increment(20, g1, &[&inc], 1).unwrap();
    store.compact_manifest().unwrap();
    store.save_full_bounded(30, SegmentFormat::Array, &[&full], 1, 1e-3).unwrap();
    drop(store);

    let read = |rel: &str| fs::read(dir.join(rel)).unwrap();
    let files = StoreFiles {
        manifest: read("manifest"),
        snapshot: read("manifest.snap"),
        segments: [1, 2, 3].map(|g| read(&format!("segments/{g:08}.0.seg"))),
    };
    let _ = fs::remove_dir_all(&dir);
    files
}

/// The `CSM1` log and, after `compact_manifest`, the `CSM2` snapshot of
/// a store driven through every record-writing operation: three fulls
/// (the second saved under an error bound and grown into a depth-3
/// chain), `gc(2)` pruning the first, `compact_chains(2, 1)` rewriting
/// the chain (the rewrite carries the base's `Bound` and keeps its
/// tip's step, so the step-30 full stays latest under its own id).
/// `tests/corpus/golden_store_{log,snap}.bin` are this script's images;
/// its two increments are `INC1`, as the commit before the store's
/// lifecycle engine (`Store::log`/`apply`/`retire`) wrote them.
pub fn golden_store_images() -> (Vec<u8>, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!(
        "ckpt-golden-store-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    let (full, base, next) = tiny_states();
    let mut last = next.clone();
    for v in last.as_mut_slice().iter_mut().skip(20).take(5) {
        *v -= 0.5;
    }
    let inc_a = inc1_increment(&base, &next, Level::Default);
    let inc_b = inc1_increment(&next, &last, Level::Default);

    let mut store = Store::open(&dir).unwrap();
    store.save_full(10, SegmentFormat::Array, &[&full], 1).unwrap();
    let f2 = store.save_full_bounded(20, SegmentFormat::Array, &[&full], 1, 1e-3).unwrap();
    let i3 = store.save_increment(21, f2, &[&inc_a], 1).unwrap();
    store.save_increment(22, i3, &[&inc_b], 1).unwrap();
    store.save_full(30, SegmentFormat::Array, &[&full], 1).unwrap();
    assert_eq!(store.gc(2).unwrap().pruned, [1]);
    let report = store.compact_chains(2, 1).unwrap();
    assert_eq!(report.rewritten, [(4, 6)], "one rewrite, no copy of the newest full");
    assert_eq!(report.retired, [2, 3, 4]);
    assert_eq!(store.latest_committed(), Some(5));
    assert!(store.restore_array(6, 0).unwrap() == last);
    let log = fs::read(dir.join("manifest")).unwrap();
    store.compact_manifest().unwrap();
    let snap = fs::read(dir.join("manifest.snap")).unwrap();
    drop(store);
    let _ = fs::remove_dir_all(&dir);
    (log, snap)
}

/// The shapes `golden_wavelet_coeffs.bin` covers: the paper's mesh, odd
/// extents on every axis, a plain 2-d array, a lone short lane, a
/// single element, and a 4-d array.
pub const GOLDEN_WAVELET_DIMS: [&[usize]; 6] =
    [&[1156, 82, 2], &[13, 7, 5], &[64, 32], &[3], &[1, 1], &[2, 3, 4, 5]];

/// Every case of `golden_wavelet_coeffs.bin`, in file order.
pub fn golden_wavelet_cases() -> Vec<(Kernel, &'static [usize], usize)> {
    let mut cases = Vec::new();
    for kernel in [Kernel::Haar, Kernel::Cdf53, Kernel::Cdf97] {
        for dims in GOLDEN_WAVELET_DIMS {
            for levels in [1, 2] {
                cases.push((kernel, dims, levels));
            }
        }
    }
    cases
}

/// `tests/corpus/golden_wavelet_coeffs.bin`: per case of
/// [`golden_wavelet_cases`], the CRC-32 of the little-endian forward
/// coefficients and of the inverse of that forward transform, each a
/// little-endian `u32`. The input is a ramp under LCG noise — integer
/// arithmetic only, so no libm decides a bit. The checked-in file was
/// written by the commit *before* the one tiled axis walk replaced the
/// lane iterator and its two walkers.
pub fn golden_wavelet_coeffs() -> Vec<u8> {
    let crc = |t: &Tensor<f64>| {
        let bytes: Vec<u8> = t.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
        lossy_ckpt::deflate::crc32::crc32(&bytes).to_le_bytes()
    };
    let mut out = Vec::new();
    for (kernel, dims, levels) in golden_wavelet_cases() {
        let volume: usize = dims.iter().product();
        let mut noise = lcg_bytes(volume, 0x5EED + volume as u64).into_iter();
        let mut t = Tensor::from_fn(dims, |idx| {
            let ramp: usize = idx.iter().enumerate().map(|(a, &i)| (a + 1) * i).sum();
            250.0 + ramp as f64 * 0.375 + f64::from(noise.next().unwrap()) / 64.0
        })
        .unwrap();
        let ml = MultiLevel::with_kernel(WaveletPlan { levels }, kernel);
        ml.forward(&mut t).unwrap();
        out.extend_from_slice(&crc(&t));
        ml.inverse(&mut t).unwrap();
        out.extend_from_slice(&crc(&t));
    }
    out
}

/// Lays `files` out as a store directory.
pub fn plant_store(dir: &Path, files: &StoreFiles) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir.join("segments")).unwrap();
    fs::write(dir.join("manifest"), &files.manifest).unwrap();
    fs::write(dir.join("manifest.snap"), &files.snapshot).unwrap();
    for (seg, gen) in files.segments.iter().zip(1..) {
        fs::write(dir.join(format!("segments/{gen:08}.0.seg")), seg).unwrap();
    }
}

/// One valid encoded sample per format, keyed by magic. What
/// `gen_corpus` writes to [`valid_path`]; a rebuild that still equals
/// the files checked in shows the bytes did not move. (They last moved
/// with the encoder's block-split rule, `TOO_FAR` and the retuned
/// `Level::Default`: the `WCK1`, `INC1` and `INC2` samples, and the
/// manifest and snapshot that carry their CRCs; the samples from before
/// are `decode_only_<magic>.bin`. The `WPK1` sample was written at the
/// retired `Fast` effort: its deflate bodies are the one effort's too,
/// and only its members' XFL byte went 4 → 0; `decode_only_wpk1.bin`
/// is the sample from before.) The `INC1` sample is the store's
/// increment, written by the oracle; the `INC2` one is the same
/// increment as this build writes it.
pub fn valid_samples() -> Vec<([u8; 4], Vec<u8>)> {
    let store = store_files();
    let [wck1, inc1, _] = store.segments;
    let (_, base, next) = tiny_states();
    let (inc2, _) = incremental::increment(&base, &next, Level::Default).unwrap();
    let mut ckpt = CheckpointBuilder::new(7);
    ckpt.add_raw("t", &tiny_field(2)).unwrap();
    let mut srv1 = Vec::new();
    let fetch = Request::Fetch { gen: 3, rank: 0, offset: 4096, len: 512 };
    proto::write_frame(&mut srv1, &proto::encode_request(&fetch)).unwrap();
    vec![
        (*b"WCK1", wck1),
        (*b"CKPT", ckpt.into_bytes()),
        (*b"WPK1", chunked::compress_chunked(&lcg_bytes(3000, 5), Level::Default, 1024, 1)),
        (*b"INC1", inc1),
        (*b"INC2", inc2),
        (*b"CSM1", store.manifest),
        (*b"CSM2", store.snapshot),
        (*b"SRV1", srv1),
    ]
}
