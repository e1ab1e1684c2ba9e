//! Hostile bytes against every format in `frame::FORMATS`.
//!
//! One harness per format (its owner's decoder, reduced to the bytes
//! it vouches for) drives the table-driven checks: every damaged
//! artifact under `tests/corpus/` (regenerate with `cargo run
//! --example gen_corpus`) is refused by its format's decoder, the
//! 1 GiB claims on the guard that spares the allocation; every
//! checked-in valid sample still decodes and still equals what this
//! build writes (the gzip-written ones last moved with the encoder's
//! block-split rule, `TOO_FAR` and the retuned `Level::Default`, and
//! `decode_only_<magic>.bin` is each moved sample from before that,
//! `decode_only_wpk1.bin` the `WPK1` sample written at the retired
//! `Fast` effort, whose members differ from today's in XFL only;
//! `decode_only_wck1_untransposed.bin` is the `WCK1` sample from before
//! the miss stride and the transposed default; the `INC1` sample and
//! entries come from the test-only copy of the writer no build has any
//! more, `common::inc1_increment`); and a valid sample cut at
//! any byte or flipped at any byte is refused too. A format added to
//! the table without a harness fails here, not silently. Two files were
//! written by the last build that had their writer: a Lloyd-Max `WCK1`
//! stream, which must keep decoding, and a zlib-wrapped one, which must
//! be refused by name.

#![allow(clippy::needless_update)]

mod common;

use lossy_ckpt::core::checkpoint::Checkpoint;
use lossy_ckpt::core::incremental::{self, Layout};
use lossy_ckpt::deflate::frame::{Format, FORMATS};
use lossy_ckpt::deflate::{chunked, gzip, Level};
use lossy_ckpt::prelude::*;
use lossy_ckpt::serve::proto;
use lossy_ckpt::store::{manifest, SegmentFormat, Store};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

/// How a format's decoder must treat a damaged byte.
#[derive(Clone, Copy, PartialEq)]
enum Policy {
    /// Every byte is validated or under a checksum: damage is refused,
    /// or — a byte no field depends on, like gzip's MTIME — decodes to
    /// exactly what the undamaged input does.
    Strict,
    /// `CSM1`'s tolerant scan: the records accepted are exactly those
    /// that end before the damage.
    PrefixBeforeDamage,
    /// `CKPT` headers and raw payloads carry no checksum at this
    /// layer: the decoder need only return.
    Total,
}

struct Harness {
    /// The owner's decoder: `Ok` carries the decoded value's canonical
    /// bytes, `Err` the rejection.
    decode: fn(&[u8]) -> Result<Vec<u8>, String>,
    policy: Policy,
}

/// A fresh per-thread directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ckpt-corpus-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn tensor_bytes(t: &Tensor<f64>) -> Vec<u8> {
    let mut out = format!("{:?}", t.dims()).into_bytes();
    out.extend(t.as_slice().iter().flat_map(|v| v.to_le_bytes()));
    out
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn decode_ckpt(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let ck = Checkpoint::from_bytes(bytes).map_err(err)?;
    let mut out = ck.step().to_le_bytes().to_vec();
    for name in ck.names() {
        out.extend(name.as_bytes());
        out.extend(tensor_bytes(&ck.restore(name).map_err(err)?));
    }
    Ok(out)
}

/// The base-free decode the store's verify runs — which must find the
/// harness's own layout, since one parser reads both magics — then
/// `apply` against whichever corpus base the increment was built on.
fn decode_increment(bytes: &[u8], layout: Layout) -> Result<Vec<u8>, String> {
    static BASES: OnceLock<[Tensor<f64>; 2]> = OnceLock::new();
    let [corpus_base, sample_base] =
        BASES.get_or_init(|| [common::inc_pair().0, common::tiny_states().1]);
    if incremental::decode(bytes).map_err(err)?.layout() != layout {
        return Err(format!("not a {layout:?} increment"));
    }
    incremental::apply(corpus_base, bytes)
        .or_else(|_| incremental::apply(sample_base, bytes))
        .map(|t| tensor_bytes(&t))
        .map_err(err)
}

fn decode_csm1(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let scan = manifest::parse_manifest(bytes).map_err(err)?;
    Ok(format!("{:?} valid_len={}", scan.records, scan.valid_len).into_bytes())
}

/// `parse_snapshot` as `Store::open` runs it: the bytes planted as a
/// fresh store's `manifest.snap` either seed recovery or are
/// quarantined.
fn decode_csm2(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let dir = scratch_dir("csm2");
    fs::create_dir_all(&dir).map_err(err)?;
    fs::write(dir.join("manifest.snap"), bytes).map_err(err)?;
    let store = Store::open(&dir).map_err(err)?;
    let used = store.open_report().snapshot_used;
    assert_ne!(used, store.open_report().snapshot_fallback, "used xor quarantined");
    let gens = format!("{:?}", store.generations()).into_bytes();
    let _ = fs::remove_dir_all(&dir);
    if used {
        Ok(gens)
    } else {
        Err("snapshot quarantined, recovery fell back to log replay".into())
    }
}

fn decode_srv1(bytes: &[u8]) -> Result<Vec<u8>, String> {
    proto::read_frame(&mut &bytes[..]).map_err(err)?.ok_or_else(|| "clean EOF: no frame".into())
}

fn harness(f: &Format) -> Harness {
    let strict = |decode| Harness { decode, policy: Policy::Strict };
    match &f.magic {
        b"WCK1" => strict(|b| Compressor::decompress(b).map(|t| tensor_bytes(&t)).map_err(err)),
        b"CKPT" => Harness { decode: decode_ckpt, policy: Policy::Total },
        b"WPK1" => strict(|b| chunked::decompress_chunked(b, 2).map_err(err)),
        b"INC1" => strict(|b| decode_increment(b, Layout::Words)),
        b"INC2" => strict(|b| decode_increment(b, Layout::Planes)),
        b"CSM1" => Harness { decode: decode_csm1, policy: Policy::PrefixBeforeDamage },
        b"CSM2" => strict(decode_csm2),
        b"SRV1" => strict(decode_srv1),
        _ => panic!("frame::FORMATS lists {}; give it a harness here", f.name()),
    }
}

/// `common::valid_samples()`, built once: one valid sample per format,
/// in the table's order.
fn samples() -> &'static [([u8; 4], Vec<u8>)] {
    static SAMPLES: OnceLock<Vec<([u8; 4], Vec<u8>)>> = OnceLock::new();
    SAMPLES.get_or_init(common::valid_samples)
}

/// `(file name, bytes)` of every corpus entry whose name starts with
/// `prefix`, sorted.
fn corpus_files(prefix: &str) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = fs::read_dir(common::corpus_dir())
        .expect("tests/corpus")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with(prefix) && name.ends_with(".bin"))
        .map(|name| {
            let bytes = fs::read(common::corpus_dir().join(&name)).unwrap();
            (name, bytes)
        })
        .collect();
    out.sort();
    out
}

/// Corpus fixtures that belong to no one row of `frame::FORMATS`.
const NON_FORMAT_FAMILIES: [&str; 4] = ["golden_", "gzip_", "noise", "retired_"];

/// The names in `names` that neither a format in `formats` nor a
/// [`NON_FORMAT_FAMILIES`] prefix owns. A format owns `valid_<name>.bin`,
/// its damaged entries `<name>_*` and its decode-only samples
/// `decode_only_<name>.bin` and `decode_only_<name>_*`, `<name>` being
/// its magic in lower case.
fn unowned_corpus_files<'a>(names: &[&'a str], formats: &[Format]) -> Vec<&'a str> {
    let owned = |name: &str| {
        formats.iter().any(|f| {
            let fmt = f.name().to_lowercase();
            name == format!("valid_{fmt}.bin")
                || name == format!("decode_only_{fmt}.bin")
                || name.starts_with(&format!("{fmt}_"))
                || name.starts_with(&format!("decode_only_{fmt}_"))
        })
    };
    let family = |name: &str| NON_FORMAT_FAMILIES.iter().any(|p| name.starts_with(p));
    names.iter().copied().filter(|name| !owned(name) && !family(name)).collect()
}

/// A format that leaves the table takes its fixtures with it: the
/// corpus-freshness check (`gen_corpus` then `git diff`) cannot see a
/// file nothing writes any more, so every file here must name a format
/// still in `frame::FORMATS` or belong to a fixed non-format family.
#[test]
fn every_corpus_file_belongs_to_a_format_in_the_table_or_a_fixed_family() {
    let names: Vec<String> = fs::read_dir(common::corpus_dir())
        .expect("tests/corpus")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let orphans = unowned_corpus_files(&names, &FORMATS);
    assert!(orphans.is_empty(), "corpus files no format owns: {orphans:?}");

    // The files a retired format left behind are caught by name.
    let leftovers = ["valid_rpc1.bin", "rpc1_crc_flip.bin", "decode_only_rpc1_old.bin"];
    assert_eq!(unowned_corpus_files(&leftovers, &FORMATS), leftovers);
}

/// Entries that must die on one particular check, as a substring of
/// the refusal — the 1 GiB claims on the guard that refuses them before
/// anything is allocated, the resealed entries on the field validation
/// behind the CRC.
const DIES_ON: &[(&str, &str)] = &[
    ("wpk1_bomb_total.bin", "bad container"),
    ("wpk1_lying_chunk_count.bin", "chunk count does not match geometry"),
    ("wck1_corrupt_body.bin", "checksum mismatch"),
    ("wck1_many_axes.bin", "subband stream overrun"),
    ("inc1_crc_flip.bin", "checksum mismatch"),
    ("inc1_bad_page_map.bin", "dirty map implies"),
    ("inc1_claim_1gib.bin", "need 134217728 bytes"),
    ("inc2_crc_flip.bin", "checksum mismatch"),
    ("inc2_bad_page_map.bin", "dirty map implies"),
    ("inc2_bad_version.bin", "unsupported version 9"),
    ("inc2_claim_1gib.bin", "need 134217728 bytes"),
    ("csm1_claim_1gib.bin", "valid prefix ends at byte 8"),
    ("srv1_claim_1gib.bin", "exceeds the 67108864-byte bound"),
    ("srv1_torn_body.bin", "truncated"),
    ("srv1_crc_flip.bin", "CRC mismatch"),
];

/// Asserts `f`'s decoder refuses the corpus entry `name`, on the check
/// [`DIES_ON`] names for it if any. The tolerant `CSM1` scanner refuses
/// by ending the valid prefix short of the file.
fn assert_refused(f: &Format, name: &str, bytes: &[u8]) {
    let h = harness(f);
    let why = match (h.decode)(bytes) {
        Err(why) => why,
        Ok(_) if h.policy == Policy::PrefixBeforeDamage => {
            let scan = manifest::parse_manifest(bytes).unwrap();
            assert!(scan.valid_len < bytes.len(), "{name}: nothing was refused");
            assert!(scan.records.is_empty(), "{name}");
            format!("valid prefix ends at byte {}", scan.valid_len)
        }
        Ok(_) => panic!("{name}: accepted by the {} decoder", f.name()),
    };
    if let Some((_, needle)) = DIES_ON.iter().find(|(n, _)| *n == name) {
        assert!(why.contains(needle), "{name}: died on `{why}`, not `{needle}`");
    }
}

#[test]
fn every_damaged_corpus_entry_is_refused_by_its_formats_decoder() {
    for f in &FORMATS {
        let damaged = corpus_files(&format!("{}_", f.name().to_lowercase()));
        assert!(!damaged.is_empty(), "{}: no damaged corpus entry", f.name());
        for (name, bytes) in damaged {
            assert_refused(f, &name, &bytes);
        }
    }
    for (name, _) in DIES_ON {
        assert!(common::corpus_dir().join(name).exists(), "DIES_ON names no corpus file: {name}");
    }
    // The lying dirty maps decompress fine at the container layer — it
    // is the increment parser that rejects them.
    for name in ["inc1_bad_page_map.bin", "inc2_bad_page_map.bin"] {
        let lying = fs::read(common::corpus_dir().join(name)).unwrap();
        assert!(gzip::decompress(&lying).is_ok(), "{name}");
    }
}

/// The store's index is the manifest's `Seg` records and reads no
/// segment file: every damaged `WPK1` entry saves and indexes with its
/// committed length and CRC, and still fails to decode.
#[test]
fn every_saved_wpk1_corpus_file_indexes_from_the_manifest_and_still_fails_to_decode() {
    let dir = scratch_dir("wpk1-index");
    let mut store = Store::open(&dir).unwrap();
    for (name, bytes) in corpus_files("wpk1_") {
        let gen = store.save_full(0, SegmentFormat::Array, &[&bytes], 1).unwrap();
        let index = store.snapshot().unwrap().segment_index(gen).unwrap();
        let rank = &index.ranks[0];
        assert_eq!(rank.payload_len, bytes.len() as u64, "{name}");
        assert_eq!(rank.crc, lossy_ckpt::deflate::crc32::crc32(&bytes), "{name}");
        assert!(chunked::decompress_chunked(&bytes, 2).is_err(), "{name}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Resource totality one level up: a sparse 1 GiB file planted where
/// the snapshot belongs is refused on its length
/// (`frame::read_file_bounded`), and what follows is what follows any
/// other damaged snapshot — it is quarantined and the log replayed.
#[test]
fn a_gibibyte_file_at_each_metadata_path_is_treated_as_damage() {
    let dir = scratch_dir("gib-files");
    common::plant_store(&dir, &common::store_files());

    fs::File::create(dir.join("manifest.snap")).unwrap().set_len(1 << 30).unwrap();
    let store = Store::open(&dir).unwrap();
    assert!(store.open_report().snapshot_fallback && !store.open_report().snapshot_used);
    assert!(dir.join("quarantine/manifest.snap").exists());
    assert_eq!(store.latest_committed(), Some(3), "the log tail replays");
    let _ = fs::remove_dir_all(&dir);
}

/// Resource totality: every format with a length or count prefix has
/// an entry claiming 1 GiB in a file of a few dozen bytes, refused by
/// the guard ahead of the allocation ([`DIES_ON`]) rather than by
/// whatever would trip over the missing bytes afterwards.
#[test]
fn every_gibibyte_claim_is_refused_on_its_guard() {
    for magic in [b"CSM1", b"CSM2", b"SRV1", b"INC1", b"INC2"] {
        let f = FORMATS.iter().find(|f| &f.magic == magic).unwrap();
        let name = format!("{}_claim_1gib.bin", f.name().to_lowercase());
        let bytes = fs::read(common::corpus_dir().join(&name))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(bytes.len() < 80, "{name}: {} bytes is not a tiny file", bytes.len());
        assert_refused(f, &name, &bytes);
    }
}

/// The RFC 1952 container is not a table format but wraps most of them.
#[test]
fn corpus_gzip_files_all_error() {
    for (name, bytes) in corpus_files("gzip_") {
        assert!(gzip::decompress(&bytes).is_err(), "{name} must fail");
    }
    assert!(matches!(
        gzip::decompress(&fs::read(common::corpus_dir().join("gzip_bad_isize.bin")).unwrap()),
        Err(lossy_ckpt::deflate::DeflateError::SizeMismatch { .. })
    ));
}

/// Every damaged `CSM2` entry, planted over a healthy log: `Store::open`
/// quarantines it and falls back to `CSM1` replay — same state, nothing
/// lost — and the next compaction installs a healthy snapshot again.
#[test]
fn corpus_csm2_snapshots_fall_back_to_log_replay() {
    let (full, _, _) = common::tiny_states();
    for (name, bytes) in corpus_files("csm2_") {
        let dir = scratch_dir("fallback");
        let mut store = Store::open(&dir).unwrap();
        for step in 1..=2 {
            store.save_full(step, SegmentFormat::Array, &[&full], 1).unwrap();
        }
        let gens_before = store.generations();
        drop(store);

        fs::write(dir.join("manifest.snap"), &bytes).unwrap();
        let mut store = Store::open(&dir).unwrap();
        let report = store.open_report();
        assert!(report.snapshot_fallback && !report.snapshot_used, "{name}");
        assert!(!dir.join("manifest.snap").exists(), "{name}: snapshot not quarantined");
        assert_eq!(store.generations(), gens_before, "{name}: log replay lost state");
        assert!(store.verify().unwrap().clean(), "{name}");

        store.compact_manifest().unwrap_or_else(|e| panic!("{name}: recompact: {e}"));
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert!(store.open_report().snapshot_used, "{name}: recompaction ignored");
        assert_eq!(store.generations(), gens_before, "{name}: recompaction lost state");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Feeds `bytes` to every untrusted-input entry point and asserts each
/// returns (it may error, it must not panic or hang).
fn all_decoders_return(bytes: &[u8]) {
    // CSM2's harness opens a store per call; its caller decides.
    for f in FORMATS.iter().filter(|f| &f.magic != b"CSM2") {
        let _ = (harness(f).decode)(bytes);
    }
    let _ = chunked::decompress_chunked_with_limit(bytes, 2, 1 << 24);
    let _ = gzip::decompress(bytes);
    let _ = gzip::decompress_with_limit(bytes, 1 << 24);
    let _ = lossy_ckpt::deflate::decompress(bytes);
    let _ = proto::decode_request(bytes);
    let _ = proto::decode_response(bytes.to_vec());
}

#[test]
fn every_corpus_file_returns_from_every_decoder() {
    for (name, bytes) in corpus_files("") {
        all_decoders_return(&bytes);
        if decode_csm2(&bytes).is_ok() {
            let snapshots = [
                "valid_csm2.bin",
                "decode_only_csm2.bin",
                "golden_store_snap.bin",
                "golden_store_snap_decode_only.bin",
                "golden_store_snap_reanchored_decode_only.bin",
            ];
            assert!(snapshots.contains(&name.as_str()), "{name} opened as a manifest snapshot");
        }
    }
}

/// The checked-in valid sample of the format tagged `magic`.
fn parent_sample(magic: &[u8; 4]) -> Vec<u8> {
    let f = FORMATS.iter().find(|f| &f.magic == magic).expect("a table format");
    fs::read(common::valid_path(f)).unwrap_or_else(|e| panic!("{}: {e}", f.name()))
}

/// The compatibility contract: bytes are what both commits agree on.
#[test]
fn parent_written_samples_decode_and_this_build_writes_the_same_bytes() {
    for (f, (magic, ours)) in FORMATS.iter().zip(common::valid_samples()) {
        assert_eq!(f.magic, magic, "valid_samples() follows the table's order");
        let on_disk = parent_sample(&f.magic);
        (harness(f).decode)(&on_disk)
            .unwrap_or_else(|why| panic!("valid {} sample refused: {why}", f.name()));
        assert!(ours == on_disk, "{}: this build no longer writes the checked-in bytes", f.name());
        // The sample as the build before the encoder's last byte move
        // wrote it, where one is kept: no build writes it, all read it.
        let kept = common::corpus_dir().join(format!("decode_only_{}.bin", f.name().to_lowercase()));
        if let Ok(old) = fs::read(&kept) {
            assert!(old != on_disk, "{}: the decode-only sample is the current one", f.name());
            (harness(f).decode)(&old)
                .unwrap_or_else(|why| panic!("decode-only {} sample refused: {why}", f.name()));
        }
    }
    assert_eq!(
        proto::decode_request(&decode_srv1(&parent_sample(b"SRV1")).unwrap()).unwrap(),
        proto::Request::Fetch { gen: 3, rank: 0, offset: 4096, len: 512 }
    );
}

/// `replication.cursor` as the builds with buddy replication left it
/// in this store after pushing its three generations: `RPC1`'s
/// `header8`, generation 3, its CRC-32. No build reads or writes it
/// now; stores on disk may still hold one.
const PARENT_CURSOR: [u8; 20] = [
    b'R', b'P', b'C', b'1', 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0x8a, 0xd8, 0xad, 0xeb,
];

/// The decode-only sample of the format tagged `magic`: the bytes the
/// build before the encoder's last byte move wrote for it.
fn decode_only_sample(magic: &[u8; 4]) -> Vec<u8> {
    let f = FORMATS.iter().find(|f| &f.magic == magic).expect("a table format");
    let name = format!("decode_only_{}.bin", f.name().to_lowercase());
    fs::read(common::corpus_dir().join(&name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Plants the store an older build wrote — a full, an `INC1` link on
/// it, a bounded full, and the replication cursor older builds left
/// beside them — in a fresh directory, from the decode-only samples.
fn plant_parent_store(tag: &str) -> PathBuf {
    let files = common::StoreFiles {
        manifest: decode_only_sample(b"CSM1"),
        snapshot: decode_only_sample(b"CSM2"),
        segments: [b"WCK1", b"INC1", b"WCK1"].map(decode_only_sample),
    };
    let dir = scratch_dir(tag);
    common::plant_store(&dir, &files);
    fs::write(dir.join("replication.cursor"), PARENT_CURSOR).unwrap();
    dir
}

/// A whole store written by the parent opens, verifies and restores,
/// and the replication cursor it holds is a stray file that is left
/// where it is, byte for byte: never quarantined, never deleted.
#[test]
fn parent_written_store_opens_verifies_and_restores() {
    let dir = plant_parent_store("parent-store");
    let store = Store::open(&dir).unwrap();
    assert!(store.open_report().snapshot_used && !store.open_report().snapshot_fallback);
    assert_eq!(store.open_report().truncated_bytes, 0);
    assert!(store.verify().unwrap().clean());
    let gens = store.generations();
    assert_eq!(gens.iter().map(|g| g.gen).collect::<Vec<_>>(), [1, 2, 3]);
    assert_eq!(gens[2].error_bound, Some(1e-3), "the Bound record in the log tail");
    assert_eq!(store.restore_array(2, 0).unwrap(), common::tiny_states().2);
    drop(store);
    assert_eq!(fs::read(dir.join("replication.cursor")).unwrap(), PARENT_CURSOR);
    assert_eq!(fs::read_dir(dir.join("quarantine")).unwrap().count(), 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Old chains grow in the new format: `INC2` links this build writes,
/// saved on top of the parent-written `INC1` link, restore bit for bit
/// at every depth, and the store still verifies.
#[test]
fn inc2_links_on_a_parent_written_inc1_link_restore_bit_exactly() {
    let dir = plant_parent_store("mixed-chain");
    let mut store = Store::open(&dir).unwrap();
    let mut state = common::tiny_states().2;
    let mut tip = 2;
    for k in 0..3u32 {
        let mut next = state.clone();
        next.map_inplace(|v| v * 1.0001 + f64::from(k));
        let (inc, _) = incremental::increment(&state, &next, Level::Default).unwrap();
        tip = store.save_increment(40 + u64::from(k), tip, &[&inc], 1).unwrap();
        state = next;
        let restored = store.restore_array(tip, 0).unwrap();
        assert_eq!(tensor_bytes(&restored), tensor_bytes(&state), "depth {}", k + 2);
    }
    assert_eq!(store.resolve_chain(tip).unwrap(), [1, 2, 4, 5, 6]);
    assert!(store.verify().unwrap().clean());
    let _ = fs::remove_dir_all(&dir);
}

/// The record stream is a contract too: the log and snapshot images of
/// `golden_store_images`' script (every record kind; retires from GC
/// and from compaction) are what this build writes, byte for byte —
/// and they replay to the state the script left in memory. Older
/// builds' images are kept as decode-only fixtures no build writes:
/// `*_decode_only.bin` from before the encoder's last byte move (the
/// `Seg` records carry payload CRCs), and `*_reanchored_decode_only.bin`
/// from before recency was ordered by step, when compaction also copied
/// the newest full (gen 5) above its rewrite and retired it. They still
/// parse, in their own retire order, and each snapshot still seeds a
/// store.
#[test]
fn the_parent_written_store_log_is_what_this_build_writes() {
    let read = |name: &str| fs::read(common::corpus_dir().join(name)).unwrap();
    let (log, snap) = common::golden_store_images();
    assert!(log == read("golden_store_log.bin"), "the CSM1 record stream moved");
    assert!(snap == read("golden_store_snap.bin"), "the CSM2 snapshot moved");

    let retires = |log: &[u8]| -> Vec<u64> {
        let scan = manifest::parse_manifest(log).unwrap();
        assert_eq!(scan.valid_len, log.len());
        scan.records
            .iter()
            .filter(|r| matches!(r, manifest::Record::Retire { .. }))
            .map(|r| r.gen())
            .collect()
    };
    // GC's victim, then compaction's: dependents first.
    assert_eq!(retires(&log), [1, 4, 3, 2]);
    for tag in ["decode_only", "reanchored_decode_only"] {
        let old_log = read(&format!("golden_store_log_{tag}.bin"));
        let old_snap = read(&format!("golden_store_snap_{tag}.bin"));
        assert!(old_log != log && old_snap != snap, "{tag}: the images are the current ones");
        assert_eq!(retires(&old_log), [1, 5, 4, 3, 2], "{tag}: the copied full retired too");
        decode_csm2(&old_snap).unwrap_or_else(|e| panic!("{tag}: the snapshot seeds no store: {e}"));
    }
}

/// Restored values are a contract as much as bytes are: the forward
/// coefficients and their inverse for every kernel, shape and depth of
/// `golden_wavelet_cases` are what the commit before the one tiled axis
/// walk computed, bit for bit.
#[test]
fn the_parent_written_wavelet_coefficients_are_what_this_build_computes() {
    let on_disk = fs::read(common::corpus_dir().join("golden_wavelet_coeffs.bin")).unwrap();
    let ours = common::golden_wavelet_coeffs();
    let cases = common::golden_wavelet_cases();
    assert_eq!(on_disk.len(), cases.len() * 8, "two CRCs per case");
    for (case, (want, got)) in cases.iter().zip(on_disk.chunks(8).zip(ours.chunks(8))) {
        assert_eq!(want[..4], got[..4], "forward coefficients moved: {case:?}");
        assert_eq!(want[4..], got[4..], "inverse of forward moved: {case:?}");
    }
}

/// Old archives keep restoring: the `WCK1` sample as the previous
/// default wrote it — flags bit 1 clear, gzipped by the matcher without
/// the miss stride — decodes to the values today's transposed sample
/// decodes to, bit for bit, and `with_byte_shuffle(false)` still writes
/// its formatted stream byte for byte.
#[test]
fn the_untransposed_sample_of_the_previous_default_still_decodes_bit_exact() {
    let old = fs::read(common::corpus_dir().join("decode_only_wck1_untransposed.bin")).unwrap();
    let formatted = gzip::decompress(&old).unwrap();
    assert_eq!(formatted[6] & 2, 0, "flags bit 1 clear: the untransposed read path");
    assert_eq!(gzip::decompress(&parent_sample(b"WCK1")).unwrap()[6] & 2, 2);
    let restored = Compressor::decompress(&old).unwrap();
    assert_eq!(tensor_bytes(&restored), tensor_bytes(&common::tiny_states().1));
    let cfg = CompressorConfig::paper_proposed()
        .with_byte_shuffle(false)
        .with_container(Container::None);
    let rewritten = Compressor::new(cfg).unwrap().compress(&common::tiny_field(1)).unwrap();
    assert!(rewritten.bytes == formatted, "the untransposed writer moved a byte");
}

/// Retired writer, old bytes: a `WCK1` stream the Lloyd-Max quantizer
/// wrote (method byte 2) before it was deleted decodes to the values
/// that build recorded beside it, bit for bit — the decoder never reads
/// the method byte.
#[test]
fn the_lloyd_written_sample_still_decodes_bit_exact() {
    let old = fs::read(common::corpus_dir().join("decode_only_wck1_lloyd.bin")).unwrap();
    assert_eq!(gzip::decompress(&old).unwrap()[5], 2, "method byte 2: the retired writer");
    let recorded = fs::read(common::corpus_dir().join("decode_only_wck1_lloyd.values")).unwrap();
    let restored = Compressor::decompress(&old).unwrap();
    assert_eq!(restored.dims(), common::tiny_field(1).dims());
    let values: Vec<u8> = restored.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    assert!(values == recorded, "the Lloyd-written stream no longer restores its recorded values");
}

/// Retired container: the zlib (RFC 1950) wrapping is refused by name,
/// whole, cut at any byte, or with any byte flipped — never decoded,
/// never a panic, and never mistaken for a bare `WCK1` stream.
#[test]
fn the_zlib_wrapped_sample_is_refused_as_a_retired_container() {
    let old = fs::read(common::corpus_dir().join("retired_zlib_container.bin")).unwrap();
    let why = Compressor::decompress(&old).expect_err("zlib is retired").to_string();
    assert!(why.contains("format error") && why.contains("zlib"), "refused on `{why}`");
    for cut in 0..old.len() {
        assert!(Compressor::decompress(&old[..cut]).is_err(), "cut at byte {cut}: accepted");
    }
    let mut bad = old.clone();
    for at in 0..old.len() {
        bad[at] ^= 0x10;
        assert!(Compressor::decompress(&bad).is_err(), "flip at byte {at}: accepted");
        bad[at] = old[at];
    }
}

/// `bad` is `good` with the byte at `at` flipped (`cut == false`) or
/// with everything from `at` on cut off (`cut == true`).
fn assert_damage_refused(f: &Format, good: &[u8], bad: &[u8], at: usize, cut: bool) {
    let h = harness(f);
    let what = format!("{} {} at byte {at}", f.name(), if cut { "cut" } else { "flip" });
    match h.policy {
        Policy::Total => {
            let _ = (h.decode)(bad);
        }
        Policy::Strict => {
            if let Ok(decoded) = (h.decode)(bad) {
                assert!(!cut, "{what}: accepted");
                assert!(Ok(decoded) == (h.decode)(good), "{what}: decoded to something else");
            }
        }
        Policy::PrefixBeforeDamage => {
            let full = manifest::parse_manifest(good).unwrap();
            match manifest::parse_manifest(bad) {
                Err(_) => assert!(at < manifest::HEADER_LEN, "{what}: only header damage is fatal"),
                Ok(scan) => {
                    // Records are back to back: record `i` ends where
                    // record `i + 1` (or the file) starts.
                    let ends = full.offsets.iter().copied().skip(1).chain([good.len()]);
                    let keep = ends.take_while(|&end| end <= at).count();
                    assert_eq!(scan.records, full.records[..keep], "{what}");
                    let valid = full.offsets.get(keep).copied().unwrap_or(good.len());
                    assert_eq!(scan.valid_len, valid, "{what}");
                }
            }
        }
    }
}

/// Every truncation of every format's valid sample — all cut points,
/// not a sample of them.
#[test]
fn every_truncation_of_every_format_is_refused() {
    for (f, (_, good)) in FORMATS.iter().zip(samples()) {
        for cut in 0..good.len() {
            assert_damage_refused(f, good, &good[..cut], cut, true);
        }
    }
}

/// One flipped bit at every byte of every format's valid sample — all
/// positions under a fixed mask; the proptest below varies the mask.
#[test]
fn a_flip_at_every_byte_of_every_format_is_refused() {
    for (f, (_, good)) in FORMATS.iter().zip(samples()) {
        let mut bad = good.clone();
        for at in 0..good.len() {
            bad[at] ^= 0x10;
            assert_damage_refused(f, good, &bad, at, false);
            bad[at] = good[at];
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any single-byte corruption of any format's valid sample is
    /// refused, or changes nothing the decoder reports.
    #[test]
    fn single_byte_flip_of_every_format_never_panics_or_lies(site in any::<(usize, u8)>()) {
        for (f, (_, good)) in FORMATS.iter().zip(samples()) {
            let mut bad = good.clone();
            let pos = site.0 % bad.len();
            bad[pos] ^= site.1 | 1; // non-zero flip
            assert_damage_refused(f, good, &bad, pos, false);
        }
    }

    /// The same two properties over arbitrary `WPK1` payloads: the one
    /// format whose geometry (chunk count, member index) varies with
    /// its input.
    #[test]
    fn chunked_damage_never_panics_or_lies(
        data in pvec(any::<u8>(), 1..8_000),
        site in any::<(usize, u8)>(),
    ) {
        let packed = chunked::compress_chunked(&data, Level::Default, 1024, 2);
        let pos = site.0 % packed.len();
        let mut bad = packed.clone();
        bad[pos] ^= site.1 | 1;
        if let Ok(out) = chunked::decompress_chunked(&bad, 2) {
            prop_assert_eq!(&out, &data, "flip at {} must not alter the payload", pos);
        }
        prop_assert!(chunked::decompress_chunked(&packed[..pos], 2).is_err());
    }

    /// Arbitrary bytes fed to every decoder entry point must return.
    #[test]
    fn noise_never_panics_any_decoder(data in pvec(any::<u8>(), 0..4_096)) {
        all_decoders_return(&data);
    }
}
