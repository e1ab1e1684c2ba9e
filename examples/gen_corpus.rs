//! Regenerates the corrupt-input corpus under `tests/corpus/`.
//!
//! `<magic>_*.bin` is a deliberately damaged artifact of that format
//! exercising a distinct decoder failure path, and `valid_<magic>.bin`
//! one intact sample per format; `tests/corrupt_corpus.rs` walks
//! `frame::FORMATS` and asserts every damaged file is refused by its
//! format's decoder — never a panic and never silently wrong data —
//! and every valid one still decodes and still equals what this build
//! writes. The generator is deterministic (fixed seeds, fixed
//! corruption sites) so re-running it reproduces the checked-in bytes
//! exactly.
//!
//! Run with: `cargo run --example gen_corpus`

#[path = "../tests/common/mod.rs"]
mod common;

use common::lcg_bytes;
use lossy_ckpt::deflate::frame::{self, Writer, FORMATS};
use lossy_ckpt::deflate::{chunked, gzip, Level};
use lossy_ckpt::prelude::*;
use std::fs;

/// The length every `*_claim_1gib.bin` entry claims.
const GIB: u32 = 1 << 30;

fn main() {
    let dir = common::corpus_dir();
    fs::create_dir_all(&dir).expect("create tests/corpus");
    let write = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        fs::write(&path, bytes).expect("write corpus file");
        println!("{:>6} bytes  {}", bytes.len(), path.display());
    };

    let payload = lcg_bytes(20_000, 42);

    // 1. WPK1 container cut off in the middle of the member-length
    //    index: the chunk count promises more index entries than exist.
    let wpk1 = chunked::compress_chunked(&payload, Level::Default, 4096, 2);
    write("wpk1_truncated_index.bin", &wpk1[..34]);

    // 2. WPK1 with a flipped CRC byte inside the first member's gzip
    //    trailer: the geometry parses, the member checksum must not.
    let mut bad = wpk1.clone();
    let index_end = 30 + 8 * 5; // five 4096-byte chunks of 20 kB
    let member0_len =
        u64::from_le_bytes(wpk1[30..38].try_into().unwrap()) as usize;
    bad[index_end + member0_len - 8] ^= 0xFF;
    write("wpk1_bad_member_crc.bin", &bad);

    // 3. WPK1 whose header claims a multi-gigabyte payload over a tiny
    //    body: the decompression-bomb guard must reject it before
    //    allocating.
    let mut bomb = chunked::compress_chunked(&payload[..64], Level::Default, 4096, 1);
    bomb[10..18].copy_from_slice(&(8u64 << 30).to_le_bytes()); // total = 8 GiB
    write("wpk1_bomb_total.bin", &bomb);

    // 4. WPK1 with a zeroed member length in the index: the member
    //    lengths no longer span the body.
    let mut zeroed = wpk1.clone();
    zeroed[30..38].copy_from_slice(&0u64.to_le_bytes());
    write("wpk1_zero_member.bin", &zeroed);

    // The byte anchor of the one WPK1 encoder, reproduced at every
    // thread count and through every sink (`tests/golden_wpk1.rs`).
    // `decode_only_*_multichunk.bin` and `decode_only_*_untransposed.bin`
    // are this file and `valid_wck1.bin` as the encoder wrote them before
    // the LZ77 miss stride and the transposed default;
    // `decode_only_<magic>.bin` and `golden_store_*_decode_only.bin` are
    // the valid samples and store images as the encoder wrote them
    // before its block-split rule, and `golden_store_*_reanchored_decode_only.bin`
    // the store images from before recency was ordered by step: kept by
    // hand, read by the tests, written by no build.
    // So are `decode_only_wck1_lloyd.bin` (beside the values it restores
    // to) and `retired_zlib_container.bin`, from the last build that
    // had a Lloyd-Max quantizer and a zlib container.
    let golden = chunked::compress_chunked(
        &common::golden_wpk1_input(),
        Level::Default,
        common::GOLDEN_WPK1_CHUNK,
        1,
    );
    write("golden_wpk1_multichunk.bin", &golden);

    // 33. WPK1 whose chunk count lies but whose index still spans the
    //     body: a sixth, zero-length member behind the real five. The
    //     lengths add up; only the `chunk_count == ceil(total /
    //     chunk_bytes)` cross-check refuses it.
    let mut lying = wpk1[..30].to_vec();
    lying[6..10].copy_from_slice(&6u32.to_le_bytes());
    lying.extend_from_slice(&wpk1[30..index_end]);
    lying.extend_from_slice(&0u64.to_le_bytes());
    lying.extend_from_slice(&wpk1[index_end..]);
    write("wpk1_lying_chunk_count.bin", &lying);

    // 5. gzip stream truncated mid-body.
    let gz = gzip::compress(&payload, Level::Default);
    write("gzip_truncated.bin", &gz[..gz.len() / 2]);

    // 6. gzip with a flipped ISIZE byte: inflate succeeds, the trailer
    //    cross-check must not.
    let mut gz_isize = gz.clone();
    let n = gz_isize.len();
    gz_isize[n - 1] ^= 0x01;
    write("gzip_bad_isize.bin", &gz_isize);

    // 7. Checkpoint image with an unknown variable-mode byte.
    let field = generate(&FieldSpec::small(FieldKind::Temperature, 7));
    let mut b = lossy_ckpt::core::checkpoint::CheckpointBuilder::new(3);
    b.add_raw("temperature", &field).unwrap();
    let img = b.into_bytes();
    let mut bad_mode = img.clone();
    // Layout: magic(4) version(1) step(8) count(2) namelen(2) name(11) mode(1).
    bad_mode[4 + 1 + 8 + 2 + 2 + 11] = 9;
    write("ckpt_bad_mode.bin", &bad_mode);

    // 8. Checkpoint image truncated inside a variable payload.
    write("ckpt_truncated.bin", &img[..img.len() - 100]);

    // 9. Lossy WCK1 stream with a corrupted subband byte: the
    //    container CRC (gzip layer) must catch it.
    let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
    let mut stream = comp.compress(&field).unwrap().bytes;
    let mid = stream.len() / 2;
    stream[mid] ^= 0x20;
    write("wck1_corrupt_body.bin", &stream);

    // 10. Pure noise: must be rejected by every container sniffer.
    write("noise.bin", &lcg_bytes(4096, 1234));

    // INC1 increments against the deterministic base the corpus tests
    // rebuild (Pressure field, seed 11, every 7th element perturbed),
    // through the writer no build has any more (`common::inc1_increment`).
    let (base, cur) = common::inc_pair();
    let inc = common::inc1_increment(&base, &cur, Level::Default);

    // 11. INC1 truncated mid-stream: the gzip layer must error.
    write("inc1_truncated.bin", &inc[..inc.len() / 2]);

    // 12. INC1 with a lying dirty-page map: flip the first bitmap bit
    //     inside the decompressed image and re-pack; the XOR payload no
    //     longer matches the map, so apply must reject it.
    let mut inner = gzip::decompress(&inc).unwrap();
    let bitmap_at = 4 + 1 + 8 * base.ndim() + 8; // magic, ndim, dims, pages
    inner[bitmap_at] ^= 0x01;
    write("inc1_bad_page_map.bin", &gzip::compress(&inner, Level::Default));

    // 13. INC1 with a flipped byte in the gzip trailer CRC: inflate
    //     succeeds, the checksum cross-check must not.
    let mut inc_crc = inc.clone();
    let n = inc_crc.len();
    inc_crc[n - 8] ^= 0xFF;
    write("inc1_crc_flip.bin", &inc_crc);

    // The same four damage modes on the INC2 increment this build
    // writes for the same pair, plus the version byte INC1 lacks.
    let (inc, _) =
        lossy_ckpt::core::incremental::increment(&base, &cur, Level::Default).unwrap();

    // 35. INC2 truncated mid-stream.
    write("inc2_truncated.bin", &inc[..inc.len() / 2]);

    // 36. INC2 with a lying dirty-page map (magic, version, ndim, dims,
    //     pages, then the map), re-packed.
    let mut inner = gzip::decompress(&inc).unwrap();
    let bitmap_at = 4 + 1 + 1 + 8 * base.ndim() + 8;
    inner[bitmap_at] ^= 0x01;
    write("inc2_bad_page_map.bin", &gzip::compress(&inner, Level::Default));

    // 37. INC2 with a flipped byte in the gzip trailer CRC.
    let mut inc_crc = inc.clone();
    let n = inc_crc.len();
    inc_crc[n - 8] ^= 0xFF;
    write("inc2_crc_flip.bin", &inc_crc);

    // 38. INC2 claiming an unknown version, re-packed so the version
    //     check, not the container CRC, refuses it.
    let mut inner = gzip::decompress(&inc).unwrap();
    inner[4] = 9;
    write("inc2_bad_version.bin", &gzip::compress(&inner, Level::Default));

    // CSM2 manifest snapshots: a real snapshot written by
    // `compact_manifest` over a deterministic two-generation store,
    // then the three damage modes `Store::open` must refuse —
    // quarantining the file and falling back to CSM1 log replay.
    let snap = {
        use lossy_ckpt::store::{SegmentFormat, Store};
        let sdir = std::env::temp_dir()
            .join(format!("ckpt-gen-corpus-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&sdir);
        let mut store = Store::open(&sdir).expect("corpus store");
        let t1 = generate(&FieldSpec::small(FieldKind::Temperature, 5));
        let p1 = comp.compress(&t1).unwrap().bytes;
        store.save_full(1, SegmentFormat::Array, &[&p1], 1).unwrap();
        let t2 = generate(&FieldSpec::small(FieldKind::Pressure, 6));
        let p2 = comp.compress(&t2).unwrap().bytes;
        store.save_full(2, SegmentFormat::Array, &[&p2], 1).unwrap();
        store.compact_manifest().unwrap();
        let snap = fs::read(sdir.join("manifest.snap")).expect("read snapshot");
        let _ = fs::remove_dir_all(&sdir);
        snap
    };

    // 18. CSM2 truncated inside the generation map body.
    write("csm2_truncated.bin", &snap[..snap.len() - 7]);

    // 19. CSM2 with a flipped byte mid-body: geometry still parses,
    //     the frame CRC must not.
    let mut snap_flip = snap.clone();
    let mid = snap.len() / 2;
    snap_flip[mid] ^= 0x10;
    write("csm2_crc_flip.bin", &snap_flip);

    // 20. CSM2 claiming an unknown version. The version byte sits in
    //     the header, outside the CRC frame, so rejection comes from
    //     the version check itself.
    let mut snap_ver = snap.clone();
    snap_ver[4] = 9;
    write("csm2_bad_version.bin", &snap_ver);

    // The store's record stream: every later build must reproduce both
    // images byte for byte (`common::golden_store_images` is the script).
    let (log, snap) = common::golden_store_images();
    write("golden_store_log.bin", &log);
    write("golden_store_snap.bin", &snap);

    // The N-d transform's coefficients as the commit before the one
    // tiled axis walk computed them, as CRCs per kernel, shape and
    // depth (`common::golden_wavelet_cases`).
    write("golden_wavelet_coeffs.bin", &common::golden_wavelet_coeffs());

    // One intact sample per format; this build regenerating the
    // checked-in copies byte-identically is the compatibility check.
    let samples = common::valid_samples();
    for (f, (magic, bytes)) in FORMATS.iter().zip(&samples) {
        assert_eq!(f.magic, *magic, "valid_samples() follows the table's order");
        fs::write(common::valid_path(f), bytes).expect("write corpus file");
        println!("{:>6} bytes  {}", bytes.len(), common::valid_path(f).display());
    }
    let sample = |f: &frame::Format| -> Vec<u8> {
        samples.iter().find(|(magic, _)| *magic == f.magic).expect("sample").1.clone()
    };

    // Resource totality: one entry per length-prefixed format claiming
    // 1 GiB in a file of a few dozen bytes. Each must be refused
    // without the claimed size ever being allocated.

    // 21. CSM1 record claiming a 1 GiB body: ends the valid prefix at
    //     the header.
    let mut csm1 = Writer::new();
    csm1.put_bytes(&frame::header8(&frame::CSM1));
    csm1.put_u32(GIB);
    csm1.put_u32(0);
    write("csm1_claim_1gib.bin", &csm1.into_bytes());

    // 22. CSM2 frame claiming a 1 GiB body.
    let mut csm2 = Writer::new();
    csm2.put_bytes(&frame::header8(&frame::CSM2));
    csm2.put_u32(GIB);
    csm2.put_u32(0);
    write("csm2_claim_1gib.bin", &csm2.into_bytes());

    // 23. SRV1 frame claiming a 1 GiB body.
    let mut srv1 = Writer::new();
    srv1.put_u32(GIB);
    srv1.put_u32(0);
    write("srv1_claim_1gib.bin", &srv1.into_bytes());

    // 26. INC1 claiming 2^30 pages over a matching 2^39-element shape,
    //     so the claim survives the header's own consistency check and
    //     it is the 128 MiB dirty map that is not there.
    let mut inc_claim = Writer::new();
    inc_claim.put_bytes(&frame::INC1.magic);
    inc_claim.put_u8(1);
    inc_claim.put_u64(u64::from(GIB) * 512);
    inc_claim.put_u64(u64::from(GIB));
    write("inc1_claim_1gib.bin", &gzip::compress(&inc_claim.into_bytes(), Level::Default));

    // 39. The same claim behind INC2's magic and version.
    let mut inc_claim = Writer::new();
    inc_claim.put_bytes(&frame::INC2.magic);
    inc_claim.put_u8(frame::INC2.version);
    inc_claim.put_u8(1);
    inc_claim.put_u64(u64::from(GIB) * 512);
    inc_claim.put_u64(u64::from(GIB));
    write("inc2_claim_1gib.bin", &gzip::compress(&inc_claim.into_bytes(), Level::Default));

    // First damaged entries for the formats that had unit tests only.

    // 31. SRV1 frame torn inside its body.
    let srv1 = sample(&frame::SRV1);
    write("srv1_torn_body.bin", &srv1[..srv1.len() - 5]);

    // 32. SRV1 frame with a flipped body byte.
    let mut srv1 = sample(&frame::SRV1);
    srv1[12] ^= 0x80;
    write("srv1_crc_flip.bin", &srv1);

    // 34. Bare WCK1 stream declaring 40 axes, [2, 1, …, 1], whose counts
    //     all agree with that volume of 2 — but with both elements in the
    //     low band, which the band walk gives one. The decoder reaches
    //     the subband enumeration, where a build that walked all 2^40
    //     axis masks aborted on the allocation; now only axis 0 splits
    //     and the walk refuses the missing high-band value.
    let mut many = Writer::new();
    many.put_bytes(&frame::WCK1.magic);
    many.put_u8(frame::WCK1.version);
    many.put_u8(1); // method: proposed
    many.put_u8(0); // flags: Haar, untransposed, low band exact
    many.put_u8(1); // levels
    many.put_u16(128); // n
    many.put_u16(1); // d
    many.put_u8(40);
    many.put_u64(2);
    for _ in 1..40 {
        many.put_u64(1);
    }
    many.put_u16(0); // averages
    many.put_u64(2); // low band values
    many.put_u64(0); // raw values
    many.put_u64(0); // indexes
    many.put_f64_slice(&[1.0, 2.0]);
    write("wck1_many_axes.bin", &many.into_bytes());
}
