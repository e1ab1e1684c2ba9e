//! Segment I/O: atomic writes, CRC-checked reads, and per-format
//! payload verification.
//!
//! A segment file holds exactly the payload bytes a rank handed to
//! `Store::save_*` — no header, so a `.seg` holding a `CKPT` image or
//! a `WCK1` stream stays directly usable with `ckpt info` and friends.
//! All metadata lives in the manifest.

use crate::failpoint::{FailPoint, Renamed, Staged};
use crate::layout::Layout;
use crate::manifest::SegmentFormat;
use crate::{Result, StoreError};
use ckpt_core::checkpoint::Checkpoint;
use ckpt_core::{incremental, Compressor};
use ckpt_deflate::crc32::{crc32, crc32_combine, crc32_extend};
use std::fs;

/// Writes one rank's payload crash-consistently: create in `tmp/`,
/// write through the fail point, fsync, then rename into `segments/`.
/// The caller fsyncs the segments directory once after all ranks.
pub fn write_segment(
    layout: &Layout,
    gen: u64,
    rank: u32,
    payload: &[u8],
    fp: &FailPoint,
) -> Result<()> {
    write_payload(layout, gen, rank, payload, fp).map(drop)
}

/// [`write_segment`] for the commit engine: one unmirrored append, so
/// the payload is neither copied nor read a second time — the `Seg`
/// record's CRC is the one the append computed.
pub(crate) fn write_payload(
    layout: &Layout,
    gen: u64,
    rank: u32,
    payload: &[u8],
    fp: &FailPoint,
) -> Result<Renamed> {
    let mut w = SegmentWriter::create(layout, gen, rank, fp, false)?;
    w.append(payload)?;
    w.finish()
}

/// Incrementally writes one rank's segment under the same crash
/// contract as [`write_segment`]: bytes stream into `tmp/` through the
/// fail point as they arrive, and [`SegmentWriter::finish`] performs
/// the fsync + rename that makes the file eligible for commit. Store
/// I/O for early bytes thus overlaps whatever computation produces the
/// later ones.
///
/// The writer also supports **patching** previously appended bytes —
/// the WPK1 streaming protocol back-fills its header CRC and chunk
/// index after the last member. To keep an exact running CRC without
/// buffering the whole payload, a patchable writer mirrors its *first*
/// append in memory (by protocol that append is exactly the patchable
/// prefix: a small header plus 8 bytes per chunk) and requires every
/// patch to land inside it; all later appends extend a running tail CRC,
/// which `finish` joins to the mirror's with `crc32_combine`.
///
/// Dropping the writer without calling `finish` leaves only tmp/
/// litter, exactly like a killed [`write_segment`]; open-time recovery
/// removes it.
pub struct SegmentWriter<'a> {
    layout: &'a Layout,
    gen: u64,
    rank: u32,
    file: Staged<'a>,
    /// In-memory copy of the first append (empty when `patchable` is
    /// false): the only region patches may touch.
    mirror: Vec<u8>,
    patchable: bool,
    /// Running CRC over everything after the mirrored prefix.
    tail_crc: u32,
    tail_len: u64,
}

impl<'a> SegmentWriter<'a> {
    /// Opens the staging file for `(gen, rank)`. With `patchable` the
    /// first append is mirrored in memory and may later be rewritten
    /// with [`SegmentWriter::patch`]; without it, patches error and no
    /// mirror is kept. Which one a save gets follows from its phase 1
    /// (producer-fed: patchable; slice-fed: not), so only the store
    /// chooses.
    pub(crate) fn create(
        layout: &'a Layout,
        gen: u64,
        rank: u32,
        fp: &'a FailPoint,
        patchable: bool,
    ) -> Result<Self> {
        let file = fp.create(&layout.tmp_path(gen, rank))?;
        Ok(SegmentWriter {
            layout,
            gen,
            rank,
            file,
            mirror: Vec::new(),
            patchable,
            tail_crc: 0,
            tail_len: 0,
        })
    }

    /// Bytes appended so far.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// True before the first append.
    pub fn is_empty(&self) -> bool {
        self.file.is_empty()
    }

    /// Appends `bytes` at the end of the segment, through the fail
    /// point (a kill mid-append tears the file exactly where the
    /// budget ran out).
    pub fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let first = self.file.is_empty();
        self.file.append(bytes)?;
        if self.patchable && first {
            self.mirror = bytes.to_vec();
        } else {
            self.tail_crc = crc32_extend(self.tail_crc, bytes);
            self.tail_len += bytes.len() as u64;
        }
        Ok(())
    }

    /// Rewrites bytes inside the mirrored first append. The patch must
    /// stay within that region — patching beyond it is a protocol
    /// violation by the producer, reported as corruption rather than
    /// silently computing a wrong CRC.
    pub fn patch(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        let end = offset
            .checked_add(bytes.len() as u64)
            .ok_or_else(|| StoreError::Corrupt("segment patch range overflows".into()))?;
        if !self.patchable || end > self.mirror.len() as u64 {
            return Err(StoreError::Corrupt(format!(
                "segment patch [{offset}, {end}) outside the patchable prefix of {} bytes",
                self.mirror.len()
            )));
        }
        self.file.write_at(offset, bytes)?;
        let at = offset as usize;
        self.mirror[at..at + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Completes the segment: fsync the staging file and rename it into
    /// `segments/`, carrying the length and CRC its `Seg` record will
    /// state once the directory fsync makes them a `SegMeta`.
    pub(crate) fn finish(self) -> Result<Renamed> {
        let crc = crc32_combine(crc32(&self.mirror), self.tail_crc, self.tail_len);
        self.file.sync()?.rename(&self.layout.segment_path(self.gen, self.rank), crc)
    }
}

/// A [`SegmentWriter`] is a WPK1 stream sink: `ckpt-core`'s
/// `compress_stream` writes finished gzip members straight into the
/// staging file while later chunks still compress.
impl ckpt_deflate::chunked::StreamSink for SegmentWriter<'_> {
    type Error = StoreError;

    fn write(&mut self, bytes: &[u8]) -> Result<()> {
        self.append(bytes)
    }

    fn patch(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        SegmentWriter::patch(self, offset, bytes)
    }
}

/// Reads a segment and checks it against the manifest's length and
/// CRC. Any mismatch is corruption: the commit record promised bytes
/// the file no longer delivers.
pub fn read_segment(
    layout: &Layout,
    gen: u64,
    rank: u32,
    expect_len: u64,
    expect_crc: u32,
) -> Result<Vec<u8>> {
    let path = layout.segment_path(gen, rank);
    // Keep the io::Error (and its kind) intact: a serving layer needs
    // to tell a retryable `Interrupted` from a fatal `NotFound`.
    let bytes = fs::read(&path).map_err(|e| StoreError::SegmentIo {
        path: path.display().to_string(),
        source: e,
    })?;
    if bytes.len() as u64 != expect_len {
        return Err(StoreError::Corrupt(format!(
            "segment gen {gen} rank {rank}: {} bytes on disk, manifest committed {expect_len}",
            bytes.len()
        )));
    }
    let crc = crc32(&bytes);
    if crc != expect_crc {
        return Err(StoreError::Corrupt(format!(
            "segment gen {gen} rank {rank}: CRC {crc:08x} != committed {expect_crc:08x}"
        )));
    }
    Ok(bytes)
}

/// Structural verification of a payload against its declared format,
/// using the hardened decoders: a full parse for checkpoint images and
/// arrays, and a base-free structural check for increments.
pub fn verify_payload(format: SegmentFormat, bytes: &[u8]) -> Result<()> {
    match format {
        SegmentFormat::Checkpoint => {
            let ck = Checkpoint::from_bytes(bytes)?;
            for name in ck.names() {
                ck.restore(name)?;
            }
            Ok(())
        }
        SegmentFormat::Array => {
            Compressor::decompress(bytes)?;
            Ok(())
        }
        SegmentFormat::Increment => {
            incremental::decode(bytes)?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::checkpoint::CheckpointBuilder;
    use ckpt_core::CompressorConfig;
    use ckpt_deflate::{gzip, Level};
    use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};

    fn scratch(name: &str) -> Layout {
        let dir = std::env::temp_dir()
            .join(format!("ckpt-store-seg-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let l = Layout::new(dir);
        l.create_dirs().unwrap();
        l
    }

    #[test]
    fn write_read_roundtrip_with_crc() {
        let l = scratch("rw");
        let payload = b"some checkpoint payload".to_vec();
        write_segment(&l, 3, 1, &payload, &FailPoint::unlimited()).unwrap();
        assert!(l.segment_path(3, 1).exists());
        assert!(!l.tmp_path(3, 1).exists(), "tmp staging must be gone after rename");
        let back =
            read_segment(&l, 3, 1, payload.len() as u64, crc32(&payload)).unwrap();
        assert_eq!(back, payload);
        // Wrong expectations are corruption.
        assert!(read_segment(&l, 3, 1, payload.len() as u64 + 1, crc32(&payload)).is_err());
        assert!(read_segment(&l, 3, 1, payload.len() as u64, !crc32(&payload)).is_err());
        assert!(read_segment(&l, 9, 9, 1, 0).is_err(), "missing file is corruption");
        let _ = fs::remove_dir_all(&l.root);
    }

    #[test]
    fn killed_write_leaves_only_tmp_litter() {
        let l = scratch("kill");
        let payload = vec![7u8; 500];
        let fp = FailPoint::after_bytes(100);
        assert!(matches!(
            write_segment(&l, 1, 0, &payload, &fp),
            Err(StoreError::Killed)
        ));
        assert!(!l.segment_path(1, 0).exists(), "no rename after a kill");
        assert_eq!(fs::read(l.tmp_path(1, 0)).unwrap().len(), 100, "torn tmp write");
        let _ = fs::remove_dir_all(&l.root);
    }

    #[test]
    fn streaming_writer_matches_buffered_write_and_crc() {
        let l = scratch("stream");
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let fp = FailPoint::unlimited();
        let mut w = SegmentWriter::create(&l, 4, 0, &fp, false).unwrap();
        for slice in payload.chunks(777) {
            w.append(slice).unwrap();
        }
        let meta = fp.sync_dir(&l.segments, vec![w.finish().unwrap()]).unwrap()[0];
        let (len, crc) = (meta.payload_len(), meta.crc());
        assert_eq!(len, payload.len() as u64);
        assert_eq!(crc, crc32(&payload));
        assert_eq!(fs::read(l.segment_path(4, 0)).unwrap(), payload);
        assert!(!l.tmp_path(4, 0).exists());
        let _ = fs::remove_dir_all(&l.root);
    }

    #[test]
    fn streaming_writer_patches_inside_the_first_append() {
        let l = scratch("patch");
        let fp = FailPoint::unlimited();
        let mut w = SegmentWriter::create(&l, 5, 2, &fp, true).unwrap();
        w.append(&[0u8; 32]).unwrap(); // placeholder prefix
        w.append(b"body bytes that never change").unwrap();
        w.patch(4, b"\xAA\xBB\xCC\xDD").unwrap();
        // Patching past the first append is a protocol violation.
        assert!(w.patch(30, b"xxxx").is_err());
        let meta = fp.sync_dir(&l.segments, vec![w.finish().unwrap()]).unwrap()[0];
        let (len, crc) = (meta.payload_len(), meta.crc());
        let on_disk = fs::read(l.segment_path(5, 2)).unwrap();
        assert_eq!(on_disk.len() as u64, len);
        assert_eq!(&on_disk[4..8], b"\xAA\xBB\xCC\xDD");
        assert_eq!(crc, crc32(&on_disk), "CRC must cover the patched bytes");
        let _ = fs::remove_dir_all(&l.root);
    }

    #[test]
    fn unpatchable_writer_rejects_patches() {
        let l = scratch("nopatch");
        let fp = FailPoint::unlimited();
        let mut w = SegmentWriter::create(&l, 6, 0, &fp, false).unwrap();
        w.append(b"0123456789").unwrap();
        assert!(w.patch(0, b"x").is_err());
        let _ = fs::remove_dir_all(&l.root);
    }

    #[test]
    fn killed_stream_leaves_only_tmp_litter() {
        let l = scratch("stream-kill");
        let fp = FailPoint::after_bytes(40);
        let mut w = SegmentWriter::create(&l, 7, 1, &fp, true).unwrap();
        w.append(&[1u8; 32]).unwrap();
        assert!(matches!(w.append(&[2u8; 32]), Err(StoreError::Killed)));
        // The writer is dead; dropping it without finish leaves the
        // torn staging file for recovery to sweep.
        drop(w);
        assert!(!l.segment_path(7, 1).exists());
        assert_eq!(fs::read(l.tmp_path(7, 1)).unwrap().len(), 40);
        let _ = fs::remove_dir_all(&l.root);
    }

    #[test]
    fn kill_mid_patch_tears_the_patch() {
        let l = scratch("patch-kill");
        let fp = FailPoint::after_bytes(34);
        let mut w = SegmentWriter::create(&l, 8, 0, &fp, true).unwrap();
        w.append(&[0u8; 32]).unwrap();
        // Budget leaves 2 bytes: the 4-byte patch tears after 2.
        assert!(matches!(w.patch(8, b"\xDE\xAD\xBE\xEF"), Err(StoreError::Killed)));
        let tmp = fs::read(l.tmp_path(8, 0)).unwrap();
        assert_eq!(&tmp[8..12], b"\xDE\xAD\x00\x00", "torn patch");
        let _ = fs::remove_dir_all(&l.root);
    }

    #[test]
    fn verify_accepts_real_payloads() {
        let field = generate(&FieldSpec::small(FieldKind::Temperature, 3));
        // Checkpoint image.
        let mut b = CheckpointBuilder::new(5);
        b.add_raw("t", &field).unwrap();
        let img = b.into_bytes();
        verify_payload(SegmentFormat::Checkpoint, &img).unwrap();
        // Compressed array.
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let packed = comp.compress(&field).unwrap().bytes;
        verify_payload(SegmentFormat::Array, &packed).unwrap();
        // Increment.
        let mut cur = field.clone();
        cur.map_inplace(|v| v * 1.0000001);
        let (inc, _) = incremental::increment(&field, &cur, Level::Fast).unwrap();
        verify_payload(SegmentFormat::Increment, &inc).unwrap();
    }

    #[test]
    fn verify_rejects_cross_format_and_corrupt_payloads() {
        let field = generate(&FieldSpec::small(FieldKind::Pressure, 4));
        let comp = Compressor::new(CompressorConfig::paper_proposed()).unwrap();
        let packed = comp.compress(&field).unwrap().bytes;
        assert!(verify_payload(SegmentFormat::Checkpoint, &packed).is_err());
        assert!(verify_payload(SegmentFormat::Increment, &packed).is_err());
        assert!(verify_payload(SegmentFormat::Array, b"not a stream").is_err());

        let (mut inc, _) = incremental::increment(&field, &field, Level::Fast).unwrap();
        let n = inc.len();
        inc[n / 2] ^= 0xFF;
        assert!(verify_payload(SegmentFormat::Increment, &inc).is_err());
    }

    #[test]
    fn increment_structure_check_sees_dirty_map_lies() {
        let field = generate(&FieldSpec::small(FieldKind::WindU, 5));
        let mut cur = field.clone();
        cur.map_inplace(|v| v + 1.0);
        let (packed, _) = incremental::increment(&field, &cur, Level::Fast).unwrap();
        // Flip a dirty bit inside the decompressed image and re-pack:
        // the XOR payload no longer matches the map.
        let mut inner = gzip::decompress(&packed).unwrap();
        let bitmap_at = 4 + 1 + 1 + 8 * field.ndim() + 8; // magic, version, ndim, dims, pages
        inner[bitmap_at] ^= 0x01;
        let repacked = gzip::compress(&inner, Level::Fast);
        assert!(verify_payload(SegmentFormat::Increment, &repacked).is_err());
    }
}
