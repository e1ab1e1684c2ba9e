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
use ckpt_deflate::crc32::{crc32, crc32_extend};
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

/// [`write_segment`] for the commit engine: one append, so the payload
/// is neither copied nor read a second time — the `Seg` record's CRC is
/// the one the append computed.
pub(crate) fn write_payload(
    layout: &Layout,
    gen: u64,
    rank: u32,
    payload: &[u8],
    fp: &FailPoint,
) -> Result<Renamed> {
    let mut w = SegmentWriter::create(layout, gen, rank, fp)?;
    w.append(payload)?;
    w.finish()
}

/// Incrementally writes one rank's segment under the same crash
/// contract as [`write_segment`]: bytes are appended into `tmp/`
/// through the fail point as they arrive, each exactly once, with a
/// running CRC-32 over them, and [`SegmentWriter::finish`] performs the
/// fsync + rename that makes the file eligible for commit.
///
/// Dropping the writer without calling `finish` leaves only tmp/
/// litter, exactly like a killed [`write_segment`]; open-time recovery
/// removes it.
pub struct SegmentWriter<'a> {
    layout: &'a Layout,
    gen: u64,
    rank: u32,
    file: Staged<'a>,
    /// CRC-32 of every byte appended so far.
    crc: u32,
}

impl<'a> SegmentWriter<'a> {
    /// Opens the staging file for `(gen, rank)`.
    pub(crate) fn create(layout: &'a Layout, gen: u64, rank: u32, fp: &'a FailPoint) -> Result<Self> {
        let file = fp.create(&layout.tmp_path(gen, rank))?;
        Ok(SegmentWriter { layout, gen, rank, file, crc: 0 })
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
        self.file.append(bytes)?;
        self.crc = crc32_extend(self.crc, bytes);
        Ok(())
    }

    /// Completes the segment: fsync the staging file and rename it into
    /// `segments/`, carrying the length and CRC its `Seg` record will
    /// state once the directory fsync makes them a `SegMeta`.
    pub(crate) fn finish(self) -> Result<Renamed> {
        self.file.sync()?.rename(&self.layout.segment_path(self.gen, self.rank), self.crc)
    }
}

/// A [`SegmentWriter`] is a WPK1 stream sink: `ckpt-core`'s
/// `compress_stream` appends the finished container straight into the
/// staging file.
impl ckpt_deflate::chunked::StreamSink for SegmentWriter<'_> {
    type Error = StoreError;

    fn write(&mut self, bytes: &[u8]) -> Result<()> {
        self.append(bytes)
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
        let mut w = SegmentWriter::create(&l, 4, 0, &fp).unwrap();
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
    fn killed_stream_leaves_only_tmp_litter() {
        let l = scratch("stream-kill");
        let fp = FailPoint::after_bytes(40);
        let mut w = SegmentWriter::create(&l, 7, 1, &fp).unwrap();
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
