//! Epoch-pinned read snapshots: the shared-lock side of the store.
//!
//! [`Store::snapshot`](crate::Store::snapshot) clones the committed
//! manifest view into a [`Snapshot`] and registers every live
//! generation in the store's [`PinSet`]. The snapshot then reads
//! segments with no reference back to the store — any number of
//! concurrent restores proceed while the single writer keeps saving —
//! and GC treats pinned generations as unretirable until the last
//! snapshot holding them drops. Pins are epoch-based, not file locks:
//! the manifest is append-only and committed segments are immutable,
//! so a consistent view only requires that nothing the snapshot can
//! name gets deleted underneath it.

use crate::store::{self, View};
use crate::{Result, StoreError};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// Registry of generations pinned by live snapshots. Shared between a
/// [`Store`](crate::Store) and every snapshot it hands out; the store's
/// GC consults [`PinSet::pinned`] before retiring anything.
#[derive(Debug, Default)]
pub struct PinSet {
    inner: Mutex<PinInner>,
}

#[derive(Debug, Default)]
struct PinInner {
    next_id: u64,
    pins: BTreeMap<u64, Vec<u64>>,
}

impl PinSet {
    /// Fresh, empty registry.
    pub(crate) fn new() -> Arc<PinSet> {
        Arc::new(PinSet::default())
    }

    fn register(&self, gens: Vec<u64>) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let id = inner.next_id;
        inner.next_id += 1;
        inner.pins.insert(id, gens);
        id
    }

    fn release(&self, id: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.pins.remove(&id);
    }

    /// Union of every live snapshot's pinned generations.
    pub(crate) fn pinned(&self) -> BTreeSet<u64> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.pins.values().flatten().copied().collect()
    }

    /// How many snapshots currently hold pins.
    pub fn live_snapshots(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.pins.len()
    }
}

/// One rank's entry in a generation's index: the manifest's `Seg`
/// record, which is all a client needs to fetch the segment and check
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct RankIndex {
    pub rank: u32,
    /// Committed payload length from the manifest.
    pub payload_len: u64,
    /// Committed payload CRC-32 from the manifest.
    pub crc: u32,
}

/// Index of a whole generation, from the manifest alone: its step,
/// format, chain base and error bound, and each rank's committed
/// length and CRC.
#[derive(Debug, Clone, PartialEq)]
pub struct GenIndex {
    pub gen: u64,
    pub step: u64,
    pub format: crate::manifest::SegmentFormat,
    pub base_gen: u64,
    pub error_bound: Option<f64>,
    pub ranks: Vec<RankIndex>,
}

/// An immutable view of the committed store state at one instant: a
/// pinned [`View`], which every read (`read_segment`, `resolve_chain`,
/// `restore_array`, `generations`, …) goes through.
///
/// Owns a clone of the live generation map, so it stays valid (and
/// all its reads stay consistent) regardless of what the originating
/// [`Store`](crate::Store) does afterwards. Dropping the snapshot
/// releases its GC pins.
#[derive(Debug)]
pub struct Snapshot {
    view: View,
    pins: Arc<PinSet>,
    pin_id: u64,
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.pins.release(self.pin_id);
    }
}

impl Deref for Snapshot {
    type Target = View;

    fn deref(&self) -> &View {
        &self.view
    }
}

impl Snapshot {
    /// Pins every generation of `view` (all live by construction) in
    /// `pins` and wraps it into a snapshot. Called by
    /// [`Store::snapshot`](crate::Store::snapshot).
    pub(crate) fn pin(view: View, pins: Arc<PinSet>) -> Snapshot {
        let pin_id = pins.register(view.gens.keys().copied().collect());
        Snapshot { view, pins, pin_id }
    }

    /// Builds the index of `gen` from its manifest records: each
    /// rank's committed length and CRC. No segment file is read.
    pub fn segment_index(&self, gen: u64) -> Result<GenIndex> {
        let g = self.state(gen)?;
        let mut ranks = Vec::with_capacity(g.segs.len());
        for rank in 0..u32::try_from(g.segs.len()).unwrap_or(u32::MAX) {
            let meta = store::seg_record(g, gen, rank)?;
            ranks.push(RankIndex { rank, payload_len: meta.payload_len, crc: meta.crc });
        }
        Ok(GenIndex {
            gen,
            step: g.step,
            format: g.format,
            base_gen: g.base_gen,
            error_bound: g.error_bound,
            ranks,
        })
    }

    /// Reads `len` bytes of one committed segment starting at `offset`:
    /// what a `Fetch` serves. Bounds are validated against the committed
    /// payload length; the bytes themselves are *not* CRC-checked (the
    /// manifest CRC covers the whole payload, not sub-ranges), so a
    /// caller that reads the whole payload in ranges checks their
    /// running CRC against the one [`Snapshot::segment_index`] reports.
    pub fn read_segment_range(
        &self,
        gen: u64,
        rank: u32,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>> {
        let meta = store::seg_record(self.state(gen)?, gen, rank)?;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| StoreError::NotFound(format!("range overflow at offset {offset}")))?;
        if end > meta.payload_len {
            return Err(StoreError::NotFound(format!(
                "range {offset}+{len} exceeds committed payload ({} bytes)",
                meta.payload_len
            )));
        }
        let path = self.view.layout.segment_path(gen, rank);
        let seg_io = |e: std::io::Error| StoreError::SegmentIo {
            path: path.display().to_string(),
            source: e,
        };
        let mut f = fs::File::open(&path).map_err(seg_io)?;
        f.seek(SeekFrom::Start(offset)).map_err(seg_io)?;
        let n = usize::try_from(len)
            .map_err(|_| StoreError::NotFound(format!("range length {len} exceeds memory")))?;
        // Read into the reservation unfilled: no zero pass ahead of it.
        let mut buf = Vec::with_capacity(n);
        f.take(len).read_to_end(&mut buf).map_err(seg_io)?;
        if buf.len() != n {
            let short = std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "failed to fill whole buffer",
            );
            return Err(seg_io(short));
        }
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use crate::manifest::SegmentFormat;
    use crate::{Store, StoreError};
    use ckpt_deflate::crc32::crc32;
    use ckpt_deflate::{chunked, Level};
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ckpt-store-snap-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(tag: u8) -> Vec<u8> {
        (0..300u32).map(|i| (i as u8).wrapping_mul(tag)).collect()
    }

    #[test]
    fn snapshot_view_is_frozen_while_the_store_advances() {
        let dir = scratch("frozen");
        let mut store = Store::open(&dir).unwrap();
        let g1 = store.save_full(1, SegmentFormat::Array, &[&payload(1)], 1).unwrap();
        assert_eq!(store.live_snapshots(), 0);
        let snap = store.snapshot().unwrap();
        assert_eq!(store.live_snapshots(), 1);
        assert_eq!(snap.view.gens.keys().copied().collect::<Vec<_>>(), vec![g1]);

        let g2 = store.save_full(2, SegmentFormat::Array, &[&payload(2)], 1).unwrap();
        // The store moved on; the snapshot did not.
        assert_eq!(store.latest_committed(), Some(g2));
        assert_eq!(snap.latest_committed(), Some(g1));
        assert_eq!(snap.read_segment(g1, 0).unwrap(), payload(1));
        assert!(matches!(snap.read_segment(g2, 0), Err(StoreError::NotFound(_))));

        drop(snap);
        assert_eq!(store.live_snapshots(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The index is the manifest's: a byte damaged inside a `WPK1`
    /// segment's last member on disk leaves the index as committed, and
    /// it is the whole-payload CRC check after a full-range read (what a
    /// `Fetch` serves) that reports the damage.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test damages a committed segment on purpose")]
    fn the_index_comes_from_the_manifest_and_the_fetch_crc_catches_damage() {
        let dir = scratch("wpk1-index");
        let data: Vec<u8> = (0..60_000u32).map(|i| (i / 64) as u8).collect();
        let wpk1 = chunked::compress_chunked(&data, Level::Default, 16 * 1024, 2);
        let mut store = Store::open(&dir).unwrap();
        let gen = store.save_full(1, SegmentFormat::Array, &[&wpk1], 1).unwrap();

        let mut bad = wpk1.clone();
        let n = bad.len();
        bad[n - 20] ^= 0x40;
        fs::write(store.layout().segment_path(gen, 0), &bad).unwrap();
        assert!(chunked::decompress_chunked(&bad, 2).is_err());

        let snap = store.snapshot().unwrap();
        let index = snap.segment_index(gen).unwrap();
        let rank = &index.ranks[0];
        assert_eq!((rank.payload_len, rank.crc), (wpk1.len() as u64, crc32(&wpk1)));
        let fetched = snap.read_segment_range(gen, 0, 0, rank.payload_len).unwrap();
        assert_eq!(fetched, bad);
        assert_ne!(crc32(&fetched), rank.crc, "the fetch's CRC check must see the damage");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn range_reads_are_bounds_checked() {
        let dir = scratch("bounds");
        let mut store = Store::open(&dir).unwrap();
        let p = payload(4);
        let gen = store.save_full(1, SegmentFormat::Array, &[&p], 1).unwrap();
        let snap = store.snapshot().unwrap();
        // A full-span range read returns the exact payload.
        assert_eq!(snap.read_segment_range(gen, 0, 0, p.len() as u64).unwrap(), p);
        // Interior slice.
        assert_eq!(snap.read_segment_range(gen, 0, 10, 20).unwrap(), p[10..30]);
        // One byte past the committed length, and overflowing math.
        assert!(snap.read_segment_range(gen, 0, 1, p.len() as u64).is_err());
        assert!(snap.read_segment_range(gen, 0, u64::MAX, 2).is_err());
        assert!(snap.read_segment_range(gen + 7, 0, 0, 1).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test damages a committed segment on purpose")]
    fn missing_segment_preserves_io_error_kind() {
        let dir = scratch("io-kind");
        let mut store = Store::open(&dir).unwrap();
        let gen = store.save_full(1, SegmentFormat::Array, &[&payload(5)], 1).unwrap();
        let snap = store.snapshot().unwrap();
        fs::remove_file(store.layout().segment_path(gen, 0)).unwrap();
        let err = snap.read_segment(gen, 0).unwrap_err();
        // The serving layer sorts retryable from fatal by io kind: a
        // vanished file is fatal, not retryable.
        assert_eq!(err.io_kind(), Some(std::io::ErrorKind::NotFound));
        assert!(!err.is_retryable());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_save_records_error_bound_durably() {
        let dir = scratch("bound");
        let mut store = Store::open(&dir).unwrap();
        let g1 = store.save_full(1, SegmentFormat::Array, &[&payload(6)], 1).unwrap();
        let g2 = store
            .save_full_bounded(2, SegmentFormat::Array, &[&payload(7)], 1, 1e-3)
            .unwrap();
        let bound_of = |store: &Store, gen: u64| {
            store.generations().into_iter().find(|g| g.gen == gen).unwrap().error_bound
        };
        assert_eq!(bound_of(&store, g1), None);
        assert_eq!(bound_of(&store, g2), Some(1e-3));
        // The snapshot index carries the bound too — a fetch client
        // must know the payload is lossy before it restores it.
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.segment_index(g2).unwrap().error_bound, Some(1e-3));
        drop(snap);

        // Durability: the Bound record replays on reopen.
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(bound_of(&store, g1), None);
        assert_eq!(bound_of(&store, g2), Some(1e-3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_save_rejects_bad_bounds_and_increments() {
        let dir = scratch("bad-bound");
        let mut store = Store::open(&dir).unwrap();
        let p = payload(8);
        assert!(store.save_full_bounded(1, SegmentFormat::Array, &[&p], 1, -1.0).is_err());
        assert!(store.save_full_bounded(1, SegmentFormat::Array, &[&p], 1, f64::NAN).is_err());
        assert!(store
            .save_full_bounded(1, SegmentFormat::Increment, &[&p], 1, 1e-3)
            .is_err());
        // A rejected save burns no generation and poisons nothing.
        assert_eq!(store.latest_committed(), None);
        assert!(!store.poisoned());
        let _ = fs::remove_dir_all(&dir);
    }
}
