//! The one disk seam: every filesystem mutation `ckpt-store` and
//! `ckpt-serve` make goes through [`FailPoint`], and the order the commit
//! protocol needs is carried by the types its operations return.
//!
//! **Kill injection.** Crash consistency cannot be tested by asking the
//! code to clean up after itself — a killed process runs no cleanup.
//! `FailPoint` models SIGKILL at write granularity: every byte written
//! through it draws down a shared budget, and the first write that would
//! exceed it writes only the bytes that fit, then returns
//! [`StoreError::Killed`]. Every metadata operation — fsync, rename,
//! directory fsync, remove, truncate — takes a zero-byte kill barrier
//! first, so kills land between operations too. The store runs no
//! cleanup on that error (it poisons itself), leaving the partial state
//! on disk exactly as a kill would; reopening runs the recovery a real
//! restart would. The budget is an atomic shared across the pool workers
//! that write rank segments concurrently, so kills also land
//! mid-parallel-save. Production uses [`FailPoint::unlimited`].
//!
//! **The protocol as types.** A file is created only at a [`Staging`]
//! path (or, for an output written where it lies, explicitly in place)
//! and written only as a [`Staged`], which exposes no `File` and no
//! `std::io::Write`. Only [`Staged::sync`] makes a [`Synced`], and only
//! a `Synced` renames. A segment renamed into place is a [`Renamed`];
//! only the directory fsync after a generation's renames,
//! [`FailPoint::sync_dir`], turns those into the [`SegMeta`] its `Seg`
//! records are built from. Only the log append [`FailPoint::log`] (after
//! its fsync), a durable replace, an in-place sync or a read of what is
//! on disk makes a [`Durable`] witness, and every destructive operation
//! — [`FailPoint::remove`], [`FailPoint::quarantine`],
//! [`FailPoint::truncate`] — demands one, as does `manifest::apply`.
//!
//! **Nothing else touches the disk.** `crates/store/clippy.toml` and
//! `crates/serve/clippy.toml` disallow the `std::fs` mutations; this
//! module is the one place that expects them.

#![expect(
    clippy::disallowed_methods,
    reason = "the disk seam: the one module of ckpt-store and ckpt-serve that mutates the filesystem"
)]

use crate::{Result, StoreError};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// The disk seam and its kill budget; no budget means unlimited
/// (production).
#[derive(Clone, Debug, Default)]
pub struct FailPoint {
    /// Remaining bytes before the injected kill; unlimited when absent.
    budget: Option<Arc<AtomicI64>>,
    /// Barriers left before the injected kill; unlimited when absent.
    barriers: Option<Arc<AtomicI64>>,
    /// Total bytes written through this fail point (always counted, so
    /// tests can measure an operation to enumerate its kill points).
    written: Arc<AtomicU64>,
}

impl FailPoint {
    /// A fail point that never fires.
    pub fn unlimited() -> Self {
        FailPoint::default()
    }

    /// A fail point that kills the writer after `n` more bytes.
    pub fn after_bytes(n: u64) -> Self {
        let budget = Arc::new(AtomicI64::new(i64::try_from(n).unwrap_or(i64::MAX)));
        FailPoint { budget: Some(budget), ..FailPoint::default() }
    }

    /// A fail point that kills at its barrier number `n` (0-based),
    /// whatever was written before it.
    #[cfg(test)]
    pub(crate) fn at_barrier(n: u64) -> Self {
        let barriers = Arc::new(AtomicI64::new(i64::try_from(n).unwrap_or(i64::MAX)));
        FailPoint { barriers: Some(barriers), ..FailPoint::default() }
    }

    /// Bytes written through this fail point so far.
    pub fn bytes_written(&self) -> u64 {
        // Telemetry read after the writers joined; the join orders it.
        self.written.load(Ordering::Relaxed)
    }

    /// The zero-byte kill barrier every metadata operation takes first.
    fn barrier(&self) -> Result<()> {
        // Both are standalone counters guarding no other memory: a stale
        // read delays a kill by one probe at most, and `Killed` travels
        // by `Err` and thread joins, which do synchronize.
        let barriers_spent =
            self.barriers.as_ref().is_some_and(|b| b.fetch_sub(1, Ordering::Relaxed) <= 0);
        let bytes_spent = self.budget.as_ref().is_some_and(|b| b.load(Ordering::Relaxed) <= 0);
        if barriers_spent || bytes_spent {
            return Err(StoreError::Killed);
        }
        Ok(())
    }

    /// Writes `buf` to `sink` through the budget: if it covers only a
    /// prefix, that prefix is written (a torn write) and the kill fires.
    fn write_all<W: Write>(&self, sink: &mut W, buf: &[u8]) -> Result<()> {
        let allowed = match &self.budget {
            None => buf.len(),
            Some(b) => {
                let len = i64::try_from(buf.len()).unwrap_or(i64::MAX);
                // RMWs on one atomic are totally ordered even when
                // Relaxed, so concurrent writers never overdraw it.
                let before = b.fetch_sub(len, Ordering::Relaxed);
                usize::try_from(before.clamp(0, len)).unwrap_or(0)
            }
        };
        let torn = &buf[..allowed];
        sink.write_all(torn)?;
        // Telemetry only; readers join the writers first.
        self.written.fetch_add(torn.len() as u64, Ordering::Relaxed);
        if allowed < buf.len() {
            // Flush what the "kernel" already accepted, then die.
            let _ = sink.flush();
            return Err(StoreError::Killed);
        }
        Ok(())
    }

    /// Creates (or truncates) the staging file `at`.
    pub fn create(&self, at: &Staging) -> Result<Staged<'_>> {
        Ok(Staged::new(self, File::create(&at.0)?, at.0.clone()))
    }

    /// Creates (or truncates) a file that is written where it lies: an
    /// output whose progress tokens make it resumable, never a file the
    /// store publishes.
    pub fn create_in_place(&self, path: &Path) -> Result<Staged<'_>> {
        Ok(Staged::new(self, File::create(path)?, path.to_path_buf()))
    }

    /// Reopens an in-place file to continue writing it: behind a
    /// barrier, drops everything past `len` (a torn tail) and positions
    /// the handle there.
    pub fn reopen_at(&self, path: &Path, len: u64) -> Result<Staged<'_>> {
        self.barrier()?;
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Staged::new(self, file, path.to_path_buf()))
    }

    /// Appends `bytes` to the log at `path` in one write through the
    /// budget, takes a barrier, fsyncs — and only then returns `what` the
    /// bytes record as [`Durable`].
    pub fn log<T: ?Sized>(&self, path: &Path, bytes: &[u8], what: Box<T>) -> Result<Durable<T>> {
        let mut file = OpenOptions::new().append(true).open(path)?;
        self.write_all(&mut file, bytes)?;
        self.barrier()?;
        file.sync_all()?;
        Ok(Durable(what))
    }

    /// Fsyncs `dir` behind a barrier once a generation's segments are
    /// renamed into it — the only way a [`Renamed`] becomes the
    /// [`SegMeta`] a `Seg` record is built from.
    pub fn sync_dir(&self, dir: &Path, renamed: Vec<Renamed>) -> Result<Vec<SegMeta>> {
        self.barrier()?;
        fsync_dir(dir)?;
        Ok(renamed.into_iter().map(|r| SegMeta { payload_len: r.payload_len, crc: r.crc }).collect())
    }

    /// Durably replaces `dst` with `bytes`: write the staging file,
    /// fsync it, rename it over `dst`, fsync `dst`'s directory. A kill at
    /// any byte or barrier leaves the previous `dst` or the new one,
    /// never a torn mix. `at` must be on `dst`'s filesystem.
    ///
    /// A file written in place tears; a staging path is the only kind
    /// this takes:
    ///
    /// ```compile_fail,E0308
    /// # use ckpt_store::{layout::{Layout, CURSOR_FILE}, FailPoint};
    /// # fn main() -> ckpt_store::Result<()> {
    /// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
    /// let cursor = b"RPC1 image";
    /// fp.durable_replace(&layout.cursor, &layout.cursor, cursor)?; // created outside staging
    /// # Ok(()) }
    /// ```
    ///
    /// ```no_run
    /// # use ckpt_store::{layout::{Layout, CURSOR_FILE}, FailPoint};
    /// # fn main() -> ckpt_store::Result<()> {
    /// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
    /// let cursor = b"RPC1 image";
    /// fp.durable_replace(&layout.meta_tmp_path(CURSOR_FILE), &layout.cursor, cursor)?;
    /// # Ok(()) }
    /// ```
    pub fn durable_replace(&self, at: &Staging, dst: &Path, bytes: &[u8]) -> Result<Durable<()>> {
        let mut staged = self.create(at)?;
        staged.append(bytes)?;
        staged.sync()?.rename_into(dst)?;
        // A bare file name has an empty parent: the current directory.
        let dir = dst.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
        self.barrier()?;
        fsync_dir(dir)?;
        Ok(Durable(Box::new(())))
    }

    /// Removes `path` behind a barrier, once `_after` is durable. The
    /// outer result is the kill; the inner one is the removal's own
    /// outcome, for the caller to judge.
    ///
    /// A segment deleted while its `Retire` record is not durable yet
    /// is a live generation with a missing file after a power cut:
    ///
    /// ```compile_fail,E0308
    /// # use ckpt_store::{layout::Layout, manifest::{encode_record, Record, RetireReason}, FailPoint};
    /// # fn main() -> ckpt_store::Result<()> {
    /// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
    /// let retire = vec![Record::Retire { gen: 1, reason: RetireReason::Gc }].into_boxed_slice();
    /// let bytes = encode_record(&retire[0]);
    /// let logged = retire; // the Retire record never reached the log
    /// fp.remove(&layout.segment_path(1, 0), &logged)??;
    /// # Ok(()) }
    /// ```
    ///
    /// ```no_run
    /// # use ckpt_store::{layout::Layout, manifest::{encode_record, Record, RetireReason}, FailPoint};
    /// # fn main() -> ckpt_store::Result<()> {
    /// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
    /// let retire = vec![Record::Retire { gen: 1, reason: RetireReason::Gc }].into_boxed_slice();
    /// let bytes = encode_record(&retire[0]);
    /// let logged = fp.log(&layout.manifest, &bytes, retire)?;
    /// fp.remove(&layout.segment_path(1, 0), &logged)??;
    /// # Ok(()) }
    /// ```
    pub fn remove<T: ?Sized>(&self, path: &Path, _after: &Durable<T>) -> Result<io::Result<()>> {
        self.barrier()?;
        Ok(fs::remove_file(path))
    }

    /// Moves a committed file aside (into `quarantine/`) behind a
    /// barrier, once `_after` is durable; results as [`FailPoint::remove`].
    pub fn quarantine<T: ?Sized>(
        &self,
        src: &Path,
        dst: &Path,
        _after: &Durable<T>,
    ) -> Result<io::Result<()>> {
        self.barrier()?;
        Ok(fs::rename(src, dst))
    }

    /// Truncates `path` to `len` and fsyncs it, behind a barrier, once
    /// `_after` is durable.
    ///
    /// The manifest log may shrink only once the snapshot that subsumes
    /// it is durable:
    ///
    /// ```compile_fail,E0308
    /// # use ckpt_store::{layout::{Layout, SNAPSHOT_FILE}, manifest::HEADER_LEN, FailPoint};
    /// # fn main() -> ckpt_store::Result<()> {
    /// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
    /// let snapshot = b"CSM2 image".to_vec();
    /// let installed = snapshot; // the log truncated before its snapshot is durable
    /// fp.truncate(&layout.manifest, HEADER_LEN as u64, &installed)?;
    /// # Ok(()) }
    /// ```
    ///
    /// ```no_run
    /// # use ckpt_store::{layout::{Layout, SNAPSHOT_FILE}, manifest::HEADER_LEN, FailPoint};
    /// # fn main() -> ckpt_store::Result<()> {
    /// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
    /// let snapshot = b"CSM2 image".to_vec();
    /// let installed = fp.durable_replace(&layout.meta_tmp_path(SNAPSHOT_FILE), &layout.snapshot, &snapshot)?;
    /// fp.truncate(&layout.manifest, HEADER_LEN as u64, &installed)?;
    /// # Ok(()) }
    /// ```
    pub fn truncate<T: ?Sized>(&self, path: &Path, len: u64, _after: &Durable<T>) -> Result<()> {
        self.barrier()?;
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_all()?;
        Ok(())
    }
}

/// Fsyncs a directory so a just-renamed entry survives power loss.
/// Best-effort on platforms where directories cannot be opened.
fn fsync_dir(dir: &Path) -> Result<()> {
    if let Ok(f) = File::open(dir) {
        f.sync_all()?;
    }
    Ok(())
}

/// Where a file is staged before its rename into place: under a store's
/// `tmp/` ([`Layout::tmp_path`](crate::layout::Layout::tmp_path),
/// [`Layout::meta_tmp_path`](crate::layout::Layout::meta_tmp_path)),
/// which recovery sweeps, or [`Staging::beside`] its destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Staging(PathBuf);

impl Staging {
    pub(crate) fn new(path: PathBuf) -> Self {
        Staging(path)
    }

    /// `<dst>.tmp`: staging on `dst`'s filesystem, outside any store.
    pub fn beside(dst: &Path) -> Self {
        let mut name = dst.as_os_str().to_os_string();
        name.push(".tmp");
        Staging(PathBuf::from(name))
    }
}

impl Deref for Staging {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for Staging {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

/// A file being written through the seam's budget. It holds no public
/// `File` and implements no `std::io::Write`, so a byte reaches it only
/// through [`Staged::append`]:
///
/// ```compile_fail,E0599
/// # use ckpt_store::{layout::Layout, FailPoint};
/// # use std::io::Write;
/// # fn main() -> ckpt_store::Result<()> {
/// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
/// let mut staged = fp.create(&layout.tmp_path(1, 0))?;
/// staged.write_all(b"payload")?; // straight to the file, past the budget
/// # Ok(()) }
/// ```
///
/// ```no_run
/// # use ckpt_store::{layout::Layout, FailPoint};
/// # use std::io::Write;
/// # fn main() -> ckpt_store::Result<()> {
/// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
/// let mut staged = fp.create(&layout.tmp_path(1, 0))?;
/// staged.append(b"payload")?;
/// # Ok(()) }
/// ```
///
/// Its name moves into place only after its bytes are durable:
///
/// ```compile_fail,E0599
/// # use ckpt_store::{layout::Layout, FailPoint};
/// # fn main() -> ckpt_store::Result<()> {
/// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
/// let mut staged = fp.create(&layout.tmp_path(1, 0))?;
/// staged.append(b"payload")?;
/// let renamed = staged.rename(&layout.segment_path(1, 0), 0)?; // renamed before its fsync
/// # let _ = renamed; Ok(()) }
/// ```
///
/// ```no_run
/// # use ckpt_store::{layout::Layout, FailPoint};
/// # fn main() -> ckpt_store::Result<()> {
/// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
/// let mut staged = fp.create(&layout.tmp_path(1, 0))?;
/// staged.append(b"payload")?;
/// let renamed = staged.sync()?.rename(&layout.segment_path(1, 0), 0)?;
/// # let _ = renamed; Ok(()) }
/// ```
#[derive(Debug)]
pub struct Staged<'a> {
    fp: &'a FailPoint,
    file: File,
    path: PathBuf,
    /// Bytes appended through this handle.
    len: u64,
}

impl<'a> Staged<'a> {
    fn new(fp: &'a FailPoint, file: File, path: PathBuf) -> Self {
        Staged { fp, file, path, len: 0 }
    }

    /// Bytes appended through this handle.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True before the first append.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `bytes` through the budget (a kill mid-append tears the
    /// file exactly where the budget ran out).
    pub fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.fp.write_all(&mut self.file, bytes)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Makes the data written so far durable without ending the write,
    /// behind a barrier: the point a progress token may then name.
    pub fn sync_data(&mut self) -> Result<()> {
        self.fp.barrier()?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Barrier, then fsync: the only way to a [`Synced`].
    pub fn sync(self) -> Result<Synced<'a>> {
        self.fp.barrier()?;
        self.file.sync_all()?;
        Ok(Synced { fp: self.fp, path: self.path, len: self.len })
    }
}

/// A written file whose bytes are durable.
#[derive(Debug)]
#[must_use = "a synced file is published by its rename, or kept in place"]
pub struct Synced<'a> {
    fp: &'a FailPoint,
    path: PathBuf,
    len: u64,
}

impl Synced<'_> {
    /// Barrier, then rename over `dst`: a segment's publication. `crc`
    /// rides with the length to the [`SegMeta`] the directory fsync
    /// returns.
    pub fn rename(self, dst: &Path, crc: u32) -> Result<Renamed> {
        let payload_len = self.len;
        self.rename_into(dst)?;
        Ok(Renamed { payload_len, crc })
    }

    fn rename_into(self, dst: &Path) -> Result<()> {
        self.fp.barrier()?;
        fs::rename(&self.path, dst)?;
        Ok(())
    }

    /// A file written in place is where it belongs once synced.
    pub fn in_place(self) -> Durable<()> {
        Durable(Box::new(()))
    }
}

/// A segment renamed into place whose directory entry is not durable
/// yet; [`FailPoint::sync_dir`] makes it a [`SegMeta`].
#[derive(Debug)]
#[must_use = "a renamed segment is committed only after its directory fsync"]
pub struct Renamed {
    payload_len: u64,
    crc: u32,
}

/// A segment's length and CRC once its rename is durable — returned only
/// by [`FailPoint::sync_dir`], so a `Seg` record cannot name a segment
/// whose directory entry a power cut can still take away:
///
/// ```compile_fail,E0599
/// # use ckpt_store::{layout::Layout, manifest::{encode_record, Record}, FailPoint};
/// # fn main() -> ckpt_store::Result<()> {
/// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
/// # let mut staged = fp.create(&layout.tmp_path(1, 0))?;
/// # staged.append(b"payload")?;
/// let renamed = vec![staged.sync()?.rename(&layout.segment_path(1, 0), 0x1234)?];
/// let metas = renamed; // the directory fsync skipped
/// let seg = Record::Seg { gen: 1, rank: 0, payload_len: metas[0].payload_len(), crc: metas[0].crc() };
/// fp.log(&layout.manifest, &encode_record(&seg), vec![seg].into_boxed_slice())?;
/// # Ok(()) }
/// ```
///
/// ```no_run
/// # use ckpt_store::{layout::Layout, manifest::{encode_record, Record}, FailPoint};
/// # fn main() -> ckpt_store::Result<()> {
/// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
/// # let mut staged = fp.create(&layout.tmp_path(1, 0))?;
/// # staged.append(b"payload")?;
/// let renamed = vec![staged.sync()?.rename(&layout.segment_path(1, 0), 0x1234)?];
/// let metas = fp.sync_dir(&layout.segments, renamed)?;
/// let seg = Record::Seg { gen: 1, rank: 0, payload_len: metas[0].payload_len(), crc: metas[0].crc() };
/// fp.log(&layout.manifest, &encode_record(&seg), vec![seg].into_boxed_slice())?;
/// # Ok(()) }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegMeta {
    payload_len: u64,
    crc: u32,
}

impl SegMeta {
    /// Bytes in the segment.
    pub fn payload_len(&self) -> u64 {
        self.payload_len
    }

    /// CRC-32 of the segment's bytes.
    pub fn crc(&self) -> u32 {
        self.crc
    }
}

/// Witness that a `T` is on disk for a restart to read. Made only by
/// [`FailPoint::log`] after its fsync, [`FailPoint::durable_replace`],
/// [`Synced::in_place`] and [`Durable::read`] (what recovery finds on
/// disk). `manifest::apply`, the one way the store's generation map
/// changes, takes a `Durable<[Record]>`, so memory never runs ahead of
/// what a reopen replays:
///
/// ```compile_fail,E0308
/// # use ckpt_store::{layout::Layout, manifest::{encode_record, Record}, Durable, FailPoint};
/// # fn main() -> ckpt_store::Result<()> {
/// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
/// // `manifest::apply`'s signature (it is crate-private).
/// fn apply(records: &Durable<[Record]>) -> usize { records.len() }
/// let records = vec![Record::Commit { gen: 1 }].into_boxed_slice();
/// let bytes = encode_record(&records[0]);
/// let logged = records; // applied before the append and its fsync
/// apply(&logged);
/// # Ok(()) }
/// ```
///
/// ```no_run
/// # use ckpt_store::{layout::Layout, manifest::{encode_record, Record}, Durable, FailPoint};
/// # fn main() -> ckpt_store::Result<()> {
/// # let (layout, fp) = (Layout::new("store"), FailPoint::unlimited());
/// // `manifest::apply`'s signature (it is crate-private).
/// fn apply(records: &Durable<[Record]>) -> usize { records.len() }
/// let records = vec![Record::Commit { gen: 1 }].into_boxed_slice();
/// let bytes = encode_record(&records[0]);
/// let logged = fp.log(&layout.manifest, &bytes, records)?;
/// apply(&logged);
/// # Ok(()) }
/// ```
///
/// [`Record`]: crate::manifest::Record
#[derive(Debug)]
pub struct Durable<T: ?Sized>(Box<T>);

impl<T: ?Sized> Deref for Durable<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> Durable<T> {
    /// Reads `path` and parses it: what a reopen finds on disk is what it
    /// recovers from.
    pub fn read(path: &Path, parse: impl FnOnce(&[u8]) -> Result<T>) -> Result<Durable<T>> {
        Ok(Durable(Box::new(parse(&fs::read(path)?)?)))
    }

    /// What is taken from a durable value is durable too.
    pub fn map<U: ?Sized>(self, f: impl FnOnce(T) -> Box<U>) -> Durable<U> {
        Durable(f(*self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_writes_everything() {
        let fp = FailPoint::unlimited();
        let mut out = Vec::new();
        fp.write_all(&mut out, b"hello").unwrap();
        fp.barrier().unwrap();
        assert_eq!(out, b"hello");
        assert_eq!(fp.bytes_written(), 5);
    }

    #[test]
    fn budget_tears_the_write_on_the_exact_byte() {
        let fp = FailPoint::after_bytes(3);
        let mut out = Vec::new();
        assert!(matches!(fp.write_all(&mut out, b"hello"), Err(StoreError::Killed)));
        assert_eq!(out, b"hel");
        assert_eq!(fp.bytes_written(), 3);
        // Dead is dead: later writes produce nothing.
        assert!(matches!(fp.write_all(&mut out, b"more"), Err(StoreError::Killed)));
        assert_eq!(out, b"hel");
        assert!(fp.barrier().is_err());
    }

    #[test]
    fn zero_budget_kills_before_any_byte() {
        let fp = FailPoint::after_bytes(0);
        let mut out = Vec::new();
        assert!(fp.barrier().is_err());
        assert!(fp.write_all(&mut out, b"x").is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn budget_boundary_exactly_at_write_end_survives() {
        let fp = FailPoint::after_bytes(5);
        let mut out = Vec::new();
        fp.write_all(&mut out, b"hello").unwrap();
        // Budget now exhausted: the *next* op dies.
        assert!(fp.barrier().is_err());
    }

    #[test]
    fn clones_share_one_budget() {
        let fp = FailPoint::after_bytes(4);
        let fp2 = fp.clone();
        let mut out = Vec::new();
        fp.write_all(&mut out, b"ab").unwrap();
        assert!(fp2.write_all(&mut out, b"cdef").is_err());
        assert_eq!(out, b"abcd");
        assert_eq!(fp.bytes_written(), 4);
    }

    #[test]
    fn a_barrier_budget_kills_at_its_barrier_and_after() {
        let fp = FailPoint::at_barrier(2);
        fp.barrier().unwrap();
        fp.barrier().unwrap();
        assert!(matches!(fp.barrier(), Err(StoreError::Killed)));
        assert!(fp.barrier().is_err());
    }
}
