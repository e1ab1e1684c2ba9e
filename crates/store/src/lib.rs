//! # ckpt-store
//!
//! A crash-consistent on-disk checkpoint repository. The compression
//! pipeline ([`ckpt_core`]) produces checkpoint *bytes*; this crate
//! answers the operational question the paper's whole premise depends
//! on: after a failure — including a failure *during a checkpoint
//! write* — which bytes are safe to restart from?
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   manifest              append-only commit log (CSM1, CRC-framed)
//!   segments/             committed payloads, one file per rank
//!     <gen:08>.<rank>.seg
//!   quarantine/           unreadable/orphaned segments (never deleted)
//!   tmp/                  staging area for in-flight segment writes
//! ```
//!
//! ## Commit protocol
//!
//! A generation (one multi-rank checkpoint) becomes durable in two
//! ordered phases:
//!
//! 1. every rank's payload is written to `tmp/`, fsynced, and renamed
//!    into `segments/` (rename is atomic on POSIX); the segments
//!    directory is fsynced once after the last rename;
//! 2. the manifest records (`Begin`, one `Seg` per rank, `Commit`) are
//!    appended in a **single** buffered write and fsynced.
//!
//! A kill at any byte boundary therefore leaves either: no manifest
//! mention of the new generation (its files are swept to quarantine on
//! the next open), or a torn manifest tail (truncated on the next
//! open, same sweep), or a fully committed generation. Previously
//! committed generations are never touched by the save path, so the
//! last committed generation is always restorable. [`Store::open`]
//! performs exactly this recovery.
//!
//! ## One disk seam
//!
//! Every filesystem mutation goes through [`FailPoint`], which lets
//! tests inject a byte-accurate kill into every write and a kill barrier
//! before every metadata operation, and whose types carry the protocol's
//! order: a rename takes only a [`Synced`] file, a `Seg` record is built
//! only from the [`SegMeta`] the directory fsync returns, and removal,
//! quarantine and truncation each demand a [`Durable`] witness.
//! `clippy.toml` refuses `std::fs` mutations anywhere else.
//!
//! ## One lifecycle engine
//!
//! The in-memory generation map changes only by [`manifest`]'s `apply`
//! of records that are already durable — `Store::log` is the one
//! manifest append, it returns the `Durable<[Record]>` that `apply`
//! demands, and `apply` is the interpreter [`Store::open`] replays the
//! log with, so memory always equals what a reopen would rebuild.
//! Files die only in `Store::retire`, after their `Retire` record is
//! durable, dependents before bases. Every operation that writes this
//! store's disk runs inside one poison gate (refuse when poisoned,
//! poison on any error), and every read goes through one [`View`] —
//! the store's own after the poison guard, a [`Snapshot`]'s pinned
//! clone without one.
//!
//! ## Generation chains
//!
//! A generation is either *full* (a `CKPT` checkpoint image or a
//! `WCK1`/`WPK1` compressed array per rank) or *incremental* (an
//! `INC2` increment per rank against a base generation — or an `INC1`
//! one an older build wrote — see `ckpt_core::incremental`). Restore
//! resolves the chain base-first; GC retains the last K fulls plus
//! every increment whose entire chain is retained, and quarantines
//! unreadable segments instead of deleting them.

#![forbid(unsafe_code)]

pub mod compact;
mod failpoint;
pub mod gc;
pub mod layout;
pub mod manifest;
pub mod segment;
pub mod snapshot;
pub mod store;

pub use failpoint::{Durable, FailPoint, Renamed, SegMeta, Staged, Staging, Synced};
pub use segment::SegmentWriter;
pub use gc::GcReport;
pub use manifest::{RetireReason, SegmentFormat};
pub use snapshot::{GenIndex, RankIndex, Snapshot};
pub use compact::ChainCompactReport;
pub use store::{CompactManifestReport, GenInfo, OpenReport, Store, VerifyReport, View};

use std::fmt;

/// Any failure while operating the checkpoint store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem I/O failure.
    Io(std::io::Error),
    /// The on-disk state is inconsistent beyond crash recovery (bad
    /// manifest header, CRC mismatch in a committed segment, …).
    Corrupt(String),
    /// An injected fail-point fired: the simulated process was killed
    /// mid-write. The store object is poisoned and must be reopened.
    Killed,
    /// A previous save failed; the in-memory view may not match disk.
    /// Reopen the store to recover.
    Poisoned,
    /// The requested generation/rank does not exist or is not
    /// restorable (uncommitted, retired, or an empty store).
    NotFound(String),
    /// A recovery chain cannot be resolved (missing or retired base,
    /// format mismatch, cycle).
    Chain(String),
    /// Payload decode failure surfaced by verify/restore.
    Ckpt(ckpt_core::CkptError),
    /// I/O failure touching one specific segment file. Unlike
    /// [`StoreError::Corrupt`], the underlying [`std::io::Error`] is
    /// preserved so a serving layer can distinguish retryable
    /// conditions (`WouldBlock`, `Interrupted`, `TimedOut`) from
    /// fatal ones.
    SegmentIo {
        /// The segment file involved.
        path: String,
        /// The original error, kind intact.
        source: std::io::Error,
    },
}

impl StoreError {
    /// The underlying [`std::io::ErrorKind`], when one was preserved.
    pub fn io_kind(&self) -> Option<std::io::ErrorKind> {
        match self {
            StoreError::Io(e) => Some(e.kind()),
            StoreError::SegmentIo { source, .. } => Some(source.kind()),
            _ => None,
        }
    }

    /// True for transient conditions a serving layer may retry
    /// (interrupted syscall, non-blocking would-block, timeout).
    /// Everything else — corruption, missing generations, kills —
    /// is fatal for the request.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self.io_kind(),
            Some(
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Corrupt(why) => write!(f, "store corrupt: {why}"),
            StoreError::Killed => write!(f, "fail-point kill injected mid-write"),
            StoreError::Poisoned => {
                write!(f, "store poisoned by a failed save; reopen to recover")
            }
            StoreError::NotFound(what) => write!(f, "not found: {what}"),
            StoreError::Chain(why) => write!(f, "recovery chain error: {why}"),
            StoreError::Ckpt(e) => write!(f, "payload error: {e}"),
            StoreError::SegmentIo { path, source } => {
                write!(f, "segment {path}: {source}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Ckpt(e) => Some(e),
            StoreError::SegmentIo { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ckpt_deflate::frame::FrameError> for StoreError {
    fn from(e: ckpt_deflate::frame::FrameError) -> Self {
        StoreError::Corrupt(e.to_string())
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ckpt_core::CkptError> for StoreError {
    fn from(e: ckpt_core::CkptError) -> Self {
        StoreError::Ckpt(e)
    }
}

impl From<ckpt_deflate::DeflateError> for StoreError {
    fn from(e: ckpt_deflate::DeflateError) -> Self {
        StoreError::Ckpt(ckpt_core::CkptError::Deflate(e))
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
