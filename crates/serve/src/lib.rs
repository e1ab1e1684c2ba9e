//! Concurrent checkpoint serving on top of `ckpt-store`.
//!
//! The store itself is a single-writer object; this crate turns it
//! into a multi-session service without giving up any of its crash
//! guarantees, in two layers:
//!
//! * [`session`] — an in-process [`ServeSession`](session::ServeSession)
//!   wraps an epoch-pinned [`Snapshot`](ckpt_store::Snapshot) and
//!   answers [`proto`] requests against that immutable view. Any
//!   number of sessions read while the writer keeps saving; GC leaves
//!   their generations alone until they drop.
//! * [`server`]/[`client`] — the same request/response pairs carried
//!   over a Unix-domain socket in `SRV1` length-prefixed frames, for
//!   restores running in a different process than the writer
//!   (`ckpt serve` / `ckpt fetch`).

#![forbid(unsafe_code)]

pub mod client;
pub mod proto;
pub mod server;
pub mod session;

pub use client::Client;
pub use server::Server;
pub use session::ServeSession;

use ckpt_store::StoreError;
use std::fmt;

/// Any failure in the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The underlying store refused or failed the operation.
    Store(StoreError),
    /// Socket/file I/O outside the store's own paths.
    Io(std::io::Error),
    /// Malformed wire frame, request or response.
    Proto(String),
    /// The peer answered a request with an error response.
    Remote {
        /// The peer judged the failure transient.
        retryable: bool,
        /// The requested generation/rank/range does not exist.
        not_found: bool,
        /// Human-readable cause.
        message: String,
    },
}

impl ServeError {
    /// True when retrying the same request may succeed: transient I/O
    /// kinds locally, or whatever the remote side flagged retryable.
    pub fn is_retryable(&self) -> bool {
        match self {
            ServeError::Store(e) => e.is_retryable(),
            ServeError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
            ),
            ServeError::Remote { retryable, .. } => *retryable,
            _ => false,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Store(e) => write!(f, "store: {e}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Proto(why) => write!(f, "protocol: {why}"),
            ServeError::Remote { message, .. } => write!(f, "remote: {message}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

impl From<ckpt_deflate::frame::FrameError> for ServeError {
    fn from(e: ckpt_deflate::frame::FrameError) -> Self {
        ServeError::Proto(e.to_string())
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
