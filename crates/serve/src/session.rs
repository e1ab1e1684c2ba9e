//! In-process serving session: one pinned snapshot answering
//! protocol requests.

use crate::proto::{Request, Response, MAX_FETCH};
use crate::{Result, ServeError};
use ckpt_store::{Snapshot, StoreError};

/// A serving session over one epoch-pinned [`Snapshot`].
///
/// The session is the single place requests are interpreted: the
/// socket server decodes frames into [`Request`]s and feeds them here,
/// and in-process callers (tests) call [`ServeSession::handle`]
/// directly. Either
/// way the answer is computed against the same immutable view, so a
/// concurrent writer can never tear a response.
pub struct ServeSession {
    snap: Snapshot,
}

impl ServeSession {
    /// Wraps a snapshot into a session.
    pub fn new(snap: Snapshot) -> ServeSession {
        ServeSession { snap }
    }

    /// Answers one request. Failures become [`Response::Error`] with
    /// the retryable/not-found split a remote client needs — this
    /// method itself never fails, so one bad request cannot take down
    /// a connection.
    pub fn handle(&self, req: &Request) -> Response {
        match self.try_handle(req) {
            Ok(resp) => resp,
            Err(e) => {
                let not_found = match &e {
                    ServeError::Store(StoreError::NotFound(_)) => true,
                    ServeError::Store(StoreError::SegmentIo { source, .. }) => {
                        source.kind() == std::io::ErrorKind::NotFound
                    }
                    _ => false,
                };
                Response::Error {
                    retryable: e.is_retryable(),
                    not_found,
                    message: e.to_string(),
                }
            }
        }
    }

    fn try_handle(&self, req: &Request) -> Result<Response> {
        match req {
            Request::List => Ok(Response::Gens(self.snap.generations())),
            Request::Latest => Ok(Response::Latest(self.snap.latest_committed())),
            Request::Index { gen } => Ok(Response::Index(self.snap.segment_index(*gen)?)),
            Request::Fetch { gen, rank, offset, len } => {
                if *len > MAX_FETCH {
                    return Err(ServeError::Proto(format!(
                        "fetch of {len} bytes exceeds the {MAX_FETCH}-byte frame bound"
                    )));
                }
                Ok(Response::Data(self.snap.read_segment_range(*gen, *rank, *offset, *len)?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_store::{SegmentFormat, Store};
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ckpt-serve-sess-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn session_answers_all_request_kinds() {
        let dir = scratch("kinds");
        let mut store = Store::open(&dir).unwrap();
        let payload: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        let gen = store.save_full(7, SegmentFormat::Array, &[&payload], 1).unwrap();
        let sess = ServeSession::new(store.snapshot().unwrap());

        match sess.handle(&Request::List) {
            Response::Gens(gens) => {
                assert_eq!(gens.len(), 1);
                assert_eq!(gens[0].gen, gen);
                assert_eq!(gens[0].step, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(sess.handle(&Request::Latest), Response::Latest(Some(gen)));
        match sess.handle(&Request::Index { gen }) {
            Response::Index(ix) => assert_eq!(ix.ranks[0].payload_len, payload.len() as u64),
            other => panic!("unexpected {other:?}"),
        }
        match sess.handle(&Request::Fetch { gen, rank: 0, offset: 100, len: 50 }) {
            Response::Data(bytes) => assert_eq!(bytes, payload[100..150]),
            other => panic!("unexpected {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_generation_maps_to_not_found_not_retryable() {
        let dir = scratch("notfound");
        let store = Store::open(&dir).unwrap();
        let sess = ServeSession::new(store.snapshot().unwrap());
        match sess.handle(&Request::Index { gen: 99 }) {
            Response::Error { retryable, not_found, .. } => {
                assert!(not_found);
                assert!(!retryable);
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_fetch_is_refused() {
        let dir = scratch("overfetch");
        let store = Store::open(&dir).unwrap();
        let sess = ServeSession::new(store.snapshot().unwrap());
        match sess.handle(&Request::Fetch { gen: 1, rank: 0, offset: 0, len: u64::MAX }) {
            Response::Error { not_found, .. } => assert!(!not_found),
            other => panic!("unexpected {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
