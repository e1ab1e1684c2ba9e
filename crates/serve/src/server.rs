//! Unix-domain-socket server: `ckpt serve` hosts a store, handing
//! each connection its own epoch-pinned snapshot.

use crate::proto::{self, Response};
use crate::session::ServeSession;
use crate::Result;
use ckpt_store::Store;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// A running serve loop. Dropping (or calling [`Server::stop`]) stops
/// accepting new connections and removes the socket file; connections
/// already handed a snapshot run to completion.
pub struct Server {
    socket_path: PathBuf,
    shutdown: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
    served: Arc<AtomicU64>,
}

impl Server {
    /// Connections accepted so far.
    pub fn connections_served(&self) -> u64 {
        self.served.load(Ordering::SeqCst)
    }

    /// Stops accepting and removes the socket file. Idempotent.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // The accept loop blocks in `accept()`; a connection to our
            // own socket wakes it to see the flag. If the socket file
            // no longer leads to this listener nothing can wake the
            // thread, so it is left detached rather than joined.
            if UnixStream::connect(&self.socket_path).is_ok() {
                let _ = h.join();
            }
        }
        #[expect(clippy::disallowed_methods, reason = "a socket file is not store state")]
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `socket_path` and serves `store` until [`Server::stop`].
///
/// Each accepted connection takes the store lock just long enough to
/// pin a fresh [`Snapshot`](ckpt_store::Snapshot), then serves every
/// request on that connection against the pinned view with the lock
/// released — the writer saves and GCs concurrently, and GC cannot
/// retire anything the connection can still name.
pub fn serve_unix(store: Arc<Mutex<Store>>, socket_path: &Path) -> io::Result<Server> {
    #[expect(clippy::disallowed_methods, reason = "a stale socket file is not store state")]
    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));

    let accept = {
        let shutdown = Arc::clone(&shutdown);
        let served = Arc::clone(&served);
        thread::spawn(move || {
            for stream in listener.incoming() {
                // Checked after every wake-up: the connection that
                // `Server::stop` makes to end the loop is not served.
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                served.fetch_add(1, Ordering::SeqCst);
                let store = Arc::clone(&store);
                thread::spawn(move || {
                    let _ = handle_connection(stream, &store);
                });
            }
        })
    };

    Ok(Server {
        socket_path: socket_path.to_path_buf(),
        shutdown,
        accept: Some(accept),
        served,
    })
}

/// Serves one connection: pin a snapshot, then answer frames until the
/// peer closes. A snapshot failure (poisoned store) is reported to the
/// peer as a retryable error rather than a dropped connection.
fn handle_connection(stream: UnixStream, store: &Mutex<Store>) -> Result<()> {
    let mut stream = stream;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let snap = {
        let guard = store.lock().unwrap_or_else(|p| p.into_inner());
        guard.snapshot()
    };
    let session = match snap {
        Ok(snap) => ServeSession::new(snap),
        Err(e) => {
            let resp = Response::Error {
                retryable: e.is_retryable(),
                not_found: false,
                message: format!("store: {e}"),
            };
            proto::write_response(&mut stream, &resp)?;
            return Ok(());
        }
    };
    while let Some(body) = proto::read_frame(&mut stream)? {
        let resp = match proto::decode_request(&body) {
            Ok(req) => session.handle(&req),
            Err(e) => Response::Error {
                retryable: false,
                not_found: false,
                message: format!("bad request: {e}"),
            },
        };
        proto::write_response(&mut stream, &resp)?;
    }
    Ok(())
}
