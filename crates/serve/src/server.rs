//! Unix-domain-socket server: `ckpt serve` hosts a store, handing
//! each connection its own epoch-pinned snapshot.

use crate::proto::{self, Request, Response};
use crate::session::ServeSession;
use crate::Result;
use ckpt_deflate::crc32::crc32;
use ckpt_store::{PutGen, SegmentFormat, Store};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Upper bound on one rank's payload accepted over the wire — a put
/// buffers every rank in memory until commit, so a hostile (or buggy)
/// `total_len` must be refused before any allocation grows to meet it.
pub const MAX_PUT_SEGMENT: u64 = 256 << 20;

/// Upper bound on the rank count a put may declare.
pub const MAX_PUT_RANKS: u32 = 4096;

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
    let mut pending: Option<PendingPut> = None;
    while let Some(body) = proto::read_frame(&mut stream)? {
        let resp = match proto::decode_request(&body) {
            Ok(
                req @ (Request::PutBegin { .. } | Request::PutSeg { .. } | Request::PutCommit { .. }),
            ) => handle_put(&mut pending, &req, store),
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

/// One in-flight replication put on a connection: metadata from
/// `PutBegin` plus per-rank payloads accumulated from `PutSeg` chunks.
struct PendingPut {
    gen: u64,
    step: u64,
    format: SegmentFormat,
    base_gen: u64,
    error_bound: Option<f64>,
    /// Per rank: (bytes received so far, declared total length).
    bufs: Vec<(Vec<u8>, Option<u64>)>,
}

fn put_error(message: String) -> Response {
    Response::Error { retryable: false, not_found: false, message }
}

/// Drives the per-connection put state machine. Any protocol violation
/// clears the pending put (the client must restart the generation) —
/// nothing touches the store until a fully verified `PutCommit`.
fn handle_put(pending: &mut Option<PendingPut>, req: &Request, store: &Mutex<Store>) -> Response {
    match try_handle_put(pending, req, store) {
        Ok(resp) => resp,
        Err(msg) => {
            *pending = None;
            put_error(msg)
        }
    }
}

fn try_handle_put(
    pending: &mut Option<PendingPut>,
    req: &Request,
    store: &Mutex<Store>,
) -> std::result::Result<Response, String> {
    match req {
        Request::PutBegin { gen, step, format, base_gen, ranks, error_bound } => {
            if let Some(p) = pending {
                return Err(format!(
                    "put of generation {} already in flight on this connection",
                    p.gen
                ));
            }
            if *ranks == 0 || *ranks > MAX_PUT_RANKS {
                return Err(format!("put declares {ranks} ranks (allowed 1..={MAX_PUT_RANKS})"));
            }
            *pending = Some(PendingPut {
                gen: *gen,
                step: *step,
                format: *format,
                base_gen: *base_gen,
                error_bound: *error_bound,
                bufs: vec![(Vec::new(), None); *ranks as usize],
            });
            Ok(Response::PutAck { gen: *gen, already: false })
        }
        Request::PutSeg { gen, rank, offset, total_len, chunk } => {
            let p = pending
                .as_mut()
                .ok_or_else(|| "segment chunk without a PutBegin".to_string())?;
            if *gen != p.gen {
                return Err(format!(
                    "segment chunk for generation {gen} but generation {} is in flight",
                    p.gen
                ));
            }
            if *total_len > MAX_PUT_SEGMENT {
                return Err(format!(
                    "rank {rank} declares {total_len} bytes (allowed at most {MAX_PUT_SEGMENT})"
                ));
            }
            let buf = p
                .bufs
                .get_mut(*rank as usize)
                .ok_or_else(|| format!("rank {rank} out of range for this put"))?;
            match buf.1 {
                None => buf.1 = Some(*total_len),
                Some(t) if t != *total_len => {
                    return Err(format!(
                        "rank {rank} changed its declared length ({t} then {total_len})"
                    ));
                }
                Some(_) => {}
            }
            if *offset != buf.0.len() as u64 {
                return Err(format!(
                    "rank {rank} chunk at offset {offset} but {} bytes received — chunks \
                     must be sequential",
                    buf.0.len()
                ));
            }
            if buf.0.len() as u64 + chunk.len() as u64 > *total_len {
                return Err(format!("rank {rank} chunk overruns its declared {total_len} bytes"));
            }
            buf.0.extend_from_slice(chunk);
            Ok(Response::PutAck { gen: *gen, already: false })
        }
        Request::PutCommit { gen, metas } => {
            let p = pending
                .take()
                .ok_or_else(|| "commit without a PutBegin".to_string())?;
            if *gen != p.gen {
                return Err(format!(
                    "commit for generation {gen} but generation {} is in flight",
                    p.gen
                ));
            }
            if metas.len() != p.bufs.len() {
                return Err(format!(
                    "commit declares {} ranks but the put began with {}",
                    metas.len(),
                    p.bufs.len()
                ));
            }
            let mut payloads = Vec::with_capacity(p.bufs.len());
            for (rank, ((buf, total), (len, crc))) in p.bufs.into_iter().zip(metas).enumerate() {
                if let Some(t) = total {
                    if t != *len {
                        return Err(format!(
                            "rank {rank} streamed a {t}-byte payload but commit declares {len}"
                        ));
                    }
                }
                if buf.len() as u64 != *len {
                    return Err(format!(
                        "rank {rank} received {} of {len} declared bytes",
                        buf.len()
                    ));
                }
                if crc32(&buf) != *crc {
                    return Err(format!("rank {rank} payload fails its commit CRC"));
                }
                payloads.push(buf);
            }
            let put = PutGen {
                gen: p.gen,
                step: p.step,
                format: p.format,
                base_gen: p.base_gen,
                error_bound: p.error_bound,
                payloads,
            };
            let mut guard = store.lock().unwrap_or_else(|e| e.into_inner());
            match guard.import_generation(&put) {
                Ok(imported) => Ok(Response::PutAck { gen: *gen, already: !imported }),
                Err(e) => Err(format!("import of generation {gen} failed: {e}")),
            }
        }
        _ => Err("not a put request".into()),
    }
}
