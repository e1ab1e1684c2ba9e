//! Socket client for `ckpt fetch` and `ckpt replicate`: typed
//! wrappers over the `SRV1` request/response pairs, plus the remote
//! halves of buddy replication — [`RemoteReplica`] pushes generations
//! *to* a served buddy, and [`Client::adopt_into`] pulls a served
//! buddy's generations down to rebuild a lost primary.

use crate::proto::{self, Request, Response, MAX_FETCH};
use crate::{Result, ServeError};
use ckpt_deflate::crc32::{crc32, crc32_extend};
use ckpt_store::{GenIndex, GenInfo, PutGen, RankIndex, ReplicaSink, Store, StoreError};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Chunk size for streaming puts and whole-payload pulls: far enough
/// under [`MAX_FRAME`](proto::MAX_FRAME) that framing overhead never
/// pushes a frame over the bound.
const TRANSFER_CHUNK: u64 = 4 << 20;

/// One connection to a [`serve_unix`](crate::server::serve_unix)
/// server. All requests on a connection answer against the same
/// pinned snapshot, so a sequence of fetches observes one consistent
/// store state no matter what the writer does meanwhile.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to the server's socket.
    pub fn connect(socket_path: &Path) -> Result<Client> {
        Ok(Client { stream: UnixStream::connect(socket_path)? })
    }

    /// Sends one request and reads its response frame.
    pub fn request(&mut self, req: &Request) -> Result<Response> {
        proto::write_frame(&mut self.stream, &proto::encode_request(req))?;
        let body = proto::read_frame(&mut self.stream)?
            .ok_or_else(|| ServeError::Proto("server closed mid-request".into()))?;
        proto::decode_response(body)
    }

    fn expect<T>(resp: Response, pick: impl FnOnce(Response) -> Option<T>) -> Result<T> {
        match resp {
            Response::Error { retryable, not_found, message } => {
                Err(ServeError::Remote { retryable, not_found, message })
            }
            other => pick(other)
                .ok_or_else(|| ServeError::Proto("response kind does not match request".into())),
        }
    }

    /// Lists the snapshot's generations.
    pub fn list(&mut self) -> Result<Vec<GenInfo>> {
        let resp = self.request(&Request::List)?;
        Self::expect(resp, |r| match r {
            Response::Gens(g) => Some(g),
            _ => None,
        })
    }

    /// The newest generation in the server's snapshot.
    pub fn latest(&mut self) -> Result<Option<u64>> {
        let resp = self.request(&Request::Latest)?;
        Self::expect(resp, |r| match r {
            Response::Latest(g) => Some(g),
            _ => None,
        })
    }

    /// The range-read index of one generation.
    pub fn index(&mut self, gen: u64) -> Result<GenIndex> {
        let resp = self.request(&Request::Index { gen })?;
        Self::expect(resp, |r| match r {
            Response::Index(ix) => Some(ix),
            _ => None,
        })
    }

    /// Fetches a byte range of one committed segment.
    pub fn fetch(&mut self, gen: u64, rank: u32, offset: u64, len: u64) -> Result<Vec<u8>> {
        let resp = self.request(&Request::Fetch { gen, rank, offset, len })?;
        let data = Self::expect(resp, |r| match r {
            Response::Data(d) => Some(d),
            _ => None,
        })?;
        if data.len() as u64 != len {
            return Err(ServeError::Proto(format!(
                "fetch returned {} bytes, asked for {len}",
                data.len()
            )));
        }
        Ok(data)
    }

    fn put_ack(&mut self, req: &Request) -> Result<(u64, bool)> {
        let resp = self.request(req)?;
        Self::expect(resp, |r| match r {
            Response::PutAck { gen, already } => Some((gen, already)),
            _ => None,
        })
    }

    /// Pushes one generation to the served store: `PutBegin`, each
    /// rank's payload in sequential chunks, then a `PutCommit` carrying
    /// every payload's length and CRC. The server writes nothing until
    /// the commit verifies. Returns `true` when the server already
    /// held the generation (the idempotent no-op).
    pub fn push_gen(&mut self, put: &PutGen) -> Result<bool> {
        self.put_ack(&Request::PutBegin {
            gen: put.gen,
            step: put.step,
            format: put.format,
            base_gen: put.base_gen,
            ranks: put.payloads.len() as u32,
            error_bound: put.error_bound,
        })?;
        for (rank, payload) in put.payloads.iter().enumerate() {
            let total_len = payload.len() as u64;
            let mut offset = 0u64;
            loop {
                let end = (offset + TRANSFER_CHUNK).min(total_len);
                self.put_ack(&Request::PutSeg {
                    gen: put.gen,
                    rank: rank as u32,
                    offset,
                    total_len,
                    chunk: payload[offset as usize..end as usize].to_vec(),
                })?;
                offset = end;
                if offset == total_len {
                    break;
                }
            }
        }
        let metas = put.payloads.iter().map(|p| (p.len() as u64, crc32(p))).collect();
        let (gen, already) = self.put_ack(&Request::PutCommit { gen: put.gen, metas })?;
        if gen != put.gen {
            return Err(ServeError::Proto(format!(
                "commit of generation {} acknowledged generation {gen}",
                put.gen
            )));
        }
        Ok(already)
    }

    /// The one verified ranged fetch: reads rank `ri` of generation
    /// `gen` in ranges of at most `chunk_bytes` (clamped to what one
    /// frame carries), hands each to `sink` in order, and checks the
    /// running CRC-32 of everything delivered against the committed
    /// one. The sink has seen the whole payload by the time a mismatch
    /// is reported; a caller that keeps what it was fed must drop it.
    pub fn fetch_segment(
        &mut self,
        gen: u64,
        ri: &RankIndex,
        chunk_bytes: u64,
        mut sink: impl FnMut(&[u8]) -> std::io::Result<()>,
    ) -> Result<()> {
        let chunk = chunk_bytes.clamp(1, MAX_FETCH);
        let (mut offset, mut crc) = (0u64, 0u32);
        while offset < ri.payload_len {
            let len = chunk.min(ri.payload_len - offset);
            let bytes = self.fetch(gen, ri.rank, offset, len)?;
            sink(&bytes)?;
            crc = crc32_extend(crc, &bytes);
            offset += len;
        }
        if crc != ri.crc {
            return Err(ServeError::Proto(format!(
                "generation {gen} rank {}: fetched payload CRC {crc:08x} != committed {:08x}",
                ri.rank, ri.crc
            )));
        }
        Ok(())
    }

    /// Pulls one generation's metadata and payloads off the server's
    /// pinned snapshot, CRC-verified against the served manifest.
    pub fn pull_gen(&mut self, gen: u64) -> Result<PutGen> {
        let ix = self.index(gen)?;
        let mut payloads = Vec::with_capacity(ix.ranks.len());
        for r in &ix.ranks {
            // The length is the server's claim: pre-size for one chunk at
            // most, and let the bytes that do arrive grow the buffer.
            let mut payload = Vec::with_capacity(r.payload_len.min(TRANSFER_CHUNK) as usize);
            self.fetch_segment(gen, r, TRANSFER_CHUNK, |bytes| {
                payload.extend_from_slice(bytes);
                Ok(())
            })?;
            payloads.push(payload);
        }
        Ok(PutGen {
            gen: ix.gen,
            step: ix.step,
            format: ix.format,
            base_gen: ix.base_gen,
            error_bound: ix.error_bound,
            payloads,
        })
    }

    /// Rebuilds `dst` from the served buddy: every live generation the
    /// server's snapshot holds and `dst` lacks is pulled and imported,
    /// ascending, so bases always precede their increments. Returns
    /// the imported generation ids.
    pub fn adopt_into(&mut self, dst: &mut Store) -> Result<Vec<u64>> {
        let mut imported = Vec::new();
        for info in self.list()? {
            if !info.committed || info.retired.is_some() {
                continue;
            }
            let put = self.pull_gen(info.gen)?;
            if dst.import_generation(&put)? {
                imported.push(info.gen);
            }
        }
        Ok(imported)
    }
}

/// The remote half of [`Store::push_to`]: a
/// [`ReplicaSink`](ckpt_store::ReplicaSink) that delivers each
/// generation to a served buddy over the socket. The server's
/// verified-commit import makes the put durable before the `PutAck`
/// comes back, which is exactly the promise the pusher's cursor
/// advance relies on.
pub struct RemoteReplica {
    client: Client,
}

impl RemoteReplica {
    /// Connects to the buddy's serve socket.
    pub fn connect(socket_path: &Path) -> Result<RemoteReplica> {
        Ok(RemoteReplica { client: Client::connect(socket_path)? })
    }

    /// Wraps an existing connection.
    pub fn new(client: Client) -> RemoteReplica {
        RemoteReplica { client }
    }
}

impl ReplicaSink for RemoteReplica {
    fn put(&mut self, put: &PutGen) -> std::result::Result<(), StoreError> {
        self.client
            .push_gen(put)
            .map(|_| ())
            .map_err(|e| StoreError::Io(std::io::Error::other(format!("buddy push: {e}"))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_store::SegmentFormat;
    use std::os::unix::net::UnixListener;

    /// A buddy whose index claims a petabyte-sized rank and whose first
    /// fetch fails: the pull must end in that error, with no allocation
    /// sized by the claim.
    #[test]
    fn pull_gen_does_not_presize_from_the_claimed_length() {
        let dir = std::env::temp_dir().join(format!("ckpt-client-claim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("buddy.sock");
        let listener = UnixListener::bind(&socket).unwrap();
        let buddy = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut answer = |expect: fn(&Request) -> bool, resp: Response| {
                let body = proto::read_frame(&mut conn).unwrap().unwrap();
                let req = proto::decode_request(&body).unwrap();
                assert!(expect(&req), "unexpected request {req:?}");
                proto::write_frame(&mut conn, &proto::encode_response(&resp)).unwrap();
            };
            let rank = RankIndex { rank: 0, payload_len: 1 << 50, crc: 0, members: Vec::new() };
            answer(
                |r| matches!(r, Request::Index { gen: 7 }),
                Response::Index(GenIndex {
                    gen: 7,
                    step: 1,
                    format: SegmentFormat::Array,
                    base_gen: 7,
                    error_bound: None,
                    ranks: vec![rank],
                }),
            );
            answer(
                |r| matches!(r, Request::Fetch { gen: 7, rank: 0, offset: 0, .. }),
                Response::Error {
                    retryable: false,
                    not_found: false,
                    message: "segment unreadable".into(),
                },
            );
        });
        let err = Client::connect(&socket).unwrap().pull_gen(7).map(drop).unwrap_err();
        buddy.join().unwrap();
        assert!(
            matches!(&err, ServeError::Remote { message, .. } if message == "segment unreadable"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
