//! Socket client for `ckpt fetch`: typed wrappers over the `SRV1`
//! request/response pairs.

use crate::proto::{self, Request, Response, MAX_FETCH};
use crate::{Result, ServeError};
use ckpt_deflate::crc32::crc32_extend;
use ckpt_store::{GenIndex, GenInfo, RankIndex};
use std::os::unix::net::UnixStream;
use std::path::Path;

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
}
