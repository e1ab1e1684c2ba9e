//! `SRV1` wire protocol: length-prefixed, CRC-framed request/response
//! pairs.
//!
//! Every frame is the `len | crc | body` envelope of
//! [`ckpt_deflate::frame`] — the manifest's record framing. The CRC
//! makes a torn or corrupted socket stream a clean protocol error
//! instead of a misparse. All integers are little-endian; sizes are
//! bounded by [`MAX_FRAME`] before any allocation, so a hostile length
//! prefix cannot balloon memory.
//!
//! Body layouts (first byte is the kind tag):
//!
//! ```text
//! Request  1 List
//!          2 Latest
//!          3 Index : gen u64
//!          4 Fetch : gen u64, rank u32, offset u64, len u64
//! Response 0 Error : retryable u8, not_found u8, msg_len u32, msg (UTF-8)
//!          1 Gens  : count u32, then per gen:
//!                    gen u64, step u64, format u8, base_gen u64,
//!                    ranks u32, bytes u64, bound u8, bound_bits u64
//!          2 Latest: present u8, gen u64
//!          4 Data  : len u32, bytes
//!          6 Index : gen u64, step u64, format u8, base_gen u64,
//!                    bound u8, bound_bits u64, rank_count u32, then
//!                    per rank: rank u32, payload_len u64, crc u32
//! ```
//!
//! The protocol is read-only: no request writes the served store.
//! Request tags 5–7 and response tag 5 belonged to a replication push
//! that older builds spoke; response tag 3 was an `Index` that also
//! listed each `WPK1` segment's members. They decode as any unknown
//! tag does, so peers of different builds fail loudly instead of
//! misreading each other.

// Decoder hardening (DESIGN.md §9): product code here is total on damaged bytes.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing, clippy::unwrap_used,
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::panic_in_result_fn, clippy::missing_panics_doc))]

use crate::{Result, ServeError};
use ckpt_deflate::frame::{self, Reader, Writer, SRV1};
use ckpt_store::{GenIndex, GenInfo, RankIndex, SegmentFormat};
use std::io::{Read, Write};

/// Upper bound on one frame's body, checked before allocating.
pub const MAX_FRAME: usize = SRV1.max_body;

/// Largest `len` a `Fetch` request may ask for, so `Data` responses
/// always fit a frame with room for the tag and length prefix.
pub const MAX_FETCH: u64 = frame::u64_from_usize(MAX_FRAME) - 64;

/// One client request against a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// List the snapshot's generations.
    List,
    /// The newest generation in the snapshot.
    Latest,
    /// The range-read index of one generation.
    Index { gen: u64 },
    /// A byte range of one committed segment.
    Fetch { gen: u64, rank: u32, offset: u64, len: u64 },
}

/// The server's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed; flags tell the client whether to retry.
    Error { retryable: bool, not_found: bool, message: String },
    /// Answer to [`Request::List`].
    Gens(Vec<GenInfo>),
    /// Answer to [`Request::Latest`].
    Latest(Option<u64>),
    /// Answer to [`Request::Index`].
    Index(GenIndex),
    /// Answer to [`Request::Fetch`].
    Data(Vec<u8>),
}

// ---------------------------------------------------------------- frames

/// Writes one frame (`len | crc | body`) to `w`.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<()> {
    frame::write_len_crc_body(w, body, MAX_FRAME)
}

/// Reads one frame body from `r`. Returns `Ok(None)` on clean EOF
/// (no header byte arrived); a torn header or body, an oversized
/// length, or a CRC mismatch are protocol errors.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>> {
    frame::read_len_crc_body(r, MAX_FRAME)
}

/// Writes one response frame. A `Data` response goes out as its 5-byte
/// head and then the payload where it lies, the CRC run on from one
/// into the other ([`frame::write_len_crc_parts`]), so the payload is
/// never copied into a body buffer; the bytes on the wire are
/// [`write_frame`]'s of [`encode_response`]'s body.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> Result<()> {
    match resp {
        Response::Data(bytes) => {
            frame::write_len_crc_parts(w, &data_head(bytes.len()), bytes, MAX_FRAME)
        }
        other => write_frame(w, &encode_response(other)),
    }
}

// --------------------------------------------------------------- encoding

/// A `Data` body's head: the tag and the payload's length.
fn data_head(len: usize) -> [u8; 5] {
    // `Writer::put_count`'s encoding of the length.
    let [l0, l1, l2, l3] = u32::try_from(len).unwrap_or(u32::MAX).to_le_bytes();
    [4, l0, l1, l2, l3]
}

/// `bound u8, bound_bits u64`: the wire twin of the manifest's `Bound`
/// record.
fn put_bound(out: &mut Writer, bound: Option<f64>) {
    out.put_u8(u8::from(bound.is_some()));
    out.put_u64(bound.map_or(0, f64::to_bits));
}

/// Serializes a request body.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Writer::new();
    match req {
        Request::List => out.put_u8(1),
        Request::Latest => out.put_u8(2),
        Request::Index { gen } => {
            out.put_u8(3);
            out.put_u64(*gen);
        }
        Request::Fetch { gen, rank, offset, len } => {
            out.put_u8(4);
            out.put_u64(*gen);
            out.put_u32(*rank);
            out.put_u64(*offset);
            out.put_u64(*len);
        }
    }
    out.into_bytes()
}

/// Serializes a response body.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Writer::new();
    match resp {
        Response::Error { retryable, not_found, message } => {
            out.put_u8(0);
            out.put_u8(u8::from(*retryable));
            out.put_u8(u8::from(*not_found));
            // Error text is advisory; clamp it so an Error frame can
            // never approach the frame bound.
            let msg = message.as_bytes();
            let take = msg.len().min(4096);
            out.put_count(take);
            out.put_bytes(msg.get(..take).unwrap_or(msg));
        }
        Response::Gens(gens) => {
            out.put_u8(1);
            out.put_count(gens.len());
            for g in gens {
                out.put_u64(g.gen);
                out.put_u64(g.step);
                out.put_u8(g.format.to_u8());
                out.put_u64(g.base_gen);
                out.put_u32(g.ranks);
                out.put_u64(g.bytes);
                put_bound(&mut out, g.error_bound);
            }
        }
        Response::Latest(gen) => {
            out.put_u8(2);
            out.put_u8(u8::from(gen.is_some()));
            out.put_u64(gen.unwrap_or(0));
        }
        Response::Index(ix) => {
            out.put_u8(6);
            out.put_u64(ix.gen);
            out.put_u64(ix.step);
            out.put_u8(ix.format.to_u8());
            out.put_u64(ix.base_gen);
            put_bound(&mut out, ix.error_bound);
            out.put_count(ix.ranks.len());
            for r in &ix.ranks {
                out.put_u32(r.rank);
                out.put_u64(r.payload_len);
                out.put_u32(r.crc);
            }
        }
        Response::Data(bytes) => {
            out.put_bytes(&data_head(bytes.len()));
            out.put_bytes(bytes);
        }
    }
    out.into_bytes()
}

// --------------------------------------------------------------- decoding

/// Reads the `bound u8, bound_bits u64` pair [`put_bound`] writes.
fn get_bound(c: &mut Reader<'_>) -> Result<Option<f64>> {
    let tag = c.get_u8()?;
    let bits = c.get_u64()?;
    match tag {
        0 => Ok(None),
        1 => Ok(Some(f64::from_bits(bits))),
        t => Err(ServeError::Proto(format!("bad bound tag {t}"))),
    }
}

/// A u32 byte count followed by that many bytes.
fn get_counted_bytes<'a>(c: &mut Reader<'a>) -> Result<&'a [u8]> {
    let len = c.get_count(1)?;
    Ok(c.get_bytes(len)?)
}

fn parse_format(tag: u8) -> Result<SegmentFormat> {
    SegmentFormat::from_u8(tag)
        .ok_or_else(|| ServeError::Proto(format!("bad segment format tag {tag}")))
}

/// Parses a request body.
pub fn decode_request(body: &[u8]) -> Result<Request> {
    let mut c = Reader::new(body);
    let req = match c.get_u8()? {
        1 => Request::List,
        2 => Request::Latest,
        3 => Request::Index { gen: c.get_u64()? },
        4 => Request::Fetch {
            gen: c.get_u64()?,
            rank: c.get_u32()?,
            offset: c.get_u64()?,
            len: c.get_u64()?,
        },
        t => return Err(ServeError::Proto(format!("bad request tag {t}"))),
    };
    c.expect_end()?;
    Ok(req)
}

/// Parses a response body. A `Data` response keeps the body's buffer
/// as its payload, the head drained off the front.
pub fn decode_response(mut body: Vec<u8>) -> Result<Response> {
    if body.first() == Some(&4) {
        let mut c = Reader::at(&body, 1);
        let len = get_counted_bytes(&mut c)?.len();
        c.expect_end()?;
        body.drain(..body.len() - len);
        return Ok(Response::Data(body));
    }
    let mut c = Reader::new(&body);
    // Tag 4, `Data`, was parsed above.
    let resp = match c.get_u8()? {
        0 => {
            let retryable = c.get_u8()? != 0;
            let not_found = c.get_u8()? != 0;
            let message = String::from_utf8(get_counted_bytes(&mut c)?.to_vec())
                .map_err(|_| ServeError::Proto("error message is not UTF-8".into()))?;
            Response::Error { retryable, not_found, message }
        }
        1 => {
            let count = c.get_count(46)?;
            let mut gens = Vec::with_capacity(count);
            for _ in 0..count {
                let gen = c.get_u64()?;
                let step = c.get_u64()?;
                let format = parse_format(c.get_u8()?)?;
                let base_gen = c.get_u64()?;
                let ranks = c.get_u32()?;
                let bytes = c.get_u64()?;
                let error_bound = get_bound(&mut c)?;
                gens.push(GenInfo {
                    gen,
                    step,
                    format,
                    base_gen,
                    ranks,
                    bytes,
                    committed: true,
                    retired: None,
                    error_bound,
                });
            }
            Response::Gens(gens)
        }
        2 => {
            let present = c.get_u8()?;
            let gen = c.get_u64()?;
            match present {
                0 => Response::Latest(None),
                1 => Response::Latest(Some(gen)),
                t => return Err(ServeError::Proto(format!("bad latest tag {t}"))),
            }
        }
        6 => {
            let gen = c.get_u64()?;
            let step = c.get_u64()?;
            let format = parse_format(c.get_u8()?)?;
            let base_gen = c.get_u64()?;
            let error_bound = get_bound(&mut c)?;
            let rank_count = c.get_count(16)?;
            let mut ranks = Vec::with_capacity(rank_count);
            for _ in 0..rank_count {
                let rank = c.get_u32()?;
                let payload_len = c.get_u64()?;
                let crc = c.get_u32()?;
                ranks.push(RankIndex { rank, payload_len, crc });
            }
            Response::Index(GenIndex { gen, step, format, base_gen, error_bound, ranks })
        }
        t => return Err(ServeError::Proto(format!("bad response tag {t}"))),
    };
    c.expect_end()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let body = encode_request(&req);
        assert_eq!(decode_request(&body).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let body = encode_response(&resp);
        assert_eq!(decode_response(body).unwrap(), resp);
    }

    fn sample_index() -> GenIndex {
        GenIndex {
            gen: 42,
            step: 1000,
            format: SegmentFormat::Array,
            base_gen: 42,
            error_bound: Some(1e-3),
            ranks: vec![
                RankIndex { rank: 0, payload_len: 999, crc: 0xDEAD_BEEF },
                RankIndex { rank: 1, payload_len: 10, crc: 7 },
            ],
        }
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::List);
        roundtrip_request(Request::Latest);
        roundtrip_request(Request::Index { gen: u64::MAX });
        roundtrip_request(Request::Fetch { gen: 3, rank: 2, offset: 100, len: 4096 });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Error {
            retryable: true,
            not_found: false,
            message: "disk went away".into(),
        });
        roundtrip_response(Response::Gens(vec![GenInfo {
            gen: 9,
            step: 90,
            format: SegmentFormat::Checkpoint,
            base_gen: 9,
            ranks: 4,
            bytes: 1 << 30,
            committed: true,
            retired: None,
            error_bound: None,
        }]));
        roundtrip_response(Response::Latest(None));
        roundtrip_response(Response::Latest(Some(17)));
        roundtrip_response(Response::Index(sample_index()));
        roundtrip_response(Response::Data(vec![1, 2, 3, 255]));
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let body = encode_request(&Request::Fetch { gen: 1, rank: 0, offset: 0, len: 10 });
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        write_frame(&mut wire, &encode_request(&Request::List)).unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), body);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), encode_request(&Request::List));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at frame boundary");
    }

    /// One response of every kind, `Data` at 0 bytes, 1 byte and 1 MiB.
    fn every_response() -> Vec<Response> {
        vec![
            Response::Error { retryable: false, not_found: true, message: "gone".into() },
            Response::Gens(Vec::new()),
            Response::Latest(Some(3)),
            Response::Index(sample_index()),
            Response::Data(Vec::new()),
            Response::Data(vec![0xA5]),
            Response::Data((0..1u32 << 20).map(|i| (i * 31 % 251) as u8).collect()),
        ]
    }

    #[test]
    fn write_response_puts_the_bytes_of_the_encoded_frame_on_the_wire() {
        for resp in every_response() {
            let (mut parts, mut joined) = (Vec::new(), Vec::new());
            write_response(&mut parts, &resp).unwrap();
            write_frame(&mut joined, &encode_response(&resp)).unwrap();
            assert_eq!(parts, joined, "{:?}", std::mem::discriminant(&resp));
        }
    }

    #[test]
    fn responses_roundtrip_through_the_wire() {
        let mut wire = Vec::new();
        for resp in every_response() {
            write_response(&mut wire, &resp).unwrap();
        }
        let mut r = wire.as_slice();
        for resp in every_response() {
            let body = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(decode_response(body).unwrap(), resp);
        }
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn a_data_body_whose_count_disagrees_with_its_length_is_refused() {
        let body = encode_response(&Response::Data(vec![1, 2, 3]));
        for cut in 0..body.len() {
            assert!(decode_response(body[..cut].to_vec()).is_err(), "cut {cut}");
        }
        let mut long = body.clone();
        long.push(0);
        assert!(decode_response(long).is_err());
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocation() {
        // A Gens response declaring u32::MAX entries in a tiny body.
        let mut body = vec![1u8];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(body).is_err());
        // An Index response declaring u32::MAX ranks after its fixed
        // fields.
        let empty = GenIndex { ranks: vec![], ..sample_index() };
        let mut body = encode_response(&Response::Index(empty));
        let count_at = body.len() - 4;
        body[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(body).is_err());
    }

    /// The replication push's tags are unknown tags now, on both ends,
    /// and so is the `Index` response tag of the builds whose index
    /// listed `WPK1` members.
    #[test]
    fn the_retired_put_tags_are_refused_as_unknown() {
        for tag in 5..=7u8 {
            let err = decode_request(&[tag, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err();
            assert_eq!(err.to_string(), format!("protocol: bad request tag {tag}"));
        }
        let err = decode_response(vec![5, 0, 0, 0, 0, 0, 0, 0, 0, 1]).unwrap_err();
        assert_eq!(err.to_string(), "protocol: bad response tag 5");
        let mut old_index = encode_response(&Response::Index(sample_index()));
        old_index[0] = 3;
        let err = decode_response(old_index).unwrap_err();
        assert_eq!(err.to_string(), "protocol: bad response tag 3");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = encode_request(&Request::List);
        body.push(0);
        assert!(decode_request(&body).is_err());
    }

    #[test]
    fn truncated_bodies_never_panic() {
        let bodies = [
            encode_request(&Request::Fetch { gen: 1, rank: 2, offset: 3, len: 4 }),
            encode_response(&Response::Index(sample_index())),
            encode_response(&Response::Data(vec![7; 9])),
            encode_response(&Response::Error {
                retryable: false,
                not_found: true,
                message: "x".into(),
            }),
        ];
        for body in &bodies {
            for cut in 0..body.len() {
                let _ = decode_request(&body[..cut]);
                let _ = decode_response(body[..cut].to_vec());
            }
        }
    }
}
