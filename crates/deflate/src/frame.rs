//! One byte cursor, one set of frame envelopes, one format table.
//!
//! Every magic-tagged format in the workspace is either a bespoke
//! layout read with the [`Reader`] below, or one of two envelopes
//! around a body (docs/FORMAT.md, "Envelopes and version policy"):
//!
//! * `header8` — `magic | version u8 | 3 zero bytes`
//!   ([`header8`] / [`Reader::expect_header8`]),
//! * `len | crc | body` — `u32 body_len | u32 crc32(body) | body`
//!   ([`Writer::put_len_crc_body`] / [`Reader::get_len_crc_body`] over
//!   slices, [`write_len_crc_body`] / [`read_len_crc_body`] over
//!   streams).
//!
//! `len | crc | body` takes the caller's `max_body` on encode *and* decode,
//! so a length the reader would refuse is never written, and the one
//! allocation a hostile length prefix could drive (the stream form's
//! body buffer) is bounded here.
//!
//! **Version policy, stated once:** a version byte other than the one
//! this build writes is the parser's ordinary reject
//! ([`FrameError::BadVersion`]) — never a best-effort read of a layout
//! it does not know.
//!
//! All reader paths are panic-free on arbitrary input (enforced by the
//! clippy lints below): out-of-range reads, length overflows, and bad
//! UTF-8 surface as [`FrameError`] values, never as panics.

// Decoder hardening (DESIGN.md §9): product code here is total on damaged bytes.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing, clippy::unwrap_used,
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::panic_in_result_fn, clippy::missing_panics_doc))]

use crate::crc32::{crc32, crc32_extend};
use std::fmt;
use std::io::{self, Read, Write};

/// Framing-level decode/encode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A read ran past the end of the buffer.
    Truncated { needed: usize, offset: usize, have: usize },
    /// A computed byte count overflowed `usize`.
    LengthOverflow { count: usize },
    /// `put_str` was handed a string longer than the u16 length prefix
    /// can represent.
    StringTooLong { len: usize },
    /// `expect_end` found unconsumed bytes.
    TrailingBytes { count: usize },
    /// A length-prefixed string field held invalid UTF-8.
    InvalidUtf8,
    /// A count field exceeds this platform's address space, or
    /// promises more elements than the remaining bytes can hold.
    CountTooLarge { count: u64 },
    /// The leading magic is not the expected format's.
    BadMagic { want: [u8; 4] },
    /// The version byte is not the one this build reads and writes.
    BadVersion { got: u8, want: u8 },
    /// A `header8` reserved byte is nonzero.
    ReservedNotZero,
    /// An envelope body exceeds the format's bound (checked on encode
    /// and, before any allocation, on decode).
    BodyTooLarge { len: usize, max: usize },
    /// An envelope's stored CRC-32 does not match its body.
    Checksum { stored: u32, computed: u32 },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, offset, have } => {
                write!(f, "truncated stream: need {needed} bytes at offset {offset}, have {have}")
            }
            FrameError::LengthOverflow { count } => {
                write!(f, "length overflow: {count} elements exceed the address space")
            }
            FrameError::StringTooLong { len } => {
                write!(f, "string of {len} bytes too long for u16 length prefix")
            }
            FrameError::TrailingBytes { count } => write!(f, "{count} trailing bytes"),
            FrameError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            FrameError::CountTooLarge { count } => {
                write!(f, "declared count {count} exceeds what the input can hold")
            }
            FrameError::BadMagic { want } => {
                write!(f, "bad magic: expected {:?}", String::from_utf8_lossy(want))
            }
            FrameError::BadVersion { got, want } => {
                write!(f, "unsupported version {got}, this build reads {want}")
            }
            FrameError::ReservedNotZero => write!(f, "nonzero reserved header bytes"),
            FrameError::BodyTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte bound")
            }
            FrameError::Checksum { stored, computed } => {
                write!(f, "frame CRC mismatch: stored {stored:08x}, computed {computed:08x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Lets `io::Error` serve as the error type of the stream envelope.
impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Converts a wire-read u64 length/count to `usize`, erroring instead
/// of truncating when the platform cannot represent it.
pub fn usize_len(v: u64) -> Result<usize, FrameError> {
    usize::try_from(v).map_err(|_| FrameError::CountTooLarge { count: v })
}

// Every target this workspace supports has at least 32-bit pointers, so
// u32 -> usize widening below is lossless.
const _USIZE_HOLDS_U32: () = assert!(usize::BITS >= 32);

/// Lossless `u32 -> usize` widening. The standard library provides no
/// `From` impl (16-bit targets exist in the abstract); the module-level
/// const assertion above pins the assumption this helper relies on.
#[inline]
#[expect(
    clippy::as_conversions,
    reason = "audited widening helper: u32 -> usize is lossless on every supported target; a \
              module-level const assertion pins usize::BITS >= 32, and all decoder u32->usize \
              conversions are routed through this one function"
)]
pub const fn usize_from_u32(v: u32) -> usize {
    v as usize
}

/// Lossless `usize -> u64` widening (no target has pointers wider than
/// 64 bits); the standard library provides no `From` impl.
#[inline]
#[expect(
    clippy::as_conversions,
    reason = "audited widening helper: usize -> u64 is lossless (no supported target has \
              pointers wider than 64 bits); all decoder usize->u64 conversions are routed \
              through this one function"
)]
pub const fn u64_from_usize(v: usize) -> u64 {
    v as u64
}

// ---------------------------------------------------------------- formats

/// Which envelope wraps a format's body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Envelope {
    /// A format-specific layout; only the cursor is shared.
    Bespoke,
    /// `u32 body_len | u32 crc32(body) | body`.
    LenCrcBody,
}

impl Envelope {
    /// The spelling docs/FORMAT.md uses for this envelope
    /// (`tests/format_doc.rs` requires it in every format's section).
    pub fn doc_name(self) -> &'static str {
        match self {
            Envelope::Bespoke => "bespoke",
            Envelope::LenCrcBody => "len | crc | body",
        }
    }
}

/// The facts about one magic-tagged format that more than its owner
/// needs: the owners read their constants from here, the corpus and
/// hostile-bytes tests iterate [`FORMATS`], and `tests/format_doc.rs`
/// holds docs/FORMAT.md to `magic`, `version`, `header8` and
/// `envelope`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// The four-byte tag, also the format's name. On the wire for
    /// every format but `SRV1`, whose frames are untagged.
    pub magic: [u8; 4],
    /// The version byte this build reads and writes; `0` for the two
    /// formats that carry none (`INC1`, `SRV1`).
    pub version: u8,
    /// Whether the file starts with the 8-byte `header8`.
    pub header8: bool,
    /// The envelope around the body.
    pub envelope: Envelope,
    /// Largest envelope body; `usize::MAX` for bespoke layouts, which
    /// bound their own allocations.
    pub max_body: usize,
}

impl Format {
    /// The magic as text.
    pub fn name(&self) -> &str {
        std::str::from_utf8(&self.magic).unwrap_or("????")
    }

    /// Bytes of a one-frame file that are not body: the `header8` if
    /// the format has one, and the envelope's own fields.
    fn framing_len(&self) -> u64 {
        let header = if self.header8 { 8 } else { 0 };
        header
            + match self.envelope {
                Envelope::Bespoke => 0,
                Envelope::LenCrcBody => 8,
            }
    }
}

const fn bespoke(magic: &[u8; 4], version: u8) -> Format {
    let envelope = Envelope::Bespoke;
    Format { magic: *magic, version, header8: false, envelope, max_body: usize::MAX }
}

/// Lossy wavelet container (`ckpt_core::codec`).
pub const WCK1: Format = bespoke(b"WCK1", 1);
/// Multi-variable checkpoint image (`ckpt_core::checkpoint`).
pub const CKPT: Format = bespoke(b"CKPT", 1);
/// Chunked multi-member gzip pack (`ckpt_deflate::chunked`).
pub const WPK1: Format = bespoke(b"WPK1", 1);
/// Dirty-page increment inside a gzip member, XOR words interleaved
/// (`ckpt_core::incremental`). Decode-only: no build writes it.
pub const INC1: Format = bespoke(b"INC1", 0);
/// Dirty-page increment inside a gzip member, XOR words as eight byte
/// planes (`ckpt_core::incremental`).
pub const INC2: Format = bespoke(b"INC2", 1);
/// Store manifest log: `header8`, then a run of records
/// (`ckpt_store::manifest`).
pub const CSM1: Format = Format {
    magic: *b"CSM1",
    version: 1,
    header8: true,
    envelope: Envelope::LenCrcBody,
    max_body: 1 << 16,
};
/// Manifest snapshot: `header8`, then one frame (`ckpt_store::manifest`).
pub const CSM2: Format = Format {
    magic: *b"CSM2",
    version: 1,
    header8: true,
    envelope: Envelope::LenCrcBody,
    max_body: 64 << 20,
};
/// Socket request/response frames (`ckpt_serve::proto`).
pub const SRV1: Format = Format {
    magic: *b"SRV1",
    version: 0,
    header8: false,
    envelope: Envelope::LenCrcBody,
    max_body: 64 << 20,
};

/// Every magic-tagged format in the workspace.
pub const FORMATS: [Format; 8] = [WCK1, CKPT, WPK1, INC1, INC2, CSM1, CSM2, SRV1];

// ----------------------------------------------------------------- writer

/// Append-only byte buffer with typed little-endian writers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sized buffer.
    pub fn with_capacity(cap: usize) -> Self {
        Writer { buf: Vec::with_capacity(cap) }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Bulk little-endian f64 write.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends `n` zero bytes and returns them, for a section the
    /// caller lays out in place.
    #[expect(clippy::indexing_slicing, reason = "encoder: `start` is the length before the resize")]
    pub fn put_region(&mut self, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        &mut self.buf[start..]
    }

    /// A length-prefixed UTF-8 string (u16 length). Errors if the
    /// string does not fit the prefix.
    pub fn put_str(&mut self, s: &str) -> Result<(), FrameError> {
        let len =
            u16::try_from(s.len()).map_err(|_| FrameError::StringTooLong { len: s.len() })?;
        self.put_u16(len);
        self.put_bytes(s.as_bytes());
        Ok(())
    }

    /// A collection length as a u32 count field. Counts that do not fit
    /// saturate, which every reader refuses ([`Reader::get_count`]
    /// bounds the count by the bytes that follow).
    pub fn put_count(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).unwrap_or(u32::MAX));
    }

    /// One `len | crc | body` frame.
    pub fn put_len_crc_body(&mut self, body: &[u8], max_body: usize) -> Result<(), FrameError> {
        self.put_bytes(&len_crc_prefix(body, max_body)?);
        self.put_bytes(body);
        Ok(())
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes and returns the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

// ----------------------------------------------------------------- reader

/// Checked little-endian reader over a byte slice. The scalar
/// accessors are `#[inline]`: the `INC1` read path and the codecs call
/// them per element from other crates.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// New reader at offset 0.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// New reader at offset `pos`; a `pos` past the end makes the first
    /// read fail, like any other truncation.
    pub fn at(data: &'a [u8], pos: usize) -> Self {
        Reader { data, pos }
    }

    /// Offset of the next unread byte.
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::LengthOverflow { count: n })?;
        let s = self.data.get(self.pos..end).ok_or(FrameError::Truncated {
            needed: n,
            offset: self.pos,
            have: self.data.len().saturating_sub(self.pos),
        })?;
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes as a fixed array.
    #[inline]
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, FrameError> {
        let [b] = self.get_array::<1>()?;
        Ok(b)
    }

    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.get_array()?))
    }

    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.get_array()?))
    }

    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.get_array()?))
    }

    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        self.take(n)
    }

    /// Bulk f64 read.
    pub fn get_f64_slice(&mut self, n: usize) -> Result<Vec<f64>, FrameError> {
        let bytes = n.checked_mul(8).ok_or(FrameError::LengthOverflow { count: n })?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                let mut a = [0u8; 8];
                a.copy_from_slice(c);
                f64::from_le_bytes(a)
            })
            .collect())
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, FrameError> {
        let len = usize::from(self.get_u16()?);
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| FrameError::InvalidUtf8)
    }

    /// A u32 element count, refused before the caller allocates for it
    /// when the remaining bytes cannot hold that many elements of at
    /// least `min_elem_bytes` each.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, FrameError> {
        let raw = self.get_u32()?;
        let too_large = FrameError::CountTooLarge { count: u64::from(raw) };
        let count = usize::try_from(raw).map_err(|_| too_large.clone())?;
        match count.checked_mul(min_elem_bytes) {
            Some(need) if need <= self.remaining() => Ok(count),
            _ => Err(too_large),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// Errors unless the stream is fully consumed (guards against
    /// trailing garbage).
    pub fn expect_end(&self) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::TrailingBytes { count: self.remaining() });
        }
        Ok(())
    }

    /// Consumes `format`'s four-byte magic.
    pub fn expect_magic(&mut self, format: &Format) -> Result<(), FrameError> {
        if self.get_array::<4>()? != format.magic {
            return Err(FrameError::BadMagic { want: format.magic });
        }
        Ok(())
    }

    /// Consumes `format`'s version byte (the version policy in the
    /// module docs: anything else is rejected).
    pub fn expect_version(&mut self, format: &Format) -> Result<(), FrameError> {
        let got = self.get_u8()?;
        if got != format.version {
            return Err(FrameError::BadVersion { got, want: format.version });
        }
        Ok(())
    }

    /// Consumes a `header8`: `format`'s magic and version, then three
    /// zero bytes.
    pub fn expect_header8(&mut self, format: &Format) -> Result<(), FrameError> {
        self.expect_magic(format)?;
        self.expect_version(format)?;
        if self.get_array::<3>()? != [0u8; 3] {
            return Err(FrameError::ReservedNotZero);
        }
        Ok(())
    }

    /// Consumes one `len | crc | body` frame and returns its verified
    /// body.
    pub fn get_len_crc_body(&mut self, max_body: usize) -> Result<&'a [u8], FrameError> {
        let (len, stored) = split_len_crc_prefix(self.get_array()?, max_body)?;
        let body = self.take(len)?;
        check_crc(stored, body)?;
        Ok(body)
    }
}

// -------------------------------------------------------------- envelopes

/// The 8-byte file header: `format`'s magic and version, then three
/// reserved zero bytes.
pub fn header8(format: &Format) -> [u8; 8] {
    let [a, b, c, d] = format.magic;
    [a, b, c, d, format.version, 0, 0, 0]
}

fn check_crc(stored: u32, body: &[u8]) -> Result<(), FrameError> {
    let computed = crc32(body);
    if stored != computed {
        return Err(FrameError::Checksum { stored, computed });
    }
    Ok(())
}

/// The `len | crc` prefix for `body`, refusing bodies above `max_body`.
fn len_crc_prefix(body: &[u8], max_body: usize) -> Result<[u8; 8], FrameError> {
    len_crc_prefix_of(body.len(), crc32(body), max_body)
}

/// The `len | crc` prefix of a `len`-byte body whose CRC-32 is `crc`.
fn len_crc_prefix_of(len: usize, crc: u32, max_body: usize) -> Result<[u8; 8], FrameError> {
    let too_large = FrameError::BodyTooLarge { len, max: max_body };
    if len > max_body {
        return Err(too_large);
    }
    let [l0, l1, l2, l3] = u32::try_from(len).map_err(|_| too_large)?.to_le_bytes();
    let [c0, c1, c2, c3] = crc.to_le_bytes();
    Ok([l0, l1, l2, l3, c0, c1, c2, c3])
}

/// Splits a `len | crc` prefix into `(body_len, stored_crc)`, refusing
/// lengths above `max_body` — before anything is allocated for them.
fn split_len_crc_prefix(prefix: [u8; 8], max_body: usize) -> Result<(usize, u32), FrameError> {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = prefix;
    let len = usize_len(u64::from(u32::from_le_bytes([l0, l1, l2, l3])))?;
    if len > max_body {
        return Err(FrameError::BodyTooLarge { len, max: max_body });
    }
    Ok((len, u32::from_le_bytes([c0, c1, c2, c3])))
}

/// Reads a whole single-frame file of `format` (a snapshot).
/// A file longer than any the format can fill is
/// refused on its length, before a byte of it is read, so the parser's
/// `max_body` bound also bounds what reaching the parser costs; the
/// read itself is capped the same way in case the file grows.
pub fn read_file_bounded(path: &std::path::Path, format: &Format) -> io::Result<Vec<u8>> {
    let file = std::fs::File::open(path)?;
    let max_len = u64_from_usize(format.max_body).saturating_add(format.framing_len());
    let len = file.metadata()?.len();
    if len > max_len {
        let body = usize::try_from(len - format.framing_len()).unwrap_or(usize::MAX);
        return Err(FrameError::BodyTooLarge { len: body, max: format.max_body }.into());
    }
    let mut bytes = Vec::new();
    file.take(max_len).read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Writes one `len | crc | body` frame to `w` and flushes it.
pub fn write_len_crc_body<W, E>(w: &mut W, body: &[u8], max_body: usize) -> Result<(), E>
where
    W: Write,
    E: From<io::Error> + From<FrameError>,
{
    write_len_crc_parts(w, &[], body, max_body)
}

/// Writes one `len | crc | body` frame whose body is `head` then
/// `tail`, and flushes it. The bytes are
/// [`write_len_crc_body`]'s of the joined body, but the parts are never
/// joined: the CRC runs on from `head` into `tail`, and `tail` goes to
/// `w` where it lies.
pub fn write_len_crc_parts<W, E>(
    w: &mut W,
    head: &[u8],
    tail: &[u8],
    max_body: usize,
) -> Result<(), E>
where
    W: Write,
    E: From<io::Error> + From<FrameError>,
{
    let len = head
        .len()
        .checked_add(tail.len())
        .ok_or(FrameError::LengthOverflow { count: tail.len() })?;
    let prefix = len_crc_prefix_of(len, crc32_extend(crc32(head), tail), max_body)?;
    let mut first = Vec::with_capacity(prefix.len() + head.len());
    first.extend_from_slice(&prefix);
    first.extend_from_slice(head);
    w.write_all(&first)?;
    w.write_all(tail)?;
    w.flush()?;
    Ok(())
}

/// The most [`read_len_crc_body`] reserves before a body's bytes
/// arrive; past it the buffer at most doubles with what has come in.
const FIRST_RESERVE: usize = 1 << 20;

/// Reads one `len | crc | body` frame from `r`. `Ok(None)` is a clean
/// end of stream (no prefix byte arrived); a torn prefix or body, a
/// length above `max_body` and a CRC mismatch are errors. The body
/// buffer is the only allocation, made after the bound check; it is
/// filled unzeroed, and it grows with the bytes that arrive, not with
/// the length the prefix claims.
pub fn read_len_crc_body<R, E>(r: &mut R, max_body: usize) -> Result<Option<Vec<u8>>, E>
where
    R: Read,
    E: From<io::Error> + From<FrameError>,
{
    let mut prefix = [0u8; 8];
    let mut got = 0usize;
    while got < prefix.len() {
        let n = r.read(prefix.get_mut(got..).unwrap_or_default())?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(FrameError::Truncated { needed: prefix.len(), offset: 0, have: got }.into());
        }
        got += n;
    }
    let (len, stored) = split_len_crc_prefix(prefix, max_body)?;
    let mut body = Vec::with_capacity(len.min(FIRST_RESERVE));
    while body.len() < len {
        if body.len() == body.capacity() {
            body.reserve_exact((len - body.len()).min(body.len()));
        }
        let room = body.capacity().min(len) - body.len();
        let got = r.by_ref().take(u64_from_usize(room)).read_to_end(&mut body)?;
        if got < room {
            let have = body.len();
            return Err(FrameError::Truncated { needed: len, offset: prefix.len(), have }.into());
        }
    }
    check_crc(stored, &body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_file_longer_than_its_format_allows_is_refused_unread() {
        const TINY: Format = Format { max_body: 8, ..CSM2 };
        let path = std::env::temp_dir().join(format!("ckpt-frame-bounded-{}", std::process::id()));
        let longest = [header8(&TINY).as_slice(), &[0u8; 16]].concat();
        std::fs::write(&path, &longest).unwrap();
        assert_eq!(read_file_bounded(&path, &TINY).unwrap(), longest, "the longest valid file reads");

        // A sparse 1 GiB file: reading it would cost a 1 GiB buffer.
        // The refusal names the bound, which only the length check
        // ahead of the read can know was crossed.
        std::fs::File::create(&path).unwrap().set_len(1 << 30).unwrap();
        let err = read_file_bounded(&path, &TINY).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds the 8-byte bound"), "{err}");

        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_file_bounded(&path, &TINY).unwrap_err().kind(), io::ErrorKind::NotFound);
    }

    /// Serves `data` at most `step` bytes a read and records the
    /// largest buffer it is handed.
    struct Recording<'a> {
        data: &'a [u8],
        step: usize,
        largest: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            let n = buf.len().min(self.data.len()).min(self.step);
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_claimed_body_length_reserves_what_has_arrived_not_the_claim() {
        // A 64 MiB claim followed by 29 bytes: the reader must never be
        // handed more than the first mebibyte's buffer.
        let mut input = (64u32 << 20).to_le_bytes().to_vec();
        input.extend_from_slice(&0u32.to_le_bytes());
        input.extend_from_slice(&[7u8; 29]);
        let mut r = Recording { data: &input, step: usize::MAX, largest: 0 };
        let err = read_len_crc_body::<_, io::Error>(&mut r, 64 << 20).unwrap_err();
        assert!(r.largest <= 1 << 20, "handed a {}-byte buffer", r.largest);
        assert!(err.to_string().contains("need 67108864 bytes at offset 8, have 29"), "{err}");

        // A body past the first mebibyte, trickling in, reads whole.
        let body: Vec<u8> = (0..3u32 << 20).map(|i| (i % 253) as u8).collect();
        let mut wire = Vec::new();
        write_len_crc_body::<_, io::Error>(&mut wire, &body, 64 << 20).unwrap();
        let mut r = Recording { data: &wire, step: 65_536, largest: 0 };
        let got = read_len_crc_body::<_, io::Error>(&mut r, 64 << 20).unwrap().unwrap();
        assert!(got == body, "the body read back differs");
    }

    #[test]
    fn a_frame_written_in_parts_is_the_frame_of_the_joined_body() {
        let cases: [(&[u8], &[u8]); 4] =
            [(b"", b""), (b"\x04abc", b""), (b"", b"xyz"), (b"h", b"tail")];
        for (head, tail) in cases {
            let (mut parts, mut joined) = (Vec::new(), Vec::new());
            write_len_crc_parts::<_, io::Error>(&mut parts, head, tail, 64).unwrap();
            write_len_crc_body::<_, io::Error>(&mut joined, &[head, tail].concat(), 64).unwrap();
            assert_eq!(parts, joined);
        }
        let err = write_len_crc_parts::<_, io::Error>(&mut Vec::new(), b"ab", b"c", 2).unwrap_err();
        assert!(err.to_string().contains("exceeds the 2-byte bound"), "{err}");
    }

    #[test]
    fn all_types_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_u64(0x0102030405060708);
        w.put_str("temperature").unwrap();
        w.put_f64_slice(&[1.5, -2.5]);
        w.put_bytes(&[9, 9, 9]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0102030405060708);
        assert_eq!(r.get_str().unwrap(), "temperature");
        assert_eq!(r.get_f64_slice(2).unwrap(), vec![1.5, -2.5]);
        assert_eq!(r.get_bytes(3).unwrap(), &[9, 9, 9]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_detected_with_offset() {
        let mut w = Writer::new();
        w.put_u32(7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..2]);
        let err = r.get_u32().unwrap_err();
        assert_eq!(err, FrameError::Truncated { needed: 4, offset: 0, have: 2 });
        assert!(err.to_string().contains("truncated"));
        // A start past the end is a truncation too, not a panic.
        assert!(matches!(Reader::at(&bytes, 9).get_u8(), Err(FrameError::Truncated { .. })));
    }

    #[test]
    fn trailing_garbage_detected() {
        let bytes = [1u8, 2];
        let mut r = Reader::new(&bytes);
        r.get_u8().unwrap();
        assert_eq!(r.expect_end(), Err(FrameError::TrailingBytes { count: 1 }));
        r.get_u8().unwrap();
        r.expect_end().unwrap();
    }

    #[test]
    fn nan_and_infinity_preserved() {
        let mut w = Writer::new();
        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, -1234.5678];
        w.put_f64_slice(&values);
        let bytes = w.into_bytes();
        let back = Reader::new(&bytes).get_f64_slice(values.len()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.put_u16(2);
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).get_str(), Err(FrameError::InvalidUtf8));
    }

    #[test]
    fn oversized_string_rejected_at_write() {
        let huge = "x".repeat(usize::from(u16::MAX) + 1);
        assert_eq!(
            Writer::new().put_str(&huge),
            Err(FrameError::StringTooLong { len: huge.len() })
        );
    }

    #[test]
    fn huge_counts_are_errors_not_allocations() {
        let mut r = Reader::new(&[0u8; 16]);
        assert!(matches!(
            r.get_f64_slice(usize::MAX / 4),
            Err(FrameError::LengthOverflow { .. })
        ));
        // u32::MAX elements of 12 bytes in a 16-byte input.
        let mut w = Writer::new();
        w.put_count(usize::MAX);
        w.put_bytes(&[0u8; 12]);
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes).get_count(12),
            Err(FrameError::CountTooLarge { count: u64::from(u32::MAX) })
        );
        // A count the remaining bytes do cover is accepted.
        let mut w = Writer::new();
        w.put_count(1);
        w.put_bytes(&[0u8; 12]);
        assert_eq!(Reader::new(&w.into_bytes()).get_count(12), Ok(1));
    }

    #[test]
    fn header8_roundtrips_and_rejects_each_field() {
        let good = header8(&CSM2);
        assert_eq!(&good, b"CSM2\x01\0\0\0");
        let mut r = Reader::new(&good);
        r.expect_header8(&CSM2).unwrap();
        r.expect_end().unwrap();

        assert_eq!(
            Reader::new(&good).expect_header8(&CSM1),
            Err(FrameError::BadMagic { want: *b"CSM1" })
        );
        let mut bad = good;
        bad[4] = 2;
        assert_eq!(
            Reader::new(&bad).expect_header8(&CSM2),
            Err(FrameError::BadVersion { got: 2, want: 1 })
        );
        for at in 5..8 {
            let mut bad = good;
            bad[at] = 1;
            assert_eq!(Reader::new(&bad).expect_header8(&CSM2), Err(FrameError::ReservedNotZero));
        }
        for cut in 0..good.len() {
            assert!(matches!(
                Reader::new(&good[..cut]).expect_header8(&CSM2),
                Err(FrameError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn len_crc_body_slice_form_enforces_the_bound_both_ways() {
        let body = b"sixteen byte body";
        let mut w = Writer::new();
        assert_eq!(
            w.put_len_crc_body(body, body.len() - 1),
            Err(FrameError::BodyTooLarge { len: body.len(), max: body.len() - 1 })
        );
        assert!(w.is_empty(), "a refused frame writes nothing");
        w.put_len_crc_body(body, body.len()).unwrap();
        w.put_u8(0xEE); // the next field, not part of the frame
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_len_crc_body(body.len()).unwrap(), body);
        assert_eq!(r.get_u8().unwrap(), 0xEE);
        assert_eq!(
            Reader::new(&bytes).get_len_crc_body(body.len() - 1),
            Err(FrameError::BodyTooLarge { len: body.len(), max: body.len() - 1 })
        );
        let mut bad = bytes.clone();
        bad[10] ^= 1;
        assert!(matches!(
            Reader::new(&bad).get_len_crc_body(64),
            Err(FrameError::Checksum { .. })
        ));
        for cut in 0..bytes.len() - 1 {
            assert!(matches!(
                Reader::new(&bytes[..cut]).get_len_crc_body(64),
                Err(FrameError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn len_crc_body_stream_form_tells_clean_eof_from_a_torn_prefix() {
        let mut wire = Vec::new();
        write_len_crc_body::<_, io::Error>(&mut wire, b"first", 64).unwrap();
        write_len_crc_body::<_, io::Error>(&mut wire, b"", 64).unwrap();
        let err = write_len_crc_body::<_, io::Error>(&mut wire, &[0u8; 65], 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(wire.len(), 8 + 5 + 8, "a refused frame writes nothing");

        let mut r = wire.as_slice();
        let read = |r: &mut &[u8], max| read_len_crc_body::<_, io::Error>(r, max);
        assert_eq!(read(&mut r, 64).unwrap().unwrap(), b"first");
        assert_eq!(read(&mut r, 64).unwrap().unwrap(), b"");
        assert!(read(&mut r, 64).unwrap().is_none(), "clean EOF at a frame boundary");

        // Every strict prefix of one frame is torn, except the empty one.
        let frame = &wire[..13];
        assert!(read(&mut &frame[..0], 64).unwrap().is_none());
        for cut in 1..frame.len() {
            assert!(read(&mut &frame[..cut], 64).is_err(), "prefix of {cut} bytes");
        }
        // The decode-side bound, and the CRC.
        assert!(read(&mut &frame[..], 4).is_err());
        let mut bad = frame.to_vec();
        bad[9] ^= 1;
        assert!(read(&mut bad.as_slice(), 64).is_err());
    }

    #[test]
    fn a_huge_claimed_length_is_refused_before_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let err = read_len_crc_body::<_, io::Error>(&mut wire.as_slice(), SRV1.max_body);
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(matches!(
            Reader::new(&wire).get_len_crc_body(CSM2.max_body),
            Err(FrameError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn the_format_table_is_consistent() {
        for (i, f) in FORMATS.iter().enumerate() {
            assert_eq!(f.name().as_bytes(), f.magic);
            assert!(FORMATS.iter().skip(i + 1).all(|g| g.magic != f.magic), "{}", f.name());
            // Envelope formats state a real bound; bespoke ones none.
            assert_eq!(f.envelope == Envelope::Bespoke, f.max_body == usize::MAX, "{}", f.name());
            // header8 carries a version byte, so it needs a version.
            assert!(!f.header8 || f.version != 0, "{}", f.name());
        }
    }
}
