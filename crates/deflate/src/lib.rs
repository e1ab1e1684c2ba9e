//! # ckpt-deflate
//!
//! A from-scratch DEFLATE (RFC 1951) compressor and decompressor with
//! the gzip (RFC 1952) container.
//!
//! The paper pipes its formatted lossy output through gzip and uses gzip
//! as the lossless baseline of Figure 6. This crate provides it, built
//! from first principles as a reproduction substrate:
//!
//! * [`bitio`] — LSB-first bit streams (DEFLATE's bit order),
//! * [`huffman`] — canonical, length-limited Huffman codes (two-queue
//!   construction, package-merge where the limit binds) and a
//!   table-driven decoder,
//! * [`lz77`] — hash-chain match finder producing literal/match tokens,
//! * [`deflate`] — block encoder (stored, fixed and dynamic blocks, with
//!   per-block cost selection and blocks that end where the symbol
//!   statistics change),
//! * `inflate` — the decoder for all block types: one function that
//!   runs a stream to its end into a buffer its caller owns,
//! * [`gzip`] — container framing with CRC-32 and the one member decoder,
//! * [`chunked`] — a multi-member gzip container whose chunks compress
//!   and decompress in parallel,
//! * [`crc32`] — the checksum (its byte loop is `ckpt_simd::crc32`) and
//!   the log-time combine,
//! * [`frame`] — the workspace's one byte cursor, its two frame
//!   envelopes, and the table of every magic-tagged format.
//!
//! ## Quick use
//!
//! ```
//! use ckpt_deflate::{gzip, Level};
//! let data = b"mesh mesh mesh mesh mesh".repeat(10);
//! let packed = gzip::compress(&data, Level::Default);
//! assert!(packed.len() < data.len());
//! assert_eq!(gzip::decompress(&packed).unwrap(), data);
//! ```

#![forbid(unsafe_code)]

pub mod bitio;
pub mod chunked;
pub mod crc32;
pub mod deflate;
pub mod frame;
pub mod gzip;
pub mod huffman;
mod inflate;
pub mod lz77;

use std::fmt;

/// Compression effort. One value is left, and it names the one effort
/// the encoder has: lazy matching over 8 chain links, below `gzip -6`
/// effort and on checkpoint streams within 0.2% of its bytes at chain
/// 32 — the blocks that end where the statistics change pay for the
/// shallower search (DESIGN.md §11). The type stays so that every
/// caller's `level` argument keeps its signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Lazy matching over 8 chain links, with the noise gate, the
    /// entropy-costed block splits and zlib's `TOO_FAR` rule.
    Default,
}

/// Errors produced while decoding DEFLATE streams or containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeflateError {
    /// Bit stream ended inside a structure.
    UnexpectedEof,
    /// Reserved/invalid block type 0b11.
    BadBlockType,
    /// Stored block LEN/NLEN mismatch.
    BadStoredLength,
    /// An over-subscribed or invalid Huffman code description.
    BadHuffmanTable(&'static str),
    /// A decoded symbol was invalid in context.
    BadSymbol(u16),
    /// A match distance pointed before the start of output.
    BadDistance { dist: usize, avail: usize },
    /// Container magic/flags were wrong.
    BadContainer(&'static str),
    /// Stored checksum does not match the decompressed payload.
    ChecksumMismatch { stored: u32, computed: u32 },
    /// Stored size does not match the decompressed payload.
    SizeMismatch { stored: u32, computed: u32 },
    /// Decompressed output would exceed the caller's limit
    /// (decompression-bomb guard).
    OutputLimit { limit: usize },
}

impl fmt::Display for DeflateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeflateError::UnexpectedEof => write!(f, "unexpected end of stream"),
            DeflateError::BadBlockType => write!(f, "reserved block type"),
            DeflateError::BadStoredLength => write!(f, "stored block LEN/NLEN mismatch"),
            DeflateError::BadHuffmanTable(why) => write!(f, "bad huffman table: {why}"),
            DeflateError::BadSymbol(s) => write!(f, "invalid symbol {s}"),
            DeflateError::BadDistance { dist, avail } => {
                write!(f, "match distance {dist} exceeds available history {avail}")
            }
            DeflateError::BadContainer(why) => write!(f, "bad container: {why}"),
            DeflateError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            DeflateError::SizeMismatch { stored, computed } => {
                write!(f, "size mismatch: stored {stored}, computed {computed}")
            }
            DeflateError::OutputLimit { limit } => {
                write!(f, "decompressed output exceeds limit of {limit} bytes")
            }
        }
    }
}

impl std::error::Error for DeflateError {}

impl From<frame::FrameError> for DeflateError {
    fn from(e: frame::FrameError) -> Self {
        use frame::FrameError as F;
        match e {
            F::Truncated { .. } | F::LengthOverflow { .. } => DeflateError::UnexpectedEof,
            F::Checksum { stored, computed } => DeflateError::ChecksumMismatch { stored, computed },
            F::BadMagic { .. } => DeflateError::BadContainer("bad magic"),
            F::BadVersion { .. } => DeflateError::BadContainer("unsupported version"),
            F::ReservedNotZero => DeflateError::BadContainer("nonzero reserved header bytes"),
            F::TrailingBytes { .. } => DeflateError::BadContainer("trailing bytes"),
            F::BodyTooLarge { .. } => DeflateError::BadContainer("frame body exceeds its bound"),
            F::CountTooLarge { .. } => DeflateError::BadContainer("count exceeds the input"),
            F::StringTooLong { .. } | F::InvalidUtf8 => DeflateError::BadContainer("bad string"),
        }
    }
}

pub(crate) use frame::{u64_from_usize, usize_from_u32};

/// Compresses a raw DEFLATE stream (no container).
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    deflate::compress(data, level)
}

/// Decompresses a raw DEFLATE stream (no container).
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DeflateError> {
    let mut out = Vec::new();
    inflate::inflate_into(data, &mut out, usize::MAX)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_roundtrip() {
        let data = b"abcabcabcabc".to_vec();
        let packed = compress(&data, Level::Default);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn error_display() {
        let e = DeflateError::BadDistance { dist: 100, avail: 3 };
        assert!(e.to_string().contains("100"));
        let e = DeflateError::ChecksumMismatch { stored: 1, computed: 2 };
        assert!(e.to_string().contains("0x"));
    }
}

#[cfg(test)]
mod segtests;
