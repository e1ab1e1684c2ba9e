//! The DEFLATE decoder (RFC 1951): one engine under every reader.
//!
//! [`ResumableInflate`] decodes a raw DEFLATE stream to its end in one
//! call, [`ResumableInflate::finish`], and hands its buffer over as the
//! output: [`crate::inflate::inflate`], every gzip member and every
//! `WPK1` slot are that call. It keeps a running CRC-32 of what it
//! decodes and the input position the stream ends at, so a gzip
//! member's trailer is checked without a second pass over the output.
//! (The engine no longer resumes; it kept its name, EXPERIMENTS.md
//! pass 16.)

// Decoder hardening (DESIGN.md §9): product code here is total on damaged bytes.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing, clippy::unwrap_used,
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::panic_in_result_fn, clippy::missing_panics_doc))]

use crate::bitio::BitReader;
use crate::crc32::crc32_extend;
use crate::deflate::{DIST_TABLE, LENGTH_TABLE};
use crate::huffman::Decoder;
use crate::inflate::{fixed_decoders, read_dynamic_lengths};
use crate::DeflateError;

/// Where the engine is inside the block structure.
#[derive(Debug, Default)]
enum Block {
    /// Between blocks: the next bits are a BFINAL/BTYPE header.
    #[default]
    Boundary,
    /// Inside a stored block with `remaining` raw bytes left to copy.
    Stored { remaining: u32 },
    /// Inside a fixed-Huffman block (RFC 1951 static code lengths).
    Fixed,
    /// Inside a dynamic-Huffman block with these decode tables.
    Dynamic { lit: Decoder, dist: Decoder },
}

impl Block {
    /// A dynamic block's state, its tables built from the code lengths
    /// its header carried.
    fn dynamic(lit_lens: Vec<u8>, dist_lens: Vec<u8>) -> Result<Block, DeflateError> {
        let (lit, dist) = (Decoder::from_lengths(&lit_lens)?, Decoder::from_lengths(&dist_lens)?);
        Ok(Block::Dynamic { lit, dist })
    }
}

/// The DEFLATE decoder: block state, bit position, the output decoded
/// so far and its running CRC-32.
#[derive(Debug, Default)]
pub struct ResumableInflate {
    /// Bit offset into the DEFLATE stream of the next unread bit.
    bit_pos: u64,
    block: Block,
    /// BFINAL was set on the block currently being (or just) decoded.
    final_block: bool,
    /// The final block finished: the stream is fully decoded.
    done: bool,
    /// Everything decoded so far: the LZ77 history back-references
    /// resolve against, and the buffer [`ResumableInflate::finish`]
    /// hands over as the output.
    window: Vec<u8>,
    /// CRC-32 of all output so far (finalized form).
    crc: u32,
}

/// A stream decoded to its end by [`ResumableInflate::finish`].
#[derive(Debug)]
pub struct Inflated {
    /// Everything the call decoded.
    pub bytes: Vec<u8>,
    /// CRC-32 of the stream's whole output.
    pub crc: u32,
    /// Input bytes the stream occupied, the final partial byte
    /// included: where a gzip member's trailer begins.
    pub consumed: usize,
}

impl ResumableInflate {
    /// Fresh engine positioned at the start of a DEFLATE stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the engine to the end of the stream and hands its buffer
    /// over as the output, so a fresh engine's bytes are never copied.
    /// Fails with [`DeflateError::OutputLimit`] once the call has
    /// produced more than `max_output` bytes — the decompression-bomb
    /// guard for streams from untrusted storage (DEFLATE expands up to
    /// ~1032×, so a small checkpoint file can claim gigabytes).
    pub fn finish(mut self, data: &[u8], max_output: usize) -> Result<Inflated, DeflateError> {
        let from = self.window.len();
        self.window.reserve(data.len().saturating_mul(3).min(max_output).min(1 << 24));
        self.advance(data, from.saturating_add(max_output).saturating_add(1))?;
        if !self.done {
            return Err(DeflateError::OutputLimit { limit: max_output });
        }
        self.window.drain(..from);
        let consumed = usize::try_from(self.bit_pos.div_ceil(8)).unwrap_or(usize::MAX);
        Ok(Inflated { consumed, crc: self.crc, bytes: self.window })
    }

    /// Decodes from the saved bit position until the window holds
    /// `stop_len` bytes or the stream ends — the crate's one
    /// BFINAL/BTYPE walk — then folds what it appended into the CRC.
    fn advance(&mut self, data: &[u8], stop_len: usize) -> Result<(), DeflateError> {
        if self.done {
            return Ok(());
        }
        let start_byte = usize::try_from(self.bit_pos / 8).map_err(|_| DeflateError::UnexpectedEof)?;
        let mut r = BitReader::new(data.get(start_byte..).ok_or(DeflateError::UnexpectedEof)?);
        r.read_bits(u32::try_from(self.bit_pos % 8).unwrap_or(0))?;
        let from = self.window.len();
        while !self.done && self.window.len() < stop_len {
            match &mut self.block {
                Block::Boundary if self.final_block => self.done = true,
                Block::Boundary => {
                    self.final_block = r.read_bits(1)? == 1;
                    self.block = match r.read_bits(2)? {
                        0 => {
                            r.align_byte();
                            let len = r.read_bits(16)?;
                            if len ^ r.read_bits(16)? != 0xFFFF {
                                return Err(DeflateError::BadStoredLength);
                            }
                            // In range by the 16-bit read.
                            Block::Stored { remaining: u32::try_from(len).unwrap_or(0) }
                        }
                        1 => Block::Fixed,
                        2 => {
                            let (lit_lens, dist_lens) = read_dynamic_lengths(&mut r)?;
                            Block::dynamic(lit_lens, dist_lens)?
                        }
                        _ => return Err(DeflateError::BadBlockType),
                    };
                }
                Block::Stored { remaining } => {
                    let need = stop_len - self.window.len();
                    let take = need.min(crate::usize_from_u32(*remaining));
                    r.read_bytes(take, &mut self.window)?;
                    // `take <= remaining` so the subtraction is exact.
                    *remaining -= u32::try_from(take).unwrap_or(0);
                    if *remaining == 0 {
                        self.block = Block::Boundary;
                    }
                }
                coded => {
                    let (lit, dist) = match coded {
                        Block::Dynamic { lit, dist, .. } => (&*lit, &*dist),
                        _ => fixed_decoders()?,
                    };
                    if decode_symbols(&mut r, lit, dist, &mut self.window, stop_len)? {
                        self.block = Block::Boundary;
                    }
                }
            }
        }
        self.bit_pos = crate::u64_from_usize(start_byte) * 8 + r.bit_position();
        let produced = self.window.get(from..).unwrap_or_default();
        self.crc = crc32_extend(self.crc, produced);
        Ok(())
    }
}

/// Decodes literal/match symbols onto the end of `window` until
/// end-of-block (returns `true`) or `window` reaches `stop_len`
/// (returns `false`) — the crate's one symbol loop. Back-references
/// resolve against `window`, which holds the trailing output — at
/// least 32 KiB of it whenever more than that exists, so every valid
/// distance is in range.
fn decode_symbols(
    r: &mut BitReader<'_>,
    lit: &Decoder,
    dist: &Decoder,
    window: &mut Vec<u8>,
    stop_len: usize,
) -> Result<bool, DeflateError> {
    while window.len() < stop_len {
        let sym = lit.read(r)?;
        match sym {
            0..=255 => {
                // In range by the match arm.
                window.push(u8::try_from(sym).unwrap_or(0));
            }
            256 => return Ok(true),
            257..=285 => {
                let (base, extra) = LENGTH_TABLE
                    .get(usize::from(sym) - 257)
                    .copied()
                    .ok_or(DeflateError::BadSymbol(sym))?;
                let len = usize::from(base) + r.read_bits_usize(u32::from(extra))?;
                let dsym = dist.read(r)?;
                let (dbase, dextra) = DIST_TABLE
                    .get(usize::from(dsym))
                    .copied()
                    .ok_or(DeflateError::BadSymbol(dsym))?;
                let d = usize::from(dbase) + r.read_bits_usize(u32::from(dextra))?;
                if d == 0 || d > window.len() {
                    return Err(DeflateError::BadDistance { dist: d, avail: window.len() });
                }
                // Chunked copy: each pass appends up to the whole span
                // available so far, so an overlapping match (dist <
                // len) doubles the replicated region per pass instead
                // of copying byte-by-byte. `take <= window.len() -
                // start` keeps every source range in bounds.
                let start = window.len() - d;
                let mut copied = 0usize;
                while copied < len {
                    let avail = window.len() - start;
                    let take = (len - copied).min(avail);
                    window.extend_from_within(start..start + take);
                    copied += take;
                }
            }
            s => return Err(DeflateError::BadSymbol(s)),
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32::crc32;
    use crate::{compress, Level};
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48 })]

        /// Run to the end of the stream, the engine hands back the input,
        /// its CRC-32, and the input position the stream ends at.
        /// Repeating the seed past 32 KiB puts long-range matches in the
        /// stream.
        #[test]
        fn finish_returns_the_input_its_crc_and_where_the_stream_ends(
            seed in pvec(any::<u8>(), 0..12_000),
            reps in 1usize..6,
        ) {
            let data = seed.repeat(reps);
            for level in [Level::Store, Level::Fast, Level::Default] {
                let stream = compress(&data, level);
                let whole = ResumableInflate::new().finish(&stream, data.len()).unwrap();
                prop_assert_eq!(&whole.bytes, &data, "{:?}", level);
                prop_assert_eq!(whole.crc, crc32(&data));
                prop_assert_eq!(whole.consumed, stream.len());
            }
        }
    }
}
