//! The DEFLATE decoder (RFC 1951): one resumable engine under every
//! reader.
//!
//! [`ResumableInflate`] decodes a raw DEFLATE stream in steps and can
//! serialize its complete state into a versioned `ICK1` blob (see
//! docs/FORMAT.md) at any step boundary: the exact bit position, the
//! active block's Huffman code lengths (tables are rebuilt from
//! lengths on restore), the 32 KiB LZ77 window, the running CRC-32 and
//! the output offset. A restore killed mid-stream resumes from the
//! last blob instead of re-inflating from byte zero — the design the
//! store's `ckpt store restore --resume` path is built on. A one-shot
//! decode ([`crate::inflate::inflate`], every gzip member) is the same
//! engine run to the end of the stream by [`ResumableInflate::finish`],
//! which hands its buffer over as the output.
//!
//! Safe checkpoint points are symbol boundaries: the engine only stops
//! between literals/matches, between stored-block chunks, or at block
//! boundaries, so a checkpoint never splits a Huffman code.

use crate::bitio::BitReader;
use crate::crc32::crc32_extend;
use crate::deflate::{DIST_TABLE, LENGTH_TABLE};
use crate::frame::{self, Reader, Writer, ICK1};
use crate::huffman::Decoder;
use crate::inflate::{fixed_decoders, read_dynamic_lengths};
use crate::DeflateError;

/// DEFLATE's maximum back-reference distance: the window the engine
/// must retain between steps.
pub const WINDOW_BYTES: usize = 32 * 1024;

/// Flag bits in the blob header.
const FLAG_DONE: u8 = 1;
const FLAG_FINAL_BLOCK: u8 = 2;

/// Where the engine is inside the block structure. Everything needed
/// to re-enter a block is here — a dynamic block's decode tables are
/// derived state, rebuilt from its code lengths on restore.
#[derive(Debug, Default)]
enum Block {
    /// Between blocks: the next bits are a BFINAL/BTYPE header.
    #[default]
    Boundary,
    /// Inside a stored block with `remaining` raw bytes left to copy.
    Stored { remaining: u32 },
    /// Inside a fixed-Huffman block (RFC 1951 static code lengths).
    Fixed,
    /// Inside a dynamic-Huffman block with these code lengths.
    Dynamic { lit_lens: Vec<u8>, dist_lens: Vec<u8>, lit: Decoder, dist: Decoder },
}

impl Block {
    fn dynamic(lit_lens: Vec<u8>, dist_lens: Vec<u8>) -> Result<Block, DeflateError> {
        let (lit, dist) = (Decoder::from_lengths(&lit_lens)?, Decoder::from_lengths(&dist_lens)?);
        Ok(Block::Dynamic { lit_lens, dist_lens, lit, dist })
    }
}

/// Incremental DEFLATE decoder with serializable state.
#[derive(Debug, Default)]
pub struct ResumableInflate {
    /// Absolute bit offset into the DEFLATE stream of the next unread
    /// bit. Always a symbol boundary between steps.
    bit_pos: u64,
    block: Block,
    /// BFINAL was set on the block currently being (or just) decoded.
    final_block: bool,
    /// The final block finished: the stream is fully decoded.
    done: bool,
    /// Trailing `min(out_len, 32 KiB)` of the output — the LZ77 match
    /// window. A step decodes onto its end and trims it back on
    /// return; [`ResumableInflate::finish`] never trims, so the buffer
    /// it hands over is the whole output.
    window: Vec<u8>,
    /// Total bytes decoded so far.
    out_len: u64,
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

    /// True once the final block has fully decoded.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Total bytes produced so far.
    pub fn output_len(&self) -> u64 {
        self.out_len
    }

    /// CRC-32 over every byte produced so far.
    pub fn output_crc(&self) -> u32 {
        self.crc
    }

    /// Input bytes read so far, a partly read byte included: once the
    /// stream is done, where what follows it (a gzip trailer) begins.
    pub fn bytes_consumed(&self) -> usize {
        usize::try_from(self.bit_pos.div_ceil(8)).unwrap_or(usize::MAX)
    }

    /// Decodes from `data` (the complete DEFLATE stream, or any slice
    /// extending at least to where this step stops) until at least
    /// `min_out` new bytes were produced or the stream ends, appending
    /// them to `out`. Returns `true` once the stream is fully decoded.
    ///
    /// `data` must always be the same stream across steps — the engine
    /// seeks to its saved bit position each call. Output per step is
    /// bounded by `min_out` plus one maximal match (258 bytes) or one
    /// stored-chunk granule, so callers control memory by choosing
    /// `min_out`.
    pub fn inflate_step(
        &mut self,
        data: &[u8],
        out: &mut Vec<u8>,
        min_out: usize,
    ) -> Result<bool, DeflateError> {
        let from = self.window.len();
        self.advance(data, from.saturating_add(min_out.max(1)))?;
        out.extend_from_slice(self.window.get(from..).unwrap_or_default());
        let cut = self.window.len().saturating_sub(WINDOW_BYTES);
        self.window.drain(..cut);
        Ok(self.done)
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
        Ok(Inflated { consumed: self.bytes_consumed(), crc: self.crc, bytes: self.window })
    }

    /// Decodes from the saved bit position until the window holds
    /// `stop_len` bytes or the stream ends — the crate's one
    /// BFINAL/BTYPE walk — then books what it appended into the output
    /// length and CRC.
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
        self.out_len += crate::u64_from_usize(produced.len());
        Ok(())
    }

    /// Serializes the engine into an `ICK1` blob (layout in docs/FORMAT.md).
    /// Call only between steps — the window invariant
    /// (`len == min(out_len, 32 KiB)`) holds exactly there.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut b = Writer::with_capacity(40 + self.window.len() + 320);
        b.put_bytes(&ICK1.magic);
        b.put_u8(ICK1.version);
        let mut flags = 0u8;
        if self.done {
            flags |= FLAG_DONE;
        }
        if self.final_block {
            flags |= FLAG_FINAL_BLOCK;
        }
        b.put_u8(flags);
        b.put_u64(self.bit_pos);
        b.put_u64(self.out_len);
        b.put_u32(self.crc);
        match &self.block {
            Block::Boundary => b.put_u8(0),
            Block::Stored { remaining } => {
                b.put_u8(1);
                b.put_u32(*remaining);
            }
            Block::Fixed => b.put_u8(2),
            Block::Dynamic { lit_lens, dist_lens, .. } => {
                b.put_u8(3);
                // Lengths are bounded (<= 286 / <= 30) by the header
                // parser, so the u16 conversions cannot truncate; a
                // zero fallback would be rejected on restore anyway.
                b.put_u16(u16::try_from(lit_lens.len()).unwrap_or(0));
                b.put_u16(u16::try_from(dist_lens.len()).unwrap_or(0));
                b.put_bytes(lit_lens);
                b.put_bytes(dist_lens);
            }
        }
        b.put_count(self.window.len());
        b.put_bytes(&self.window);
        b.seal(ICK1.max_body).expect("the window is trimmed to 32 KiB between steps")
    }

    /// Deserializes an `ICK1` blob back into a live engine, validating
    /// every field: the frame CRC, version, flag bits, block-state
    /// bounds, window-length invariant and the Huffman lengths (the
    /// decode tables are rebuilt here, so a blob carrying an invalid
    /// code fails now, not mid-stream). Corrupt or truncated blobs
    /// error cleanly — never panic, never yield an engine that would
    /// silently produce wrong bytes.
    pub fn restore_from_checkpoint(blob: &[u8]) -> Result<ResumableInflate, DeflateError> {
        let mut cur = Reader::new(frame::unseal(blob, ICK1.max_body)?);
        cur.expect_magic(&ICK1)?;
        cur.expect_version(&ICK1)?;
        let flags = cur.get_u8()?;
        if flags & !(FLAG_DONE | FLAG_FINAL_BLOCK) != 0 {
            return Err(DeflateError::BadContainer("resume blob has unknown flags"));
        }
        let done = flags & FLAG_DONE != 0;
        let final_block = flags & FLAG_FINAL_BLOCK != 0;
        if done && !final_block {
            return Err(DeflateError::BadContainer("resume blob done without final block"));
        }
        let bit_pos = cur.get_u64()?;
        let out_len = cur.get_u64()?;
        let crc = cur.get_u32()?;
        let block = match cur.get_u8()? {
            0 => Block::Boundary,
            1 => {
                let remaining = cur.get_u32()?;
                if remaining > 0xFFFF {
                    return Err(DeflateError::BadContainer("resume blob stored length too large"));
                }
                if bit_pos % 8 != 0 {
                    return Err(DeflateError::BadContainer("resume blob stored state unaligned"));
                }
                Block::Stored { remaining }
            }
            2 => Block::Fixed,
            3 => {
                let nlit = usize::from(cur.get_u16()?);
                let ndist = usize::from(cur.get_u16()?);
                if !(257..=286).contains(&nlit) || !(1..=30).contains(&ndist) {
                    return Err(DeflateError::BadContainer("resume blob table size out of range"));
                }
                Block::dynamic(cur.get_bytes(nlit)?.to_vec(), cur.get_bytes(ndist)?.to_vec())?
            }
            _ => return Err(DeflateError::BadContainer("resume blob has bad block state")),
        };
        if done && !matches!(block, Block::Boundary) {
            return Err(DeflateError::BadContainer("resume blob done inside a block"));
        }
        let window_len = crate::usize_from_u32(cur.get_u32()?);
        let expect = u64::min(out_len, crate::u64_from_usize(WINDOW_BYTES));
        if crate::u64_from_usize(window_len) != expect {
            return Err(DeflateError::BadContainer("resume blob window length mismatch"));
        }
        let window = cur.get_bytes(window_len)?.to_vec();
        cur.expect_end()?;
        Ok(ResumableInflate { bit_pos, block, final_block, done, window, out_len, crc })
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

    fn lcg_bytes(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                u8::try_from((state >> 33) & 0xFF).unwrap()
            })
            .collect()
    }

    fn shapes() -> Vec<Vec<u8>> {
        vec![
            Vec::new(),
            b"x".to_vec(),
            b"checkpoint restart ".repeat(400),
            lcg_bytes(5000, 42),
            // Larger than the 32 KiB window so trimming and long-range
            // matches both happen.
            [b"abcdef".repeat(20_000), lcg_bytes(90_000, 7)].concat(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48 })]

        /// One engine, two ways to drive it: any schedule of steps
        /// produces what running to the end of the stream produces —
        /// bytes, CRC, and the input position it stops at. Repeating
        /// the seed past 32 KiB makes the steps trim the window under
        /// long-range matches.
        #[test]
        fn any_step_schedule_equals_completion(
            seed in pvec(any::<u8>(), 0..12_000),
            reps in 1usize..6,
            schedule in pvec(1usize..40_000, 1..6),
        ) {
            let data = seed.repeat(reps);
            for level in [Level::Store, Level::Fast, Level::Default] {
                let stream = compress(&data, level);
                let whole = ResumableInflate::new().finish(&stream, data.len()).unwrap();
                prop_assert_eq!(&whole.bytes, &data, "{:?}", level);
                prop_assert_eq!(whole.crc, crc32(&data));
                prop_assert_eq!(whole.consumed, stream.len());

                let mut engine = ResumableInflate::new();
                let mut out = Vec::new();
                let mut steps = schedule.iter().cycle();
                while !engine.inflate_step(&stream, &mut out, *steps.next().unwrap()).unwrap() {
                    prop_assert!(engine.window.len() <= WINDOW_BYTES);
                }
                prop_assert_eq!(&out, &data, "{:?} by {:?}", level, &schedule);
                prop_assert_eq!(engine.output_len(), u64::try_from(data.len()).unwrap());
                prop_assert_eq!(engine.output_crc(), whole.crc);
                prop_assert_eq!(engine.bytes_consumed(), whole.consumed);
                // A finished engine keeps reporting done.
                prop_assert!(engine.inflate_step(&stream, &mut out, 1).unwrap());
                prop_assert_eq!(out.len(), data.len());
            }
        }
    }

    #[test]
    fn resume_from_every_checkpoint_is_bit_identical() {
        for data in shapes() {
            for level in [Level::Store, Level::Default] {
                let stream = compress(&data, level);
                // First pass: checkpoint after every step.
                let mut engine = ResumableInflate::new();
                let mut out = Vec::new();
                let mut cuts: Vec<(Vec<u8>, usize)> = vec![(engine.checkpoint(), 0)];
                while !engine.inflate_step(&stream, &mut out, 1024).unwrap() {
                    cuts.push((engine.checkpoint(), out.len()));
                }
                cuts.push((engine.checkpoint(), out.len()));
                assert_eq!(out, data);

                for (blob, at) in &cuts {
                    let mut resumed = ResumableInflate::restore_from_checkpoint(blob).unwrap();
                    assert_eq!(resumed.output_len(), u64::try_from(*at).unwrap());
                    let mut tail = Vec::new();
                    while !resumed.inflate_step(&stream, &mut tail, 4096).unwrap() {}
                    assert_eq!(&tail, &data[*at..], "{level:?} resume at {at}");
                    assert_eq!(resumed.output_crc(), crc32(&data), "{level:?} resume at {at}");
                }
            }
        }
    }

    #[test]
    fn checkpoint_blob_roundtrips_exactly() {
        let data = b"the quick brown fox ".repeat(600);
        let stream = compress(&data, Level::Default);
        let mut engine = ResumableInflate::new();
        let mut out = Vec::new();
        loop {
            let blob = engine.checkpoint();
            let restored = ResumableInflate::restore_from_checkpoint(&blob).unwrap();
            assert_eq!(restored.checkpoint(), blob, "blob must reserialize identically");
            if engine.inflate_step(&stream, &mut out, 512).unwrap() {
                break;
            }
        }
    }

    #[test]
    fn wrong_version_errors_even_with_valid_crc() {
        let engine = ResumableInflate::new();
        let blob = engine.checkpoint();
        let mut body = blob[..blob.len() - 4].to_vec();
        body[4] = 9; // version
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        match ResumableInflate::restore_from_checkpoint(&body) {
            Err(DeflateError::BadContainer(msg)) => {
                assert!(msg.contains("version"), "got {msg}");
            }
            other => panic!("expected version rejection, got {other:?}"),
        }
    }

    #[test]
    fn bad_state_byte_errors_even_with_valid_crc() {
        let engine = ResumableInflate::new();
        let blob = engine.checkpoint();
        let mut body = blob[..blob.len() - 4].to_vec();
        body[26] = 7; // block-state tag
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        assert!(ResumableInflate::restore_from_checkpoint(&body).is_err());
    }

    #[test]
    fn stored_stream_resumes_mid_block() {
        // Level::Store emits stored blocks; checkpoints land inside
        // them and must stay byte-aligned.
        let data = lcg_bytes(200_000, 3);
        let stream = compress(&data, Level::Store);
        let mut engine = ResumableInflate::new();
        let mut out = Vec::new();
        let mut blobs = Vec::new();
        while !engine.inflate_step(&stream, &mut out, 4096).unwrap() {
            blobs.push((engine.checkpoint(), out.len()));
        }
        assert_eq!(out, data);
        assert!(blobs.len() > 10, "expected many mid-stream checkpoints");
        for (blob, at) in blobs.iter().step_by(7) {
            let mut resumed = ResumableInflate::restore_from_checkpoint(blob).unwrap();
            assert_eq!(resumed.bit_pos % 8, 0, "stored checkpoints are byte-aligned");
            let mut tail = Vec::new();
            while !resumed.inflate_step(&stream, &mut tail, 65536).unwrap() {}
            assert_eq!(&tail, &data[*at..]);
        }
    }

    #[test]
    fn truncated_stream_errors_cleanly_at_step_time() {
        let data = b"streaming restore ".repeat(1000);
        let stream = compress(&data, Level::Default);
        let cut = &stream[..stream.len() / 2];
        let mut engine = ResumableInflate::new();
        let mut out = Vec::new();
        let mut saw_err = false;
        for _ in 0..10_000 {
            match engine.inflate_step(cut, &mut out, 1024) {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => {
                    assert_eq!(e, DeflateError::UnexpectedEof);
                    saw_err = true;
                    break;
                }
            }
        }
        assert!(saw_err, "truncated stream must surface EOF");
    }
}
