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
use crate::huffman::{Alphabet, Decoder, END_OF_BLOCK, LITERAL, NOT_BASE};
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
        let lit = Decoder::with_alphabet(&lit_lens, Alphabet::LitLen)?;
        let dist = Decoder::with_alphabet(&dist_lens, Alphabet::Distance)?;
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

/// Room the fast loop needs below `stop_len` and past the write
/// position: one longest match (258), the 16 bytes a short match copy
/// may overshoot, and three literals with room to spare.
const SLACK: usize = 258 + 16 + 8;

/// How far the fast loop zero-extends the window at a time, inside
/// the capacity reserved up front while that holds the slack.
const GROW_STEP: usize = 64 * 1024;

/// Decodes literal/match symbols onto the end of `window` until
/// end-of-block (returns `true`) or `window` reaches `stop_len`
/// (returns `false`). Back-references resolve against `window`, which
/// holds the trailing output — at least 32 KiB of it whenever more than
/// that exists, so every valid distance is in range.
///
/// [`decode_fast`] runs first and leaves wherever it stops — the input
/// tail, the output limit, anything invalid — to [`decode_checked`]
/// with those bits unconsumed, so the two loops together decode, fail
/// and stop exactly as the checked loop does alone.
fn decode_symbols(
    r: &mut BitReader<'_>,
    lit: &Decoder,
    dist: &Decoder,
    window: &mut Vec<u8>,
    stop_len: usize,
) -> Result<bool, DeflateError> {
    if fast_loop_enabled() && decode_fast(r, lit, dist, window, stop_len) {
        return Ok(true);
    }
    decode_checked(r, lit, dist, window, stop_len)
}

#[cfg(not(test))]
#[inline]
fn fast_loop_enabled() -> bool {
    true
}

#[cfg(test)]
thread_local! {
    /// Set by [`tests::checked_only`]: this thread decodes with the
    /// checked loop alone, the oracle the fast loop is held to.
    static CHECKED_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(test)]
fn fast_loop_enabled() -> bool {
    !CHECKED_ONLY.with(std::cell::Cell::get)
}

/// The fast symbol loop. Each iteration refills once (at least 8 input
/// bytes must remain, so 56 stream bits are buffered), then decodes up
/// to three literals or one whole length/distance pair (at most 48
/// bits) with no per-read checks. It writes at the window's logical end
/// `pos` into a zero-extended tail, at least [`SLACK`] bytes of it, and
/// runs only while `pos + SLACK <= stop_len`; on exit the window is
/// truncated back to `pos`.
///
/// A symbol it cannot finish — a code not in the table, a symbol
/// invalid in context, a distance past the history — is left
/// unconsumed for the checked loop to report. Returns `true` once it
/// consumed the end-of-block code.
fn decode_fast(
    r: &mut BitReader<'_>,
    lit: &Decoder,
    dist: &Decoder,
    window: &mut Vec<u8>,
    stop_len: usize,
) -> bool {
    let mut pos = window.len();
    let mut end_of_block = false;
    while stop_len.saturating_sub(pos) >= SLACK && r.refill_wide() {
        if window.len() < pos + SLACK {
            extend_window(window, pos + SLACK, stop_len);
        }
        let Some(out) = window.get_mut(pos..).and_then(|tail| tail.first_chunk_mut::<SLACK>())
        else {
            break;
        };
        let bits = r.buffered();
        let entry = lit.lookup(bits);
        let code_len = entry & 0xFF;
        if entry & LITERAL != 0 {
            // Up to three literals: 3 × 15 bits of the 56 buffered.
            let (mut used, mut n, mut entry) = (0u32, 0usize, entry);
            loop {
                let [_, _, byte, _] = entry.to_le_bytes();
                if let Some(slot) = out.get_mut(n) {
                    *slot = byte;
                }
                used += entry & 0xFF;
                n += 1;
                if n == 3 {
                    break;
                }
                entry = lit.lookup(bits >> used);
                if entry & LITERAL == 0 {
                    break;
                }
            }
            r.skip(used);
            pos += n;
            continue;
        }
        if code_len == 0 || entry & NOT_BASE != 0 {
            if code_len != 0 && entry & END_OF_BLOCK != 0 {
                r.skip(code_len);
                end_of_block = true;
            }
            break;
        }
        let (len, len_bits) = base_plus_extra(entry, bits >> code_len);
        let used = code_len + len_bits;
        let dentry = dist.lookup(bits >> used);
        let dcode_len = dentry & 0xFF;
        if dcode_len == 0 || dentry & NOT_BASE != 0 {
            break;
        }
        let (d, dist_bits) = base_plus_extra(dentry, bits >> (used + dcode_len));
        if d > pos {
            break;
        }
        r.skip(used + dcode_len + dist_bits);
        copy_match(window, pos, d, len);
        pos += len;
    }
    window.truncate(pos);
    end_of_block
}

/// A length or distance entry's base plus its extra bits, read from the
/// bottom of `bits`, and how many extra bits that took.
#[inline]
fn base_plus_extra(entry: u32, bits: u64) -> (usize, u32) {
    let extra = (entry >> 12) & 0xF;
    let value = u64::from(entry >> 16) + (bits & ((1u64 << extra) - 1));
    (usize::try_from(value).unwrap_or(usize::MAX), extra)
}

/// Zero-extends `window` to at least `need` bytes (`need <= stop_len`):
/// a [`GROW_STEP`] ahead, no further than `stop_len`, and no further
/// than the reserved capacity while that holds `need`.
#[cold]
fn extend_window(window: &mut Vec<u8>, need: usize, stop_len: usize) {
    let mut len = need.max(window.len().saturating_add(GROW_STEP)).min(stop_len);
    if need <= window.capacity() {
        len = len.min(window.capacity());
    }
    window.resize(len, 0);
}

/// Copies a match of `len` bytes from `d` back to `pos`, where
/// `1 <= d <= pos`, `len <= 258` and `window` holds [`SLACK`] bytes past
/// `pos`, so every range below is in bounds.
#[inline]
fn copy_match(window: &mut [u8], pos: usize, d: usize, len: usize) {
    let src = pos - d;
    if len <= 16 && d >= 16 {
        // One fixed 16-byte copy; bytes past `len` land in the slack,
        // which later symbols overwrite.
        window.copy_within(src..src + 16, pos);
    } else if d == 1 {
        let byte = window.get(src).copied().unwrap_or(0);
        if let Some(run) = window.get_mut(pos..pos + len) {
            run.fill(byte);
        }
    } else if d < len {
        // Overlapping: each pass copies everything replicated so far,
        // doubling the span.
        let mut done = 0;
        while done < len {
            let take = (len - done).min(d + done);
            window.copy_within(src..src + take, pos + done);
            done += take;
        }
    } else {
        window.copy_within(src..src + len, pos);
    }
}

/// The checked symbol loop: every read is bounds- and length-checked,
/// so it decodes the input's last bytes, stops exactly at `stop_len`
/// and names every error.
fn decode_checked(
    r: &mut BitReader<'_>,
    lit: &Decoder,
    dist: &Decoder,
    window: &mut Vec<u8>,
    stop_len: usize,
) -> Result<bool, DeflateError> {
    while window.len() < stop_len {
        let entry = lit.read_entry(r)?;
        if entry & LITERAL != 0 {
            let [_, _, byte, _] = entry.to_le_bytes();
            window.push(byte);
        } else if entry & END_OF_BLOCK != 0 {
            return Ok(true);
        } else {
            let len = read_base(r, entry)?;
            let dentry = dist.read_entry(r)?;
            let d = read_base(r, dentry)?;
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
    }
    Ok(false)
}

/// A length or distance entry's value: its base plus the extra bits
/// read after its code; a symbol invalid in its alphabet is an error.
fn read_base(r: &mut BitReader<'_>, entry: u32) -> Result<usize, DeflateError> {
    if entry & NOT_BASE != 0 {
        let [_, _, lo, hi] = entry.to_le_bytes();
        return Err(DeflateError::BadSymbol(u16::from_le_bytes([lo, hi])));
    }
    let base = crate::usize_from_u32(entry >> 16);
    Ok(base + r.read_bits_usize((entry >> 12) & 0xF)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::{reverse_bits, BitWriter};
    use crate::crc32::crc32;
    use crate::deflate::{DIST_TABLE, LENGTH_TABLE};
    use crate::{compress, Level};
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    /// Runs `f` with this thread decoding by the checked loop alone.
    fn checked_only<T>(f: impl FnOnce() -> T) -> T {
        CHECKED_ONLY.with(|c| c.set(true));
        let out = f();
        CHECKED_ONLY.with(|c| c.set(false));
        out
    }

    /// What a decode yields, errors by their `Display`.
    type Outcome = Result<(Vec<u8>, u32, usize), String>;

    fn outcome(stream: &[u8], max_output: usize) -> Outcome {
        ResumableInflate::new()
            .finish(stream, max_output)
            .map(|done| (done.bytes, done.crc, done.consumed))
            .map_err(|e| e.to_string())
    }

    /// The fast loop with its hand-off against the checked loop alone:
    /// the same bytes, CRC and `consumed`, or the same error string.
    fn loops_agree(stream: &[u8], max_output: usize) -> Outcome {
        let fast = outcome(stream, max_output);
        let checked = checked_only(|| outcome(stream, max_output));
        assert!(
            fast == checked,
            "max_output {max_output}: fast {:?} vs checked {:?}",
            brief(&fast),
            brief(&checked)
        );
        fast
    }

    fn brief(o: &Outcome) -> Result<(usize, u32, usize), &str> {
        o.as_ref().map(|(b, c, n)| (b.len(), *c, *n)).map_err(String::as_str)
    }

    fn lcg(n: usize, mut s: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 33) as u8
            })
            .collect()
    }

    /// Byte planes of a smooth f64 field with a little noise, the way
    /// the codec's shuffled region lays them out: exponent planes that
    /// run, mantissa planes that barely compress.
    fn mesh_planes(values: usize, seed: u64) -> Vec<u8> {
        let noise = lcg(values, seed);
        let field: Vec<[u8; 8]> = (0..values)
            .map(|i| {
                let x = i as f64;
                (300.0 + 20.0 * (x * 0.013).sin() + f64::from(noise[i]) * 1e-6).to_le_bytes()
            })
            .collect();
        (0..8).flat_map(|p| field.iter().map(move |v| v[p])).collect()
    }

    /// One symbol of a hand-built fixed-Huffman block.
    #[derive(Clone, Copy, Debug)]
    enum Tok {
        Lit(u8),
        Match(usize, usize),
        /// A literal/length symbol written as is (286 and 287 are
        /// invalid).
        LitSym(u16),
        /// A length-3 match with this raw distance symbol (30 and 31 are
        /// invalid).
        DistSym(u16),
    }

    fn put_litlen(w: &mut BitWriter, sym: u16) {
        let s = u32::from(sym);
        let (code, len) = match s {
            0..=143 => (0x30 + s, 8),
            144..=255 => (0x190 + s - 144, 9),
            256..=279 => (s - 256, 7),
            _ => (0xC0 + s - 280, 8),
        };
        w.write_bits(u64::from(reverse_bits(code, len)), len);
    }

    /// A fixed-Huffman block holding `toks` then end-of-block.
    fn fixed_block(w: &mut BitWriter, toks: &[Tok], last: bool) {
        w.write_bits(u64::from(last), 1);
        w.write_bits(1, 2);
        for &t in toks {
            match t {
                Tok::Lit(b) => put_litlen(w, u16::from(b)),
                Tok::LitSym(s) => put_litlen(w, s),
                Tok::Match(len, dist) => {
                    let i = LENGTH_TABLE.iter().rposition(|&(b, _)| usize::from(b) <= len).unwrap();
                    let i = if len == 258 { 28 } else { i.min(27) };
                    put_litlen(w, 257 + i as u16);
                    let (base, extra) = LENGTH_TABLE[i];
                    w.write_bits((len - usize::from(base)) as u64, u32::from(extra));
                    let d = DIST_TABLE.iter().rposition(|&(b, _)| usize::from(b) <= dist).unwrap();
                    w.write_bits(u64::from(reverse_bits(d as u32, 5)), 5);
                    let (dbase, dextra) = DIST_TABLE[d];
                    w.write_bits((dist - usize::from(dbase)) as u64, u32::from(dextra));
                }
                Tok::DistSym(d) => {
                    put_litlen(w, 257);
                    w.write_bits(u64::from(reverse_bits(u32::from(d), 5)), 5);
                }
            }
        }
        put_litlen(w, 256);
    }

    fn fixed_stream(toks: &[Tok]) -> Vec<u8> {
        let mut w = BitWriter::new();
        fixed_block(&mut w, toks, true);
        w.finish()
    }

    /// Every `max_output` from 0 past the end in strides, and every one
    /// within a slack of the end: each place the fast loop can hand off.
    fn limits(len: usize) -> Vec<usize> {
        let mut out: Vec<usize> = (0..len + 2).step_by(97).collect();
        out.extend(len.saturating_sub(2 * SLACK)..len + 2);
        out.push(usize::MAX);
        out
    }

    fn sweep_limits(stream: &[u8]) {
        let whole = loops_agree(stream, usize::MAX);
        let len = whole.as_ref().map_or(4096, |(b, _, _)| b.len());
        for max_output in limits(len) {
            let _ = loops_agree(stream, max_output);
        }
    }

    #[test]
    fn hand_built_matches_decode_alike_at_every_limit() {
        let lits = |n: usize, seed: u64| lcg(n, seed).into_iter().map(Tok::Lit).collect::<Vec<_>>();
        let mut long_range = lits(32_768, 1);
        long_range.extend([Tok::Match(258, 32_768), Tok::Match(258, 32_768), Tok::Lit(9)]);
        let overlapping: Vec<Tok> =
            (2..20).flat_map(|d| [Tok::Match(d + 1, d), Tok::Match(258, d)]).collect();
        let cases: Vec<Vec<Tok>> = vec![
            // Distance-1 runs of every length class.
            [vec![Tok::Lit(7)], (3..=258).step_by(17).map(|l| Tok::Match(l, 1)).collect()].concat(),
            // Overlapping matches (distance < length), short and long.
            [lits(20, 2), overlapping].concat(),
            // Short matches at distances around the 16-byte copy.
            [lits(64, 3), (1..40).map(|i| Tok::Match(3 + i % 14, 8 + i % 24)).collect()].concat(),
            long_range,
            // A 258-byte match every step, so one lands at each distance
            // from the slack edge as the limit sweeps.
            [lits(300, 4), vec![Tok::Match(258, 300); 40]].concat(),
        ];
        for toks in &cases {
            sweep_limits(&fixed_stream(toks));
        }
    }

    #[test]
    fn invalid_symbols_and_distances_fail_alike() {
        let head = lcg(400, 5).into_iter().map(Tok::Lit).collect::<Vec<_>>();
        for bad in [
            Tok::LitSym(286),
            Tok::LitSym(287),
            Tok::DistSym(30),
            Tok::DistSym(31),
            Tok::Match(3, 401),
            Tok::Match(258, 32_768),
        ] {
            let stream = fixed_stream(&[head.clone(), vec![bad, Tok::Lit(1)]].concat());
            let got = loops_agree(&stream, usize::MAX);
            assert!(got.is_err(), "{bad:?} decoded");
            for max_output in [399, 400, 401, 402] {
                let _ = loops_agree(&stream, max_output);
            }
        }
    }

    #[test]
    fn truncations_and_flips_of_three_streams_decode_alike() {
        let mut w = BitWriter::new();
        let toks: Vec<Tok> = lcg(300, 6)
            .into_iter()
            .enumerate()
            .map(|(i, b)| match i % 5 {
                4 => Tok::Match(3 + i % 40, 1 + i % (1 + i / 2)),
                _ => Tok::Lit(b % 16),
            })
            .collect();
        fixed_block(&mut w, &toks, false);
        fixed_block(&mut w, &toks[..50], true);
        let streams = [
            w.finish(),
            compress(&mesh_planes(300, 7), Level::Default),
            compress(&lcg(3000, 8).iter().map(|b| b % 4).collect::<Vec<_>>(), Level::Fast),
        ];
        for stream in &streams {
            assert!(loops_agree(stream, usize::MAX).is_ok());
            for cut in 0..stream.len() {
                let _ = loops_agree(&stream[..cut], usize::MAX);
            }
            for at in 0..stream.len() {
                for flip in [0x01, 0x80, 0xFF] {
                    let mut bad = stream.clone();
                    bad[at] ^= flip;
                    let _ = loops_agree(&bad, 1 << 16);
                }
            }
        }
    }

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

        /// Our encoder's streams at every level, over random, run-heavy
        /// and mesh-plane inputs: both loops decode them alike under a
        /// limit anywhere in the output.
        #[test]
        fn the_fast_loop_decodes_our_streams_as_the_checked_loop_does(
            kind in 0u8..3,
            n in 0usize..40_000,
            seed in any::<u64>(),
            cut in any::<u64>(),
        ) {
            let data = match kind {
                0 => lcg(n, seed),
                1 => lcg(n, seed).iter().map(|b| b % 3).collect(),
                _ => mesh_planes(n / 8, seed),
            };
            for level in [Level::Store, Level::Fast, Level::Default] {
                let stream = compress(&data, level);
                let whole = loops_agree(&stream, usize::MAX);
                prop_assert_eq!(whole.map(|(b, _, _)| b), Ok(data.clone()));
                let _ = loops_agree(&stream, (cut % (data.len() as u64 + 1)) as usize);
            }
        }
    }
}
