//! The DEFLATE decoder (RFC 1951): one function under every reader.
//!
//! [`inflate_into`] walks a raw DEFLATE stream's blocks to the end and
//! writes what they decode into an output the caller owns — a `Vec` it
//! grows, or a fixed slot — after whatever that output already holds.
//! It returns the CRC-32 of what it wrote, so a gzip member's trailer
//! is checked without a second pass over the output, and the input
//! bytes the stream occupied, so the trailer is found. The crate-root
//! [`crate::decompress`], every gzip member and every `WPK1` slot are
//! this call.

// Decoder hardening (DESIGN.md §9): product code here is total on damaged bytes.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing, clippy::unwrap_used,
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::panic_in_result_fn, clippy::missing_panics_doc))]

use crate::bitio::BitReader;
use crate::crc32::crc32;
use crate::deflate::{fixed_dist_lengths, fixed_litlen_lengths, CLCODE_ORDER};
use crate::huffman::{Alphabet, Decoder, END_OF_BLOCK, LITERAL, NOT_BASE};
use crate::DeflateError;
use std::io::Cursor;
use std::sync::OnceLock;

/// Where [`inflate_into`] writes: a `Vec` it grows, or a slot — a
/// `Cursor` over a fixed buffer, its position the length written — that
/// never grows.
pub(crate) trait Output {
    /// The output's current length: where a call's bytes begin.
    fn end(&self) -> usize;
    /// Readies room for the `claimed` bytes a stream of `input` bytes
    /// says it inflates to, if the output can grow: no more than
    /// DEFLATE can expand `input` to, than `max_output`, or than
    /// [`MAX_RESERVE`], so a lying claim costs no allocation.
    fn reserve_for(&mut self, _claimed: usize, _input: usize, _max_output: usize) {}
    /// The buffer: what the output holds, then any room past it that a
    /// call writes ahead into.
    fn buf(&mut self) -> &mut [u8];
    /// Lengthens [`Output::buf`] to at least `need <= stop` bytes, if
    /// the output can grow.
    fn grow(&mut self, _need: usize, _stop: usize) {}
    /// Sets the output's length to `end`.
    fn set_end(&mut self, end: usize);
}

/// How far a `Vec` output is zero-extended at a time, inside the
/// capacity reserved up front while that holds the slack.
const GROW_STEP: usize = 64 * 1024;

/// DEFLATE's worst-case expansion: a 258-byte match costs at least two
/// bits, so one input byte decodes to at most about 1,032 bytes.
pub(crate) const MAX_EXPANSION: usize = 1032;

/// The most a `Vec` output reserves up front; past it, it grows.
const MAX_RESERVE: usize = 1 << 24;

impl Output for Vec<u8> {
    fn end(&self) -> usize {
        self.len()
    }

    fn reserve_for(&mut self, claimed: usize, input: usize, max_output: usize) {
        let cap = input.saturating_mul(MAX_EXPANSION).min(max_output).min(MAX_RESERVE);
        self.reserve(claimed.min(cap));
    }

    fn buf(&mut self) -> &mut [u8] {
        self
    }

    /// A [`GROW_STEP`] ahead, no further than `stop`, and no further
    /// than the reserved capacity while that holds `need`.
    #[cold]
    fn grow(&mut self, need: usize, stop: usize) {
        let mut len = need.max(self.len().saturating_add(GROW_STEP)).min(stop);
        if need <= self.capacity() {
            len = len.min(self.capacity());
        }
        self.resize(len, 0);
    }

    fn set_end(&mut self, end: usize) {
        self.truncate(end);
    }
}

impl Output for Cursor<&mut [u8]> {
    fn end(&self) -> usize {
        usize::try_from(self.position()).unwrap_or(usize::MAX)
    }

    fn buf(&mut self) -> &mut [u8] {
        self.get_mut()
    }

    fn set_end(&mut self, end: usize) {
        self.set_position(crate::u64_from_usize(end));
    }
}

/// Decodes the raw DEFLATE stream at the front of `data` to its end
/// onto `out`, after what `out` already holds, and returns the CRC-32
/// of the bytes it wrote and the input bytes the stream occupied, its
/// final partial byte included: where a gzip member's trailer begins.
/// Back-references reach only bytes this call wrote.
///
/// Fails with [`DeflateError::OutputLimit`] once the call has produced
/// more than `max_output` bytes — the decompression-bomb guard for
/// streams from untrusted storage (DEFLATE expands up to ~1032×, so a
/// small checkpoint file can claim gigabytes). A slot is decoded with
/// `max_output` equal to its room. On error `out` keeps its length.
pub(crate) fn inflate_into<O: Output>(
    data: &[u8],
    out: &mut O,
    max_output: usize,
) -> Result<(u32, usize), DeflateError> {
    let start = out.end();
    let mut r = BitReader::new(data);
    let walked = walk(&mut r, out, start, max_output);
    out.set_end(*walked.as_ref().unwrap_or(&start));
    let end = walked?;
    Ok((crc32(out.buf().get(start..end).unwrap_or_default()), r.bytes_consumed()))
}

/// The crate's one BFINAL/BTYPE walk: decodes blocks onto `out` from
/// `start` through the final block and returns where the output ends.
fn walk<O: Output>(
    r: &mut BitReader<'_>,
    out: &mut O,
    start: usize,
    max_output: usize,
) -> Result<usize, DeflateError> {
    // The output length at which the call has exceeded its cap.
    let stop = start.saturating_add(max_output).saturating_add(1);
    let mut pos = start;
    let mut tables = DynamicTables::default();
    loop {
        let last = r.read_bits(1)? == 1;
        let block_ended = match r.read_bits(2)? {
            0 => stored_block(r, out, &mut pos, stop)?,
            1 => decode_symbols(r, fixed_decoders()?, out, start, &mut pos, stop)?,
            2 => {
                tables.read(r)?;
                decode_symbols(r, (&tables.lit, &tables.dist), out, start, &mut pos, stop)?
            }
            _ => return Err(DeflateError::BadBlockType),
        };
        if !block_ended {
            return Err(DeflateError::OutputLimit { limit: max_output });
        }
        if last {
            return Ok(pos);
        }
    }
}

/// Copies a stored block straight from the input to `pos`. Returns
/// `false` if the block runs past the cap — decided, like every other
/// write, only once the input holds the byte that would cross it.
fn stored_block<O: Output>(
    r: &mut BitReader<'_>,
    out: &mut O,
    pos: &mut usize,
    stop: usize,
) -> Result<bool, DeflateError> {
    r.align_byte();
    let len = r.read_bits_usize(16)?;
    if len ^ r.read_bits_usize(16)? != 0xFFFF {
        return Err(DeflateError::BadStoredLength);
    }
    // The bytes that stay under the cap.
    let take = len.min(stop.saturating_sub(*pos).saturating_sub(1));
    let Some(dst) = room(out, *pos, take, stop).and_then(|buf| buf.get_mut(*pos..*pos + take))
    else {
        return Ok(false);
    };
    r.read_bytes(dst)?;
    *pos += take;
    if take < len {
        r.read_bits(8)?;
        return Ok(false);
    }
    Ok(true)
}

/// The buffer, once it holds `n` more bytes at `pos` (grown if need
/// be); `None` if those bytes would reach `stop` or the output cannot
/// hold them.
fn room<O: Output>(out: &mut O, pos: usize, n: usize, stop: usize) -> Option<&mut [u8]> {
    let need = pos.checked_add(n).filter(|&need| need < stop)?;
    if out.buf().len() < need {
        out.grow(need, stop);
    }
    Some(out.buf()).filter(|buf| buf.len() >= need)
}

/// Room the fast loop needs below `stop` and past the write position:
/// one longest match (258), the 16 bytes a short match copy may
/// overshoot, and three literals with room to spare.
const SLACK: usize = 258 + 16 + 8;

/// Decodes literal/match symbols to `pos` until end-of-block (returns
/// `true`) or a write would reach `stop` (returns `false`).
/// Back-references resolve against the bytes since `start`.
///
/// [`decode_fast`] runs first and leaves wherever it stops — the input
/// tail, the last [`SLACK`] bytes below the cap or of a slot, anything
/// invalid — to [`decode_checked`] with those bits unconsumed, so the
/// two loops together decode, fail and stop exactly as the checked loop
/// does alone.
fn decode_symbols<O: Output>(
    r: &mut BitReader<'_>,
    codes: (&Decoder, &Decoder),
    out: &mut O,
    start: usize,
    pos: &mut usize,
    stop: usize,
) -> Result<bool, DeflateError> {
    if fast_loop_enabled() && decode_fast(r, codes, out, start, pos, stop) {
        return Ok(true);
    }
    decode_checked(r, codes, out, start, pos, stop)
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
/// bits) with no per-read checks. It writes at `pos` into the buffer's
/// room past it, at least [`SLACK`] bytes of it (a `Vec` is
/// zero-extended to make that room; a slot stops the loop once it has
/// less), and runs only while `pos + SLACK <= stop`.
///
/// A symbol it cannot finish — a code not in the table, a symbol
/// invalid in context, a distance past the history — is left
/// unconsumed for the checked loop to report. Returns `true` once it
/// consumed the end-of-block code.
fn decode_fast<O: Output>(
    r: &mut BitReader<'_>,
    (lit, dist): (&Decoder, &Decoder),
    out: &mut O,
    start: usize,
    pos: &mut usize,
    stop: usize,
) -> bool {
    let mut at = *pos;
    let mut end_of_block = false;
    while stop.saturating_sub(at) >= SLACK && r.refill_wide() {
        if out.buf().len() < at + SLACK {
            out.grow(at + SLACK, stop);
        }
        let buf = out.buf();
        let Some(ahead) = buf.get_mut(at..).and_then(|tail| tail.first_chunk_mut::<SLACK>()) else {
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
                if let Some(slot) = ahead.get_mut(n) {
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
            at += n;
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
        if d > at - start {
            break;
        }
        r.skip(used + dcode_len + dist_bits);
        copy_match(buf, at, d, len);
        at += len;
    }
    *pos = at;
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

/// Copies a match of `len` bytes from `d` back to `pos`, where
/// `1 <= d <= pos` and `buf` holds `pos + len` bytes, so every range
/// below is in bounds. Both loops copy with it.
#[inline]
fn copy_match(buf: &mut [u8], pos: usize, d: usize, len: usize) {
    let src = pos - d;
    if len <= 16 && d >= 16 && pos + 16 <= buf.len() {
        // One fixed 16-byte copy; bytes past `len` land in the slack,
        // which later symbols overwrite.
        buf.copy_within(src..src + 16, pos);
    } else if d == 1 {
        let byte = buf.get(src).copied().unwrap_or(0);
        if let Some(run) = buf.get_mut(pos..pos + len) {
            run.fill(byte);
        }
    } else if d < len {
        // Overlapping: each pass copies everything replicated so far,
        // doubling the span.
        let mut done = 0;
        while done < len {
            let take = (len - done).min(d + done);
            buf.copy_within(src..src + take, pos + done);
            done += take;
        }
    } else {
        buf.copy_within(src..src + len, pos);
    }
}

/// The checked symbol loop: every read is bounds- and length-checked,
/// so it decodes the input's last bytes and a slot's last bytes, stops
/// exactly at `stop` and names every error.
fn decode_checked<O: Output>(
    r: &mut BitReader<'_>,
    (lit, dist): (&Decoder, &Decoder),
    out: &mut O,
    start: usize,
    pos: &mut usize,
    stop: usize,
) -> Result<bool, DeflateError> {
    loop {
        let entry = lit.read_entry(r)?;
        if entry & LITERAL != 0 {
            let [_, _, byte, _] = entry.to_le_bytes();
            let Some(slot) = room(out, *pos, 1, stop).and_then(|buf| buf.get_mut(*pos)) else {
                return Ok(false);
            };
            *slot = byte;
            *pos += 1;
        } else if entry & END_OF_BLOCK != 0 {
            return Ok(true);
        } else {
            let len = read_base(r, entry)?;
            let dentry = dist.read_entry(r)?;
            let d = read_base(r, dentry)?;
            let avail = *pos - start;
            if d == 0 || d > avail {
                return Err(DeflateError::BadDistance { dist: d, avail });
            }
            let Some(buf) = room(out, *pos, len, stop) else {
                return Ok(false);
            };
            copy_match(buf, *pos, d, len);
            *pos += len;
        }
    }
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

/// The fixed-Huffman decoders (RFC 1951 §3.2.6) never change, so they
/// are built once per process instead of once per block — fixed blocks
/// are common in small checkpoint sections and table construction was
/// visible in profiles.
fn fixed_decoders() -> Result<(&'static Decoder, &'static Decoder), DeflateError> {
    static FIXED: OnceLock<Result<(Decoder, Decoder), DeflateError>> = OnceLock::new();
    let cached = FIXED.get_or_init(|| {
        let lit = Decoder::with_alphabet(&fixed_litlen_lengths(), Alphabet::LitLen)?;
        Ok((lit, Decoder::with_alphabet(&fixed_dist_lengths(), Alphabet::Distance)?))
    });
    cached.as_ref().map(|(lit, dist)| (lit, dist)).map_err(DeflateError::clone)
}

/// A dynamic block's decode tables. One set serves a stream's every
/// dynamic block: each block's header rebuilds them in their own
/// storage.
#[derive(Default)]
struct DynamicTables {
    /// The code-length code the header's lengths are coded in.
    cl: Decoder,
    lit: Decoder,
    dist: Decoder,
}

impl DynamicTables {
    /// Reads a dynamic block's header and rebuilds the (literal/length,
    /// distance) decode tables from the code lengths it carries.
    fn read(&mut self, r: &mut BitReader<'_>) -> Result<(), DeflateError> {
        let hlit = r.read_bits_usize(5)? + 257;
        let hdist = r.read_bits_usize(5)? + 1;
        let hclen = r.read_bits_usize(4)? + 4;
        if hlit > 286 || hdist > 30 {
            return Err(DeflateError::BadHuffmanTable("HLIT/HDIST out of range"));
        }
        let mut cl_lens = [0u8; 19];
        for &ord in CLCODE_ORDER.iter().take(hclen) {
            // A 3-bit read is < 8 and CLCODE_ORDER entries are < 19 by
            // construction, so neither access can fail.
            let bits = u8::try_from(r.read_bits(3)?).unwrap_or(0);
            if let Some(slot) = cl_lens.get_mut(ord) {
                *slot = bits;
            }
        }
        self.cl.rebuild(&cl_lens, Alphabet::Symbols)?;

        // Both tables' lengths back to back; `n` of them read so far.
        let mut lens = [0u8; 286 + 30];
        let want = hlit + hdist;
        let mut n = 0;
        while n < want {
            let (value, run) = match self.cl.read(r)? {
                sym @ 0..=15 => (u8::try_from(sym).unwrap_or(0), 1),
                16 => {
                    let prev = n
                        .checked_sub(1)
                        .and_then(|last| lens.get(last))
                        .copied()
                        .ok_or(DeflateError::BadHuffmanTable("repeat with no previous"))?;
                    (prev, r.read_bits_usize(2)? + 3)
                }
                17 => (0, r.read_bits_usize(3)? + 3),
                18 => (0, r.read_bits_usize(7)? + 11),
                s => return Err(DeflateError::BadSymbol(s)),
            };
            let run_lens = lens
                .get_mut(n..n + run)
                .filter(|_| n + run <= want)
                .ok_or(DeflateError::BadHuffmanTable("code length overrun"))?;
            run_lens.fill(value);
            n += run;
        }
        let (lit_lens, dist_lens) = lens
            .get(..want)
            .and_then(|lens| lens.split_at_checked(hlit))
            .ok_or(DeflateError::BadHuffmanTable("code length underrun"))?;
        self.lit.rebuild(lit_lens, Alphabet::LitLen)?;
        self.dist.rebuild(dist_lens, Alphabet::Distance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::{reverse_bits, BitWriter};
    use crate::deflate::{DIST_TABLE, LENGTH_TABLE};
    use crate::{compress, decompress, Level};
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

    /// A decode into a fresh `Vec` and, under a finite cap, into a slot
    /// of exactly that room, whose last [`SLACK`] bytes only the checked
    /// loop writes: the two outputs must agree.
    fn outcome(stream: &[u8], max_output: usize) -> Outcome {
        let mut out = Vec::new();
        let grown = inflate_into(stream, &mut out, max_output)
            .map(|(crc, consumed)| (out, crc, consumed))
            .map_err(|e| e.to_string());
        if max_output <= 1 << 20 {
            let mut room = vec![0u8; max_output];
            let mut slot = Cursor::new(room.as_mut_slice());
            let fixed = inflate_into(stream, &mut slot, max_output)
                .map(|(crc, consumed)| (slot.end(), crc, consumed));
            let fixed = fixed
                .map(|(end, crc, consumed)| (room[..end].to_vec(), crc, consumed))
                .map_err(|e| e.to_string());
            assert!(
                grown == fixed,
                "max_output {max_output}: vec {:?} vs slot {:?}",
                brief(&grown),
                brief(&fixed)
            );
        }
        grown
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
            compress(&lcg(3000, 8).iter().map(|b| b % 4).collect::<Vec<_>>(), Level::Default),
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

    #[test]
    fn roundtrip_all_shapes() {
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![0],
            b"hello world hello world hello".to_vec(),
            vec![7u8; 100_000],
            lcg(50_000, 42),
            (0u32..60_000).map(|i| (i % 7) as u8).collect(),
        ];
        for data in &cases {
            let packed = compress(data, Level::Default);
            assert_eq!(&decompress(&packed).unwrap(), data, "len {}", data.len());
        }
    }

    #[test]
    fn known_fixed_block_from_rfc_construction() {
        // Hand-built fixed-Huffman block containing literals "abc".
        // 'a' = 0x61 -> code 0x61 + 0x30 = 0x91 (8 bits), etc.
        use crate::bitio::{reverse_bits, BitWriter};
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(0b01, 2); // fixed
        for &b in b"abc" {
            let code = 0x30 + b as u32; // literals 0..143: 8-bit codes from 0x30
            w.write_bits(reverse_bits(code, 8) as u64, 8);
        }
        w.write_bits(0, 7); // end-of-block: 7-bit code 0
        let packed = w.finish();
        assert_eq!(decompress(&packed).unwrap(), b"abc");
    }

    #[test]
    fn truncated_stream_errors() {
        let packed = compress(b"some data that compresses somewhat ok ok ok", Level::Default);
        for cut in 1..packed.len().min(10) {
            let err = decompress(&packed[..packed.len() - cut]);
            assert!(err.is_err(), "cut {cut} should fail");
        }
    }

    #[test]
    fn reserved_block_type_errors() {
        // BFINAL=1, BTYPE=11.
        let data = [0b0000_0111u8];
        assert_eq!(decompress(&data), Err(DeflateError::BadBlockType));
    }

    #[test]
    fn stored_nlen_mismatch_errors() {
        // BFINAL=1 BTYPE=00, then LEN=1 NLEN=0 (not complement).
        let data = [0b0000_0001u8, 1, 0, 0, 0, 0xAA];
        assert_eq!(decompress(&data), Err(DeflateError::BadStoredLength));
    }

    #[test]
    fn distance_beyond_history_errors() {
        use crate::bitio::{reverse_bits, BitWriter};
        // Fixed block: one literal then a match with dist 4 (only 1 byte
        // of history).
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        w.write_bits(reverse_bits(0x30 + b'x' as u32, 8) as u64, 8);
        // Length symbol 257 (len 3): 7-bit code value 1.
        w.write_bits(reverse_bits(1, 7) as u64, 7);
        // Distance symbol 3 (dist 4): 5-bit code 3.
        w.write_bits(reverse_bits(3, 5) as u64, 5);
        w.write_bits(0, 7); // EOB
        let packed = w.finish();
        assert!(matches!(
            decompress(&packed),
            Err(DeflateError::BadDistance { dist: 4, avail: 1 })
        ));
    }

    #[test]
    fn multi_gigabyte_expansion_is_not_attempted_on_garbage() {
        // Random bytes almost always fail quickly; assert error, not hang.
        let garbage = lcg(1000, 7);
        let _ = decompress(&garbage); // must terminate (any result)
    }

    #[test]
    fn window_spanning_matches_roundtrip() {
        // Data with matches near the full 32 KiB distance.
        let mut data = lcg(33_000, 3);
        let head: Vec<u8> = data[..200].to_vec();
        data.extend_from_slice(&head); // ~33 KB back: beyond the window
        let near: Vec<u8> = data[32_000..32_500].to_vec();
        data.extend_from_slice(&near); // within the window
        let packed = compress(&data, Level::Default);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn a_prefix_in_the_callers_vec_is_kept_and_out_of_reach() {
        let prefix = b"bytes the caller already holds".to_vec();
        let data = mesh_planes(500, 9);
        let stream = compress(&data, Level::Default);
        let mut out = prefix.clone();
        let (crc, consumed) = inflate_into(&stream, &mut out, data.len()).unwrap();
        assert_eq!(out, [prefix.as_slice(), &data].concat());
        assert_eq!((crc, consumed), (crc32(&data), stream.len()));
        // The cap counts from where the call began.
        let mut out = prefix.clone();
        let limit = data.len() - 1;
        let err = inflate_into(&stream, &mut out, limit);
        assert_eq!(err, Err(DeflateError::OutputLimit { limit }));
        assert_eq!(out, prefix);
        // Back-references reach only what the call wrote: in the checked
        // loop (a stream too short for the fast one) and past the fast
        // loop's hand-off.
        let head: Vec<Tok> = lcg(400, 10).into_iter().map(Tok::Lit).collect();
        let cases = [
            (vec![Tok::Match(3, 1)], "match distance 1 exceeds available history 0"),
            (vec![Tok::Lit(7), Tok::Match(3, 2)], "match distance 2 exceeds available history 1"),
            (
                [head, vec![Tok::Match(3, 401), Tok::Lit(1)]].concat(),
                "match distance 401 exceeds available history 400",
            ),
        ];
        for (toks, want) in cases {
            let stream = fixed_stream(&toks);
            for checked in [false, true] {
                let mut out = prefix.clone();
                let mut run =
                    || inflate_into(&stream, &mut out, usize::MAX).map_err(|e| e.to_string());
                let got = if checked { checked_only(run) } else { run() };
                assert_eq!(got, Err(want.to_string()), "checked only: {checked}");
                assert_eq!(out, prefix);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48 })]

        /// Run to the end of the stream, inflate writes back the input and
        /// returns its CRC-32 and the input position the stream ends at.
        /// Repeating the seed past 32 KiB puts long-range matches in the
        /// stream.
        #[test]
        fn inflate_returns_the_input_its_crc_and_where_the_stream_ends(
            seed in pvec(any::<u8>(), 0..12_000),
            reps in 1usize..6,
        ) {
            let data = seed.repeat(reps);
            let stream = compress(&data, Level::Default);
            let mut whole = Vec::new();
            let (crc, consumed) = inflate_into(&stream, &mut whole, data.len()).unwrap();
            prop_assert_eq!(&whole, &data);
            prop_assert_eq!(crc, crc32(&data));
            prop_assert_eq!(consumed, stream.len());
        }

        /// Our encoder's streams over random (stored past a gate block),
        /// run-heavy and mesh-plane inputs: both loops decode them alike
        /// under a limit anywhere in the output.
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
            let stream = compress(&data, Level::Default);
            let whole = loops_agree(&stream, usize::MAX);
            prop_assert_eq!(whole.map(|(b, _, _)| b), Ok(data.clone()));
            let _ = loops_agree(&stream, (cut % (data.len() as u64 + 1)) as usize);
        }
    }
}

#[cfg(test)]
mod limit_tests {
    use super::*;
    use crate::{compress, Level};

    /// The one inflate, run to the end of the stream under a cap.
    fn inflate_with_limit(data: &[u8], max_output: usize) -> Result<Vec<u8>, DeflateError> {
        let mut out = Vec::new();
        inflate_into(data, &mut out, max_output)?;
        Ok(out)
    }

    #[test]
    fn limit_allows_exact_size() {
        let data = vec![5u8; 10_000];
        let packed = compress(&data, Level::Default);
        assert_eq!(inflate_with_limit(&packed, 10_000).unwrap(), data);
    }

    #[test]
    fn limit_stops_bombs_early() {
        // Highly repetitive input: a ~10 MB payload from a tiny stream.
        let data = vec![0u8; 10_000_000];
        let packed = compress(&data, Level::Default);
        assert!(packed.len() < 20_000, "bomb setup: {} bytes", packed.len());
        let err = inflate_with_limit(&packed, 1_000_000).map(|done| done.len());
        assert_eq!(err, Err(DeflateError::OutputLimit { limit: 1_000_000 }));
    }

    #[test]
    fn limit_applies_to_stored_blocks_too() {
        // Noise: the gate stores it.
        let mut s = 9u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect();
        let packed = compress(&data, Level::Default);
        assert!(packed.len() > data.len(), "stored, not coded");
        assert!(matches!(
            inflate_with_limit(&packed, 50_000),
            Err(DeflateError::OutputLimit { .. })
        ));
    }
}
