//! LSB-first bit streams, as DEFLATE defines them (RFC 1951 §3.1.1):
//! data elements are packed starting from the least-significant bit of
//! each byte; Huffman codes are packed most-significant-bit first *of the
//! code*, which callers handle by reversing code bits before writing.
//!
//! Both ends run on a 64-bit accumulator. The writer stores the whole
//! accumulator's little-endian image at its write position — one
//! fixed-width store whatever the field width — and advances by the
//! complete bytes; the reader refills with one unaligned 8-byte load
//! and branch-free arithmetic whenever at least 8 input bytes remain.

// Decoder hardening (DESIGN.md §9): product code here is total on damaged bytes.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing, clippy::unwrap_used,
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::panic_in_result_fn, clippy::missing_panics_doc))]

use crate::DeflateError;

/// Bit writer accumulating into a byte vector, LSB-first.
#[derive(Debug, Default)]
pub struct BitWriter {
    /// Zero-filled up to `len()`; the stream so far is `out[..pos]`.
    out: Vec<u8>,
    /// Write position: complete bytes emitted.
    pos: usize,
    /// Bit accumulator; bits fill from the LSB upward.
    acc: u64,
    /// Number of valid bits in `acc` (< 8 after a flush).
    nbits: u32,
}

/// How far the writable region is extended (zero-filled) at a time.
/// Within the capacity reserved up front this touches memory only just
/// ahead of the write position.
const GROW_STEP: usize = 64 * 1024;

#[expect(
    clippy::indexing_slicing,
    clippy::as_conversions,
    clippy::missing_panics_doc,
    reason = "encoder: the hot bit writer; `grow` keeps `pos + 8` in bounds, and alignment is \
              the caller's invariant, not a property of untrusted bytes"
)]
impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty writer with room reserved (not touched) for `bytes` of
    /// output, so a caller that can bound its stream never reallocates.
    pub fn with_capacity(bytes: usize) -> Self {
        Self::after(Vec::new(), bytes)
    }

    /// A writer whose stream follows the bytes `out` already holds (a
    /// container header, say), with room reserved for `bytes` more:
    /// [`BitWriter::finish`] returns those bytes and the stream behind
    /// them in the one buffer.
    pub fn after(mut out: Vec<u8>, bytes: usize) -> Self {
        out.reserve(bytes);
        BitWriter { pos: out.len(), out, ..Self::default() }
    }

    /// Writes the low `count` bits of `bits` (count <= 56 per call).
    ///
    /// Callers batching several fields into one call (a Huffman code
    /// plus its extra bits, or a whole match token) stay within the
    /// 56-bit budget: 15 + 5 + 15 + 13 = 48 bits worst case.
    #[inline]
    pub fn write_bits(&mut self, bits: u64, count: u32) {
        debug_assert!(count <= 56, "bit count {count} too large for accumulator");
        self.burst(|b| {
            b.room(0);
            b.put(bits, count);
            b.store();
        });
    }

    /// Hands `f` the writer's state as locals — accumulator, bit count,
    /// write position — and takes it back after, so a hot loop keeps the
    /// state in registers and checks room once for a run of writes
    /// ([`Burst::room`]) instead of per write.
    #[inline]
    pub(crate) fn burst<R>(&mut self, f: impl FnOnce(&mut Burst<'_>) -> R) -> R {
        let mut b = Burst { out: &mut self.out, pos: self.pos, acc: self.acc, nbits: self.nbits };
        let r = f(&mut b);
        (self.pos, self.acc, self.nbits) = (b.pos, b.acc, b.nbits);
        r
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align_byte(&mut self) {
        if self.nbits > 0 {
            // Every store writes the whole accumulator, so the partial
            // byte already sits at `pos`: keep it.
            let [low, ..] = self.acc.to_le_bytes();
            debug_assert_eq!(self.out.get(self.pos), Some(&low));
            self.pos += 1;
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Appends whole bytes; the stream must be byte-aligned (used for
    /// stored blocks).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(self.nbits, 0, "write_bytes requires byte alignment");
        if self.pos + bytes.len() > self.out.len() {
            grow(&mut self.out, self.pos, bytes.len());
        }
        self.out[self.pos..self.pos + bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
    }

    /// Current length in bits (for cost accounting).
    pub fn bit_len(&self) -> usize {
        self.pos * 8 + self.nbits as usize
    }

    /// Finishes the stream, padding the final partial byte with zeros.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out.truncate(self.pos);
        self.out
    }
}

/// Makes `out[pos..pos + need]` writable: zero-fills a step ahead,
/// inside the reservation while it holds what is needed.
#[cold]
fn grow(out: &mut Vec<u8>, pos: usize, need: usize) {
    let want = pos + need;
    let mut len = want.max(out.len() + GROW_STEP);
    if want <= out.capacity() {
        len = len.min(out.capacity());
    }
    out.resize(len, 0);
}

/// A [`BitWriter`]'s state lent to [`BitWriter::burst`]: fields go into
/// the accumulator with [`Burst::put`], and [`Burst::store`] writes it
/// out. Between stores the puts may add at most 56 bits; each store
/// advances the write position by at most 7 bytes, into room a
/// [`Burst::room`] call made.
pub(crate) struct Burst<'a> {
    out: &'a mut Vec<u8>,
    pos: usize,
    acc: u64,
    nbits: u32,
}

#[expect(
    clippy::indexing_slicing,
    clippy::as_conversions,
    reason = "encoder: `room` grows the buffer for the stores its caller makes, and a store \
              that outran it would be an accounting bug, not a property of untrusted bytes"
)]
impl Burst<'_> {
    /// Makes room for stores that advance the write position by `bytes`
    /// in all.
    #[inline]
    pub(crate) fn room(&mut self, bytes: usize) {
        if self.pos + bytes + 8 > self.out.len() {
            grow(self.out, self.pos, bytes + 8);
        }
    }

    /// Adds the low `count` bits of `bits` above the pending ones.
    #[inline]
    pub(crate) fn put(&mut self, bits: u64, count: u32) {
        debug_assert!(count == 64 || bits < (1u64 << count), "extraneous high bits");
        self.acc |= bits << self.nbits;
        self.nbits += count;
    }

    /// Stores all eight bytes of the accumulator and keeps the complete
    /// ones. `nbits` is < 8 after a store, so with at most 56 bits put
    /// since, it is <= 63 here and the shift is in range; the bytes past
    /// the complete ones are rewritten by the next store.
    #[inline]
    pub(crate) fn store(&mut self) {
        debug_assert!(self.nbits <= 63, "more than 56 bits put since the last store");
        self.out[self.pos..self.pos + 8].copy_from_slice(&self.acc.to_le_bytes());
        let bytes = self.nbits / 8;
        self.pos += bytes as usize;
        self.acc >>= bytes * 8;
        self.nbits &= 7;
    }
}

/// Bit reader over a byte slice, LSB-first.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte to load.
    pos: usize,
    /// Bit accumulator; valid bits start at the LSB.
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// New reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0, acc: 0, nbits: 0 }
    }

    /// Refills the accumulator as far as possible.
    ///
    /// Fast path: one unaligned 8-byte little-endian load, then
    /// branch-free advance. `nbits | 56` equals
    /// `nbits + 8 * ((63 - nbits) >> 3)` for `nbits < 64`, i.e. the
    /// accumulator ends up holding 56..=63 valid bits and `pos` moves
    /// by exactly the bytes those new bits came from.
    #[inline]
    fn refill(&mut self) {
        if !self.refill_wide() {
            self.refill_tail();
        }
    }

    /// The fast inflate loop's refill: when at least 8 input bytes
    /// remain, one 8-byte load leaves 56..=63 valid bits buffered and
    /// this returns `true`; otherwise nothing changes and it returns
    /// `false`.
    #[inline]
    pub(crate) fn refill_wide(&mut self) -> bool {
        let Some(chunk) = self.data.get(self.pos..).and_then(|tail| tail.first_chunk::<8>()) else {
            return false;
        };
        self.acc |= u64::from_le_bytes(*chunk) << self.nbits;
        self.pos += crate::usize_from_u32((63 - self.nbits) >> 3);
        self.nbits |= 56;
        true
    }

    /// The buffered bits, next bit lowest: after
    /// [`BitReader::refill_wide`] the low 56 are all stream bits.
    #[inline]
    pub(crate) fn buffered(&self) -> u64 {
        self.acc
    }

    /// Drops `count` buffered bits the caller has already decoded from
    /// [`BitReader::buffered`]; `count` must not exceed what the last
    /// [`BitReader::refill_wide`] left (the fast loop spends at most 48).
    #[inline]
    pub(crate) fn skip(&mut self, count: u32) {
        debug_assert!(count <= self.nbits);
        self.acc >>= count;
        self.nbits -= count;
    }

    /// Byte-at-a-time refill for the last < 8 bytes of input.
    #[cold]
    fn refill_tail(&mut self) {
        while self.nbits <= 56 {
            let Some(&b) = self.data.get(self.pos) else { break };
            self.acc |= u64::from(b) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Reads `count` bits (<= 56). Errors at end of input.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64, DeflateError> {
        debug_assert!(count <= 56);
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return Err(DeflateError::UnexpectedEof);
            }
        }
        let mask = if count == 64 { u64::MAX } else { (1u64 << count) - 1 };
        let v = self.acc & mask;
        self.acc >>= count;
        self.nbits -= count;
        Ok(v)
    }

    /// Reads `count` bits (<= 32) as a `usize` — the flavor of
    /// [`BitReader::read_bits`] for fields that size in-memory
    /// structures. A 32-bit field always fits `usize` on supported
    /// targets, so the conversion never loses bits.
    #[inline]
    pub fn read_bits_usize(&mut self, count: u32) -> Result<usize, DeflateError> {
        debug_assert!(count <= 32);
        usize::try_from(self.read_bits(count)?).map_err(|_| DeflateError::UnexpectedEof)
    }

    /// Peeks up to `count` bits without consuming; missing trailing bits
    /// read as zero (standard for Huffman peek at stream end).
    #[inline]
    pub fn peek_bits(&mut self, count: u32) -> u64 {
        debug_assert!(count <= 56);
        if self.nbits < count {
            self.refill();
        }
        let mask = if count >= 64 { u64::MAX } else { (1u64 << count) - 1 };
        self.acc & mask
    }

    /// Consumes `count` bits previously peeked. Errors if fewer remain.
    #[inline]
    pub fn consume(&mut self, count: u32) -> Result<(), DeflateError> {
        if self.nbits < count {
            return Err(DeflateError::UnexpectedEof);
        }
        self.acc >>= count;
        self.nbits -= count;
        Ok(())
    }

    /// Number of bits still available.
    pub fn bits_remaining(&self) -> usize {
        crate::usize_from_u32(self.nbits) + (self.data.len() - self.pos) * 8
    }

    /// Number of input bytes consumed so far, counting a partially-read
    /// byte as consumed. After a DEFLATE stream ends mid-byte, this is
    /// where the next byte-aligned structure (e.g. a gzip trailer)
    /// begins.
    pub fn bytes_consumed(&self) -> usize {
        (self.pos * 8 - crate::usize_from_u32(self.nbits)).div_ceil(8)
    }

    /// Discards buffered bits to the next byte boundary and returns the
    /// remaining byte-aligned tail view (used for stored blocks).
    pub fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Fills `out` with whole bytes read after alignment — a stored
    /// block lands in the inflate output with no staging buffer. On
    /// error `out` is unchanged.
    pub fn read_bytes(&mut self, out: &mut [u8]) -> Result<(), DeflateError> {
        debug_assert_eq!(self.nbits % 8, 0, "read_bytes requires byte alignment");
        if self.bits_remaining() / 8 < out.len() {
            return Err(DeflateError::UnexpectedEof);
        }
        // Drain whole bytes buffered in the accumulator first…
        let mut filled = 0;
        while self.nbits >= 8 {
            let Some(slot) = out.get_mut(filled) else { break };
            let [low, ..] = self.acc.to_le_bytes();
            *slot = low;
            self.acc >>= 8;
            self.nbits -= 8;
            filled += 1;
        }
        // The wide refill loads 8 bytes but advances `pos` by 7, so the
        // accumulator may hold uncounted bits above `nbits` that mirror
        // `data[pos]`. Bit reads keep that mirror consistent; jumping
        // `pos` below would not, so drop everything past `nbits` here.
        if self.nbits == 0 {
            self.acc = 0;
        } else {
            self.acc &= (1u64 << self.nbits) - 1;
        }
        // …then bulk-copy the rest straight from the input.
        let rest = out.get_mut(filled..).unwrap_or_default();
        let end = self.pos.checked_add(rest.len()).ok_or(DeflateError::UnexpectedEof)?;
        let tail = self.data.get(self.pos..end).ok_or(DeflateError::UnexpectedEof)?;
        rest.copy_from_slice(tail);
        self.pos = end;
        Ok(())
    }
}

/// Reverses the low `n` bits of `code` — Huffman codes are written
/// MSB-of-code first into the LSB-first stream.
#[inline]
pub fn reverse_bits(code: u32, n: u32) -> u32 {
    code.reverse_bits() >> (32 - n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    /// The sink this crate shipped before the fixed-width store, kept
    /// as the oracle: complete bytes are appended a variable-length
    /// slice at a time.
    #[derive(Default)]
    struct ReferenceWriter {
        out: Vec<u8>,
        acc: u64,
        nbits: u32,
    }

    impl ReferenceWriter {
        fn write_bits(&mut self, bits: u64, count: u32) {
            self.acc |= bits << self.nbits;
            self.nbits += count;
            let bytes = (self.nbits / 8) as usize;
            self.out.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
            self.acc >>= bytes * 8;
            self.nbits &= 7;
        }

        fn align_byte(&mut self) {
            if self.nbits > 0 {
                self.out.push(self.acc.to_le_bytes()[0]);
                self.acc = 0;
                self.nbits = 0;
            }
        }

        fn finish(mut self) -> Vec<u8> {
            self.align_byte();
            self.out
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128 })]

        /// The sink is a pure speed-up: any interleaving of fields up to
        /// 56 bits wide, alignments and aligned byte runs gives the
        /// bytes (and, on the way, the bit length) the old sink gave —
        /// from an empty writer, which grows as it goes, and from one
        /// whose reservation the stream outruns.
        #[test]
        fn stream_equals_the_reference_sink(
            ops in pvec((any::<u64>(), 0u32..=56, 0u8..12), 0..600),
            reserve in 0usize..4096,
        ) {
            let mut reference = ReferenceWriter::default();
            let mut sinks = [BitWriter::new(), BitWriter::with_capacity(reserve)];
            for &(value, count, kind) in &ops {
                match kind {
                    0 => {
                        reference.align_byte();
                        sinks.iter_mut().for_each(BitWriter::align_byte);
                    }
                    1 => {
                        // A stored block's shape: align, then raw bytes
                        // (up to 2 KiB, so runs cross the reservation).
                        let run = value.to_le_bytes().repeat(value as usize % 256);
                        reference.align_byte();
                        reference.out.extend_from_slice(&run);
                        for w in &mut sinks {
                            w.align_byte();
                            w.write_bytes(&run);
                        }
                    }
                    _ => {
                        let field = if count == 0 { 0 } else { value >> (64 - count) };
                        reference.write_bits(field, count);
                        sinks.iter_mut().for_each(|w| w.write_bits(field, count));
                    }
                }
                let bits = reference.out.len() * 8 + reference.nbits as usize;
                prop_assert!(sinks.iter().all(|w| w.bit_len() == bits));
            }
            let want = reference.finish();
            for w in sinks {
                prop_assert_eq!(&w.finish(), &want);
            }
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11110000, 8);
        w.write_bits(0x3FFF, 14);
        w.write_bits(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(8).unwrap(), 0b11110000);
        assert_eq!(r.read_bits(14).unwrap(), 0x3FFF);
        assert_eq!(r.read_bits(1).unwrap(), 1);
    }

    #[test]
    fn lsb_first_bit_order() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // bit 0 of byte 0
        w.write_bits(0, 1);
        w.write_bits(1, 1); // bit 2
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0101]);
    }

    #[test]
    fn align_and_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.align_byte();
        w.write_bytes(&[0xAB, 0xCD]);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0011, 0xAB, 0xCD]);

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        r.align_byte();
        let mut out = [0u8; 2];
        r.read_bytes(&mut out).unwrap();
        assert_eq!(out, [0xAB, 0xCD]);
    }

    #[test]
    fn bytes_consumed_counts_aligned_byte_reads() {
        let mut r = BitReader::new(&[0xAA, 0xBB, 0xCC, 0xDD]);
        r.read_bits(3).unwrap();
        r.align_byte();
        assert_eq!(r.bytes_consumed(), 1);
        let mut out = [0u8; 2];
        r.read_bytes(&mut out).unwrap();
        assert_eq!(r.bytes_consumed(), 3);
        // Too few bytes left: an error, and nothing written.
        let mut more = [0x11u8; 2];
        assert_eq!(r.read_bytes(&mut more), Err(DeflateError::UnexpectedEof));
        assert_eq!((out, more), ([0xBB, 0xCC], [0x11; 2]));
    }

    #[test]
    fn eof_detection() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bits(1), Err(DeflateError::UnexpectedEof));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = BitReader::new(&[0b1010_1010]);
        assert_eq!(r.peek_bits(4), 0b1010);
        assert_eq!(r.peek_bits(4), 0b1010);
        r.consume(2).unwrap();
        assert_eq!(r.read_bits(2).unwrap(), 0b10);
    }

    #[test]
    fn peek_past_end_reads_zeros() {
        let mut r = BitReader::new(&[0x01]);
        assert_eq!(r.peek_bits(16), 0x0001);
        assert_eq!(r.bits_remaining(), 8);
    }

    #[test]
    fn reverse_bits_examples() {
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b10000000, 8), 0b00000001);
        assert_eq!(reverse_bits(0b0111, 4), 0b1110);
    }

    #[test]
    fn long_stream_roundtrip() {
        let mut w = BitWriter::new();
        for i in 0..10_000u64 {
            w.write_bits(i % 32, 5);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for i in 0..10_000u64 {
            assert_eq!(r.read_bits(5).unwrap(), i % 32);
        }
    }

    #[test]
    fn wide_writes_interleave_with_narrow() {
        // Maximum-width writes next to 1-bit writes exercise the
        // multi-byte flush path at every alignment.
        let mut w = BitWriter::new();
        for i in 0..1_000u64 {
            w.write_bits(i & 1, 1);
            w.write_bits(i.wrapping_mul(0x9E37_79B9) & ((1 << 48) - 1), 48);
            w.write_bits(i & 0x7F, 7);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for i in 0..1_000u64 {
            assert_eq!(r.read_bits(1).unwrap(), i & 1);
            assert_eq!(r.read_bits(48).unwrap(), i.wrapping_mul(0x9E37_79B9) & ((1 << 48) - 1));
            assert_eq!(r.read_bits(7).unwrap(), i & 0x7F);
        }
    }

    #[test]
    fn refill_fast_and_tail_paths_agree() {
        // Inputs straddling the 8-byte fast-path boundary: every length
        // from 0 to 24 bytes, read back bit by bit.
        for n in 0..24usize {
            let data: Vec<u8> = (0..n).map(|i| (i * 37 + 11) as u8).collect();
            let mut r = BitReader::new(&data);
            for (i, &b) in data.iter().enumerate() {
                assert_eq!(r.read_bits(8).unwrap(), u64::from(b), "len {n} byte {i}");
            }
            assert!(r.read_bits(1).is_err());
        }
    }

    #[test]
    fn bit_len_tracks_progress() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0, 13);
        assert_eq!(w.bit_len(), 16);
    }
}
