//! DEFLATE block encoder (RFC 1951).
//!
//! Before the matcher sees anything, a noise gate classifies every full
//! [`GATE_BLOCK`] of the input by two byte histograms, of its bytes and
//! of their first differences: a run of blocks an ideal order-0 code
//! could shrink by 1.5% through neither — the mantissa planes of a
//! transposed f64 region — is written as stored blocks and is never
//! searched, indexed or tokenized. The ranges between go
//! through the LZ77 matcher, whose tokens stream straight into a segment
//! encoder (fused tokenize→encode: no whole-input `Vec<Token>`). The
//! encoder buffers one block of at most [`SEGMENT_BYTES`] source bytes
//! as packed `u32` tokens while accumulating symbol histograms (the
//! extra bits follow from those), then emits the block as whichever type is
//! cheapest — stored, fixed-Huffman, or dynamic-Huffman (stored blocks
//! chunk at the 65 535-byte limit). Block cuts fall where the statistics
//! change: every [`SPLIT_CHECK_BYTES`] of source the newest chunk is
//! costed against the open block (an integer order-0 cost, the same on
//! every host), and a block ends before a chunk whose own table would
//! save more than a dynamic header; a block also ends where a gated run
//! begins. Per-block Huffman tables matter for checkpoint streams, whose
//! sections have very different statistics (f64 byte planes, then
//! one-byte quantizer indexes subband by subband, then a bitmap).
//!
//! Length and distance symbols resolve through precomputed tables
//! (`LEN_CODE`, `DIST_SYM_LO`/`DIST_SYM_HI`) instead of per-token
//! linear scans; the sink resolves a match's distance symbol once and
//! keeps it in the token. A block's tables are planned in fixed arrays,
//! and its body is written with the bit writer's state in locals: each
//! store takes up to three literals or one match's four fields (length
//! code, length extra, distance code, distance extra — at most 48
//! bits), each field a load from a table built per block.

use crate::bitio::BitWriter;
use crate::huffman::{code_lengths, Encoder};
use crate::lz77::{Matcher, TokenSink};
use crate::Level;
use std::sync::OnceLock;

/// Number of literal/length symbols (0..=285, 286/287 reserved).
pub const NUM_LITLEN: usize = 286;
/// Number of distance symbols.
pub const NUM_DIST: usize = 30;
/// End-of-block symbol.
pub const END_OF_BLOCK: usize = 256;

/// `(base_length, extra_bits)` for length codes 257..=285.
pub const LENGTH_TABLE: [(u16, u8); 29] = [
    (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0), (10, 0),
    (11, 1), (13, 1), (15, 1), (17, 1),
    (19, 2), (23, 2), (27, 2), (31, 2),
    (35, 3), (43, 3), (51, 3), (59, 3),
    (67, 4), (83, 4), (99, 4), (115, 4),
    (131, 5), (163, 5), (195, 5), (227, 5),
    (258, 0),
];

/// `(base_distance, extra_bits)` for distance codes 0..=29.
pub const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0), (2, 0), (3, 0), (4, 0),
    (5, 1), (7, 1), (9, 2), (13, 2),
    (17, 3), (25, 3), (33, 4), (49, 4),
    (65, 5), (97, 5), (129, 6), (193, 6),
    (257, 7), (385, 7), (513, 8), (769, 8),
    (1025, 9), (1537, 9), (2049, 10), (3073, 10),
    (4097, 11), (6145, 11), (8193, 12), (12289, 12),
    (16385, 13), (24577, 13),
];

/// Transmission order of code-length-code lengths (RFC 1951 §3.2.7).
pub const CLCODE_ORDER: [usize; 19] =
    [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

/// `LEN_CODE[len - 3] = (length_code_index, extra_bits, extra_value)`,
/// precomputed for every legal match length.
const LEN_CODE: [(u8, u8, u8); 256] = build_len_code();

const fn build_len_code() -> [(u8, u8, u8); 256] {
    let mut t = [(0u8, 0u8, 0u8); 256];
    let mut len = 3usize;
    while len <= 258 {
        // Last code whose base <= len; length 258 lands on code 285
        // (extra 0), not 284 + extra 31.
        let mut idx = 0usize;
        let mut i = 0usize;
        while i < 29 {
            if LENGTH_TABLE[i].0 as usize <= len {
                idx = i;
            }
            i += 1;
        }
        let base = LENGTH_TABLE[idx].0 as usize;
        t[len - 3] = (idx as u8, LENGTH_TABLE[idx].1, (len - base) as u8);
        len += 1;
    }
    t
}

/// Distance-to-code maps: `DIST_SYM_LO[d - 1]` for d in 1..=256, and
/// `DIST_SYM_HI[(d - 1) >> 7]` for d in 257..=32768 (every 128-wide
/// slice above 256 falls inside one distance bucket, since all bases
/// above 257 sit on 128-byte boundaries).
const DIST_SYM_LO: [u8; 256] = build_dist_sym_lo();
const DIST_SYM_HI: [u8; 256] = build_dist_sym_hi();

const fn dist_code_of(d: usize) -> u8 {
    let mut idx = 0usize;
    let mut i = 0usize;
    while i < 30 {
        if DIST_TABLE[i].0 as usize <= d {
            idx = i;
        }
        i += 1;
    }
    idx as u8
}

const fn build_dist_sym_lo() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut d = 1usize;
    while d <= 256 {
        t[d - 1] = dist_code_of(d);
        d += 1;
    }
    t
}

const fn build_dist_sym_hi() -> [u8; 256] {
    let mut t = [0u8; 256];
    // Index j covers distances j*128+1 ..= (j+1)*128; entries 0 and 1
    // are shadowed by DIST_SYM_LO.
    let mut j = 2usize;
    while j < 256 {
        t[j] = dist_code_of(j * 128 + 1);
        j += 1;
    }
    t
}

/// Maps a match length (3..=258) to `(symbol, extra_bits, extra_value)`.
#[inline]
pub fn length_symbol(len: u16) -> (usize, u8, u16) {
    debug_assert!((3..=258).contains(&len));
    let (idx, extra, val) = LEN_CODE[len as usize - 3];
    (257 + idx as usize, extra, val as u16)
}

/// The distance symbol of `d` (1..=32768).
#[inline]
fn dist_code(d: usize) -> usize {
    if d <= 256 {
        DIST_SYM_LO[d - 1] as usize
    } else {
        DIST_SYM_HI[(d - 1) >> 7] as usize
    }
}

/// Maps a distance (1..=32768) to `(symbol, extra_bits, extra_value)`.
#[inline]
pub fn dist_symbol(dist: u16) -> (usize, u8, u16) {
    debug_assert!(dist >= 1);
    let idx = dist_code(dist as usize);
    let (base, extra) = DIST_TABLE[idx];
    (idx, extra, dist - base)
}

/// The fixed literal/length code lengths (RFC 1951 §3.2.6).
pub const fn fixed_litlen_lengths() -> [u8; 288] {
    let mut lens = [8u8; 288];
    let mut s = 144;
    while s < 256 {
        lens[s] = 9;
        s += 1;
    }
    while s < 280 {
        lens[s] = 7;
        s += 1;
    }
    lens
}

/// The fixed distance code lengths: thirty-two 5-bit codes.
pub const fn fixed_dist_lengths() -> [u8; 32] {
    [5u8; 32]
}

const FIXED_LITLEN: [u8; 288] = fixed_litlen_lengths();
const FIXED_DIST: [u8; 32] = fixed_dist_lengths();

/// The fixed-block encoders `(literal/length, distance)`, built once.
fn fixed_encoders() -> &'static (Encoder, Encoder) {
    static FIXED: OnceLock<(Encoder, Encoder)> = OnceLock::new();
    FIXED.get_or_init(|| (Encoder::from_lengths(&FIXED_LITLEN), Encoder::from_lengths(&FIXED_DIST)))
}

/// Packed token: a run of literals is its length (the bytes are the
/// source's, where the run covers it); a match sets bit 31 and carries
/// the distance symbol in bits 24..29, `len - 3` in bits 16..24 and
/// `dist - 1` in bits 0..16.
const TOKEN_MATCH: u32 = 1 << 31;

/// Bit cost of the token body (without the 3-bit block header) under
/// the given code lengths, computed from the segment histograms (the
/// extra bits too, [`Symbols::extra_bits`]), so no token pass is
/// needed.
fn body_cost_from_freqs(
    lit_freq: &[u64],
    dist_freq: &[u64],
    extra_bits: u64,
    lit_lens: &[u8],
    dist_lens: &[u8],
) -> u64 {
    let mut bits = extra_bits;
    for (&f, &l) in lit_freq.iter().zip(lit_lens) {
        bits += f * u64::from(l);
    }
    for (&f, &l) in dist_freq.iter().zip(dist_lens) {
        bits += f * u64::from(l);
    }
    bits
}

/// A block's codes as the body writer takes them: a literal is one
/// load, a match two, each a `(bits, count)` pair ready for the
/// accumulator.
struct BodyCodes {
    /// Literals 0..256, then match lengths 3..=258: the code, for a
    /// length with its extra bits behind it, and the bit count in the
    /// top byte.
    litlen: [u64; 512],
    /// Per distance symbol: `(code, code length, base − 1, extra bits)`.
    dist: [(u32, u32, u32, u32); 32],
}

impl BodyCodes {
    fn new(lit: &Encoder, dist: &Encoder) -> Self {
        let mut litlen = [0u64; 512];
        let (literals, lengths) = litlen.split_at_mut(256);
        for (slot, byte) in literals.iter_mut().zip(0..) {
            let e = lit.entry(byte);
            *slot = u64::from(e & 0x00FF_FFFF) | u64::from(e >> 24) << 56;
        }
        for (slot, &(li, extra, value)) in lengths.iter_mut().zip(&LEN_CODE) {
            let e = lit.entry(257 + li as usize);
            let n = e >> 24;
            let bits = u64::from(e & 0x00FF_FFFF) | u64::from(value) << n;
            *slot = bits | u64::from(n + u32::from(extra)) << 56;
        }
        let mut codes = [(0, 0, 0, 0); 32];
        for ((slot, &(base, extra)), sym) in codes.iter_mut().zip(&DIST_TABLE).zip(0..) {
            let e = dist.entry(sym);
            *slot = (e & 0x00FF_FFFF, e >> 24, u32::from(base) - 1, u32::from(extra));
        }
        BodyCodes { litlen, dist: codes }
    }

    /// The `(bits, count)` of a literal or match length table entry.
    #[inline]
    fn unpack(entry: u64) -> (u64, u32) {
        (entry & ((1 << 56) - 1), (entry >> 56) as u32)
    }
}

/// Writes the token body of `src`, the source bytes the tokens cover,
/// with prepared encoders and the writer's state in locals. A literal
/// run is coded from `src` three literals (45 bits) a store; a match is
/// one store of its four fields — length code + length extra +
/// distance code + distance extra never exceed 15 + 5 + 15 + 13 = 48
/// bits.
fn write_body(w: &mut BitWriter, tokens: &[u32], src: &[u8], lit: &Encoder, dist: &Encoder) {
    let codes = BodyCodes::new(lit, dist);
    let literal = |byte: u8| BodyCodes::unpack(codes.litlen[usize::from(byte)]);
    w.burst(|b| {
        let mut at = 0;
        for &t in tokens {
            if t & TOKEN_MATCH == 0 {
                let run = &src[at..at + t as usize];
                at += run.len();
                // At most six bytes a store, a store per three literals.
                b.room(2 * run.len() + 6);
                let mut threes = run.chunks_exact(3);
                for three in threes.by_ref() {
                    let ((x, nx), (y, ny), (z, nz)) =
                        (literal(three[0]), literal(three[1]), literal(three[2]));
                    b.put(x | y << nx | z << (nx + ny), nx + ny + nz);
                    b.store();
                }
                for &byte in threes.remainder() {
                    let (bits, n) = literal(byte);
                    b.put(bits, n);
                }
                b.store();
            } else {
                let (bits, n) = BodyCodes::unpack(codes.litlen[256 | (t >> 16) as usize & 0xFF]);
                let (code, code_len, base, extra) = codes.dist[(t >> 24) as usize & 0x1F];
                let d = u64::from(code) | u64::from((t & 0xFFFF) - base) << code_len;
                b.room(6);
                b.put(bits | d << n, n + code_len + extra);
                b.store();
                at += 3 + ((t >> 16) & 0xFF) as usize;
            }
        }
    });
    let e = lit.entry(END_OF_BLOCK);
    w.write_bits(u64::from(e & 0x00FF_FFFF), e >> 24);
}

/// Code-length symbols of a dynamic header at most: one per length.
const MAX_RLE: usize = NUM_LITLEN + NUM_DIST;

/// Run-length-encodes the concatenated code-length arrays into
/// code-length-code symbols `(symbol, extra_bits, extra_value)` at the
/// front of `out`, and returns how many.
fn rle_code_lengths(lens: &[u8], out: &mut [(u8, u8, u8); MAX_RLE]) -> usize {
    let mut n = 0;
    let mut push = |sym: (u8, u8, u8)| {
        out[n] = sym;
        n += 1;
    };
    let mut i = 0usize;
    while i < lens.len() {
        let v = lens[i];
        let mut run = 1usize;
        while i + run < lens.len() && lens[i + run] == v {
            run += 1;
        }
        if v == 0 {
            let mut left = run;
            while left >= 11 {
                let take = left.min(138);
                push((18, 7, (take - 11) as u8));
                left -= take;
            }
            if left >= 3 {
                push((17, 3, (left - 3) as u8));
                left = 0;
            }
            for _ in 0..left {
                push((0, 0, 0));
            }
        } else {
            push((v, 0, 0));
            let mut left = run - 1;
            while left >= 3 {
                let take = left.min(6);
                push((16, 2, (take - 3) as u8));
                left -= take;
            }
            for _ in 0..left {
                push((v, 0, 0));
            }
        }
        i += run;
    }
    n
}

/// A prepared dynamic block header, in fixed arrays. The two tables
/// are whole alphabets (what the encoders index); the header transmits
/// their first `hlit` and `hdist` lengths, as `rle[..rle_len]`.
struct DynamicPlan {
    lit_lens: [u8; NUM_LITLEN],
    dist_lens: [u8; NUM_DIST],
    hlit: usize,
    hdist: usize,
    rle: [(u8, u8, u8); MAX_RLE],
    rle_len: usize,
    cl_lens: [u8; 19],
    hclen: usize,
    header_bits: usize,
}

fn plan_dynamic(lit_freq: &[u64; NUM_LITLEN], dist_freq: &[u64; NUM_DIST]) -> DynamicPlan {
    let mut lit_lens = [0u8; NUM_LITLEN];
    let mut dist_lens = [0u8; NUM_DIST];
    code_lengths(lit_freq, 15, &mut lit_lens);
    code_lengths(dist_freq, 15, &mut dist_lens);
    // HLIT >= 257, HDIST >= 1: trailing zeros are cut down to the minima.
    let hlit = (257..=NUM_LITLEN).rev().find(|&k| k == 257 || lit_lens[k - 1] != 0).unwrap();
    let hdist = (1..=NUM_DIST).rev().find(|&k| k == 1 || dist_lens[k - 1] != 0).unwrap();

    let mut all = [0u8; NUM_LITLEN + NUM_DIST];
    all[..hlit].copy_from_slice(&lit_lens[..hlit]);
    all[hlit..hlit + hdist].copy_from_slice(&dist_lens[..hdist]);
    let mut rle = [(0u8, 0u8, 0u8); MAX_RLE];
    let rle_len = rle_code_lengths(&all[..hlit + hdist], &mut rle);

    let mut cl_freq = [0u64; 19];
    for &(sym, _, _) in &rle[..rle_len] {
        cl_freq[sym as usize] += 1;
    }
    let mut cl_lens = [0u8; 19];
    code_lengths(&cl_freq, 7, &mut cl_lens);
    let hclen = (4..=19)
        .rev()
        .find(|&k| k == 4 || cl_lens[CLCODE_ORDER[k - 1]] != 0)
        .unwrap();

    let mut header_bits = 5 + 5 + 4 + 3 * hclen;
    for &(sym, extra, _) in &rle[..rle_len] {
        header_bits += cl_lens[sym as usize] as usize + extra as usize;
    }
    DynamicPlan { lit_lens, dist_lens, hlit, hdist, rle, rle_len, cl_lens, hclen, header_bits }
}

fn write_dynamic_block(
    w: &mut BitWriter,
    plan: &DynamicPlan,
    tokens: &[u32],
    src: &[u8],
    bfinal: bool,
) {
    w.write_bits(bfinal as u64, 1);
    w.write_bits(0b10, 2);
    w.write_bits((plan.hlit - 257) as u64, 5);
    w.write_bits((plan.hdist - 1) as u64, 5);
    w.write_bits((plan.hclen - 4) as u64, 4);
    for &ord in CLCODE_ORDER.iter().take(plan.hclen) {
        w.write_bits(plan.cl_lens[ord] as u64, 3);
    }
    let cl_enc = Encoder::from_lengths(&plan.cl_lens);
    for &(sym, extra, val) in &plan.rle[..plan.rle_len] {
        cl_enc.write(w, sym as usize);
        if extra > 0 {
            w.write_bits(val as u64, extra as u32);
        }
    }
    let lit = Encoder::from_lengths(&plan.lit_lens);
    let dist = Encoder::from_lengths(&plan.dist_lens);
    write_body(w, tokens, src, &lit, &dist);
}

fn write_fixed_block(w: &mut BitWriter, tokens: &[u32], src: &[u8], bfinal: bool) {
    w.write_bits(bfinal as u64, 1);
    w.write_bits(0b01, 2);
    let (lit, dist) = fixed_encoders();
    write_body(w, tokens, src, lit, dist);
}

/// Writes `data` as stored blocks (chunked at 65 535 bytes); the last
/// chunk carries BFINAL = `bfinal`.
fn write_stored_chunks(w: &mut BitWriter, data: &[u8], bfinal: bool) {
    let mut rest = data;
    loop {
        let (chunk, later) = rest.split_at(rest.len().min(65_535));
        w.write_bits((bfinal && later.is_empty()) as u64, 1);
        w.write_bits(0b00, 2);
        w.align_byte();
        let len = chunk.len() as u16;
        w.write_bits(len as u64, 16);
        w.write_bits((!len) as u64, 16);
        w.write_bytes(chunk);
        if later.is_empty() {
            break;
        }
        rest = later;
    }
}

/// Source bytes per emitted block at most: large enough to amortize
/// dynamic headers, small enough that sections with different statistics
/// get their own Huffman tables even where the split rule sees no seam.
pub const SEGMENT_BYTES: usize = 128 * 1024;

/// The block-split rule's unit: every this many source bytes taken into
/// a block, the newest chunk is costed against the block before it.
pub const SPLIT_CHECK_BYTES: usize = 8 * 1024;

/// A chunk starts a block of its own when its own order-0 code would
/// save more than this many bits over sharing the block's: about what a
/// dynamic block header costs.
const SPLIT_GAIN_BITS: u64 = 128 * 8;

/// The noise gate's unit: every full, aligned block of this many source
/// bytes is classified by its histograms before the matcher sees it.
pub const GATE_BLOCK: usize = 16 * 1024;

/// A block is noise when coding its bytes with an ideal order-0 code
/// would still cost at least this many thousandths of storing them.
const GATE_PER_MILLE: u64 = 985;

/// No symbol of a noise block is this frequent: with one byte value on
/// a sixteenth of the block, the flattest histogram left costs 7.83
/// bits a byte, under the gate's 7.88.
const GATE_MAX_COUNT: usize = GATE_BLOCK / 16;

/// Entries of [`LOG2_Q16`]: the gate's counts index it directly, larger
/// counts through their top 12 bits.
const LOG2_ENTRIES: usize = 4096;

/// `LOG2_Q16[f]` = log2(f) in 16.16 fixed point, by repeated squaring of
/// the mantissa — integer arithmetic, so the gate and the split rule
/// decide the same on every host. Entry 0 is unused (an absent symbol
/// costs nothing).
const LOG2_Q16: [u32; LOG2_ENTRIES] = build_log2_q16();

const fn build_log2_q16() -> [u32; LOG2_ENTRIES] {
    let mut t = [0u32; LOG2_ENTRIES];
    let mut f = 1usize;
    while f < LOG2_ENTRIES {
        let e = (f as u32).ilog2();
        // Mantissa in [1, 2) as 1.31 fixed point.
        let mut y = (f as u64) << (31 - e);
        let mut log = e << 16;
        let mut bit = 16;
        while bit > 0 {
            bit -= 1;
            y = (y * y) >> 31;
            if y >= 1 << 32 {
                y >>= 1;
                log |= 1 << bit;
            }
        }
        t[f] = log;
        f += 1;
    }
    t
}

/// f·log2(f) in 16.16 bits (0 for 0). Counts past the table keep their
/// top 12 bits, which reads log2 low by at most 0.0007.
fn xlog2_q16(f: u64) -> u64 {
    let shift = (64 - f.leading_zeros()).saturating_sub(LOG2_ENTRIES.ilog2());
    let log = LOG2_Q16[(f >> shift) as usize] + (shift << 16);
    f * u64::from(log)
}

/// A gate block's byte histogram as four lanes, by position mod 4, so
/// runs of one value do not serialize on a single counter.
type Lanes = [[u32; 256]; 4];

/// Each byte value's count: its four lanes summed.
fn counts(lanes: &Lanes) -> impl Iterator<Item = usize> + '_ {
    let [a, b, c, d] = lanes;
    a.iter().zip(b).zip(c).zip(d).map(|(((a, b), c), d)| (a + b + c + d) as usize)
}

/// The histogram of a block's bytes, or `None` as soon as a quarter of
/// them holds one value [`GATE_MAX_COUNT`] times: a block
/// [`order0_flat`] refuses whatever the rest holds, so most compressible
/// blocks are passed on a quarter of the counting.
fn byte_lanes(bytes: &[u8; GATE_BLOCK]) -> Option<Lanes> {
    let mut lanes = [[0u32; 256]; 4];
    for part in bytes.chunks_exact(GATE_BLOCK / 4) {
        for quad in part.chunks_exact(4) {
            for (lane, &b) in lanes.iter_mut().zip(quad) {
                lane[b as usize] += 1;
            }
        }
        if counts(&lanes).any(|f| f >= GATE_MAX_COUNT) {
            return None;
        }
    }
    Some(lanes)
}

/// The histogram of a block's first differences — its first byte, then
/// each byte less the one before — counted as they are taken, with no
/// copy of the block.
fn step_lanes(bytes: &[u8; GATE_BLOCK]) -> Lanes {
    let mut lanes = [[0u32; 256]; 4];
    let (now, before) = (&bytes[1..], &bytes[..GATE_BLOCK - 1]);
    let (quads, quads_before) = (now.chunks_exact(4), before.chunks_exact(4));
    let tail = quads.remainder().iter().zip(quads_before.remainder());
    for (quad, quad_before) in quads.zip(quads_before) {
        for ((lane, &b), &a) in lanes.iter_mut().zip(quad).zip(quad_before) {
            lane[b.wrapping_sub(a) as usize] += 1;
        }
    }
    for (&b, &a) in tail {
        lanes[0][b.wrapping_sub(a) as usize] += 1;
    }
    lanes[0][bytes[0] as usize] += 1;
    lanes
}

/// Would an ideal order-0 code save less than 1.5% of the bytes behind
/// this histogram?
fn order0_flat(lanes: &Lanes) -> bool {
    // Σ f·(log2 N − log2 f), in 16.16 bits.
    let log_n = u64::from(GATE_BLOCK.ilog2()) << 16;
    let mut cost = 0u64;
    for f in counts(lanes) {
        if f >= GATE_MAX_COUNT {
            return false;
        }
        cost += f as u64 * (log_n - u64::from(LOG2_Q16[f]));
    }
    cost * 1000 >= ((8 * GATE_BLOCK as u64) << 16) * GATE_PER_MILLE
}

/// The gate rule: a block is noise when neither its bytes nor their
/// first differences have a histogram an order-0 code could use. Such a
/// block is stored without being searched — the mantissa planes of a
/// transposed f64 region are the case that pays. The differences are
/// what tells those from the plane just above them, where a smooth
/// field leaves a slow ramp through all 256 values: flat as bytes, and
/// a few percent to a few fold smaller through the matcher. The accepted
/// trade: a flat block that repeats inside the window is stored too,
/// since only the search that is being skipped could tell.
fn is_noise(block: &[u8]) -> bool {
    let block: &[u8; GATE_BLOCK] = block.try_into().expect("the gate's unit");
    byte_lanes(block).is_some_and(|lanes| order0_flat(&lanes)) && order0_flat(&step_lanes(block))
}

/// The symbols of a run of tokens: the two histograms a block's tables
/// are built from.
struct Symbols {
    lit: [u64; NUM_LITLEN],
    dist: [u64; NUM_DIST],
}

impl Symbols {
    const EMPTY: Symbols = Symbols { lit: [0; NUM_LITLEN], dist: [0; NUM_DIST] };

    fn add(&mut self, other: &Symbols) {
        for (a, b) in self.lit.iter_mut().zip(&other.lit) {
            *a += b;
        }
        for (a, b) in self.dist.iter_mut().zip(&other.dist) {
            *a += b;
        }
    }

    /// The extra bits the run's matches carry, from the histograms: each
    /// length and distance symbol fixes its count.
    fn extra_bits(&self) -> u64 {
        let bits = |freqs: &[u64], table: &[(u16, u8)]| -> u64 {
            freqs.iter().zip(table).map(|(&f, &(_, extra))| f * u64::from(extra)).sum()
        };
        bits(&self.lit[257..], &LENGTH_TABLE) + bits(&self.dist, &DIST_TABLE)
    }
}

/// What one order-0 code over `a` and `b` together costs beyond one for
/// each, in 16.16 bits. With `mix(x, y) = xlog2(x + y) − xlog2(x) −
/// xlog2(y)`, that is Σ over both alphabets of `mix(Na, Nb) − Σ_s
/// mix(a_s, b_s)`. The extra bits cost the same either way and drop out.
fn split_gain_q16(a: &Symbols, b: &Symbols) -> i64 {
    fn alphabet(a: &[u64], b: &[u64]) -> i64 {
        let mix = |x: u64, y: u64| {
            xlog2_q16(x + y) as i64 - xlog2_q16(x) as i64 - xlog2_q16(y) as i64
        };
        let mut gain = mix(a.iter().sum(), b.iter().sum());
        for (&x, &y) in a.iter().zip(b) {
            gain -= mix(x, y);
        }
        gain
    }
    alphabet(&a.lit, &b.lit) + alphabet(&a.dist, &b.dist)
}

/// Streaming segment encoder: the [`TokenSink`] the LZ77 matcher feeds.
/// Buffers packed tokens for the open block and keeps its histograms
/// current, so emission needs no extra pass over the tokens for costing.
///
/// Where a block ends is decided every [`SPLIT_CHECK_BYTES`] of source:
/// the newest chunk's symbols are kept apart from the rest of the open
/// block's, and when one order-0 code over both would cost more than a
/// code each by over [`SPLIT_GAIN_BITS`], the block ends before the
/// chunk, which opens the next. Otherwise the chunk joins the block. A
/// block also ends at [`SEGMENT_BYTES`] and where a gated run begins.
/// Both rules wait on one count, `next_check`, so a token books its
/// bytes with one add and one compare.
struct SegmentEncoder<'a> {
    w: BitWriter,
    data: &'a [u8],
    /// The open block's tokens, its newest chunk's last.
    tokens: Vec<u32>,
    /// Symbols of the open block before its newest chunk.
    settled: Symbols,
    /// Symbols of the newest chunk: `tokens[chunk_at..]`.
    chunk: Symbols,
    chunk_at: usize,
    /// Source offset where the open block starts.
    seg_start: usize,
    /// Source bytes covered by the buffered tokens, and by those before
    /// the newest chunk.
    covered: usize,
    settled_covered: usize,
    /// The `covered` at which the chunk fills or the block reaches
    /// [`SEGMENT_BYTES`], whichever comes first.
    next_check: usize,
    /// Block reached SEGMENT_BYTES: flush before the next token so
    /// the final block (whatever its size) carries BFINAL.
    boundary: bool,
    /// A stored run carried BFINAL: the stream is complete.
    ended: bool,
    /// Source offset where each block ended, for the split tests.
    #[cfg(test)]
    block_ends: Vec<usize>,
}

impl<'a> SegmentEncoder<'a> {
    /// An encoder whose stream follows the bytes `out` holds.
    fn new(data: &'a [u8], out: Vec<u8>) -> Self {
        SegmentEncoder {
            // No block costs more than storing it would: 5 bytes and an
            // alignment per stored chunk. A reservation, not a limit.
            w: BitWriter::after(out, data.len() + data.len() / 1024 + 64),
            data,
            tokens: Vec::with_capacity(data.len().min(SEGMENT_BYTES)),
            settled: Symbols::EMPTY,
            chunk: Symbols::EMPTY,
            chunk_at: 0,
            seg_start: 0,
            covered: 0,
            settled_covered: 0,
            next_check: SPLIT_CHECK_BYTES,
            boundary: false,
            ended: false,
            #[cfg(test)]
            block_ends: Vec::new(),
        }
    }

    #[inline]
    fn pre_token(&mut self) {
        if self.boundary {
            self.flush(false);
        }
    }

    /// Books `n` source bytes the last token covered.
    #[inline]
    fn took(&mut self, n: usize) {
        self.covered += n;
        if self.covered >= self.next_check {
            self.check();
        }
    }

    /// Runs the split rule where the newest chunk has filled and the cap
    /// where the block has, then sets the count the next check waits on.
    fn check(&mut self) {
        if self.covered - self.settled_covered >= SPLIT_CHECK_BYTES {
            self.settle_chunk();
        }
        self.boundary = self.covered >= SEGMENT_BYTES;
        self.next_check = if self.boundary {
            usize::MAX
        } else {
            (self.settled_covered + SPLIT_CHECK_BYTES).min(SEGMENT_BYTES)
        };
    }

    /// Ends the open block before its full chunk if the chunk's own
    /// table pays for a header; joins the chunk to the block otherwise.
    fn settle_chunk(&mut self) {
        let settled_covered = self.settled_covered;
        if settled_covered > 0
            && split_gain_q16(&self.settled, &self.chunk) > (SPLIT_GAIN_BITS << 16) as i64
        {
            let mut settled = std::mem::replace(&mut self.settled, Symbols::EMPTY);
            self.emit(&mut settled, self.chunk_at, settled_covered, false);
            self.tokens.drain(..self.chunk_at);
            self.seg_start += settled_covered;
            self.covered -= settled_covered;
            std::mem::swap(&mut self.settled, &mut self.chunk);
        } else {
            self.settled.add(&self.chunk);
            self.chunk = Symbols::EMPTY;
        }
        self.chunk_at = self.tokens.len();
        self.settled_covered = self.covered;
    }

    /// Emits the buffered block as the cheapest block type. An empty
    /// block is written only where the stream needs one to end on.
    fn flush(&mut self, bfinal: bool) {
        if self.covered == 0 && !bfinal {
            return;
        }
        let mut all = std::mem::replace(&mut self.settled, Symbols::EMPTY);
        all.add(&self.chunk);
        self.emit(&mut all, self.tokens.len(), self.covered, bfinal);
        self.seg_start += self.covered;
        self.covered = 0;
        self.settled_covered = 0;
        self.next_check = SPLIT_CHECK_BYTES;
        self.chunk_at = 0;
        self.boundary = false;
        self.tokens.clear();
        self.chunk = Symbols::EMPTY;
    }

    /// Writes `tokens[..ntokens]`, which cover `data[seg_start..][..len]`
    /// and whose symbols are `sym`, as one block of the cheapest type.
    fn emit(&mut self, sym: &mut Symbols, ntokens: usize, len: usize, bfinal: bool) {
        sym.lit[END_OF_BLOCK] += 1;
        let src = &self.data[self.seg_start..self.seg_start + len];
        let tokens = &self.tokens[..ntokens];
        let plan = plan_dynamic(&sym.lit, &sym.dist);
        let extra_bits = sym.extra_bits();
        let body_cost = |lit_lens: &[u8], dist_lens: &[u8]| {
            body_cost_from_freqs(&sym.lit, &sym.dist, extra_bits, lit_lens, dist_lens)
        };
        let dynamic_cost = 3 + plan.header_bits as u64 + body_cost(&plan.lit_lens, &plan.dist_lens);
        let fixed_cost = 3 + body_cost(&FIXED_LITLEN, &FIXED_DIST);
        let stored_cost = (src.chunks(65_535).count().max(1) * (3 + 32) + src.len() * 8 + 7) as u64;

        if stored_cost < dynamic_cost && stored_cost < fixed_cost {
            write_stored_chunks(&mut self.w, src, bfinal);
        } else if fixed_cost <= dynamic_cost {
            write_fixed_block(&mut self.w, tokens, src, bfinal);
        } else {
            write_dynamic_block(&mut self.w, &plan, tokens, src, bfinal);
        }
        #[cfg(test)]
        self.block_ends.push(self.seg_start + len);
    }

    /// Ends the pending block and stores `data[seg_start..end]` — a
    /// run of gated blocks the matcher never saw — behind it.
    fn store_until(&mut self, end: usize) {
        self.flush(false);
        self.ended = end == self.data.len();
        write_stored_chunks(&mut self.w, &self.data[self.seg_start..end], self.ended);
        self.seg_start = end;
    }

    fn finish(mut self) -> Vec<u8> {
        if !self.ended {
            self.flush(true);
        }
        self.w.finish()
    }
}

impl TokenSink for SegmentEncoder<'_> {
    /// `byte` is the source's next byte: the token records a run of one.
    #[inline]
    fn literal(&mut self, byte: u8) {
        self.pre_token();
        self.tokens.push(1);
        self.chunk.lit[byte as usize] += 1;
        self.took(1);
    }

    /// Bulk literal run: one token and one boundary check per piece
    /// instead of per byte. Cutting the run where the chunk or the
    /// block fills reproduces the per-byte cuts exactly.
    fn literals(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while !rest.is_empty() {
            self.pre_token();
            let room = self.next_check - self.covered;
            let (now, later) = rest.split_at(rest.len().min(room));
            // A piece is at most a chunk, so its length fits the token.
            self.tokens.push(now.len() as u32);
            for &b in now {
                self.chunk.lit[b as usize] += 1;
            }
            self.took(now.len());
            rest = later;
        }
    }

    #[inline]
    fn backref(&mut self, len: u32, dist: u32) {
        self.pre_token();
        let di = dist_code(dist as usize);
        self.tokens.push(TOKEN_MATCH | (di as u32) << 24 | ((len - 3) << 16) | (dist - 1));
        self.chunk.lit[257 + LEN_CODE[len as usize - 3].0 as usize] += 1;
        self.chunk.dist[di] += 1;
        self.took(len as usize);
    }
}

/// Compresses `data` into a raw DEFLATE stream.
///
/// The input is walked in runs of [`GATE_BLOCK`]-sized blocks of one
/// kind: a run the gate calls noise goes out as stored blocks, unseen by
/// the matcher; everything else (the tail shorter than a block
/// included) is matched, with the window — noise and all — behind it.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    compress_after(Vec::new(), data, level)
}

/// [`compress`] behind the bytes `out` already holds — a container's
/// header — in the one buffer, so the stream is never copied into its
/// container.
pub(crate) fn compress_after(out: Vec<u8>, data: &[u8], level: Level) -> Vec<u8> {
    // One effort is left; the argument keeps every caller's signature.
    let Level::Default = level;
    let mut matcher = Matcher::new();
    // The matcher's chains are freed after `finish`, not before: the
    // other order leaves glibc trimming the heap on every call, and the
    // next call's stored runs fault their pages back in.
    encode(out, data, &mut matcher).finish()
}

/// Walks `data` in gate runs into a segment encoder writing behind
/// `out`, stored or matched.
fn encode<'a>(out: Vec<u8>, data: &'a [u8], matcher: &mut Matcher) -> SegmentEncoder<'a> {
    let mut enc = SegmentEncoder::new(data, out);
    let noise_at = |at: usize| data.get(at..at + GATE_BLOCK).is_some_and(is_noise);
    let (mut at, mut noise) = (0, noise_at(0));
    while at < data.len() {
        // Extend the run to the first block of the other kind.
        let mut end = at + GATE_BLOCK;
        let mut next = noise;
        while end < data.len() {
            next = noise_at(end);
            if next != noise {
                break;
            }
            end += GATE_BLOCK;
        }
        let end = end.min(data.len());
        if noise {
            enc.store_until(end);
        } else {
            matcher.tokenize_into(&data[..end], at, &mut enc);
        }
        (at, noise) = (end, next);
    }
    enc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_symbol_boundaries() {
        assert_eq!(length_symbol(3), (257, 0, 0));
        assert_eq!(length_symbol(10), (264, 0, 0));
        assert_eq!(length_symbol(11), (265, 1, 0));
        assert_eq!(length_symbol(12), (265, 1, 1));
        assert_eq!(length_symbol(13), (266, 1, 0));
        assert_eq!(length_symbol(257), (284, 5, 30));
        assert_eq!(length_symbol(258), (285, 0, 0));
    }

    #[test]
    fn dist_symbol_boundaries() {
        assert_eq!(dist_symbol(1), (0, 0, 0));
        assert_eq!(dist_symbol(4), (3, 0, 0));
        assert_eq!(dist_symbol(5), (4, 1, 0));
        assert_eq!(dist_symbol(6), (4, 1, 1));
        assert_eq!(dist_symbol(24577), (29, 13, 0));
        assert_eq!(dist_symbol(32768), (29, 13, 8191));
    }

    #[test]
    fn every_length_and_distance_roundtrips_through_tables() {
        for len in 3..=258u16 {
            let (sym, extra, val) = length_symbol(len);
            let (base, e) = LENGTH_TABLE[sym - 257];
            assert_eq!(e, extra);
            assert_eq!(base + val, len);
            assert!(val < (1 << extra) || extra == 0 && val == 0);
        }
        for dist in 1..=32768u16 {
            let (sym, extra, val) = dist_symbol(dist);
            let (base, e) = DIST_TABLE[sym];
            assert_eq!(e, extra);
            assert_eq!(base as u32 + val as u32, dist as u32);
        }
    }

    fn rle_of(lens: &[u8]) -> Vec<(u8, u8, u8)> {
        let mut out = [(0, 0, 0); MAX_RLE];
        let n = rle_code_lengths(lens, &mut out);
        out[..n].to_vec()
    }

    #[test]
    fn rle_encodes_runs() {
        // 20 zeros -> one code-18 run (11-138).
        let rle = rle_of(&[0u8; 20]);
        assert_eq!(rle, vec![(18, 7, 9)]);
        // value then repeat-previous.
        let rle = rle_of(&[5u8; 5]);
        assert_eq!(rle, vec![(5, 0, 0), (16, 2, 1)]);
        // Short zero runs use 17.
        let rle = rle_of(&[0u8; 4]);
        assert_eq!(rle, vec![(17, 3, 1)]);
        // Sub-3 runs are emitted verbatim.
        let rle = rle_of(&[7, 7]);
        assert_eq!(rle, vec![(7, 0, 0), (7, 0, 0)]);
    }

    fn rle_expand(rle: &[(u8, u8, u8)]) -> Vec<u8> {
        let mut out: Vec<u8> = Vec::new();
        for &(sym, _, val) in rle {
            match sym {
                16 => {
                    let prev = *out.last().expect("16 requires previous");
                    out.extend(std::iter::repeat_n(prev, val as usize + 3));
                }
                17 => out.extend(std::iter::repeat_n(0, val as usize + 3)),
                18 => out.extend(std::iter::repeat_n(0, val as usize + 11)),
                v => out.push(v),
            }
        }
        out
    }

    #[test]
    fn rle_roundtrip_on_realistic_tables() {
        let lens: Vec<u8> = (0..286)
            .map(|i| match i % 7 {
                0 => 0,
                1..=3 => 8,
                4 => 9,
                5 => 7,
                _ => 12,
            })
            .collect();
        assert_eq!(rle_expand(&rle_of(&lens)), lens);
        let sparse = {
            let mut v = vec![0u8; 286];
            v[0] = 1;
            v[255] = 1;
            v
        };
        assert_eq!(rle_expand(&rle_of(&sparse)), sparse);
    }

    fn lcg(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn incompressible_data_falls_back_to_stored() {
        // Noise of any length costs its bytes and 5 per stored chunk:
        // the gated run in 65 535-byte chunks, then the tail that is
        // shorter than a block as one more.
        for n in [1usize, 10_000, GATE_BLOCK - 1, GATE_BLOCK, GATE_BLOCK + 1, 65_536, 300_000] {
            let data = lcg(n, n as u64);
            let run = n - n % GATE_BLOCK;
            let chunks = run.div_ceil(65_535) + usize::from(n > run);
            let packed = compress(&data, Level::Default);
            assert!(packed.len() <= n + 5 * chunks, "{n}: {} bytes", packed.len());
            assert_eq!(crate::decompress(&packed).unwrap(), data);
        }
    }

    #[test]
    fn the_gate_passes_noise_and_nothing_an_order0_code_could_shrink() {
        assert!(is_noise(&lcg(GATE_BLOCK, 1)));
        assert!(!is_noise(&[0u8; GATE_BLOCK]));
        let text: Vec<u8> = b"the quick brown fox ".iter().copied().cycle().take(GATE_BLOCK).collect();
        assert!(!is_noise(&text));
        // 7 bits of noise a byte is 87.5% of raw: under the gate.
        let seven: Vec<u8> = lcg(GATE_BLOCK, 2).iter().map(|b| b & 0x7F).collect();
        assert!(!is_noise(&seven));
        // Ramps through all 256 values — the byte plane above the
        // mantissa noise of a smooth field — are flat as bytes and
        // anything but in their steps.
        for (num, den) in [(1usize, 5usize), (9, 2)] {
            let ramp: Vec<u8> = (0..GATE_BLOCK).map(|i| (i * num / den) as u8).collect();
            let block: &[u8; GATE_BLOCK] = ramp.as_slice().try_into().unwrap();
            let flat = byte_lanes(block).is_some_and(|lanes| order0_flat(&lanes));
            assert!(flat && !is_noise(&ramp), "slope {num}/{den}");
        }
        // Flat but for one value on a sixteenth of the block — the
        // least skew the log table does not cover — is already under it.
        let mut skewed = lcg(GATE_BLOCK, 3);
        skewed.iter_mut().step_by(16).for_each(|b| *b = 0);
        assert!(!is_noise(&skewed));
        let ideal = |p: f64, others: f64| -(p * p.log2() + (1.0 - p) * ((1.0 - p) / others).log2());
        assert!(ideal(GATE_MAX_COUNT as f64 / GATE_BLOCK as f64, 255.0) < 8.0 * GATE_PER_MILLE as f64 / 1000.0);
    }

    #[test]
    fn the_step_histogram_is_the_histogram_of_the_differenced_block() {
        let ramp: Vec<u8> = (0..GATE_BLOCK).map(|i| (i * 9 / 2) as u8).collect();
        for block in [lcg(GATE_BLOCK, 6), ramp, vec![0x5A; GATE_BLOCK]] {
            let block: &[u8; GATE_BLOCK] = block.as_slice().try_into().unwrap();
            let mut steps = *block;
            for (step, before) in steps[1..].iter_mut().zip(block) {
                *step = step.wrapping_sub(*before);
            }
            let mut want = vec![0usize; 256];
            steps.iter().for_each(|&b| want[b as usize] += 1);
            assert_eq!(counts(&step_lanes(block)).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn the_log_table_is_log2_to_sixteen_bits() {
        for (f, &q16) in LOG2_Q16.iter().enumerate().skip(1) {
            let exact = (f as f64).log2() * 65536.0;
            assert!((f64::from(q16) - exact).abs() < 2.0, "log2({f}) = {q16} vs {exact}");
        }
        // Past the table, f·log2 f reads low by at most 0.0007 bits a count.
        for f in [4096u64, 4097, 10_000, 131_071, 1 << 20, 3_000_001] {
            let exact = f as f64 * (f as f64).log2() * 65536.0;
            let got = xlog2_q16(f) as f64;
            let slack = f as f64 * 65536.0;
            assert!(got <= exact + slack / 32768.0 && exact - got <= slack * 0.0008, "{f}");
        }
        assert_eq!(xlog2_q16(0), 0);
    }

    #[test]
    fn flushing_an_empty_segment_writes_a_block_only_to_end_the_stream() {
        let mut enc = SegmentEncoder::new(&[], Vec::new());
        enc.flush(false);
        assert_eq!(enc.w.bit_len(), 0);
        enc.flush(true);
        assert_eq!(enc.w.bit_len(), 10, "an empty fixed block: header and end-of-block");
    }

    /// Where each block of `data`'s stream ends, as source offsets.
    fn block_ends(data: &[u8]) -> Vec<usize> {
        let mut enc = encode(Vec::new(), data, &mut Matcher::new());
        enc.flush(true);
        enc.block_ends
    }

    #[test]
    fn a_seam_between_two_statistics_ends_a_block_within_one_check_of_it() {
        // 48 KiB over sixteen low values, then 48 KiB over sixteen high
        // ones: half a byte each, never gated, one table each.
        let seam = 48 * 1024;
        let data: Vec<u8> = lcg(2 * seam, 4)
            .iter()
            .enumerate()
            .map(|(i, b)| if i < seam { b & 0x0F } else { 0xF0 | b >> 4 })
            .collect();
        let ends = block_ends(&data);
        assert_eq!(ends.len(), 2, "{ends:?}");
        assert!(ends[0].abs_diff(seam) <= SPLIT_CHECK_BYTES, "{ends:?}");
        assert_eq!(crate::decompress(&compress(&data, Level::Default)).unwrap(), data);
    }

    #[test]
    fn a_stationary_input_ends_blocks_only_at_the_segment_cap() {
        let data: Vec<u8> = lcg(3 * SEGMENT_BYTES + 5000, 5).iter().map(|b| b & 0x0F).collect();
        let ends = block_ends(&data);
        assert_eq!(ends.len(), data.len().div_ceil(SEGMENT_BYTES), "{ends:?}");
        for (k, &end) in ends.iter().enumerate().take(ends.len() - 1) {
            let cap = (k + 1) * SEGMENT_BYTES;
            assert!((cap..cap + crate::lz77::MAX_MATCH).contains(&end), "{ends:?}");
        }
    }

    #[test]
    fn the_split_cost_is_zero_for_one_histogram_and_large_for_two() {
        let mut a = Symbols::EMPTY;
        a.lit[..16].fill(512);
        assert!(split_gain_q16(&a, &a) <= 1 << 16, "the same statistics twice");
        let mut b = Symbols::EMPTY;
        b.lit[240..256].fill(512);
        // Apart, each half costs 4 bits a symbol; together, 5: one bit
        // on each of 16,384 symbols.
        let gain = split_gain_q16(&a, &b) >> 16;
        assert!(gain.abs_diff(16_384) <= 8, "{gain} bits");
    }

    #[test]
    fn empty_input() {
        let packed = compress(&[], Level::Default);
        assert!(!packed.is_empty());
        assert_eq!(crate::decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn multi_segment_inputs_roundtrip() {
        // > SEGMENT_BYTES of mixed content forces several blocks, each
        // picked independently; the stream must still decode as one.
        let mut data = Vec::with_capacity(3 * SEGMENT_BYTES);
        let mut state = 9u64;
        while data.len() < 3 * SEGMENT_BYTES {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if state.is_multiple_of(3) {
                data.extend_from_slice(b"repetitive section repetitive section ");
            } else {
                data.extend_from_slice(&state.to_le_bytes());
            }
        }
        let packed = compress(&data, Level::Default);
        assert_eq!(crate::decompress(&packed).unwrap(), data);
    }
}
