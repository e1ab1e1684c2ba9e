//! Canonical, length-limited Huffman codes.
//!
//! * [`code_lengths`] builds optimal length-limited code lengths from
//!   symbol frequencies (DEFLATE caps literal/length and distance codes
//!   at 15 bits, code-length codes at 7). Huffman's two-queue
//!   construction gives them in a few microseconds; only a table whose
//!   Huffman tree is deeper than the limit falls back to package-merge,
//!   and where the limit does not bind the two agree symbol for symbol,
//!   so which one ran never shows in the output.
//! * [`canonical_codes`] assigns the RFC 1951 §3.2.2 canonical codes for
//!   a set of lengths.
//! * [`Encoder`] writes symbols to a [`BitWriter`] from a packed
//!   (pre-reversed code | length) table; [`Decoder`] reads them back
//!   through a two-level table — a 2^9-entry primary resolving every
//!   code up to 9 bits in one peek, with per-prefix subtables for the
//!   rare longer codes, so no decode ever walks bits one at a time.
//!   Each entry carries what its code means in its alphabet: a
//!   literal, end-of-block, or a length/distance base and its extra-bit
//!   count. A stream's dynamic blocks rebuild one set of decoders in
//!   place (`Decoder::rebuild`), and the encoder side plans in fixed
//!   arrays, so a block's tables allocate nothing.

// Decoder hardening (DESIGN.md §9): product code here is total on damaged bytes.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing, clippy::unwrap_used,
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::panic_in_result_fn, clippy::missing_panics_doc))]

use crate::bitio::{reverse_bits, BitReader, BitWriter};
use crate::DeflateError;
use std::sync::OnceLock;

/// Maximum code length DEFLATE permits for literal/distance alphabets.
pub const MAX_BITS: u32 = 15;

/// Code lengths 0..=[`MAX_BITS`]: the size of a table counted by length.
const LENGTHS: usize = 16;

/// The most symbols an alphabet here has: the fixed literal/length
/// code's 288. Encoder and decoder tables are arrays of this size.
pub const MAX_SYMBOLS: usize = 288;

/// Computes optimal length-limited code lengths into `lengths`, one per
/// entry of `freqs` (at most [`MAX_SYMBOLS`] of them).
///
/// `freqs[s]` is the occurrence count of symbol `s`; symbols with zero
/// frequency get length 0 (absent). A single active symbol gets length 1
/// (DEFLATE cannot express 0-bit codes). Panics if the number of active
/// symbols exceeds `2^max_len` (impossible for DEFLATE alphabets).
///
/// Huffman's two-queue construction runs first: the leaves sorted by
/// (weight, symbol), merged nodes queued in the order they are made
/// (which is weight order), each merge taking the two lightest heads, a
/// merged node ahead of a leaf of the same weight. The tree fixes how
/// many codes each length has; the lengths then go out by rank, the
/// lightest leaf longest. Only a tree deeper than `max_len` runs
/// [`package_merge`] instead. Where the limit does not bind, both give
/// the same lengths, ties included (`tests::reference_code_lengths` is
/// the oracle), so which one ran never shows in the output.
#[expect(
    clippy::indexing_slicing,
    clippy::as_conversions,
    clippy::missing_panics_doc,
    reason = "encoder: a Huffman tree over this build's own symbol counts; every index is below \
              the number of active symbols, itself at most MAX_SYMBOLS"
)]
pub fn code_lengths(freqs: &[u64], max_len: u32, lengths: &mut [u8]) {
    assert!(freqs.len() <= MAX_SYMBOLS && lengths.len() == freqs.len(), "alphabet size");
    lengths.fill(0);
    // (weight << 9 | symbol), lightest first, ties by symbol.
    let mut keys = [0u64; MAX_SYMBOLS];
    let mut m = 0;
    let mut heaviest = 0;
    for (s, &f) in freqs.iter().enumerate() {
        if f > 0 {
            keys[m] = f << 9 | s as u64;
            heaviest = heaviest.max(f);
            m += 1;
        }
    }
    if m < 2 {
        if m == 1 {
            lengths[(keys[0] & 0x1FF) as usize] = 1;
        }
        return;
    }
    let deepest = max_len.min(MAX_BITS) as usize;
    if heaviest >= 1 << 55 || !huffman_lengths(&mut keys[..m], deepest, lengths) {
        lengths.copy_from_slice(&package_merge(freqs, max_len));
    }
    debug_assert!(lengths.iter().all(|&l| l as u32 <= max_len));
}

/// The two-queue Huffman construction over `keys` (`weight << 9 |
/// symbol`, weights under 2^55): writes each symbol's length and
/// returns `true`, or returns `false` with `lengths` untouched if the
/// tree is deeper than `deepest`.
#[expect(
    clippy::indexing_slicing,
    clippy::as_conversions,
    reason = "encoder: every index is a rank or a merge number below keys.len() <= MAX_SYMBOLS"
)]
fn huffman_lengths(keys: &mut [u64], deepest: usize, lengths: &mut [u8]) -> bool {
    keys.sort_unstable();
    let m = keys.len();
    let weight = |key: u64| key >> 9;
    // Merge k makes node k; `merged` is the second queue, and each
    // leaf (by rank) and node records the merge that took it.
    let mut merged = [0u64; MAX_SYMBOLS];
    let mut leaf_parent = [0u16; MAX_SYMBOLS];
    let mut node_parent = [0u16; MAX_SYMBOLS];
    let (mut leaf, mut node) = (0, 0);
    for k in 0..m - 1 {
        let mut sum = 0;
        for _ in 0..2 {
            // A merged node goes ahead of a leaf of the same weight.
            if node < k && (leaf == m || merged[node] <= weight(keys[leaf])) {
                sum += merged[node];
                node_parent[node] = k as u16;
                node += 1;
            } else {
                sum += weight(keys[leaf]);
                leaf_parent[leaf] = k as u16;
                leaf += 1;
            }
        }
        merged[k] = sum;
    }
    // Depths from the root (the last merge) down; a parent is always
    // made after its children.
    let mut depth = [0u16; MAX_SYMBOLS];
    for k in (0..m - 2).rev() {
        depth[k] = depth[node_parent[k] as usize] + 1;
    }
    let mut count = [0u16; LENGTHS];
    for &parent in &leaf_parent[..m] {
        let d = usize::from(depth[usize::from(parent)]) + 1;
        if d > deepest {
            return false;
        }
        count[d] += 1;
    }
    // Lengths by rank: the lightest leaves take the longest codes.
    let mut len = deepest;
    for &key in keys.iter() {
        while count[len] == 0 {
            len -= 1;
        }
        count[len] -= 1;
        lengths[(key & 0x1FF) as usize] = len as u8;
    }
    true
}

/// Optimal length-limited code lengths by package-merge, for the tables
/// whose Huffman tree is deeper than the limit.
///
/// O(m·L) for `m` active symbols and limit `L`: a level keeps, per item
/// of its merged list, only whether it is a leaf or a package — leaves
/// enter every list in sorted order and package `j` is items `2j` and
/// `2j + 1` of the list below, so "the first `k` items" of a list is a
/// count of leaves and a count of packages, and the lengths fall out of
/// walking those counts from the last list down.
#[expect(
    clippy::indexing_slicing,
    clippy::as_conversions,
    clippy::missing_panics_doc,
    reason = "encoder: package-merge over this build's own symbol counts; every index is below \
              a length the loop itself set"
)]
fn package_merge(freqs: &[u64], max_len: u32) -> Vec<u8> {
    // (weight, symbol), lightest first, ties by symbol.
    let mut leaves: Vec<(u64, usize)> =
        freqs.iter().enumerate().filter(|&(_, &f)| f > 0).map(|(s, &f)| (f, s)).collect();
    let mut lengths = vec![0u8; freqs.len()];
    let m = leaves.len();
    match m {
        0 => return lengths,
        1 => {
            lengths[leaves[0].1] = 1;
            return lengths;
        }
        _ => assert!(m as u64 <= 1u64 << max_len, "alphabet too large for length limit"),
    }
    leaves.sort_unstable();

    // Every level's merged list as leaf/package flags, lightest first,
    // back to back from `starts[level]`; the first list is the leaves
    // alone. Only the weights of the list below are needed to build the
    // next one. Both weight lists end in sentinels no real weight
    // reaches, so the merge needs no end tests and compiles to selects:
    // past the last package the next one weighs `u64::MAX`, past the
    // last leaf the next leaf does.
    let levels = max_len as usize;
    let mut leaf_weights: Vec<u64> = leaves.iter().map(|&(w, _)| w).collect();
    leaf_weights.push(u64::MAX);
    let mut is_leaf: Vec<bool> = Vec::with_capacity(levels * 2 * m);
    is_leaf.resize(m, true);
    let mut starts = Vec::with_capacity(levels);
    starts.push(0);
    let mut below = leaf_weights.clone();
    below.resize(2 * m + 2, u64::MAX);
    let mut below_len = m;
    let mut weights = vec![u64::MAX; 2 * m + 2];
    for _ in 1..levels {
        let start = is_leaf.len();
        starts.push(start);
        let n = m + below_len / 2;
        is_leaf.resize(start + n, false);
        let (mut p, mut l) = (0usize, 0usize);
        for (weight, flag) in weights[..n].iter_mut().zip(&mut is_leaf[start..]) {
            let package = below[2 * p].saturating_add(below[2 * p + 1]);
            // A package goes ahead of a leaf of the same weight.
            let leaf = leaf_weights[l] < package;
            *weight = if leaf { leaf_weights[l] } else { package };
            *flag = leaf;
            l += usize::from(leaf);
            p += usize::from(!leaf);
        }
        weights[n..n + 2].fill(u64::MAX);
        below_len = n;
        std::mem::swap(&mut below, &mut weights);
    }

    // The optimal solution selects the first 2m-2 items of the last
    // list. Each leaf among the items taken from a list adds one bit to
    // its symbol; each package takes two more items from the list below.
    // Leaves are taken lightest first, so the leaf of rank r gains one
    // bit from every list that takes more than r leaves.
    let mut lists_taking = vec![0u8; m + 1];
    let mut take = 2 * m - 2;
    for &start in starts.iter().rev() {
        let taken: usize = is_leaf[start..start + take].iter().map(|&leaf| usize::from(leaf)).sum();
        lists_taking[taken] += 1;
        take = 2 * (take - taken);
    }
    let mut bits = 0u8;
    for (r, &(_, s)) in leaves.iter().enumerate().rev() {
        bits += lists_taking[r + 1];
        lengths[s] = bits;
    }
    debug_assert!(lengths.iter().all(|&l| l as u32 <= max_len));
    lengths
}

/// Assigns canonical codes (RFC 1951 §3.2.2) for the given lengths:
/// `codes[s]` for each symbol `s` both slices hold, 0 where the length
/// is 0 or above [`MAX_BITS`].
pub fn canonical_codes(lengths: &[u8], codes: &mut [u32]) {
    let mut bl_count = [0u32; LENGTHS];
    for &l in lengths {
        if l > 0 {
            if let Some(c) = bl_count.get_mut(usize::from(l)) {
                *c += 1;
            }
        }
    }
    // next_code[bits] = (next_code[bits - 1] + bl_count[bits - 1]) << 1.
    let mut next_code = [0u32; LENGTHS];
    let mut code = 0u32;
    for (next, &count) in next_code.iter_mut().skip(1).zip(&bl_count) {
        code = (code + count) << 1;
        *next = code;
    }
    for (c, &l) in codes.iter_mut().zip(lengths) {
        *c = match next_code.get_mut(usize::from(l)) {
            Some(next) if l > 0 => {
                let v = *next;
                *next += 1;
                v
            }
            _ => 0,
        };
    }
}

/// Kraft sum check: `Ok(true)` for complete codes, `Ok(false)` for
/// incomplete, `Err` for over-subscribed.
pub fn check_kraft(lengths: &[u8]) -> Result<bool, DeflateError> {
    let mut sum = 0u64;
    let mut any = false;
    for &l in lengths {
        if l > 0 {
            let l = u32::from(l);
            if l > MAX_BITS {
                return Err(DeflateError::BadHuffmanTable("length exceeds 15"));
            }
            any = true;
            sum += 1u64 << (MAX_BITS - l);
        }
    }
    let full = 1u64 << MAX_BITS;
    if sum > full {
        return Err(DeflateError::BadHuffmanTable("over-subscribed code"));
    }
    Ok(!any || sum == full)
}

/// Symbol writer for one canonical code table: one packed u32 per
/// symbol, `(pre-reversed code) | (length << 24)`, so the per-symbol
/// write is a single load, shift, and [`BitWriter::write_bits`].
#[derive(Debug, Clone)]
pub struct Encoder {
    entries: [u32; MAX_SYMBOLS],
}

#[expect(
    clippy::indexing_slicing,
    clippy::missing_panics_doc,
    reason = "encoder: symbols come from the block's own frequency count, so a miss is an \
              accounting bug, not a data error"
)]
impl Encoder {
    /// Builds an encoder from code lengths (at most [`MAX_SYMBOLS`]).
    pub fn from_lengths(lengths: &[u8]) -> Self {
        let mut codes = [0u32; MAX_SYMBOLS];
        canonical_codes(lengths, &mut codes);
        let mut entries = [0u32; MAX_SYMBOLS];
        for ((e, &c), &l) in entries.iter_mut().zip(&codes).zip(lengths) {
            if l != 0 {
                *e = reverse_bits(c, u32::from(l)) | (u32::from(l) << 24);
            }
        }
        Encoder { entries }
    }

    /// Packed `(reversed_code | len << 24)` entry for `symbol`; 0 means
    /// the symbol has no code. For callers that fuse several codes into
    /// one accumulator write.
    #[inline]
    pub fn entry(&self, symbol: usize) -> u32 {
        self.entries[symbol]
    }

    /// Writes `symbol`'s code. Panics if the symbol has no code
    /// (frequency accounting bug, not a data error).
    #[inline]
    pub fn write(&self, w: &mut BitWriter, symbol: usize) {
        let e = self.entries[symbol];
        assert!(e != 0, "symbol {symbol} has no code");
        w.write_bits(u64::from(e & 0x00FF_FFFF), e >> 24);
    }

    /// Code length of a symbol in bits (0 = absent), for cost estimates.
    #[inline]
    pub fn length(&self, symbol: usize) -> u32 {
        self.entries[symbol] >> 24
    }
}

/// Width of the primary lookup table: codes up to this many bits decode
/// with a single peek (covers virtually every symbol of real DEFLATE
/// tables); longer codes chain through one per-prefix subtable.
const FAST_BITS: u32 = 9;

/// Mask of the primary table index.
const FAST_MASK: usize = (1 << FAST_BITS) - 1;

/// Subtable-pointer flag inside a primary entry.
const SUB_FLAG: u32 = 0x100;

/// Entry flag: the code is a literal byte (or, for
/// [`Alphabet::Symbols`], a plain symbol), held in the payload.
pub(crate) const LITERAL: u32 = 0x200;

/// Entry flag: the code is the end-of-block symbol 256.
pub(crate) const END_OF_BLOCK: u32 = 0x400;

/// Entry flag: the code is a symbol with no meaning in its alphabet
/// (literal/length 286 and 287, distance 30 and 31), held in the
/// payload so the decoder can name it.
pub(crate) const BAD_SYMBOL: u32 = 0x800;

/// An entry with none of these flags (and a nonzero length) is a
/// length or distance base.
pub(crate) const NOT_BASE: u32 = LITERAL | END_OF_BLOCK | BAD_SYMBOL;

/// What a decoded symbol means, which fixes the entries the table holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Alphabet {
    /// Plain symbols: every entry is [`LITERAL`] with the symbol as its
    /// payload (the code-length alphabet; [`Decoder::read`]).
    Symbols,
    /// DEFLATE's literal/length alphabet: literals, end-of-block, and
    /// the 29 length bases with their extra-bit counts.
    LitLen,
    /// DEFLATE's distance alphabet: the 30 distance bases with their
    /// extra-bit counts.
    Distance,
}

impl Alphabet {
    /// Every symbol's entry without its code length, built once per
    /// process: a table build reads them instead of working each out.
    fn entries(self) -> &'static [u32; MAX_SYMBOLS] {
        static TABLES: OnceLock<[[u32; MAX_SYMBOLS]; 3]> = OnceLock::new();
        let [symbols, litlen, distance] = TABLES.get_or_init(|| {
            [Alphabet::Symbols, Alphabet::LitLen, Alphabet::Distance]
                .map(|a| std::array::from_fn(|s| a.entry(s).unwrap_or(0)))
        });
        match self {
            Alphabet::Symbols => symbols,
            Alphabet::LitLen => litlen,
            Alphabet::Distance => distance,
        }
    }

    /// The entry for symbol `s` without its code length.
    fn entry(self, s: usize) -> Result<u32, DeflateError> {
        use crate::deflate::{DIST_TABLE, LENGTH_TABLE};
        // The payload field is 16 bits wide.
        let sym = u16::try_from(s)
            .map(u32::from)
            .map_err(|_| DeflateError::BadHuffmanTable("alphabet too large"))?;
        let base = |(base, extra): (u16, u8)| (u32::from(base) << 16) | (u32::from(extra) << 12);
        Ok(match self {
            Alphabet::Symbols => LITERAL | (sym << 16),
            Alphabet::LitLen => match sym {
                0..=255 => LITERAL | (sym << 16),
                256 => END_OF_BLOCK,
                _ => s
                    .checked_sub(257)
                    .and_then(|i| LENGTH_TABLE.get(i))
                    .map_or(BAD_SYMBOL | (sym << 16), |&pair| base(pair)),
            },
            Alphabet::Distance => {
                DIST_TABLE.get(s).map_or(BAD_SYMBOL | (sym << 16), |&pair| base(pair))
            }
        })
    }
}

/// Canonical two-level table decoder (zlib `ENOUGH`-style) whose
/// entries say what each code means, so the inflate loops branch on
/// one load.
///
/// `table` entry layout, packed in a `u32`:
/// * direct entry: `payload << 16 | extra << 12 | kind | code_len`,
///   `code_len` in 1..=15 (bits 0–7) and `kind` one of `LITERAL`
///   (bit 9, payload the byte or symbol), `END_OF_BLOCK` (bit 10),
///   `BAD_SYMBOL` (bit 11, payload the symbol) or none (payload a
///   length/distance base, `extra` its extra-bit count in bits 12–15);
/// * primary entry pointing at a subtable: `offset << 16 | SUB_FLAG |
///   sub_bits`, `SUB_FLAG` bit 8, where the subtable holds `1 <<
///   sub_bits` direct entries indexed by the bits above the primary 9;
/// * 0: no code with this prefix (invalid stream).
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    table: Vec<u32>,
}

impl Decoder {
    /// Builds a decoder of plain symbols, read back by [`Decoder::read`].
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, DeflateError> {
        Self::with_alphabet(lengths, Alphabet::Symbols)
    }

    /// Builds a decoder whose entries carry `alphabet`'s meaning,
    /// rejecting over-subscribed tables. Incomplete tables are
    /// accepted (DEFLATE permits single-code distance trees); decoding
    /// an unassigned code errors at read time.
    pub(crate) fn with_alphabet(lengths: &[u8], alphabet: Alphabet) -> Result<Self, DeflateError> {
        let mut decoder = Decoder::default();
        decoder.rebuild(lengths, alphabet)?;
        Ok(decoder)
    }

    /// [`Decoder::with_alphabet`] in this decoder's own storage: a
    /// stream's dynamic blocks each rebuild the tables the block before
    /// them used, and allocate only where a table outgrows them all. On
    /// error the decoder decodes nothing reliably until rebuilt.
    pub(crate) fn rebuild(
        &mut self,
        lengths: &[u8],
        alphabet: Alphabet,
    ) -> Result<(), DeflateError> {
        // check_kraft also rejects any length above MAX_BITS, so every
        // shift below is in range.
        check_kraft(lengths)?;
        if lengths.len() > MAX_SYMBOLS {
            return Err(DeflateError::BadHuffmanTable("alphabet too large"));
        }
        let mut codes = [0u32; MAX_SYMBOLS];
        canonical_codes(lengths, &mut codes);
        let entries = alphabet.entries();
        let table = &mut self.table;
        table.clear();
        table.resize(1 << FAST_BITS, 0);

        // Direct entries: replicate each short code across every index
        // whose low `len` bits equal the bit-reversed code.
        for ((&l, &code), &entry) in lengths.iter().zip(&codes).zip(entries) {
            let l = u32::from(l);
            if l == 0 || l > FAST_BITS {
                continue;
            }
            let rev = crate::usize_from_u32(reverse_bits(code, l));
            let step = 1usize << l;
            for slot in table.iter_mut().skip(rev).step_by(step) {
                *slot = entry | l;
            }
        }
        if lengths.iter().all(|&l| u32::from(l) <= FAST_BITS) {
            return Ok(());
        }

        // Long codes: group by their 9-bit primary prefix. First pass
        // sizes each subtable to the longest code sharing the prefix.
        let mut sub_bits = [0u8; 1 << FAST_BITS];
        for (&l, &code) in lengths.iter().zip(&codes) {
            let l = u32::from(l);
            if l <= FAST_BITS {
                continue;
            }
            let prefix = crate::usize_from_u32(reverse_bits(code, l)) & FAST_MASK;
            let need = u8::try_from(l - FAST_BITS)
                .map_err(|_| DeflateError::BadHuffmanTable("length exceeds 15"))?;
            if let Some(slot) = sub_bits.get_mut(prefix) {
                *slot = (*slot).max(need);
            }
        }
        // Allocate subtables and point the primary entries at them.
        for (prefix, &bits) in sub_bits.iter().enumerate() {
            if bits == 0 {
                continue;
            }
            let offset = u32::try_from(table.len())
                .map_err(|_| DeflateError::BadHuffmanTable("table too large"))?;
            if let Some(slot) = table.get_mut(prefix) {
                *slot = (offset << 16) | SUB_FLAG | u32::from(bits);
            }
            let grow = 1usize << bits;
            table.resize(table.len() + grow, 0);
        }
        // Second pass fills the subtable entries, replicating each code
        // across the indexes matching its suffix bits.
        for ((&l, &code), &entry) in lengths.iter().zip(&codes).zip(entries) {
            let l = u32::from(l);
            if l <= FAST_BITS {
                continue;
            }
            let rev = crate::usize_from_u32(reverse_bits(code, l));
            let prefix = rev & FAST_MASK;
            let head = sub_bits.get(prefix).copied().unwrap_or(0);
            let offset = table
                .get(prefix)
                .map(|&e| crate::usize_from_u32(e >> 16))
                .unwrap_or(0);
            let entry = entry | l;
            let suffix = rev >> FAST_BITS;
            let step = 1usize << (l - FAST_BITS);
            let span = 1usize << u32::from(head);
            let mut at = suffix;
            while at < span {
                if let Some(slot) = table.get_mut(offset + at) {
                    *slot = entry;
                }
                at += step;
            }
        }
        Ok(())
    }

    /// The direct entry for the code at the bottom of `bits`, which
    /// must hold at least [`MAX_BITS`] stream bits (missing trailing
    /// bits read as zero); 0 if no code has that prefix. Consumes
    /// nothing.
    #[inline]
    pub(crate) fn lookup(&self, bits: u64) -> u32 {
        let peek = usize::try_from(bits & 0x7FFF).unwrap_or(0);
        let entry = self.table.get(peek & FAST_MASK).copied().unwrap_or(0);
        if entry & SUB_FLAG == 0 {
            return entry;
        }
        let offset = crate::usize_from_u32(entry >> 16);
        let mask = (1usize << (entry & 0xFF)) - 1;
        self.table.get(offset + ((peek >> FAST_BITS) & mask)).copied().unwrap_or(0)
    }

    /// Decodes one code from the bit stream and returns its entry (see
    /// [`Decoder`] for the layout).
    #[inline]
    pub(crate) fn read_entry(&self, r: &mut BitReader<'_>) -> Result<u32, DeflateError> {
        // One peek covers the longest possible code; peek_bits pads
        // missing trailing bits with zeros and `consume` verifies the
        // code's bits were actually present.
        let entry = self.lookup(r.peek_bits(MAX_BITS));
        let len = entry & 0xFF;
        if len == 0 {
            return Err(DeflateError::BadHuffmanTable("code not in table"));
        }
        r.consume(len)?;
        Ok(entry)
    }

    /// Decodes one symbol of a decoder built by [`Decoder::from_lengths`].
    #[inline]
    pub fn read(&self, r: &mut BitReader<'_>) -> Result<u16, DeflateError> {
        u16::try_from(self.read_entry(r)? >> 16)
            .map_err(|_| DeflateError::BadHuffmanTable("code not in table"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    /// [`code_lengths`] into a fresh `Vec`.
    pub(super) fn lengths_of(freqs: &[u64], max_len: u32) -> Vec<u8> {
        let mut lengths = vec![0u8; freqs.len()];
        code_lengths(freqs, max_len, &mut lengths);
        lengths
    }

    /// [`canonical_codes`] into a fresh `Vec`.
    fn codes_of(lengths: &[u8]) -> Vec<u32> {
        let mut codes = vec![0u32; lengths.len()];
        canonical_codes(lengths, &mut codes);
        codes
    }

    /// The package-merge this crate shipped before the O(m·L) form, kept
    /// as the oracle: every node carries the list of leaves under it and
    /// each level is re-sorted whole.
    fn reference_code_lengths(freqs: &[u64], max_len: u32) -> Vec<u8> {
        let active: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
        let mut lengths = vec![0u8; freqs.len()];
        match active.len() {
            0 => return lengths,
            1 => {
                lengths[active[0]] = 1;
                return lengths;
            }
            m => assert!(m as u64 <= 1u64 << max_len, "alphabet too large for length limit"),
        }
        #[derive(Clone)]
        struct Node {
            weight: u64,
            leaves: Vec<u32>,
        }
        let mut leaves: Vec<Node> = active
            .iter()
            .enumerate()
            .map(|(i, &s)| Node { weight: freqs[s], leaves: vec![i as u32] })
            .collect();
        leaves.sort_by_key(|n| n.weight);
        let mut list = leaves.clone();
        for _ in 1..max_len {
            let mut packages: Vec<Node> = list
                .chunks_exact(2)
                .map(|pair| {
                    let mut leaves_union = pair[0].leaves.clone();
                    leaves_union.extend_from_slice(&pair[1].leaves);
                    Node { weight: pair[0].weight + pair[1].weight, leaves: leaves_union }
                })
                .collect();
            packages.extend(leaves.iter().cloned());
            packages.sort_by_key(|n| n.weight);
            list = packages;
        }
        let take = 2 * active.len() - 2;
        for node in &list[..take] {
            for &leaf in &node.leaves {
                lengths[active[leaf as usize]] += 1;
            }
        }
        lengths
    }

    /// A frequency table of `symbols` entries: `shape` picks how skewed
    /// (0 = few distinct values, so ties everywhere; 1 = byte counts;
    /// 2 = geometric, so the limit binds), `zero_every` thins it out.
    fn table(raw: &[u64], symbols: usize, shape: u8, zero_every: usize) -> Vec<u64> {
        (0..symbols)
            .map(|s| {
                let r = raw[s % raw.len()];
                if zero_every > 1 && s % zero_every != 0 {
                    return 0;
                }
                match shape % 3 {
                    0 => 1 + r % 3,
                    1 => r % 4096,
                    _ => 1u64 << ((s as u64 + r % 2) % 40),
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// The planner is a pure speed-up: on the three alphabets DEFLATE
        /// plans (286 literal/length and 30 distance symbols under 15
        /// bits, 19 code-length symbols under 7) it assigns every symbol
        /// the length the old package-merge did, ties included.
        #[test]
        fn lengths_equal_the_reference_package_merge(
            raw in pvec(any::<u64>(), 1..64),
            shape in any::<u8>(),
            zero_every in 1usize..9,
        ) {
            for (symbols, max_len) in [(286usize, 15u32), (30, 15), (19, 7)] {
                let freqs = table(&raw, symbols, shape, zero_every);
                let got = lengths_of(&freqs, max_len);
                prop_assert_eq!(&got, &reference_code_lengths(&freqs, max_len), "{:?}", &freqs);
                prop_assert!(got.iter().all(|&l| u32::from(l) <= max_len));
            }
        }
    }

    #[test]
    fn lengths_equal_the_reference_where_the_limit_binds_and_at_the_edges() {
        let same = |freqs: &[u64], max_len: u32| {
            let got = lengths_of(freqs, max_len);
            assert_eq!(got, reference_code_lengths(freqs, max_len), "{freqs:?} under {max_len}");
            got
        };
        // One and two active symbols, anywhere in the table.
        same(&[0, 0, 9, 0], 15);
        assert_eq!(same(&[0, 4, 0, 4], 15), [0, 1, 0, 1]);
        assert_eq!(same(&[1, 1 << 40], 7), [1, 1]);
        // Limit 7 binding on the 19-symbol code-length alphabet: a
        // Fibonacci table wants depth 18.
        let mut fib = vec![1u64, 1];
        while fib.len() < 19 {
            fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
        }
        let lens = same(&fib, 7);
        assert_eq!(lens.iter().copied().max(), Some(7));
        assert!(check_kraft(&lens).unwrap());
        // Limit 15 binding on a skewed 286-symbol table: doubling
        // weights over the literals, a flat floor under the rest.
        let skewed: Vec<u64> =
            (0..286u32).map(|s| if s < 40 { 1u64 << s } else { 3 }).collect();
        let lens = same(&skewed, 15);
        assert_eq!(lens.iter().copied().max(), Some(15));
        assert!(check_kraft(&lens).unwrap());
        // All equal: every item of every list ties.
        same(&[7; 286], 15);
        same(&[7; 19], 7);
    }

    /// Whether [`code_lengths`] takes the two-queue construction for
    /// `freqs` rather than falling back to package-merge.
    fn two_queue_fits(freqs: &[u64], max_len: u32) -> bool {
        let active = freqs.iter().enumerate().filter(|&(_, &f)| f > 0);
        let mut keys: Vec<u64> = active.map(|(s, &f)| f << 9 | s as u64).collect();
        huffman_lengths(&mut keys, max_len.min(MAX_BITS) as usize, &mut vec![0; freqs.len()])
    }

    /// Tie-heavy tables — all weights equal, powers of two, Fibonacci,
    /// mostly zeros — at both limits DEFLATE uses: every symbol gets the
    /// length package-merge gives it, whichever construction ran, and
    /// both constructions run.
    #[test]
    fn two_queue_lengths_equal_package_merge_on_tie_heavy_tables() {
        let fib = |k: usize| (0..k % 48).fold((1u64, 1u64), |(a, b), _| (b, a + b)).0;
        let mut tables: Vec<Vec<u64>> = Vec::new();
        for n in [2usize, 3, 4, 5, 8, 19, 30, 64, 286] {
            tables.push(vec![7; n]);
            tables.push((0..n).map(|s| 1 << (s % 12)).collect());
            tables.push((0..n).map(|s| 1 << (11 - s % 12)).collect());
            tables.push((0..n).map(|s| 1 << (s % 3)).collect());
            tables.push((0..n).map(fib).collect());
            tables.push((0..n).map(|s| fib(n - s)).collect());
            tables.push((0..n).map(|s| if s % 3 == 0 { fib(s) } else { 0 }).collect());
            tables.push((0..n).map(|s| if s % 5 == 0 { 3 } else { 0 }).collect());
            tables.push((0..n).map(|s| [1, 1, 2, 2, 4, 4, 0][s % 7]).collect());
        }
        let (mut fast, mut fallback) = (0, 0);
        for freqs in &tables {
            for max_len in [7u32, 15] {
                let active = freqs.iter().filter(|&&f| f > 0).count();
                if active as u64 > 1 << max_len {
                    continue;
                }
                let got = lengths_of(freqs, max_len);
                let want = reference_code_lengths(freqs, max_len);
                assert_eq!(got, want, "{freqs:?} under {max_len}");
                if active >= 2 {
                    *if two_queue_fits(freqs, max_len) { &mut fast } else { &mut fallback } += 1;
                }
            }
        }
        assert!(fast >= 20 && fallback >= 10, "two-queue {fast}, package-merge {fallback}");
    }

    #[test]
    fn canonical_codes_rfc_example() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) ->
        // codes 010,011,100,101,110,00,1110,1111.
        let lengths = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = codes_of(&lengths);
        assert_eq!(codes, vec![0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]);
    }

    #[test]
    fn lengths_of_uniform_freqs_are_balanced() {
        let lens = lengths_of(&[10; 8], 15);
        assert!(lens.iter().all(|&l| l == 3));
    }

    #[test]
    fn skewed_freqs_get_short_codes() {
        let lens = lengths_of(&[1000, 1, 1, 1], 15);
        assert_eq!(lens[0], 1);
        assert!(lens[1] >= 2 && lens[2] >= 2 && lens[3] >= 2);
        assert!(check_kraft(&lens).unwrap(), "must be complete");
    }

    #[test]
    fn length_limit_is_enforced() {
        // Fibonacci-ish frequencies force long codes in unlimited
        // Huffman; the limit must cap them.
        let mut freqs = vec![0u64; 20];
        let mut a = 1u64;
        let mut b = 1u64;
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        for limit in [5u32, 7, 15] {
            let lens = lengths_of(&freqs, limit);
            assert!(lens.iter().all(|&l| l as u32 <= limit), "limit {limit}: {lens:?}");
            assert!(check_kraft(&lens).unwrap(), "limit {limit} must yield a complete code");
        }
    }

    #[test]
    fn zero_and_single_symbol_cases() {
        assert_eq!(lengths_of(&[0, 0, 0], 15), vec![0, 0, 0]);
        assert_eq!(lengths_of(&[0, 7, 0], 15), vec![0, 1, 0]);
    }

    #[test]
    fn package_merge_is_optimal_against_known_case() {
        // freqs 1,1,2,3,5: optimal Huffman lengths 4,4,3,2,1 (or any
        // permutation with the same multiset), total cost 1*4+1*4+2*3+3*2+5*1 = 25.
        let freqs = [1u64, 1, 2, 3, 5];
        let lens = lengths_of(&freqs, 15);
        let cost: u64 = freqs.iter().zip(&lens).map(|(&f, &l)| f * l as u64).sum();
        assert_eq!(cost, 25, "lengths {lens:?}");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let freqs: Vec<u64> = (1..=40).map(|i| i * i).collect();
        let lens = lengths_of(&freqs, 15);
        let enc = Encoder::from_lengths(&lens);
        let dec = Decoder::from_lengths(&lens).unwrap();
        let symbols: Vec<usize> = (0..40).chain((0..40).rev()).chain([39, 0, 17]).collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.read(&mut r).unwrap(), s as u16);
        }
    }

    #[test]
    fn oversubscribed_table_rejected() {
        // Three 1-bit codes cannot exist.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn incomplete_table_accepted_but_bad_code_errors() {
        // One 2-bit code: incomplete but legal (DEFLATE single-distance).
        let dec = Decoder::from_lengths(&[2]).unwrap();
        // Code 00 decodes to symbol 0.
        let mut w = BitWriter::new();
        w.write_bits(0, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.read(&mut r).unwrap(), 0);
        // Code 11... decodes to nothing.
        let bytes = [0xFF, 0xFF];
        let mut r = BitReader::new(&bytes);
        assert!(dec.read(&mut r).is_err());
    }

    #[test]
    fn fixed_literal_table_shape() {
        // The fixed literal/length code of RFC 1951 §3.2.6: lengths 8 for
        // 0..144, 9 for 144..256, 7 for 256..280, 8 for 280..288.
        let mut lens = vec![8u8; 288];
        for l in lens.iter_mut().take(256).skip(144) {
            *l = 9;
        }
        for l in lens.iter_mut().take(280).skip(256) {
            *l = 7;
        }
        assert!(check_kraft(&lens).unwrap());
        let codes = codes_of(&lens);
        assert_eq!(codes[0], 0b0011_0000); // literal 0 -> 00110000
        assert_eq!(codes[256], 0); // end-of-block -> 0000000
        assert_eq!(codes[280], 0b1100_0000);
    }
}

#[cfg(test)]
mod fast_path_tests {
    use super::tests::lengths_of;
    use super::*;
    use crate::bitio::{BitReader, BitWriter};

    /// A table guaranteed to contain codes longer than FAST_BITS, so
    /// both the primary table and the subtables are exercised.
    fn long_code_table() -> Vec<u8> {
        // Fibonacci-like frequencies over 30 symbols give a skewed tree
        // with depths beyond 9 at limit 15.
        let mut freqs = vec![0u64; 30];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        lengths_of(&freqs, 15)
    }

    #[test]
    fn primary_and_subtable_paths_agree_on_long_code_tables() {
        let lens = long_code_table();
        assert!(
            lens.iter().any(|&l| l as u32 > FAST_BITS),
            "test requires codes beyond the primary table: {lens:?}"
        );
        let enc = Encoder::from_lengths(&lens);
        let dec = Decoder::from_lengths(&lens).unwrap();
        let symbols: Vec<usize> =
            (0..30).chain((0..30).rev()).cycle().take(500).collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.read(&mut r).unwrap(), s as u16);
        }
    }

    #[test]
    fn max_depth_table_roundtrips_every_symbol() {
        // A full 15-deep comb: lengths 1,2,3,...,14,15,15 form a
        // complete code whose deepest codes need the widest subtable.
        let mut lens: Vec<u8> = (1..=15u8).collect();
        lens.push(15);
        assert!(check_kraft(&lens).unwrap());
        let enc = Encoder::from_lengths(&lens);
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut w = BitWriter::new();
        for s in 0..lens.len() {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for s in 0..lens.len() {
            assert_eq!(dec.read(&mut r).unwrap(), s as u16, "symbol {s}");
        }
    }

    #[test]
    fn truncated_fast_path_code_errors() {
        // One 8-bit code, stream holds only 3 bits of it.
        let mut lens = vec![0u8; 2];
        lens[0] = 1;
        lens[1] = 1;
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut r = BitReader::new(&[]);
        assert!(dec.read(&mut r).is_err());
    }

    #[test]
    fn truncated_long_code_errors() {
        // Deep table, stream holds only the primary prefix of a long
        // code: consume must fail rather than fabricate a symbol.
        let lens = long_code_table();
        let enc = Encoder::from_lengths(&lens);
        let deep = (0..lens.len()).max_by_key(|&s| lens[s]).unwrap();
        let mut w = BitWriter::new();
        enc.write(&mut w, deep);
        let bytes = w.finish();
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut r = BitReader::new(&bytes[..1]);
        assert!(dec.read(&mut r).is_err());
    }
}
