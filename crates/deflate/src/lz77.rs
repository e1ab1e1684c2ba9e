//! LZ77 match finding with hash chains (the engine behind DEFLATE).
//!
//! Produces a token stream of literals and back-references within the
//! 32 KiB DEFLATE window, at one effort: lazy matching over
//! eight chain links.
//!
//! The hot path is built for single-thread throughput:
//! * hash heads and the prev ring are `u32` (half the memory traffic of
//!   the old `usize` arrays, and the whole prev ring fits in L1/L2);
//! * candidate comparison runs 8 bytes at a time via `u64` loads and
//!   `trailing_zeros` on the XOR;
//! * lazy evaluation keeps the probe result for the next position
//!   instead of re-searching it after a deferral;
//! * a capped miss-driven stride thins the search where it keeps
//!   missing (whole blocks of noise never get here: the encoder's gate
//!   stores them unsearched, and hands this module the ranges between);
//! * tokens stream into a [`TokenSink`] (the DEFLATE encoder feeds them
//!   straight into Huffman coding) instead of materializing a
//!   `Vec<Token>` for the whole input.

/// Minimum back-reference length DEFLATE can encode.
pub const MIN_MATCH: usize = 3;
/// Maximum back-reference length.
pub const MAX_MATCH: usize = 258;
/// Window size: maximum back-reference distance.
pub const WINDOW: usize = 32 * 1024;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
const WMASK: usize = WINDOW - 1;

/// Skip-on-miss (the LZ4/zstd rule): after a run of consecutive
/// positions with no match the search advances by
/// `min(1 + (misses >> MISS_SHIFT), MAX_STRIDE)` and drops back to 1 on
/// the first match. The stride grows by one per 32 misses. Stepped-over
/// positions are still hashed into the chains (no chain walk), and the
/// stride is capped: both keep re-entry into structured data cheap.
/// Uncapped and unindexed, the search is ~10% faster on a checkpoint
/// payload but steps over the first matches of the few-KB planes of
/// small exact segments (+1.25% stored size there); as set, the loss is
/// under 0.05% everywhere measured (sweep in DESIGN.md). Since the
/// encoder's noise gate took the mantissa planes of a transposed f64
/// region away from the matcher, what the stride thins is the rest —
/// poorly matching stretches shorter than a gate block or not flat at
/// order 0 (the index plane, an untransposed f64 region): still 8% of
/// the stage's time on a checkpoint stream (EXPERIMENTS.md, pass 8).
const MISS_SHIFT: u32 = 5;
const MAX_STRIDE: usize = 8;

/// A match of [`MIN_MATCH`] bytes from further back than this is no
/// match (zlib's `TOO_FAR`): its distance code and up to 13 extra bits
/// cost more than the three literals it replaces. The chain walks from
/// the nearest candidate out, so no nearer match of that length exists.
const TOO_FAR: usize = 4096;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// 3..=258.
        len: u16,
        /// 1..=32768.
        dist: u16,
    },
}

/// Receives the token stream as it is produced. Implemented by the
/// DEFLATE segment encoder (fused tokenize→encode) and by the plain
/// `Vec<Token>` collector behind [`tokenize`].
pub trait TokenSink {
    /// One literal byte.
    fn literal(&mut self, byte: u8);
    /// A back-reference of `len` (3..=258) at `dist` (1..=32768).
    fn backref(&mut self, len: u32, dist: u32);
    /// A run of literal bytes. Sinks with per-token bookkeeping can
    /// override this to amortize it; the default forwards byte by byte.
    fn literals(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.literal(b);
        }
    }
}

/// Chain links a search walks.
const MAX_CHAIN: usize = 8;
/// Stop searching early once a match of this length is found.
const GOOD_ENOUGH: usize = 64;
/// Skip the lazy probe entirely when the current match is at least this
/// long (zlib's `max_lazy`) — a long match is almost never beaten by one
/// starting a byte later, and the probe is the second-most expensive
/// step on compressible data.
const MAX_LAZY: usize = 16;
/// When lazily probing against a current match at least this long, walk
/// only a quarter of the chain (zlib's `good_length`).
const GOOD_LENGTH: usize = 8;

/// Hashes the 3 bytes at `pos` (caller guarantees `pos + 3 <= len`).
/// Loads 4 bytes and masks to 24 bits when possible — same 3-byte hash
/// semantics (and thus the same ratio behavior) as byte assembly, one
/// load instead of three.
#[inline(always)]
fn hash3(data: &[u8], pos: usize) -> usize {
    let v = match data.get(pos..pos + 4).and_then(|s| s.first_chunk::<4>()) {
        Some(c) => u32::from_le_bytes(*c) & 0x00FF_FFFF,
        None => {
            (data[pos] as u32) | (data[pos + 1] as u32) << 8 | (data[pos + 2] as u32) << 16
        }
    };
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[cand..]` and `data[pos..]`, up
/// to `max` (caller guarantees `cand < pos` and `pos + max <= len`).
/// Compares 8 bytes per step; the first differing byte is located with
/// `trailing_zeros` on the XOR of the two words.
#[inline]
fn match_len(data: &[u8], cand: usize, pos: usize, max: usize) -> usize {
    // Two subslices up front hoist all bounds checks out of the loop
    // (cand < pos, so cand + max <= pos + max <= data.len()).
    let a = &data[cand..cand + max];
    let b = &data[pos..pos + max];
    let mut l = 0usize;
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for (x, y) in ac.by_ref().zip(bc.by_ref()) {
        let xv = u64::from_le_bytes(x.try_into().unwrap());
        let yv = u64::from_le_bytes(y.try_into().unwrap());
        let d = xv ^ yv;
        if d != 0 {
            return l + (d.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        if x != y {
            break;
        }
        l += 1;
    }
    l
}

/// The match finder: hash-chain state over the input buffer, which
/// lives across calls so that one input can be tokenized a range at a
/// time. Positions are stored +1 so that 0 means "empty"; `u32` halves
/// the footprint of the old `usize` arrays.
pub(crate) struct Matcher {
    /// head[h] = (most recent position with hash h) + 1, or 0. Boxed
    /// fixed-size arrays: indexing with a masked value needs no bounds
    /// check.
    head: Box<[u32; HASH_SIZE]>,
    /// prev[pos & WMASK] = previous position with the same hash, +1.
    prev: Box<[u32; WINDOW]>,
}

impl Matcher {
    /// A matcher with empty chains.
    pub(crate) fn new() -> Self {
        Matcher {
            head: vec![0u32; HASH_SIZE].into_boxed_slice().try_into().expect("sized"),
            prev: vec![0u32; WINDOW].into_boxed_slice().try_into().expect("sized"),
        }
    }

    /// Inserts `pos` into its hash chain and returns the previous chain
    /// head (+1 encoded) — the candidate list for a search at `pos`.
    #[inline(always)]
    fn insert(&mut self, h: usize, pos: usize) -> u32 {
        let head = self.head[h & (HASH_SIZE - 1)];
        self.prev[pos & WMASK] = head;
        self.head[h & (HASH_SIZE - 1)] = pos as u32 + 1;
        head
    }

    /// Longest match for `pos` walking the chain starting at `first`
    /// (+1 encoded head captured before `pos` was inserted), or None if
    /// not longer than `min_len` (pass `MIN_MATCH - 1` for an
    /// unconstrained search; the lazy probe passes the pending match
    /// length so candidates that cannot beat it are rejected on a
    /// single byte compare).
    #[inline]
    fn longest_from(
        &self,
        data: &[u8],
        pos: usize,
        first: u32,
        max_chain: usize,
        min_len: usize,
    ) -> Option<(u32, u32)> {
        let max = MAX_MATCH.min(data.len() - pos);
        if max < MIN_MATCH || min_len >= max {
            return None;
        }
        let floor = pos.saturating_sub(WINDOW);
        let mut best_len = min_len;
        let mut best_dist = 0usize;
        // Byte just past the current best, cached so the quick-reject
        // probe is one load instead of two bounds-checked reads.
        let mut want = data[pos + best_len];
        let mut cand_code = first;
        let mut chain = max_chain;
        while cand_code != 0 && chain > 0 {
            let cand = cand_code as usize - 1;
            if cand < floor || cand >= pos {
                break;
            }
            // Quick reject: the byte just past the current best must
            // match before a full comparison is worth it (best_len < max
            // here — a full-length match breaks out below).
            if data[cand + best_len] == want {
                let l = match_len(data, cand, pos, max);
                if l > best_len {
                    best_len = l;
                    best_dist = pos - cand;
                    if l >= GOOD_ENOUGH || l == max {
                        break;
                    }
                    want = data[pos + best_len];
                }
            }
            cand_code = self.prev[cand & WMASK];
            chain -= 1;
        }
        let too_far = best_len == MIN_MATCH && best_dist > TOO_FAR;
        if best_len > min_len && best_len >= MIN_MATCH && !too_far {
            Some((best_len as u32, best_dist as u32))
        } else {
            None
        }
    }
}

impl Matcher {
    /// Streams the tokens for `data[start..]` into `sink`. Matches reach
    /// back into `data[..start]` wherever an earlier call indexed it and
    /// never run past the end of `data`, so a caller that tokenizes
    /// ranges in ascending order — handing the bytes in between to the
    /// decoder some other way — passes `&data[..end]` for each.
    pub(crate) fn tokenize_into<S: TokenSink>(&mut self, data: &[u8], start: usize, sink: &mut S) {
        // Positions are stored +1 in u32 chains.
        assert!(data.len() < u32::MAX as usize, "input too large for u32 hash chains");
        let n = data.len();
        // Positions below this bound have a full 3-byte hash.
        let hash_end = n.saturating_sub(MIN_MATCH - 1);
        let mut i = start;
        // Start of the literal run not yet handed to the sink — literals
        // batch into one `literals` call per run instead of one call per
        // byte.
        let mut lit_start = start;
        // Match found at position i by last iteration's lazy probe (i is
        // already inserted in the chains).
        let mut pending: Option<(u32, u32)> = None;
        // Consecutive searched positions that found no match.
        let mut misses = 0usize;
        while i < n {
            let found = match pending.take() {
                Some(m) => Some(m),
                None if i < hash_end => {
                    let first = self.insert(hash3(data, i), i);
                    self.longest_from(data, i, first, MAX_CHAIN, MIN_MATCH - 1)
                }
                None => None,
            };
            let Some((len, dist)) = found else {
                // The positions stepped over join the literal run unsearched,
                // but are indexed: a match that starts right behind the
                // noise must still find its source.
                misses += 1;
                let next = i + (1 + (misses >> MISS_SHIFT)).min(MAX_STRIDE);
                for p in i + 1..next.min(hash_end) {
                    self.insert(hash3(data, p), p);
                }
                i = next;
                continue;
            };
            misses = 0;
            // Lazy evaluation: if the next position matches longer, defer
            // (position i joins the literal run). The probe inserts i+1 (it
            // gets inserted exactly once either way) and its result is
            // reused as the next iteration's match — the old implementation
            // searched every deferred position twice.
            let mut probed = false;
            if (len as usize) < MAX_LAZY && i + 1 < hash_end {
                let first = self.insert(hash3(data, i + 1), i + 1);
                probed = true;
                // A match that is already good only merits a quarter of the
                // chain budget on the probe.
                let budget = if (len as usize) >= GOOD_LENGTH { MAX_CHAIN >> 2 } else { MAX_CHAIN };
                // Seeding with the pending length means the probe can only
                // return a strictly longer match.
                if let Some((len2, dist2)) =
                    self.longest_from(data, i + 1, first, budget, len as usize)
                {
                    i += 1;
                    pending = Some((len2, dist2));
                    continue;
                }
            }
            if lit_start < i {
                sink.literals(&data[lit_start..i]);
            }
            sink.backref(len, dist);
            lit_start = i + len as usize;
            // Index the skipped positions so later matches can refer into
            // this region; the hash is one masked u32 load per position.
            let from = if probed { i + 2 } else { i + 1 };
            let end = (i + len as usize).min(hash_end);
            for p in from..end {
                self.insert(hash3(data, p), p);
            }
            i += len as usize;
        }
        if lit_start < n {
            sink.literals(&data[lit_start..n]);
        }
    }
}

/// Collects tokens into a `Vec` (tests and offline analysis).
struct Collector {
    tokens: Vec<Token>,
}

impl TokenSink for Collector {
    #[inline]
    fn literal(&mut self, byte: u8) {
        self.tokens.push(Token::Literal(byte));
    }
    #[inline]
    fn backref(&mut self, len: u32, dist: u32) {
        self.tokens.push(Token::Match { len: len as u16, dist: dist as u16 });
    }
}

/// Tokenizes `data` into a materialized token vector. The compressor
/// proper drives a `Matcher`; this exists for tests and tools that
/// inspect the token stream.
pub fn tokenize(data: &[u8]) -> Vec<Token> {
    let mut sink = Collector { tokens: Vec::with_capacity(data.len() / 2) };
    Matcher::new().tokenize_into(data, 0, &mut sink);
    sink.tokens
}

/// Expands a token stream back into bytes (test helper and the core of
/// inflate's copy loop semantics). Pre-sizes the output from the token
/// stream and copies matches in chunks, mirroring the inflate fast
/// path: non-overlapping matches are one `extend_from_within`
/// (memcpy), overlapping ones double the copied region per step.
pub fn resolve(tokens: &[Token]) -> Vec<u8> {
    let total: usize = tokens
        .iter()
        .map(|t| match t {
            Token::Literal(_) => 1,
            Token::Match { len, .. } => *len as usize,
        })
        .sum();
    let mut out = Vec::with_capacity(total);
    for &t in tokens {
        match t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let len = len as usize;
                assert!(dist >= 1 && dist <= out.len(), "bad distance {dist} at {}", out.len());
                let start = out.len() - dist;
                let mut remaining = len;
                while remaining > 0 {
                    let avail = out.len() - start;
                    let take = remaining.min(avail);
                    out.extend_from_within(start..start + take);
                    remaining -= take;
                }
            }
        }
    }
    debug_assert_eq!(out.len(), total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        assert_eq!(resolve(&tokenize(data)), data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for data in [&b""[..], b"a", b"ab", b"abc"] {
            roundtrip(data);
        }
    }

    #[test]
    fn repetitive_data_produces_matches() {
        let data = b"abcabcabcabcabcabcabcabc";
        let tokens = tokenize(data);
        assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
        assert_eq!(resolve(&tokens), data);
        // First three literals, then matches of distance 3.
        assert!(matches!(tokens[0], Token::Literal(b'a')));
        let m = tokens.iter().find_map(|t| match t {
            Token::Match { dist, .. } => Some(*dist),
            _ => None,
        });
        assert_eq!(m, Some(3));
    }

    #[test]
    fn overlapping_match_replication() {
        // "aaaaaaaa" -> literal 'a' then a dist-1 match (RLE via LZ77).
        let data = vec![b'a'; 300];
        let tokens = tokenize(&data);
        assert_eq!(resolve(&tokens), data);
        assert!(tokens.len() <= 4, "RLE should need very few tokens: {}", tokens.len());
        if let Token::Match { len, dist } = tokens[1] {
            assert_eq!(dist, 1);
            assert!(len as usize <= MAX_MATCH);
        } else {
            panic!("expected a match after the first literal");
        }
    }

    #[test]
    fn match_length_capped_at_258() {
        let data = vec![b'x'; 10_000];
        for t in tokenize(&data) {
            if let Token::Match { len, .. } = t {
                assert!(len as usize <= MAX_MATCH);
                assert!(len as usize >= MIN_MATCH);
            }
        }
    }

    #[test]
    fn distances_respect_window() {
        // Two identical 100-byte chunks separated by > 32 KiB of
        // incompressible filler: the second chunk must not reference the
        // first.
        let chunk: Vec<u8> = (0..100u32).map(|i| (i * 37 % 251) as u8).collect();
        let mut filler = Vec::new();
        let mut state = 0x12345678u32;
        for _ in 0..WINDOW + 1000 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            filler.push((state >> 24) as u8);
        }
        let mut data = chunk.clone();
        data.extend_from_slice(&filler);
        data.extend_from_slice(&chunk);
        let tokens = tokenize(&data);
        assert_eq!(resolve(&tokens), data);
        for t in &tokens {
            if let Token::Match { dist, .. } = t {
                assert!((*dist as usize) <= WINDOW);
            }
        }
    }

    #[test]
    fn binary_f64_mesh_data_roundtrips() {
        // The shape of data the pipeline actually feeds through gzip.
        let mut data = Vec::new();
        for i in 0..4096 {
            let v = (i as f64 * 0.001).sin() * 300.0;
            data.extend_from_slice(&v.to_le_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn a_three_byte_match_counts_only_from_within_too_far() {
        // A motif no other bytes contain, then `gap - 3` bytes of a
        // period-20 ramp (matched, so no miss stride is in flight), then
        // the motif again: the only source the second copy has is the
        // first, exactly three bytes long.
        let motif = [250u8, 251, 252];
        let cases = [(100usize, true), (TOO_FAR, true), (TOO_FAR + 1, false), (5000, false)];
        for (gap, is_match) in cases {
            let filler = (0..gap - 3).map(|i| (i % 20) as u8);
            let data: Vec<u8> =
                motif.iter().copied().chain(filler).chain(motif).chain([253; 8]).collect();
            let tokens = tokenize(&data);
            assert_eq!(resolve(&tokens), data);
            let mut pos = 0usize;
            let at_copy = tokens
                .iter()
                .find(|t| {
                    let here = pos;
                    pos += match t {
                        Token::Literal(_) => 1,
                        Token::Match { len, .. } => *len as usize,
                    };
                    here >= gap
                })
                .copied();
            let want = if is_match {
                Token::Match { len: 3, dist: gap as u16 }
            } else {
                Token::Literal(250)
            };
            assert_eq!(at_copy, Some(want), "{gap} back");
        }
    }

    #[test]
    fn wide_match_len_agrees_with_bytewise() {
        // match_len against a byte-by-byte reference at every alignment
        // and length around the 8-byte stride.
        let mut data = vec![0u8; 600];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 7) as u8;
        }
        // A second copy with deliberate diffs at varied offsets.
        let base = data.clone();
        data.extend_from_slice(&base);
        for diff_at in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 255, 256, 257] {
            let mut d = data.clone();
            d[600 + diff_at] ^= 0xFF;
            let max = MAX_MATCH.min(d.len() - 600);
            let want = (0..max).take_while(|&k| d[k] == d[600 + k]).count();
            assert_eq!(match_len(&d, 0, 600, max), want, "diff at {diff_at}");
        }
    }

    #[test]
    fn resolve_presizes_and_copies_overlaps() {
        // dist < len exercises the chunked overlap path; the result must
        // replicate the period exactly.
        let tokens = vec![
            Token::Literal(1),
            Token::Literal(2),
            Token::Literal(3),
            Token::Match { len: 10, dist: 3 },
            Token::Match { len: 4, dist: 13 },
        ];
        let out = resolve(&tokens);
        assert_eq!(out, vec![1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 1, 2, 3, 1]);
    }

    #[test]
    fn a_later_range_matches_into_an_earlier_one_and_stops_at_its_own_end() {
        // motif | 16 KiB handed to the decoder some other way | motif |
        // more: tokenized as 0..a and b..c of one input, the second range
        // finds the first across the gap and leaves `more` alone.
        let mut state = 7u32;
        let motif: Vec<u8> = (0..1000)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect();
        let gap = vec![0xEEu8; 16 * 1024];
        let data = [motif.as_slice(), &gap, &motif, &motif[..300]].concat();
        let (a, b, c) = (motif.len(), motif.len() + gap.len(), 2 * motif.len() + gap.len());
        let mut matcher = Matcher::new();
        let mut sink = Collector { tokens: Vec::new() };
        matcher.tokenize_into(&data[..a], 0, &mut sink);
        let first = sink.tokens.len();
        matcher.tokenize_into(&data[..c], b, &mut sink);
        let second = &sink.tokens[first..];
        let covered: usize = second
            .iter()
            .map(|t| match t {
                Token::Literal(_) => 1,
                Token::Match { len, .. } => *len as usize,
            })
            .sum();
        assert_eq!(covered, c - b, "the range's bytes, no more");
        assert!(second.len() <= 8, "{} tokens for a copy", second.len());
        assert!(
            second.iter().all(|t| matches!(t, Token::Match { dist, .. } if *dist as usize == b)),
            "{second:?}"
        );
    }

    #[test]
    fn structure_right_behind_noise_is_matched_from_its_second_period() {
        // 64 KiB of noise drives the miss stride to its cap; the
        // period-97 pattern behind it must cost what it costs alone —
        // one period of literals, then matches — plus at most the
        // stride that was in flight when it began.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..64 * 1024)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let pattern: Vec<u8> = (0..4096).map(|i| (i % 97) as u8).collect();
        let both = [noise.as_slice(), &pattern].concat();
        // (literals, matches) among the tokens that start at or after `from`.
        let census = |data: &[u8], from: usize| {
            let (mut pos, mut lits, mut matches) = (0usize, 0usize, 0usize);
            for t in tokenize(data) {
                let len = match t {
                    Token::Literal(_) => 1,
                    Token::Match { len, .. } => len as usize,
                };
                if pos >= from {
                    match t {
                        Token::Literal(_) => lits += 1,
                        Token::Match { .. } => matches += 1,
                    }
                }
                pos += len;
            }
            (lits, matches)
        };
        roundtrip(&both);
        let (alone_lits, alone_matches) = census(&pattern, 0);
        let (lits, matches) = census(&both, noise.len());
        assert!(lits <= alone_lits + MAX_STRIDE, "{lits} literals vs {alone_lits} alone");
        assert!(matches <= alone_matches + 1, "{matches} matches vs {alone_matches} alone");
        // In bytes: the pattern's share of the stream. 205 is what the
        // matcher without the stride gave it.
        let level = crate::Level::Default;
        let share = crate::compress(&both, level).len() - crate::compress(&noise, level).len();
        assert!(share <= 205 + 32, "the pattern took {share} bytes");
    }
}
