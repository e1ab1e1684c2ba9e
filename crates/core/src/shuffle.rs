//! Byte transposition of the floating-point sections.
//!
//! The paper closes Section IV-D with: *"we are going to investigate
//! other compression methods that are more appropriate than gzip when
//! combined with our lossy compression."* Byte shuffling (as in HDF5's
//! shuffle filter) is the classic answer for IEEE-754 payloads: group
//! the k-th byte of every double together, so the sign/exponent bytes
//! form two highly repetitive planes and the mantissa noise sits in six
//! contiguous ones instead of being interleaved with them. The product
//! layout does this wherever it writes doubles, and stores its grid
//! words in the low planes of the same transposition
//! ([`crate::StreamLayout::Product`]).
//!
//! A transposed region of `count` doubles is eight planes of `count`
//! bytes: plane `j` holds little-endian byte `j` of every value. Both
//! directions work on columns of that region in place — the codec
//! writes its three f64 sections straight into the formatted stream and
//! reads them straight back out, with no intermediate region buffer.
//!
//! Eight columns of the region are an 8×8 byte matrix: eight values as
//! rows one way, eight 8-byte plane runs as rows the other. Both
//! directions move whole words through one kernel, [`transpose8`],
//! which transposes that matrix in twelve masked swaps; columns past
//! the last multiple of 8 go byte by byte. A transposition only moves
//! bytes, so each plane holds exactly the bytes a byte-at-a-time copy
//! puts there, and it is its own inverse, so reading applies the same
//! kernel the writer did.

/// Transposes the 8×8 byte matrix whose row `r` is `rows[r]` (byte `c`
/// of a row is bits `8c..8c + 8`): byte `c` of output row `r` is byte
/// `r` of input row `c`. Three stages swap the off-diagonal blocks of
/// 1×1 bytes, 2×2 and 4×4 bytes, four masked swaps each; each stage
/// exchanges one bit of the row index with the same bit of the byte
/// index, so the three together are the transpose, and the transpose
/// is an involution.
fn transpose8(mut rows: [u64; 8]) -> [u64; 8] {
    for (shift, mask, pairs) in [
        (8, 0x00FF_00FF_00FF_00FF, [(0, 1), (2, 3), (4, 5), (6, 7)]),
        (16, 0x0000_FFFF_0000_FFFF, [(0, 2), (1, 3), (4, 6), (5, 7)]),
        (32, 0x0000_0000_FFFF_FFFF, [(0, 4), (1, 5), (2, 6), (3, 7)]),
    ] {
        for (lo, hi) in pairs {
            let t = ((rows[lo] >> shift) ^ rows[hi]) & mask;
            rows[lo] ^= t << shift;
            rows[hi] ^= t;
        }
    }
    rows
}

/// Checks that a region of `region_len` bytes is `planes` whole planes
/// with columns `at..at + n` in them, and returns its column count.
fn columns(region_len: usize, planes: usize, at: usize, n: usize) -> usize {
    assert_eq!(region_len % planes, 0, "region must be whole planes");
    let count = region_len / planes;
    assert!(at + n <= count, "columns out of range");
    count
}

/// Writes `values` as columns `at..at + values.len()` of the eight byte
/// planes of `region` (`region.len()` must be a multiple of 8 and hold
/// those columns).
pub fn write_planes(region: &mut [u8], at: usize, values: &[f64]) {
    write_words(region, 8, at, values, |v| v.to_bits());
}

/// [`write_planes`] of the word `word(v)` stands each value for, in
/// value order, mapped inside the transposing loop, into a region of
/// `planes` planes: plane `j` takes byte `j` of every word, and the
/// bytes past the last plane are dropped, so every word must fit in
/// `planes` bytes. The codec's grid sections go out this way, in only
/// the planes their largest word needs.
pub(crate) fn write_words<T>(
    region: &mut [u8],
    planes: usize,
    at: usize,
    values: &[T],
    word: impl FnMut(&T) -> u64,
) {
    assert!((1..=8).contains(&planes), "{planes} planes outside 1..=8");
    match planes {
        1 => write_words_in::<1, T>(region, at, values, word),
        2 => write_words_in::<2, T>(region, at, values, word),
        3 => write_words_in::<3, T>(region, at, values, word),
        4 => write_words_in::<4, T>(region, at, values, word),
        5 => write_words_in::<5, T>(region, at, values, word),
        6 => write_words_in::<6, T>(region, at, values, word),
        7 => write_words_in::<7, T>(region, at, values, word),
        _ => write_words_in::<8, T>(region, at, values, word),
    }
}

/// [`write_words`] into `P` planes (1..=8). The plane count is a
/// constant so each loop over the planes is unrolled: with a runtime
/// count both directions run 2.5x slower.
fn write_words_in<const P: usize, T>(
    region: &mut [u8],
    at: usize,
    values: &[T],
    mut word: impl FnMut(&T) -> u64,
) {
    let n = values.len();
    let count = columns(region.len(), P, at, n);
    // An empty region's planes are zero-wide, which `chunks_exact` refuses.
    if n == 0 {
        return;
    }
    let mut planes = region.chunks_exact_mut(count).map(|plane| &mut plane[at..at + n]);
    let mut planes: [&mut [u8]; P] = std::array::from_fn(|_| planes.next().expect("P planes"));
    let mut cols = 0;
    for eight in values.chunks_exact(8) {
        let mut rows = [0u64; 8];
        for (row, v) in rows.iter_mut().zip(eight) {
            *row = word(v);
        }
        for (plane, w) in planes.iter_mut().zip(transpose8(rows)) {
            plane[cols..cols + 8].copy_from_slice(&w.to_le_bytes());
        }
        cols += 8;
    }
    for (c, v) in values.iter().enumerate().skip(cols) {
        let w = word(v);
        for (j, plane) in planes.iter_mut().enumerate() {
            plane[c] = (w >> (8 * j)) as u8;
        }
    }
}

/// Gathers columns `at..at + words.len()` of the `planes` byte planes
/// of `region` back into the words they hold, the bytes past the last
/// plane zero: the inverse of [`write_words`], into the caller's
/// buffer. Only those planes are read.
pub(crate) fn gather_words(region: &[u8], planes: usize, at: usize, words: &mut [u64]) {
    assert!((1..=8).contains(&planes), "{planes} planes outside 1..=8");
    match planes {
        1 => gather_words_in::<1>(region, at, words),
        2 => gather_words_in::<2>(region, at, words),
        3 => gather_words_in::<3>(region, at, words),
        4 => gather_words_in::<4>(region, at, words),
        5 => gather_words_in::<5>(region, at, words),
        6 => gather_words_in::<6>(region, at, words),
        7 => gather_words_in::<7>(region, at, words),
        _ => gather_words_in::<8>(region, at, words),
    }
}

/// [`gather_words`] from `P` planes (1..=8).
fn gather_words_in<const P: usize>(region: &[u8], at: usize, words: &mut [u64]) {
    let n = words.len();
    let count = columns(region.len(), P, at, n);
    // As in `write_words`: no zero-wide planes for `chunks_exact`.
    if n == 0 {
        return;
    }
    let mut planes = region.chunks_exact(count).map(|plane| &plane[at..at + n]);
    let planes: [&[u8]; P] = std::array::from_fn(|_| planes.next().expect("P planes"));
    let mut cols = 0;
    let mut eights = words.chunks_exact_mut(8);
    for eight in &mut eights {
        // Indexed per row (a loop over the planes runs 5x slower at P = 8).
        let rows = std::array::from_fn(|j| match planes.get(j) {
            Some(plane) => u64::from_le_bytes(plane[cols..cols + 8].try_into().expect("eight bytes")),
            None => 0,
        });
        eight.copy_from_slice(&transpose8(rows));
        cols += 8;
    }
    for (c, word) in eights.into_remainder().iter_mut().enumerate() {
        *word = planes.iter().rev().fold(0, |acc, plane| acc << 8 | u64::from(plane[cols + c]));
    }
}

/// Reads columns `at..at + n` of the eight byte planes of `region` back
/// into doubles: the inverse of [`write_planes`].
pub fn read_planes(region: &[u8], at: usize, n: usize) -> Vec<f64> {
    let mut words = vec![0u64; n];
    gather_words(region, 8, at, &mut words);
    words.into_iter().map(f64::from_bits).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The writer this module shipped before the transpose kernel, kept
    /// as the oracle: 256 values at a time, one pass per plane, one byte
    /// per value and pass.
    fn reference_write_planes(region: &mut [u8], at: usize, values: &[f64]) {
        const BLOCK: usize = 256;
        assert_eq!(region.len() % 8, 0, "region must be whole doubles");
        let count = region.len() / 8;
        assert!(at + values.len() <= count, "columns out of range");
        for (b, block) in values.chunks(BLOCK).enumerate() {
            let col = at + b * BLOCK;
            for (j, plane) in region.chunks_exact_mut(count).enumerate() {
                for (dst, v) in plane[col..col + block.len()].iter_mut().zip(block) {
                    *dst = (v.to_bits() >> (8 * j)) as u8;
                }
            }
        }
    }

    /// The reader that went with [`reference_write_planes`]: a shift-or
    /// of each plane's byte into a block of 256 words.
    fn reference_read_planes(region: &[u8], at: usize, n: usize) -> Vec<f64> {
        const BLOCK: usize = 256;
        assert_eq!(region.len() % 8, 0, "region must be whole doubles");
        let count = region.len() / 8;
        assert!(at + n <= count, "columns out of range");
        let mut out = Vec::with_capacity(n);
        let mut block = [0u64; BLOCK];
        for col in (at..at + n).step_by(BLOCK) {
            let len = BLOCK.min(at + n - col);
            let bits = &mut block[..len];
            bits.fill(0);
            for (j, plane) in region.chunks_exact(count).enumerate() {
                for (acc, &byte) in bits.iter_mut().zip(&plane[col..col + len]) {
                    *acc |= u64::from(byte) << (8 * j);
                }
            }
            out.extend(bits.iter().map(|&b| f64::from_bits(b)));
        }
        out
    }

    /// NaN payloads (quiet, signalling, negative), ±0, the subnormal
    /// extremes and ±∞.
    const SPECIALS: [u64; 11] = [
        0x7FF8_0000_0000_0001,
        0x7FF0_0000_0000_0001,
        0xFFFF_FFFF_FFFF_FFFF,
        0x0000_0000_0000_0000,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x000F_FFFF_FFFF_FFFF,
        0x800F_FFFF_FFFF_FFFF,
        0x7FF0_0000_0000_0000,
        0xFFF0_0000_0000_0000,
        0x0010_0000_0000_0000,
    ];

    /// A deterministic LCG stream.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            s
        }
    }

    /// `n` values, about one in four of them a special bit pattern.
    fn values(seed: u64, n: usize) -> Vec<f64> {
        let mut next = lcg(seed);
        (0..n)
            .map(|_| match next() {
                r if r >> 62 == 0 => f64::from_bits(SPECIALS[(r % SPECIALS.len() as u64) as usize]),
                _ => f64::from_bits(next()),
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Columns `at..at + n` of a region `pad` columns wider than them,
    /// filled with noise: the kernel and the oracle write the same
    /// bytes, leave every other byte alone, and read the same bits back.
    fn assert_matches_the_loops(seed: u64, n: usize, at: usize, pad: usize) {
        let vals = values(seed, n);
        let mut next = lcg(!seed);
        let before: Vec<u8> = (0..(at + n + pad) * 8).map(|_| (next() >> 56) as u8).collect();
        let count = before.len() / 8;

        let mut kernel = before.clone();
        write_planes(&mut kernel, at, &vals);
        let mut oracle = before.clone();
        reference_write_planes(&mut oracle, at, &vals);
        assert!(kernel == oracle, "write differs: n {n} at {at} pad {pad}");
        for (i, (&now, &was)) in kernel.iter().zip(&before).enumerate() {
            if !(at..at + n).contains(&(i % count)) {
                assert_eq!(now, was, "byte {i} outside the columns moved: n {n} at {at}");
            }
        }

        let back = read_planes(&before, at, n);
        assert_eq!(bits(&back), bits(&reference_read_planes(&before, at, n)), "n {n} at {at}");
        assert_eq!(bits(&read_planes(&kernel, at, n)), bits(&vals), "n {n} at {at}");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// Both directions equal the byte loops at every length up to
        /// 300 and every column offset up to 17 inside a wider region.
        #[test]
        fn the_kernel_equals_the_byte_loops(
            n in 0usize..=300,
            at in 0usize..=17,
            pad in 0usize..=17,
            seed in any::<u64>(),
        ) {
            assert_matches_the_loops(seed, n, at, pad);
        }
    }

    #[test]
    fn the_kernel_equals_the_byte_loops_on_a_nicam_array() {
        for at in [0, 5, 8, 17] {
            assert_matches_the_loops(at as u64, 189_584, at, 3);
        }
    }

    #[test]
    fn transpose8_is_the_index_transpose_and_its_own_inverse() {
        let mut next = lcg(8);
        for _ in 0..1000 {
            let rows: [u64; 8] = std::array::from_fn(|_| next());
            let byte = |w: u64, c: usize| (w >> (8 * c)) as u8;
            let naive: [u64; 8] = std::array::from_fn(|r| {
                (0..8).fold(0, |acc, c| acc | u64::from(byte(rows[c], r)) << (8 * c))
            });
            assert_eq!(transpose8(rows), naive);
            assert_eq!(transpose8(transpose8(rows)), rows);
        }
    }

    fn transposed(values: &[f64]) -> Vec<u8> {
        let mut region = vec![0u8; values.len() * 8];
        write_planes(&mut region, 0, values);
        region
    }

    #[test]
    fn roundtrip_across_kernel_and_tail_boundaries() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 255, 256, 257, 773] {
            let values: Vec<f64> =
                (0..n).map(|i| f64::from_bits((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))).collect();
            let region = transposed(&values);
            let back = read_planes(&region, 0, n);
            assert_eq!(bits(&back), bits(&values), "n = {n}");
        }
    }

    #[test]
    fn transposition_layout() {
        // Two doubles ABCDEFGH, abcdefgh -> Aa Bb Cc Dd Ee Ff Gg Hh.
        let values = [
            f64::from_le_bytes(*b"ABCDEFGH"),
            f64::from_le_bytes(*b"abcdefgh"),
        ];
        assert_eq!(transposed(&values), b"AaBbCcDdEeFfGgHh");
        // Eight doubles go through the kernel: byte j of value k is
        // 16k + j, and lands in column k of plane j.
        let rows: Vec<f64> =
            (0..8u8).map(|k| f64::from_le_bytes(std::array::from_fn(|j| 16 * k + j as u8))).collect();
        let region = transposed(&rows);
        for (j, plane) in region.chunks_exact(8).enumerate() {
            assert_eq!(plane, (0..8u8).map(|k| 16 * k + j as u8).collect::<Vec<_>>(), "plane {j}");
        }
    }

    #[test]
    fn sections_share_one_region() {
        // Three sections written at their column offsets read back
        // section by section, and equal one write of the concatenation.
        let all: Vec<f64> = (0..700).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let (a, rest) = all.split_at(300);
        let (b, c) = rest.split_at(399);
        let mut region = vec![0u8; all.len() * 8];
        write_planes(&mut region, 0, a);
        write_planes(&mut region, a.len(), b);
        write_planes(&mut region, a.len() + b.len(), c);
        assert_eq!(region, transposed(&all));
        assert_eq!(read_planes(&region, a.len(), b.len()), b);
        assert_eq!(read_planes(&region, a.len() + b.len(), c.len()), c);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128 })]

        /// Words of at most `planes` bytes go out as that many planes,
        /// each the low bytes of the eight-plane layout's, and come back
        /// whole; a wider word loses exactly its bytes past the last plane.
        #[test]
        fn fewer_planes_are_the_low_planes_of_eight(
            planes in 1usize..=8,
            n in 0usize..=100,
            at in 0usize..=9,
            seed in any::<u64>(),
        ) {
            let mut next = lcg(seed);
            let mask = u64::MAX >> (64 - 8 * planes);
            let words: Vec<u64> = (0..n).map(|_| next() >> (next() % 64) & mask).collect();
            let count = at + n;
            let mut narrow = vec![0u8; count * planes];
            write_words(&mut narrow, planes, at, &words, |&w| w);
            let mut wide = vec![0u8; count * 8];
            write_words(&mut wide, 8, at, &words, |&w| w);
            prop_assert_eq!(&narrow[..], &wide[..count * planes]);
            let mut back = vec![0u64; n];
            gather_words(&narrow, planes, at, &mut back);
            prop_assert_eq!(&back, &words);
            let wider: Vec<u64> = words.iter().map(|w| w | !mask).collect();
            write_words(&mut narrow, planes, at, &wider, |&w| w);
            gather_words(&narrow, planes, at, &mut back);
            prop_assert_eq!(&back, &words);
        }
    }

    #[test]
    #[should_panic]
    fn nine_planes_panic() {
        write_words(&mut [0u8; 9], 9, 0, &[1u64], |&w| w);
    }

    #[test]
    #[should_panic]
    fn columns_past_the_region_panic() {
        let mut region = vec![0u8; 16];
        write_planes(&mut region, 1, &[1.0, 2.0]);
    }

    #[test]
    fn transposition_improves_gzip_on_smooth_doubles() {
        // The reason this exists: smooth f64 data compresses much better
        // transposed.
        let values: Vec<f64> = (0..20_000).map(|i| 300.0 + (i as f64 * 0.0003).sin() * 40.0).collect();
        let raw: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let plain = ckpt_deflate::gzip::compress(&raw, ckpt_deflate::Level::Default).len();
        let shuffled =
            ckpt_deflate::gzip::compress(&transposed(&values), ckpt_deflate::Level::Default).len();
        assert!(
            (shuffled as f64) < plain as f64 * 0.9,
            "transposition should cut gzip size: {shuffled} vs {plain}"
        );
    }
}
