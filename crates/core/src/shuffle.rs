//! Byte transposition of the floating-point sections.
//!
//! The paper closes Section IV-D with: *"we are going to investigate
//! other compression methods that are more appropriate than gzip when
//! combined with our lossy compression."* Byte shuffling (as in HDF5's
//! shuffle filter) is the classic answer for IEEE-754 payloads: group
//! the k-th byte of every double together, so the sign/exponent bytes
//! form two highly repetitive planes and the mantissa noise sits in six
//! contiguous ones instead of being interleaved with them. The default
//! writer does this ([`crate::CompressorConfig::byte_shuffle`]).
//!
//! A transposed region of `count` doubles is eight planes of `count`
//! bytes: plane `j` holds little-endian byte `j` of every value. Both
//! directions work on columns of that region in place — the codec
//! writes its three f64 sections straight into the formatted stream and
//! reads them straight back out, with no intermediate region buffer.

/// Values per block: the block's 2 KiB of doubles stay in L1 while the
/// eight plane passes over it run, and each pass is a contiguous
/// byte-gather the compiler vectorizes.
const BLOCK: usize = 256;

/// Writes `values` as columns `at..at + values.len()` of the eight byte
/// planes of `region` (`region.len()` must be a multiple of 8 and hold
/// those columns).
pub fn write_planes(region: &mut [u8], at: usize, values: &[f64]) {
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

/// Reads columns `at..at + n` of the eight byte planes of `region` back
/// into doubles: the inverse of [`write_planes`].
pub fn read_planes(region: &[u8], at: usize, n: usize) -> Vec<f64> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn transposed(values: &[f64]) -> Vec<u8> {
        let mut region = vec![0u8; values.len() * 8];
        write_planes(&mut region, 0, values);
        region
    }

    #[test]
    fn roundtrip_across_block_boundaries() {
        for n in [0usize, 1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5] {
            let values: Vec<f64> =
                (0..n).map(|i| f64::from_bits((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))).collect();
            let region = transposed(&values);
            let back = read_planes(&region, 0, n);
            assert!(
                values.iter().zip(&back).all(|(a, b)| a.to_bits() == b.to_bits()),
                "n = {n}"
            );
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
