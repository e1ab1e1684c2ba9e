//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), as gzip stores
//! it — the checksum behind every integrity check in the workspace.
//!
//! Two tiers, both exact (a CRC is a polynomial remainder over GF(2), so
//! there is no rounding to reproduce; any correct reduction yields the
//! same 32 bits):
//!
//! - **scalar** — slicing-by-16 table lookups, 16 input bytes per
//!   iteration. It is also every tier's path for inputs shorter than
//!   64 bytes and for the last `len % 16` bytes.
//! - **avx2** — carry-less-multiply folding (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel, 2009): four 128-bit lanes fold 64 bytes per iteration by
//!   `x^(4·128±32) mod P`, collapse to one lane, then fold 128 → 64 →
//!   32 bits and finish with a Barrett reduction. It needs PCLMULQDQ and
//!   SSE4.1, which [`Level::Avx2`] requires alongside AVX2.
//!
//! The public functions take and return a *finalized* CRC, so
//! `extend(crc32(A), B) == crc32(A ‖ B)` and `extend(0, B) == crc32(B)`.

use crate::dispatch::{self, Level};

/// Reflected CRC-32 polynomial.
pub const POLY: u32 = 0xEDB8_8320;

/// Shortest input the folding kernel takes: one 64-byte block fills its
/// four lanes. Shorter inputs run the table loop on every tier.
const FOLD_MIN: usize = 64;

/// `crc32(A ‖ data)` from `crc = crc32(A)`, on the tier the process
/// runs at ([`dispatch::level`]).
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    if data.len() < FOLD_MIN {
        return !scalar::update(!crc, data);
    }
    extend_at(dispatch::level(), crc, data)
}

/// [`extend`] at an explicit tier. Panics if the tier is not available
/// on this CPU.
pub fn extend_at(level: Level, crc: u32, data: &[u8]) -> u32 {
    level.assert_available();
    // A finalized CRC is the register complemented: complement it back
    // to resume the stream, and again to finalize.
    !match level {
        Level::Scalar => scalar::update(!crc, data),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: assert_available above verified AVX2, PCLMULQDQ and
        // SSE4.1, every feature `clmul::update` enables.
        Level::Avx2 => unsafe { clmul::update(!crc, data) },
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => scalar::update(!crc, data),
    }
}

/// Portable tier: slicing-by-16 over compile-time tables.
mod scalar {
    use super::POLY;

    /// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][i]`
    /// advances the register by `k` additional zero bytes
    /// (`t[k][i] = t[0][t[k-1][i] & 0xFF] ^ (t[k-1][i] >> 8)`), which
    /// lets the loop fold 16 input bytes per iteration with 16
    /// independent lookups and no byte-by-byte loop-carried dependency.
    static TABLES: [[u32; 256]; 16] = tables();

    const fn tables() -> [[u32; 256]; 16] {
        let mut t = [[0u32; 256]; 16];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
                bit += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut k = 1;
        while k < 16 {
            let mut i = 0;
            while i < 256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
                i += 1;
            }
            k += 1;
        }
        t
    }

    /// Advances the (unfinalized) register `c` over `data`: the current
    /// register is XORed into the first four bytes of each 16-byte
    /// block, and each of the sixteen bytes indexes the table that
    /// advances it the right number of positions.
    pub(super) fn update(mut c: u32, data: &[u8]) -> u32 {
        let t = &TABLES;
        let (blocks, tail) = data.as_chunks::<16>();
        for b in blocks {
            let lo = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ c;
            c = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in tail {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }
}

/// PCLMULQDQ tier. The constants are the bit-reflected `x^n mod P`
/// values of Gopal et al. (shifted left one bit, as reflection needs):
/// `K1`/`K2` fold a lane 512 bits ahead, `K3`/`K4` fold 128 bits ahead,
/// `K5` folds 64 bits to 32, and `P_PRIME`/`MU` are the polynomial and
/// `floor(x^64 / P)` for the Barrett step.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::*;

    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P_PRIME: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Advances the (unfinalized) register `crc` over `data`: the
    /// whole 16-byte blocks fold when there are at least four, the rest
    /// runs the table loop.
    ///
    /// Callers must have verified PCLMULQDQ and SSE4.1 (calling a
    /// `#[target_feature]` fn is `unsafe` for exactly that reason).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        if blocks.len() * 16 < super::FOLD_MIN {
            return super::scalar::update(crc, data);
        }
        super::scalar::update(fold(crc, blocks), tail)
    }

    /// The register after `blocks` (at least four of them).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let (quads, singles) = blocks.as_chunks::<4>();
        let (first, rest) = quads.split_first().expect("at least one 64-byte block");
        let mut lanes = first.each_ref().map(load);
        // The register enters as the first 32 message bits: XOR it in.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in rest {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_128(*lane, k1k2, load(block));
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let [mut x, b, c, d] = lanes;
        for next in [b, c, d] {
            x = fold_128(x, k3k4, next);
        }
        for block in singles {
            x = fold_128(x, k3k4, load(block));
        }

        // 128 → 64 bits: fold the low quadword onto the high one.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k3k4));
        // 64 → 32 bits.
        let k5 = _mm_set_epi64x(0, K5);
        let hi = _mm_srli_si128::<4>(x);
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5), hi);

        // Barrett reduction: q = (x mod x^32) · μ, r = x ⊕ (q mod x^32) · P.
        let poly = _mm_set_epi64x(MU, P_PRIME);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly);
        let r = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), poly);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, r)) as u32
    }

    /// `x · x^(128±32)` folded onto the next 128 message bits: one
    /// carry-less multiply per quadword of `x` by its constant in `k`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_128(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes and `loadu` has no
        // alignment requirement; SSE2 is baseline on x86_64.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiers() -> Vec<Level> {
        Level::ALL.into_iter().filter(|l| l.is_available()).collect()
    }

    /// Bit-at-a-time CRC-32: the definition, with no table and no fold.
    fn bitwise(crc: u32, data: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn every_tier_equals_the_definition_across_fold_boundaries() {
        // The definition's standard check value.
        assert_eq!(bitwise(0, b"123456789"), 0xCBF4_3926);
        let data: Vec<u8> =
            (0..1200u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for level in tiers() {
            for len in (0..200).chain([255, 256, 257, 511, 1023, 1024, 1025, 1199]) {
                for start in 0..=1 {
                    let bytes = &data[start..start + len];
                    for crc in [0, 0xDEAD_BEEF] {
                        assert_eq!(
                            extend_at(level, crc, bytes),
                            bitwise(crc, bytes),
                            "{} len {len} start {start} crc {crc:#x}",
                            level.name()
                        );
                    }
                }
            }
        }
    }
}
