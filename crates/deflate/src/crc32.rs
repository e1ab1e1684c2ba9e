//! CRC-32 (IEEE 802.3, polynomial 0xEDB88320), as gzip stores it.
//!
//! The byte loop is `ckpt_simd::crc32`: a carry-less-multiply fold on
//! the AVX2 tier, slicing-by-16 tables on the scalar tier and for short
//! inputs (DESIGN.md §16). It lives there because that is the one crate
//! allowed `unsafe`; every tier returns the same 32 bits.

use ckpt_simd::crc32::POLY;

/// One-shot CRC-32 of a buffer.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// `crc32(A ‖ data)` from `crc = crc32(A)`: a finalized checksum is the
/// register complemented, so complementing it back resumes the stream.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    ckpt_simd::crc32::extend(crc, data)
}

/// Combines `crc32(A)` and `crc32(B)` into `crc32(A ‖ B)` given only
/// `len(B)`, without touching the data again. This is what lets
/// independently-compressed chunks report a whole-payload checksum:
/// workers compute per-chunk CRCs in parallel and the header combines
/// them in chunk order.
///
/// CRC-32 is linear over GF(2): appending `len2` zero bytes to A
/// multiplies its register by `x^(8·len2) mod P`, and XOR then merges in
/// B's CRC. zlib's (1.2.12) polynomial form: the power is a product of
/// the precomputed `x^(2^k) mod P` for the set bits of `8·len2`, so the
/// cost is one 32-step multiply per set bit of `len2`.
pub fn crc32_combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
    if len2 == 0 {
        return crc1;
    }
    multmodp(x2nmodp(len2, 3), crc1) ^ crc2
}

/// `a · b mod P` in the reflected representation (bit 31 is `x^0`).
/// `a` must be nonzero, which every caller's is: a power of x mod P
/// (P has an `x^0` term, so it divides no `x^n`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X2N[k] = x^(2^k) mod P`, reflected.
const X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    t[0] = p;
    let mut k = 1;
    while k < 32 {
        p = multmodp(p, p);
        t[k] = p;
        k += 1;
    }
    t
};

/// `x^(n · 2^k) mod P`. The table repeats with period 32 because the
/// multiplicative order of x divides 2^32 - 1.
fn x2nmodp(mut n: u64, mut k: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_simd::{set_override, Level};
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    /// The combine this crate shipped before the polynomial form (zlib's
    /// GF(2) matrix technique), kept as the oracle: appending one zero
    /// bit is a 32×32 matrix, squared up to a byte and then once per bit
    /// of `len2`, applying the matrix for each set bit. O(log len2)
    /// matrix squarings, 1024 word operations each.
    fn reference_combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
        if len2 == 0 {
            return crc1;
        }
        // Row i holds the register after shifting in a zero when only
        // bit i was set. Bit 0 applies the polynomial; others just shift.
        let mut odd = [0u32; 32];
        odd[0] = POLY;
        let mut row = 1u32;
        for entry in odd.iter_mut().skip(1) {
            *entry = row;
            row <<= 1;
        }
        let mut even = [0u32; 32];

        gf2_matrix_square(&mut even, &odd); // 2 bits
        gf2_matrix_square(&mut odd, &even); // 4 bits
        gf2_matrix_square(&mut even, &odd); // 8 bits = 1 byte

        let mut crc = crc1;
        let mut len = len2;
        // `even` currently advances 1 byte; alternate buffers as we square.
        let mut apply_even = true;
        loop {
            if apply_even {
                if len & 1 != 0 {
                    crc = gf2_matrix_times(&even, crc);
                }
                len >>= 1;
                if len == 0 {
                    break;
                }
                gf2_matrix_square(&mut odd, &even);
            } else {
                if len & 1 != 0 {
                    crc = gf2_matrix_times(&odd, crc);
                }
                len >>= 1;
                if len == 0 {
                    break;
                }
                gf2_matrix_square(&mut even, &odd);
            }
            apply_even = !apply_even;
        }
        crc ^ crc2
    }

    /// Multiplies the CRC register `vec` by `mat` over GF(2).
    fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
        let mut sum = 0u32;
        let mut i = 0;
        while vec != 0 {
            if vec & 1 != 0 {
                sum ^= mat[i];
            }
            vec >>= 1;
            i += 1;
        }
        sum
    }

    /// `square = mat * mat` over GF(2).
    fn gf2_matrix_square(square: &mut [u32; 32], mat: &[u32; 32]) {
        for i in 0..32 {
            square[i] = gf2_matrix_times(mat, mat[i]);
        }
    }

    fn tiers() -> Vec<Level> {
        Level::ALL.into_iter().filter(|l| l.is_available()).collect()
    }

    /// Deterministic bytes that are neither periodic nor flat.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 33) as u8
            })
            .collect()
    }

    /// Every tier, through the public entry point with the tier forced
    /// and at that tier explicitly, against the table loop.
    fn assert_tiers_agree(crc: u32, bytes: &[u8]) {
        let want = ckpt_simd::crc32::extend_at(Level::Scalar, crc, bytes);
        for level in tiers() {
            set_override(Some(level));
            let public = crc32_extend(crc, bytes);
            set_override(None);
            let at = ckpt_simd::crc32::extend_at(level, crc, bytes);
            assert_eq!((public, at), (want, want), "{} len {}", level.name(), bytes.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// The fold equals the table loop at any length up to 8 KiB, any
        /// start offset within a 16-byte block, and any running CRC.
        #[test]
        fn kernel_equals_the_table_loop_on_every_tier(
            len in 0usize..=8192,
            start in 0usize..16,
            crc in any::<u32>(),
            seed in any::<u64>(),
        ) {
            let data = noise(seed, start + len);
            assert_tiers_agree(crc, &data[start..]);
        }

        /// The polynomial combine equals the matrix oracle at any
        /// `len2` up to 2^40, and `crc32(A ‖ B)` on real splits.
        #[test]
        fn combine_equals_the_matrix_oracle(
            crc1 in any::<u32>(),
            crc2 in any::<u32>(),
            len2 in 0u64..=1 << 40,
            data in pvec(any::<u8>(), 0..3000),
            split in 0usize..3000,
        ) {
            prop_assert_eq!(crc32_combine(crc1, crc2, len2), reference_combine(crc1, crc2, len2));
            let (a, b) = data.split_at(split.min(data.len()));
            let len_b = b.len() as u64;
            prop_assert_eq!(crc32_combine(crc32(a), crc32(b), len_b), crc32(&data));
            prop_assert_eq!(reference_combine(crc32(a), crc32(b), len_b), crc32(&data));
        }
    }

    #[test]
    fn kernel_equals_the_table_loop_at_the_fold_boundaries_and_past_a_mebibyte() {
        let data = noise(7, (1 << 20) + 4096);
        for len in [0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 191, 192, 255, 256, 257] {
            for start in 0..16 {
                assert_tiers_agree(0, &data[start..start + len]);
                assert_tiers_agree(0x9E37_79B9, &data[start..start + len]);
            }
        }
        for len in [1 << 20, (1 << 20) + 1, (1 << 20) + 63, (1 << 20) + 4000] {
            assert_tiers_agree(0, &data[..len]);
            assert_tiers_agree(0xFFFF_FFFF, &data[3..3 + len]);
        }
    }

    #[test]
    fn combine_equals_the_oracle_at_every_power_of_two() {
        for bit in 0..64 {
            for len2 in [1u64 << bit, (1u64 << bit) - 1, (1u64 << bit) | 1] {
                let want = reference_combine(0x1234_5678, 0x9ABC_DEF0, len2);
                assert_eq!(crc32_combine(0x1234_5678, 0x9ABC_DEF0, len2), want, "len2 {len2}");
            }
        }
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn extend_in_pieces_equals_oneshot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let whole = crc32(&data);
        let mut c = 0;
        for chunk in data.chunks(77) {
            c = crc32_extend(c, chunk);
        }
        assert_eq!(c, whole);
    }

    #[test]
    fn differs_on_single_bit_flip() {
        let mut data = vec![0u8; 100];
        let a = crc32(&data);
        data[50] ^= 0x10;
        assert_ne!(crc32(&data), a);
    }

    #[test]
    fn combine_matches_whole_buffer_crc() {
        let data: Vec<u8> = (0..=255).cycle().take(12_345).collect();
        let whole = crc32(&data);
        for split in [0usize, 1, 7, 256, 4096, 12_344, 12_345] {
            let (a, b) = data.split_at(split);
            let combined = crc32_combine(crc32(a), crc32(b), b.len() as u64);
            assert_eq!(combined, whole, "split at {split}");
            assert_eq!(crc32_extend(crc32(a), b), whole, "split at {split}");
        }
    }

    #[test]
    fn combine_chains_over_many_chunks() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = crc32(&data);
        let mut acc = crc32(&[]);
        for chunk in data.chunks(777) {
            acc = crc32_combine(acc, crc32(chunk), chunk.len() as u64);
        }
        assert_eq!(acc, whole);
    }

    #[test]
    fn combine_with_empty_sides() {
        let d = b"payload";
        let c = crc32(d);
        assert_eq!(crc32_combine(c, crc32(&[]), 0), c);
        assert_eq!(crc32_combine(crc32(&[]), c, d.len() as u64), c);
    }
}
