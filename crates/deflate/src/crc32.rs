//! CRC-32 (IEEE 802.3, polynomial 0xEDB88320), as gzip stores it.

/// Lazily-built slicing-by-16 tables. `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[k][i]` advances the register by `k`
/// additional zero bytes (`t[k][i] = t[0][t[k-1][i] & 0xFF] ^
/// (t[k-1][i] >> 8)`), which lets the hot loop fold 16 input bytes per
/// iteration with 16 independent table lookups and no loop-carried
/// byte-by-byte dependency.
fn tables() -> &'static [[u32; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Box<[[u32; 256]; 16]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 16]);
        for i in 0..256usize {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            t[0][i] = c;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Incremental CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum. Processes 16 bytes per iteration
    /// (slicing-by-16): the current register is XORed into the first
    /// four input bytes and each of the sixteen bytes indexes the table
    /// that advances it the right number of positions, so the lookups
    /// are independent and pipeline well.
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut c = self.state;
        let mut chunks = data.chunks_exact(16);
        for chunk in &mut chunks {
            // chunks_exact guarantees 16 bytes.
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
            c = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][chunk[4] as usize]
                ^ t[10][chunk[5] as usize]
                ^ t[9][chunk[6] as usize]
                ^ t[8][chunk[7] as usize]
                ^ t[7][chunk[8] as usize]
                ^ t[6][chunk[9] as usize]
                ^ t[5][chunk[10] as usize]
                ^ t[4][chunk[11] as usize]
                ^ t[3][chunk[12] as usize]
                ^ t[2][chunk[13] as usize]
                ^ t[1][chunk[14] as usize]
                ^ t[0][chunk[15] as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final checksum value.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a buffer.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// `crc32(A ‖ data)` from `crc = crc32(A)`: a finalized checksum is the
/// register complemented, so complementing it back resumes the stream.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let mut c = Crc32 { state: crc ^ 0xFFFF_FFFF };
    c.update(data);
    c.finalize()
}

/// Combines `crc32(A)` and `crc32(B)` into `crc32(A ‖ B)` given only
/// `len(B)`, without touching the data again (zlib's GF(2) matrix
/// technique). This is what lets independently-compressed chunks report
/// a whole-payload checksum: workers compute per-chunk CRCs in
/// parallel and the header combines them in chunk order.
///
/// CRC-32 is linear over GF(2): appending `len2` zero bytes to A's
/// message multiplies its CRC state by the 32×32 "advance one zero
/// byte" matrix `len2` times, and XOR then merges in B's CRC. The
/// matrix power is computed by squaring, so cost is O(log len2).
pub fn crc32_combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
    if len2 == 0 {
        return crc1;
    }
    // Matrix for advancing the CRC register over one zero *bit*:
    // row i holds the register after shifting in a zero when only bit i
    // was set. Bit 0 applies the polynomial; others just shift.
    let mut odd = [0u32; 32];
    odd[0] = 0xEDB8_8320;
    let mut row = 1u32;
    for entry in odd.iter_mut().skip(1) {
        *entry = row;
        row <<= 1;
    }
    let mut even = [0u32; 32];

    // Square to one zero byte (8 bits), then keep squaring while
    // walking the bits of len2, applying the matrix for each set bit.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let whole = crc32(&data);
        let mut c = Crc32::new();
        for chunk in data.chunks(77) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), whole);
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
