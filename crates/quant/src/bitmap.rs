//! A compact bit set recording which positions were quantized.
//!
//! The paper's output format (Figure 5) stores one bit per high-band
//! element: 1 = the element was quantized and encoded as a table index,
//! 0 = the element was written through as a raw double.

/// Fixed-length bit set, LSB-first within each byte when serialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// All-zero bitmap of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Bitmap { len, words: vec![0; len.div_ceil(64)] }
    }

    /// All-one bitmap of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut b = Bitmap { len, words: vec![u64::MAX; len.div_ceil(64)] };
        b.clear_tail();
        b
    }

    /// Zeroes the unused bits of the last word so equality and popcounts
    /// stay canonical.
    fn clear_tail(&mut self) {
        let used = self.len % 64;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i` to `value`. Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Serializes to bytes, LSB-first (bit `i` lives in byte `i / 8`,
    /// position `i % 8`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let nbytes = self.len.div_ceil(8);
        let mut out = vec![0u8; nbytes];
        for (bi, byte) in out.iter_mut().enumerate() {
            let word = self.words[bi / 8];
            *byte = (word >> ((bi % 8) * 8)) as u8;
        }
        out
    }

    /// Deserializes from [`Bitmap::to_bytes`] output; `len` is the bit
    /// count (the byte buffer may have up to 7 bits of padding).
    pub fn from_bytes(bytes: &[u8], len: usize) -> Option<Self> {
        if bytes.len() != len.div_ceil(8) {
            return None;
        }
        let mut b = Bitmap::zeros(len);
        for (bi, &byte) in bytes.iter().enumerate() {
            b.words[bi / 8] |= (byte as u64) << ((bi % 8) * 8);
        }
        b.clear_tail();
        // Reject padding bits that were set in the input: they would be
        // silently lost, which indicates corrupt data.
        let tail_bits = len % 8;
        if tail_bits != 0 {
            let last = *bytes.last().unwrap();
            if last >> tail_bits != 0 {
                return None;
            }
        }
        Some(b)
    }

    /// Wraps LSB-first words (bit `i` in word `i / 64` at position
    /// `i % 64`). The caller leaves the bits past `len` clear.
    pub(crate) fn from_words(len: usize, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        debug_assert!(len.is_multiple_of(64) || words.last().is_none_or(|w| w >> (len % 64) == 0));
        Bitmap { len, words }
    }

    /// The LSB-first words; the bits past `len` are clear.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates all bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitmap::zeros(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.len(), 100);
        let o = Bitmap::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert!(o.get(99));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::zeros(130);
        for i in (0..130).step_by(3) {
            b.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        b.set(0, false);
        assert!(!b.get(0));
    }

    #[test]
    fn byte_roundtrip_various_lengths() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 128, 1000] {
            let mut b = Bitmap::zeros(len);
            for i in 0..len {
                b.set(i, (i * 7 + 3) % 5 < 2);
            }
            let bytes = b.to_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8));
            let back = Bitmap::from_bytes(&bytes, len).unwrap();
            assert_eq!(back, b, "len {len}");
        }
    }

    #[test]
    fn from_bytes_rejects_bad_lengths_and_padding() {
        assert!(Bitmap::from_bytes(&[0, 0], 9).is_some()); // 9 bits fit in 2 bytes
        assert!(Bitmap::from_bytes(&[0], 9).is_none()); // too few bytes
        assert!(Bitmap::from_bytes(&[0, 0, 0], 9).is_none()); // too many bytes
        // Set padding bit beyond len=4 (bit 5 of the only byte).
        assert!(Bitmap::from_bytes(&[0b0010_0000], 4).is_none());
        assert!(Bitmap::from_bytes(&[0b0000_1111], 4).is_some());
    }

    #[test]
    fn ones_tail_is_canonical() {
        let o = Bitmap::ones(3);
        assert_eq!(o.to_bytes(), vec![0b0000_0111]);
        assert_eq!(o.count_ones(), 3);
    }

    #[test]
    fn iter_matches_get() {
        let mut b = Bitmap::zeros(10);
        b.set(2, true);
        b.set(9, true);
        let v: Vec<bool> = b.iter().collect();
        assert_eq!(v.iter().filter(|&&x| x).count(), 2);
        assert!(v[2] && v[9]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_get_panics() {
        Bitmap::zeros(8).get(8);
    }
}
