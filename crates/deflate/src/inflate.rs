//! DEFLATE decoding (RFC 1951) in one call, and the block-header
//! tables the engine in [`crate::resume`] decodes with.

// Decoder hardening (DESIGN.md §9): product code here is total on damaged bytes.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing, clippy::unwrap_used,
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::panic_in_result_fn, clippy::missing_panics_doc))]

use crate::bitio::BitReader;
use crate::deflate::{fixed_dist_lengths, fixed_litlen_lengths, CLCODE_ORDER};
use crate::huffman::{Alphabet, Decoder};
use crate::resume::ResumableInflate;
use crate::DeflateError;

/// Decompresses a raw DEFLATE stream with no output-size cap: the
/// engine run to the end of the stream.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, DeflateError> {
    Ok(ResumableInflate::new().finish(data, usize::MAX)?.bytes)
}

/// The fixed-Huffman decoders (RFC 1951 §3.2.6) never change, so they
/// are built once per process instead of once per block — fixed blocks
/// are common in small checkpoint sections and table construction was
/// visible in profiles.
pub(crate) fn fixed_decoders() -> Result<(&'static Decoder, &'static Decoder), DeflateError> {
    use std::sync::OnceLock;
    static FIXED: OnceLock<Result<(Decoder, Decoder), DeflateError>> = OnceLock::new();
    let cached = FIXED.get_or_init(|| {
        let lit = Decoder::with_alphabet(&fixed_litlen_lengths(), Alphabet::LitLen)?;
        let dist = Decoder::with_alphabet(&fixed_dist_lengths(), Alphabet::Distance)?;
        Ok((lit, dist))
    });
    match cached {
        Ok((lit, dist)) => Ok((lit, dist)),
        Err(e) => Err(e.clone()),
    }
}

/// Reads a dynamic block's header and returns the raw (litlen, dist)
/// code-length vectors the engine builds the block's tables from.
pub(crate) fn read_dynamic_lengths(
    r: &mut BitReader<'_>,
) -> Result<(Vec<u8>, Vec<u8>), DeflateError> {
    let hlit = r.read_bits_usize(5)? + 257;
    let hdist = r.read_bits_usize(5)? + 1;
    let hclen = r.read_bits_usize(4)? + 4;
    if hlit > 286 || hdist > 30 {
        return Err(DeflateError::BadHuffmanTable("HLIT/HDIST out of range"));
    }
    let mut cl_lens = [0u8; 19];
    for &ord in CLCODE_ORDER.iter().take(hclen) {
        // A 3-bit read is < 8 and CLCODE_ORDER entries are < 19 by
        // construction, so neither access can fail.
        let bits = u8::try_from(r.read_bits(3)?).unwrap_or(0);
        if let Some(slot) = cl_lens.get_mut(ord) {
            *slot = bits;
        }
    }
    let cl = Decoder::from_lengths(&cl_lens)?;

    let mut lens = Vec::with_capacity(hlit + hdist);
    while lens.len() < hlit + hdist {
        match cl.read(r)? {
            sym @ 0..=15 => lens.push(u8::try_from(sym).unwrap_or(0)),
            16 => {
                let &prev =
                    lens.last().ok_or(DeflateError::BadHuffmanTable("repeat with no previous"))?;
                let n = r.read_bits_usize(2)? + 3;
                lens.extend(std::iter::repeat_n(prev, n));
            }
            17 => {
                let n = r.read_bits_usize(3)? + 3;
                lens.extend(std::iter::repeat_n(0u8, n));
            }
            18 => {
                let n = r.read_bits_usize(7)? + 11;
                lens.extend(std::iter::repeat_n(0u8, n));
            }
            s => return Err(DeflateError::BadSymbol(s)),
        }
    }
    if lens.len() != hlit + hdist {
        return Err(DeflateError::BadHuffmanTable("code length overrun"));
    }
    let (lit_lens, dist_lens) = lens
        .split_at_checked(hlit)
        .ok_or(DeflateError::BadHuffmanTable("code length underrun"))?;
    Ok((lit_lens.to_vec(), dist_lens.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, Level};

    fn lcg_bytes(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn roundtrip_all_levels_all_shapes() {
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![0],
            b"hello world hello world hello".to_vec(),
            vec![7u8; 100_000],
            lcg_bytes(50_000, 42),
            (0u32..60_000).map(|i| (i % 7) as u8).collect(),
        ];
        for data in &cases {
            for level in [Level::Store, Level::Fast, Level::Default] {
                let packed = compress(data, level);
                assert_eq!(&inflate(&packed).unwrap(), data, "{level:?} len {}", data.len());
            }
        }
    }

    #[test]
    fn known_fixed_block_from_rfc_construction() {
        // Hand-built fixed-Huffman block containing literals "abc".
        // 'a' = 0x61 -> code 0x61 + 0x30 = 0x91 (8 bits), etc.
        use crate::bitio::{reverse_bits, BitWriter};
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(0b01, 2); // fixed
        for &b in b"abc" {
            let code = 0x30 + b as u32; // literals 0..143: 8-bit codes from 0x30
            w.write_bits(reverse_bits(code, 8) as u64, 8);
        }
        w.write_bits(0, 7); // end-of-block: 7-bit code 0
        let packed = w.finish();
        assert_eq!(inflate(&packed).unwrap(), b"abc");
    }

    #[test]
    fn truncated_stream_errors() {
        let packed = compress(b"some data that compresses somewhat ok ok ok", Level::Default);
        for cut in 1..packed.len().min(10) {
            let err = inflate(&packed[..packed.len() - cut]);
            assert!(err.is_err(), "cut {cut} should fail");
        }
    }

    #[test]
    fn reserved_block_type_errors() {
        // BFINAL=1, BTYPE=11.
        let data = [0b0000_0111u8];
        assert_eq!(inflate(&data), Err(DeflateError::BadBlockType));
    }

    #[test]
    fn stored_nlen_mismatch_errors() {
        // BFINAL=1 BTYPE=00, then LEN=1 NLEN=0 (not complement).
        let data = [0b0000_0001u8, 1, 0, 0, 0, 0xAA];
        assert_eq!(inflate(&data), Err(DeflateError::BadStoredLength));
    }

    #[test]
    fn distance_beyond_history_errors() {
        use crate::bitio::{reverse_bits, BitWriter};
        // Fixed block: one literal then a match with dist 4 (only 1 byte
        // of history).
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        w.write_bits(reverse_bits(0x30 + b'x' as u32, 8) as u64, 8);
        // Length symbol 257 (len 3): 7-bit code value 1.
        w.write_bits(reverse_bits(1, 7) as u64, 7);
        // Distance symbol 3 (dist 4): 5-bit code 3.
        w.write_bits(reverse_bits(3, 5) as u64, 5);
        w.write_bits(0, 7); // EOB
        let packed = w.finish();
        assert!(matches!(
            inflate(&packed),
            Err(DeflateError::BadDistance { dist: 4, avail: 1 })
        ));
    }

    #[test]
    fn multi_gigabyte_expansion_is_not_attempted_on_garbage() {
        // Random bytes almost always fail quickly; assert error, not hang.
        let garbage = lcg_bytes(1000, 7);
        let _ = inflate(&garbage); // must terminate (any result)
    }

    #[test]
    fn window_spanning_matches_roundtrip() {
        // Data with matches near the full 32 KiB distance.
        let mut data = lcg_bytes(33_000, 3);
        let head: Vec<u8> = data[..200].to_vec();
        data.extend_from_slice(&head); // ~33 KB back: beyond the window
        let near: Vec<u8> = data[32_000..32_500].to_vec();
        data.extend_from_slice(&near); // within the window
        for level in [Level::Fast, Level::Default] {
            let packed = compress(&data, level);
            assert_eq!(inflate(&packed).unwrap(), data);
        }
    }
}

#[cfg(test)]
mod limit_tests {
    use super::*;
    use crate::resume::Inflated;
    use crate::{compress, Level};

    /// The one engine, run to the end of the stream under a cap.
    fn inflate_with_limit(data: &[u8], max_output: usize) -> Result<Inflated, DeflateError> {
        ResumableInflate::new().finish(data, max_output)
    }

    #[test]
    fn limit_allows_exact_size() {
        let data = vec![5u8; 10_000];
        let packed = compress(&data, Level::Default);
        assert_eq!(inflate_with_limit(&packed, 10_000).unwrap().bytes, data);
    }

    #[test]
    fn limit_stops_bombs_early() {
        // Highly repetitive input: a ~10 MB payload from a tiny stream.
        let data = vec![0u8; 10_000_000];
        let packed = compress(&data, Level::Default);
        assert!(packed.len() < 20_000, "bomb setup: {} bytes", packed.len());
        let err = inflate_with_limit(&packed, 1_000_000).map(|done| done.bytes.len());
        assert_eq!(err, Err(DeflateError::OutputLimit { limit: 1_000_000 }));
    }

    #[test]
    fn limit_applies_to_stored_blocks_too() {
        let data = vec![9u8; 100_000];
        let packed = compress(&data, Level::Store);
        assert!(matches!(
            inflate_with_limit(&packed, 50_000),
            Err(DeflateError::OutputLimit { .. })
        ));
    }
}
