//! FPC: lossless double-precision float compression
//! (Burtscher & Ratanaworabhan, DCC'07 — reference [17] of the paper).
//!
//! The paper's related work surveys lossless float compressors as the
//! state of the art it outperforms; FPC is the canonical
//! high-throughput one. Each double is predicted by two table-based
//! predictors — FCM (finite context) and DFCM (differential FCM) — and
//! the residual `actual XOR prediction` is stored with its leading
//! zero bytes elided. A 4-bit header per value records which predictor
//! won (1 bit) and how many residual bytes follow (3 bits).
//!
//! Used by the baseline harness (`ckpt-bench --bin baselines`) to show
//! where dedicated lossless float compression lands between plain gzip
//! and the paper's lossy pipeline.

use ckpt_deflate::DeflateError;

/// log2 of the predictor table size (the reference implementation's
/// default class uses 16–20; 16 keeps the tables cache-resident).
const TABLE_BITS: u32 = 16;
const TABLE_SIZE: usize = 1 << TABLE_BITS;

/// The 3-bit leading-zero-byte code: 0..=3 and 5..=8 zero bytes map to
/// codes 0..=7 (a 4-zero-byte residual is stored as if it had 3,
/// wasting one byte — the classic FPC trade to fit 3 bits).
#[inline]
fn lzb_to_code(lzb: u32) -> u32 {
    if lzb >= 5 {
        lzb - 1
    } else {
        lzb.min(3)
    }
}

#[inline]
fn code_to_len(code: u32) -> usize {
    // Bytes stored = 8 - zero_bytes, where zero_bytes per code is
    // 0,1,2,3,5,6,7,8.
    let zeros = if code >= 4 { code + 1 } else { code };
    8 - zeros as usize
}

struct Predictors {
    fcm: Vec<u64>,
    dfcm: Vec<u64>,
    fcm_hash: usize,
    dfcm_hash: usize,
    last: u64,
}

impl Predictors {
    fn new() -> Self {
        Predictors {
            fcm: vec![0; TABLE_SIZE],
            dfcm: vec![0; TABLE_SIZE],
            fcm_hash: 0,
            dfcm_hash: 0,
            last: 0,
        }
    }

    /// Returns `(fcm_prediction, dfcm_prediction)` for the next value.
    #[inline]
    fn predict(&self) -> (u64, u64) {
        (self.fcm[self.fcm_hash], self.dfcm[self.dfcm_hash].wrapping_add(self.last))
    }

    /// Feeds the actual value into both predictor tables.
    #[inline]
    fn update(&mut self, actual: u64) {
        self.fcm[self.fcm_hash] = actual;
        self.fcm_hash =
            ((self.fcm_hash << 6) ^ (actual >> 48) as usize) & (TABLE_SIZE - 1);
        let delta = actual.wrapping_sub(self.last);
        self.dfcm[self.dfcm_hash] = delta;
        self.dfcm_hash =
            ((self.dfcm_hash << 2) ^ (delta >> 40) as usize) & (TABLE_SIZE - 1);
        self.last = actual;
    }
}

/// Compresses a slice of doubles. The output is self-contained: a
/// little-endian u64 count, the packed 4-bit headers, then the
/// residual bytes.
pub fn compress(values: &[f64]) -> Vec<u8> {
    let n = values.len();
    let mut headers = Vec::with_capacity(n.div_ceil(2));
    let mut residuals = Vec::with_capacity(n * 4);
    let mut pred = Predictors::new();
    let mut nibble_pending: Option<u8> = None;

    for &v in values {
        let actual = v.to_bits();
        let (p_fcm, p_dfcm) = pred.predict();
        let r_fcm = actual ^ p_fcm;
        let r_dfcm = actual ^ p_dfcm;
        let (selector, residual) =
            if r_fcm.leading_zeros() >= r_dfcm.leading_zeros() { (0u8, r_fcm) } else { (1u8, r_dfcm) };
        pred.update(actual);

        let lzb = residual.leading_zeros() / 8;
        let code = lzb_to_code(lzb);
        let nibble = (selector << 3) | code as u8;
        match nibble_pending.take() {
            None => nibble_pending = Some(nibble),
            Some(first) => headers.push(first << 4 | nibble),
        }
        let len = code_to_len(code);
        residuals.extend_from_slice(&residual.to_le_bytes()[..len]);
    }
    if let Some(first) = nibble_pending {
        headers.push(first << 4);
    }

    let mut out = Vec::with_capacity(8 + headers.len() + residuals.len());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&headers);
    out.extend_from_slice(&residuals);
    out
}

/// Decompresses [`compress`] output.
pub fn decompress(data: &[u8]) -> Result<Vec<f64>, DeflateError> {
    if data.len() < 8 {
        return Err(DeflateError::BadContainer("fpc stream too short"));
    }
    let n = u64::from_le_bytes(data[..8].try_into().unwrap()) as usize;
    let header_bytes = n.div_ceil(2);
    if data.len() < 8 + header_bytes {
        return Err(DeflateError::UnexpectedEof);
    }
    let headers = &data[8..8 + header_bytes];
    let mut residuals = &data[8 + header_bytes..];

    let mut out = Vec::with_capacity(n);
    let mut pred = Predictors::new();
    for i in 0..n {
        let byte = headers[i / 2];
        let nibble = if i % 2 == 0 { byte >> 4 } else { byte & 0x0F };
        let selector = nibble >> 3;
        let code = (nibble & 0b111) as u32;
        let len = code_to_len(code);
        if residuals.len() < len {
            return Err(DeflateError::UnexpectedEof);
        }
        let mut bytes = [0u8; 8];
        bytes[..len].copy_from_slice(&residuals[..len]);
        residuals = &residuals[len..];
        let residual = u64::from_le_bytes(bytes);

        let (p_fcm, p_dfcm) = pred.predict();
        let prediction = if selector == 0 { p_fcm } else { p_dfcm };
        let actual = residual ^ prediction;
        pred.update(actual);
        out.push(f64::from_bits(actual));
    }
    if !residuals.is_empty() {
        return Err(DeflateError::BadContainer("fpc trailing bytes"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[f64]) {
        let packed = compress(values);
        let back = decompress(&packed).unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "FPC must be bit-exact");
        }
    }

    #[test]
    fn empty_and_small() {
        roundtrip(&[]);
        roundtrip(&[0.0]);
        roundtrip(&[1.0, -1.0, f64::NAN, f64::INFINITY, -0.0]);
    }

    #[test]
    fn smooth_sequences_roundtrip_and_compress() {
        let values: Vec<f64> = (0..100_000).map(|i| 300.0 + (i as f64 * 1e-4).sin()).collect();
        let packed = compress(&values);
        roundtrip(&values);
        assert!(
            packed.len() < values.len() * 8 / 2,
            "smooth data should compress >2x: {} of {}",
            packed.len(),
            values.len() * 8
        );
    }

    #[test]
    fn constant_sequence_compresses_near_headers_only() {
        let values = vec![42.125f64; 10_000];
        let packed = compress(&values);
        // After warm-up every prediction is exact: 0 residual bytes,
        // half a header byte per value.
        assert!(packed.len() < 10_000, "{} bytes", packed.len());
        roundtrip(&values);
    }

    #[test]
    fn random_bits_do_not_explode() {
        let mut state = 9u64;
        let values: Vec<f64> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                f64::from_bits(state | 0x3FF0_0000_0000_0000) // valid exponents
            })
            .collect();
        let packed = compress(&values);
        // Worst case: 8 residual bytes + half header per value + count.
        assert!(packed.len() <= values.len() * 8 + values.len() / 2 + 16);
        roundtrip(&values);
    }

    #[test]
    fn truncated_streams_error() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let packed = compress(&values);
        assert!(decompress(&packed[..4]).is_err());
        assert!(decompress(&packed[..packed.len() - 1]).is_err());
        let mut bad = packed.clone();
        bad.push(0);
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn four_zero_byte_residuals_cost_one_extra_byte_but_roundtrip() {
        // Craft residuals with exactly 4 leading zero bytes: the 3-bit
        // code cannot express 4, so FPC stores 5 bytes.
        let mut values = vec![0.0f64];
        values.push(f64::from_bits(0x0000_0000_FFFF_FFFF));
        roundtrip(&values);
    }

    #[test]
    fn beats_gzip_on_smooth_float_data() {
        // The reason FPC exists; also contextualizes Figure 6's gzip bar.
        let values: Vec<f64> =
            (0..50_000).map(|i| 101_325.0 * (-2.2 * (i as f64 / 50_000.0)).exp()).collect();
        let mut raw = Vec::with_capacity(values.len() * 8);
        for &v in &values {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        let gz = ckpt_deflate::gzip::compress(&raw, ckpt_deflate::Level::Default);
        let fpc = compress(&values);
        assert!(
            fpc.len() < gz.len(),
            "fpc {} should beat gzip {} on smooth doubles",
            fpc.len(),
            gz.len()
        );
    }
}
