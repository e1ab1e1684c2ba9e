//! zlib container (RFC 1950): the in-memory alternative the paper's
//! Section IV-D names as the fix for its temp-file gzip overhead.

use crate::adler32::adler32;
use crate::frame::Reader;
use crate::{deflate, inflate, DeflateError, Level};

/// Compresses `data` into a zlib stream (CM=8, 32 KiB window).
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    let body = deflate::compress(data, level);
    let mut out = Vec::with_capacity(body.len() + 6);
    let cmf: u8 = 0x78; // CM=8, CINFO=7 (32 KiB window)
    let flevel: u8 = match level {
        Level::Store | Level::Fast => 0,
        Level::Default => 2,
        Level::Best => 3,
    };
    let mut flg = flevel << 6;
    // FCHECK: make (CMF*256 + FLG) a multiple of 31.
    let rem = ((cmf as u16) * 256 + flg as u16) % 31;
    if rem != 0 {
        flg += (31 - rem) as u8;
    }
    out.push(cmf);
    out.push(flg);
    out.extend_from_slice(&body);
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// Decompresses a zlib stream with a decompression-bomb output cap.
pub fn decompress_with_limit(data: &[u8], max_output: usize) -> Result<Vec<u8>, DeflateError> {
    decompress_inner(data, max_output)
}

/// Decompresses a zlib stream, verifying the Adler-32 checksum.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DeflateError> {
    decompress_inner(data, usize::MAX)
}

fn decompress_inner(data: &[u8], max_output: usize) -> Result<Vec<u8>, DeflateError> {
    if data.len() < 6 {
        return Err(DeflateError::BadContainer("too short for zlib"));
    }
    let &[cmf, flg, ..] = data else {
        return Err(DeflateError::BadContainer("too short for zlib"));
    };
    if cmf & 0x0F != 8 {
        return Err(DeflateError::BadContainer("unsupported compression method"));
    }
    if !(u16::from(cmf) * 256 + u16::from(flg)).is_multiple_of(31) {
        return Err(DeflateError::BadContainer("FCHECK failed"));
    }
    if flg & 0x20 != 0 {
        return Err(DeflateError::BadContainer("preset dictionary unsupported"));
    }
    let trailer_at = data.len().checked_sub(4).ok_or(DeflateError::UnexpectedEof)?;
    let body = data.get(2..trailer_at).ok_or(DeflateError::UnexpectedEof)?;
    let out = inflate::inflate_with_limit(body, max_output)?;
    let stored = u32::from_be_bytes(Reader::at(data, trailer_at).get_array()?);
    let computed = adler32(&out);
    if stored != computed {
        return Err(DeflateError::ChecksumMismatch { stored, computed });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = vec![42u8; 10_000];
        for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
            let packed = compress(&data, level);
            assert_eq!(decompress(&packed).unwrap(), data, "{level:?}");
        }
    }

    #[test]
    fn header_is_valid() {
        let packed = compress(b"abc", Level::Default);
        assert_eq!(packed[0] & 0x0F, 8);
        assert_eq!(((packed[0] as u16) * 256 + packed[1] as u16) % 31, 0);
    }

    #[test]
    fn corrupt_adler_detected() {
        let mut packed = compress(b"some data some data", Level::Default);
        let n = packed.len();
        packed[n - 2] ^= 0xFF;
        assert!(matches!(decompress(&packed), Err(DeflateError::ChecksumMismatch { .. })));
    }

    #[test]
    fn bad_fcheck_rejected() {
        let mut packed = compress(b"abc", Level::Default);
        packed[1] ^= 0x01;
        assert!(matches!(decompress(&packed), Err(DeflateError::BadContainer(_))));
    }

    #[test]
    fn smaller_than_gzip_framing() {
        // zlib adds 6 bytes vs gzip's 18: matters for many small arrays.
        let data = b"tiny";
        let z = compress(data, Level::Default);
        let g = crate::gzip::compress(data, Level::Default);
        assert!(z.len() < g.len());
    }
}
