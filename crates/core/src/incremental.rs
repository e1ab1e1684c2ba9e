//! Incremental-checkpointing baseline.
//!
//! The paper's Sections I and V argue that incremental checkpointing —
//! storing only what changed since the last checkpoint — is ineffective
//! for mesh-based scientific applications, because "the entire arrays
//! of physical quantities are frequently updated, which results in
//! storing entire arrays". This module implements the baseline so the
//! claim can be *measured* rather than assumed:
//!
//! * a page-granular dirty map (like `mprotect`-based incremental
//!   checkpointers: only pages whose content changed are stored),
//! * delta encoding (XOR against the previous checkpoint, which turns
//!   small numeric drift into low-entropy bytes), with gzip behind it.
//!
//! Restoring needs the base checkpoint plus the increment, mirroring
//! the recovery-chain cost the paper cites from Naksinehaboon et al.

use crate::{CkptError, Result};
use ckpt_deflate::frame::{self, Reader, Writer, INC1};
use ckpt_deflate::{gzip, Level};
use ckpt_quant::Bitmap;
use ckpt_tensor::Tensor;

/// Page size used for the dirty map, in elements (4096 bytes of f64).
pub const PAGE_ELEMS: usize = 512;

/// Statistics of one incremental checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementStats {
    /// Total pages in the array.
    pub pages: usize,
    /// Pages whose content changed since the base.
    pub dirty_pages: usize,
    /// Bytes of the increment after gzip.
    pub compressed_bytes: usize,
    /// Bytes a full (non-incremental) raw checkpoint would take.
    pub full_bytes: usize,
}

impl IncrementStats {
    /// Fraction of pages dirty — the paper's claim is that this is ~1
    /// for mesh codes.
    pub fn dirty_fraction(&self) -> f64 {
        if self.pages == 0 {
            return 0.0;
        }
        self.dirty_pages as f64 / self.pages as f64
    }

    /// Equation 5-style rate of the increment vs a full raw checkpoint.
    pub fn compression_rate(&self) -> f64 {
        crate::metrics::compression_rate(self.full_bytes, self.compressed_bytes)
    }
}

/// Builds an incremental checkpoint of `current` against `base`
/// (element counts must match). The increment stores, per dirty page,
/// the XOR of the new bytes against the base — the standard trick that
/// makes slowly-drifting floats compressible.
pub fn increment(
    base: &Tensor<f64>,
    current: &Tensor<f64>,
    level: Level,
) -> Result<(Vec<u8>, IncrementStats)> {
    if base.dims() != current.dims() {
        return Err(CkptError::Format("incremental base shape mismatch".into()));
    }
    let n = current.len();
    let pages = n.div_ceil(PAGE_ELEMS);

    let mut dirty = Vec::with_capacity(pages);
    let mut payload = Vec::new();
    for p in 0..pages {
        let lo = p * PAGE_ELEMS;
        let hi = (lo + PAGE_ELEMS).min(n);
        let a = &base.as_slice()[lo..hi];
        let b = &current.as_slice()[lo..hi];
        let is_dirty = a != b;
        dirty.push(is_dirty);
        if is_dirty {
            for (x, y) in a.iter().zip(b) {
                let xor = x.to_bits() ^ y.to_bits();
                payload.extend_from_slice(&xor.to_le_bytes());
            }
        }
    }

    let mut w = Writer::with_capacity(payload.len() + pages / 8 + 64);
    w.put_bytes(&INC1.magic);
    w.put_u8(current.ndim() as u8);
    for &d in current.dims() {
        w.put_u64(d as u64);
    }
    w.put_u64(pages as u64);
    let mut bits = Bitmap::zeros(pages);
    for (i, &d) in dirty.iter().enumerate() {
        bits.set(i, d);
    }
    w.put_bytes(&bits.to_bytes());
    w.put_bytes(&payload);
    let packed = gzip::compress(&w.into_bytes(), level);

    let dirty_pages = dirty.iter().filter(|&&d| d).count();
    let stats = IncrementStats {
        pages,
        dirty_pages,
        compressed_bytes: packed.len(),
        full_bytes: n * 8,
    };
    Ok((packed, stats))
}

/// The `INC1` header: everything ahead of the XOR payload.
struct Header {
    dims: Vec<usize>,
    /// Product of `dims`.
    volume: usize,
    pages: usize,
    dirty: Bitmap,
}

/// Parses the header of a decompressed increment, leaving `r` at the
/// XOR payload. The one `INC1` header walk: [`apply`] and the
/// base-free [`check_structure`] both start here, so the dims, the
/// page count and the dirty map are known to agree before either
/// touches the payload.
fn parse_header(r: &mut Reader<'_>) -> Result<Header> {
    r.expect_magic(&INC1)?;
    let ndim = usize::from(r.get_u8()?);
    let mut dims = Vec::with_capacity(ndim);
    let mut volume = 1usize;
    for _ in 0..ndim {
        let d = frame::usize_len(r.get_u64()?)?;
        volume = volume
            .checked_mul(d)
            .ok_or_else(|| CkptError::Format("increment volume overflows usize".into()))?;
        dims.push(d);
    }
    let pages = frame::usize_len(r.get_u64()?)?;
    if pages != volume.div_ceil(PAGE_ELEMS) {
        return Err(CkptError::Format(format!(
            "increment page count {pages} inconsistent with volume {volume}"
        )));
    }
    let dirty = Bitmap::from_bytes(r.get_bytes(pages.div_ceil(8))?, pages)
        .ok_or_else(|| CkptError::Format("corrupt dirty map".into()))?;
    Ok(Header { dims, volume, pages, dirty })
}

/// Element range of page `p` in an array of `volume` elements.
fn page_range(p: usize, volume: usize) -> std::ops::Range<usize> {
    let lo = p.saturating_mul(PAGE_ELEMS);
    lo..lo.saturating_add(PAGE_ELEMS).min(volume)
}

/// Applies an increment to its base checkpoint, reconstructing the
/// current state exactly.
pub fn apply(base: &Tensor<f64>, packed: &[u8]) -> Result<Tensor<f64>> {
    let bytes = gzip::decompress(packed)?;
    let mut r = Reader::new(&bytes);
    let h = parse_header(&mut r)?;
    if h.dims != base.dims() {
        return Err(CkptError::Format("incremental dims mismatch".into()));
    }
    let mut out = base.as_slice().to_vec();
    for p in (0..h.pages).filter(|&p| h.dirty.get(p)) {
        let page = out
            .get_mut(page_range(p, h.volume))
            .ok_or_else(|| CkptError::Format("increment page outside the base".into()))?;
        for slot in page {
            let xor = r.get_u64()?;
            *slot = f64::from_bits(slot.to_bits() ^ xor);
        }
    }
    r.expect_end()?;
    Ok(Tensor::from_vec(&h.dims, out)?)
}

/// Checks everything about a packed increment that can be checked
/// without its base: the gzip container CRC, the header, and that the
/// dirty map and the XOR payload (8 bytes per element of every dirty
/// page) are mutually consistent.
pub fn check_structure(packed: &[u8]) -> Result<()> {
    let bytes = gzip::decompress(packed)?;
    let mut r = Reader::new(&bytes);
    let h = parse_header(&mut r)?;
    let expect: usize = (0..h.pages)
        .filter(|&p| h.dirty.get(p))
        .map(|p| page_range(p, h.volume).len().saturating_mul(8))
        .fold(0, usize::saturating_add);
    if r.remaining() != expect {
        return Err(CkptError::Format(format!(
            "increment XOR payload {} bytes, dirty map implies {expect}",
            r.remaining()
        )));
    }
    Ok(())
}

/// True when `packed` is a gzip member whose inner stream leads with
/// the `INC1` magic. (The gzip header alone does not discriminate —
/// full `WCK1` arrays are gzip members too.)
pub fn is_increment(packed: &[u8]) -> bool {
    packed.starts_with(&[0x1f, 0x8b])
        && gzip::decompress(packed).is_ok_and(|inner| inner.starts_with(&INC1.magic))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(seed: u64) -> Tensor<f64> {
        use ckpt_tensor::fields::{generate, FieldKind, FieldSpec};
        generate(&FieldSpec::small(FieldKind::Temperature, seed))
    }

    #[test]
    fn unchanged_state_produces_tiny_increment() {
        let t = field(1);
        let (packed, stats) = increment(&t, &t, Level::Default).unwrap();
        assert_eq!(stats.dirty_pages, 0);
        assert!(packed.len() < 200, "{} bytes for a no-op increment", packed.len());
        let restored = apply(&t, &packed).unwrap();
        assert_eq!(restored.as_slice(), t.as_slice());
    }

    #[test]
    fn localized_change_stores_only_its_pages() {
        let base = field(2);
        let mut cur = base.clone();
        // Touch 10 elements inside one page.
        for i in 100..110 {
            cur.as_mut_slice()[i] += 1.0;
        }
        let (packed, stats) = increment(&base, &cur, Level::Default).unwrap();
        assert_eq!(stats.dirty_pages, 1, "one page dirty");
        assert!(stats.dirty_fraction() < 0.5);
        let restored = apply(&base, &packed).unwrap();
        assert_eq!(restored.as_slice(), cur.as_slice(), "increments are exact");
    }

    #[test]
    fn mesh_update_dirties_everything_the_papers_claim() {
        // The claim of Sections I/V: after a simulation step, *every*
        // page changed, so incremental checkpointing degenerates to a
        // full checkpoint.
        let base = field(3);
        let mut cur = base.clone();
        cur.map_inplace(|v| v + 1e-6 * v.abs().max(1.0)); // every element drifts
        let (_, stats) = increment(&base, &cur, Level::Default).unwrap();
        assert_eq!(stats.dirty_fraction(), 1.0, "all pages dirty after a mesh update");
        // And the increment is not dramatically smaller than a full
        // image (XOR helps some, but the rate stays lossless-limited).
        assert!(
            stats.compression_rate() > 30.0,
            "incremental rate {:.1}% should remain far above lossy rates",
            stats.compression_rate()
        );
    }

    #[test]
    fn roundtrip_exactness_is_bitwise() {
        let base = field(4);
        let mut cur = base.clone();
        cur.map_inplace(|v| v * 1.000000001);
        let (packed, _) = increment(&base, &cur, Level::Fast).unwrap();
        let restored = apply(&base, &packed).unwrap();
        for (a, b) in restored.as_slice().iter().zip(cur.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Tensor::<f64>::zeros(&[8, 8]).unwrap();
        let b = Tensor::<f64>::zeros(&[4, 4]).unwrap();
        assert!(increment(&a, &b, Level::Fast).is_err());
        let (packed, _) = increment(&a, &a, Level::Fast).unwrap();
        assert!(apply(&b, &packed).is_err());
    }

    #[test]
    fn corrupt_increment_detected() {
        let t = field(5);
        let (mut packed, _) = increment(&t, &t, Level::Fast).unwrap();
        let n = packed.len();
        packed[n / 2] ^= 0xFF;
        assert!(apply(&t, &packed).is_err());
    }
}
