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
//! [`decode`] is the one `INC1` parser and [`Decoded::xor_into`] the one
//! way its payload reaches an array. Decoding needs no base, and XOR is
//! commutative and associative, so the links of a chain can be decoded
//! in any order, concurrently (the store does), and only the XORs need
//! an array to land in.

use crate::codec::put_dims;
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
    put_dims(&mut w, current.dims())?;
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

/// A packed increment, decoded as far as it can be without its base:
/// the gzip container CRC, the header, and a dirty map and XOR payload
/// (8 bytes per element of every dirty page) known to agree. All that
/// is left is [`Decoded::xor_into`].
pub struct Decoded {
    dims: Vec<usize>,
    /// Product of `dims`.
    volume: usize,
    pages: usize,
    dirty: Bitmap,
    /// The gunzipped stream; the XOR payload starts at `payload`.
    inner: Vec<u8>,
    payload: usize,
}

/// Decodes a packed increment: the one `INC1` parser. The store's
/// verify runs it alone (it needs no base); [`apply`] and the store's
/// chain restore follow it with [`Decoded::xor_into`].
pub fn decode(packed: &[u8]) -> Result<Decoded> {
    let inner = gzip::decompress(packed)?;
    let mut r = Reader::new(&inner);
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
    let expect: usize = (0..pages)
        .filter(|&p| dirty.get(p))
        .map(|p| page_range(p, volume).len().saturating_mul(8))
        .fold(0, usize::saturating_add);
    if r.remaining() != expect {
        return Err(CkptError::Format(format!(
            "increment XOR payload {} bytes, dirty map implies {expect}",
            r.remaining()
        )));
    }
    let payload = r.position();
    Ok(Decoded { dims, volume, pages, dirty, inner, payload })
}

impl Decoded {
    /// XORs every dirty page's payload into `state`, turning the base
    /// state into the increment's. Refuses (before touching `state`) an
    /// array whose dims are not this increment's.
    pub fn xor_into(&self, state: &mut Tensor<f64>) -> Result<()> {
        if self.dims != state.dims() {
            return Err(CkptError::Format("incremental dims mismatch".into()));
        }
        let out = state.as_mut_slice();
        let mut r = Reader::at(&self.inner, self.payload);
        for p in (0..self.pages).filter(|&p| self.dirty.get(p)) {
            let page = out
                .get_mut(page_range(p, self.volume))
                .ok_or_else(|| CkptError::Format("increment page outside the base".into()))?;
            for slot in page {
                *slot = f64::from_bits(slot.to_bits() ^ r.get_u64()?);
            }
        }
        Ok(())
    }
}

/// Element range of page `p` in an array of `volume` elements.
fn page_range(p: usize, volume: usize) -> std::ops::Range<usize> {
    let lo = p.saturating_mul(PAGE_ELEMS);
    lo..lo.saturating_add(PAGE_ELEMS).min(volume)
}

/// Applies an increment to its base checkpoint, reconstructing the
/// current state exactly: [`decode`], then XOR into one copy of `base`.
pub fn apply(base: &Tensor<f64>, packed: &[u8]) -> Result<Tensor<f64>> {
    let inc = decode(packed)?;
    let mut out = base.clone();
    inc.xor_into(&mut out)?;
    Ok(out)
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
