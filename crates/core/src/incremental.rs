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
//!   small numeric drift into low-entropy bytes), laid out as eight
//!   byte planes with gzip behind it.
//!
//! Restoring needs the base checkpoint plus the increment, mirroring
//! the recovery-chain cost the paper cites from Naksinehaboon et al.
//! [`increment`] writes `INC2`. `INC1`, the same increment with its XOR
//! words interleaved, is written by no build but still read: [`decode`]
//! is the one parser of both and [`Decoded::xor_into`] the one way
//! either payload reaches an array. Decoding needs no base, and XOR is
//! commutative and associative, so the links of a chain can be decoded
//! in any order, concurrently (the store does), and only the XORs need
//! an array to land in.

// Decoder hardening (DESIGN.md §9): product code here is total on damaged bytes.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::indexing_slicing, clippy::unwrap_used,
    clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented,
    clippy::panic_in_result_fn, clippy::missing_panics_doc))]

use crate::codec::put_dims;
use crate::shuffle::{gather_words, write_planes};
use crate::{CkptError, Result};
use ckpt_deflate::frame::{self, FrameError, Reader, Writer, INC1, INC2};
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
    #[expect(clippy::as_conversions, reason = "statistics: a ratio of page counts")]
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

/// Builds an `INC2` incremental checkpoint of `current` against `base`
/// (shapes must match). The increment stores, per dirty page, the XOR
/// of the new bits against the base — the standard trick that makes
/// slowly-drifting floats compressible — as eight byte planes. Between
/// two nearby doubles the sign/exponent and top mantissa bytes barely
/// change, so their planes are near zero; the low mantissa planes are
/// noise, which the deflate encoder's noise gate stores unsearched and
/// a restore inflates as a copy.
#[expect(
    clippy::indexing_slicing,
    reason = "encoder: the page loop indexes both arrays by `page_range`, which the shape check \
              bounds, and `xor` by a page length of at most PAGE_ELEMS"
)]
pub fn increment(
    base: &Tensor<f64>,
    current: &Tensor<f64>,
    level: Level,
) -> Result<(Vec<u8>, IncrementStats)> {
    if base.dims() != current.dims() {
        return Err(CkptError::Format("incremental base shape mismatch".into()));
    }
    let (old, new) = (base.as_slice(), current.as_slice());
    let n = new.len();
    let pages = n.div_ceil(PAGE_ELEMS);

    // Dirty means a bit changed: a float compare would call 0.0 -> -0.0
    // clean and a page holding a NaN always dirty.
    let mut dirty = Bitmap::zeros(pages);
    let mut count = 0;
    for p in 0..pages {
        let r = page_range(p, n);
        let (a, b) = (&old[r.clone()], &new[r.clone()]);
        if a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits()) {
            dirty.set(p, true);
            count += r.len();
        }
    }

    let mut w = Writer::with_capacity(8 * count + pages / 8 + 64);
    w.put_bytes(&INC2.magic);
    w.put_u8(INC2.version);
    put_dims(&mut w, current.dims())?;
    w.put_u64(frame::u64_from_usize(pages));
    w.put_bytes(&dirty.to_bytes());
    let planes = w.put_region(8 * count);
    let mut xor = [0.0f64; PAGE_ELEMS];
    let mut col = 0;
    for p in (0..pages).filter(|&p| dirty.get(p)) {
        let r = page_range(p, n);
        let page = &mut xor[..r.len()];
        for ((x, a), b) in page.iter_mut().zip(&old[r.clone()]).zip(&new[r]) {
            *x = f64::from_bits(a.to_bits() ^ b.to_bits());
        }
        write_planes(planes, col, page);
        col += page.len();
    }
    let packed = gzip::compress(&w.into_bytes(), level);

    let stats = IncrementStats {
        pages,
        dirty_pages: dirty.count_ones(),
        compressed_bytes: packed.len(),
        full_bytes: n * 8,
    };
    Ok((packed, stats))
}

/// How a decoded increment lays out its XOR payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `INC1`: one little-endian XOR word per dirty element, in order.
    Words,
    /// `INC2`: eight planes of one byte per dirty element; plane `j`
    /// holds little-endian byte `j` of every XOR word, pages in order.
    Planes,
}

/// A packed increment, decoded as far as it can be without its base:
/// the gzip container CRC, the header, and a dirty map and XOR payload
/// (8 bytes per element of every dirty page) known to agree. All that
/// is left is [`Decoded::xor_into`].
pub struct Decoded {
    layout: Layout,
    dims: Vec<usize>,
    /// Product of `dims`.
    volume: usize,
    pages: usize,
    dirty: Bitmap,
    /// The gunzipped stream; the XOR payload starts at `payload` and
    /// runs to its end.
    inner: Vec<u8>,
    payload: usize,
}

/// Decodes a packed increment: the one parser of `INC1` and `INC2`,
/// which differ only in the magic (`INC2` adds a version byte) and in
/// how the payload lays out its XOR words. The store's verify runs it
/// alone (it needs no base); [`apply`] and the store's chain restore
/// follow it with [`Decoded::xor_into`].
pub fn decode(packed: &[u8]) -> Result<Decoded> {
    let inner = gzip::decompress(packed)?;
    let mut r = Reader::new(&inner);
    let layout = match r.get_array::<4>()? {
        magic if magic == INC2.magic => {
            r.expect_version(&INC2)?;
            Layout::Planes
        }
        magic if magic == INC1.magic => Layout::Words,
        _ => return Err(FrameError::BadMagic { want: INC2.magic }.into()),
    };
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
    let elems: usize = (0..pages)
        .filter(|&p| dirty.get(p))
        .map(|p| page_range(p, volume).len())
        .fold(0, usize::saturating_add);
    let expect = elems.saturating_mul(8);
    if r.remaining() != expect {
        return Err(CkptError::Format(format!(
            "increment XOR payload {} bytes, dirty map implies {expect}",
            r.remaining()
        )));
    }
    let payload = r.position();
    Ok(Decoded { layout, dims, volume, pages, dirty, inner, payload })
}

impl Decoded {
    /// Which layout the payload was written in.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// XORs every dirty page's payload into `state`, turning the base
    /// state into the increment's. Refuses (before touching `state`) an
    /// array whose dims are not this increment's.
    pub fn xor_into(&self, state: &mut Tensor<f64>) -> Result<()> {
        if self.dims != state.dims() {
            return Err(CkptError::Format("incremental dims mismatch".into()));
        }
        let out = state.as_mut_slice();
        let payload = self.inner.get(self.payload..).unwrap_or_default();
        let mut words = Reader::new(payload);
        let mut col = 0;
        for p in (0..self.pages).filter(|&p| self.dirty.get(p)) {
            let page = out
                .get_mut(page_range(p, self.volume))
                .ok_or_else(|| CkptError::Format("increment page outside the base".into()))?;
            let len = page.len();
            match self.layout {
                Layout::Words => {
                    for slot in page {
                        *slot = f64::from_bits(slot.to_bits() ^ words.get_u64()?);
                    }
                }
                Layout::Planes => xor_planes(page, payload, col)?,
            }
            col += len;
        }
        Ok(())
    }
}

/// XORs columns `col..col + page.len()` of the eight byte planes in
/// `planes` into `page` (at most one page, so the gathered words stay
/// on the stack and the page in L1). The planes are gathered by the
/// transpose kernel; this only checks the columns and XORs.
fn xor_planes(page: &mut [f64], planes: &[u8], col: usize) -> Result<()> {
    let outside = || CkptError::Format("increment page outside its planes".into());
    let mut gathered = [0u64; PAGE_ELEMS];
    let xor = gathered.get_mut(..page.len()).ok_or_else(outside)?;
    if !planes.len().is_multiple_of(8) || col.saturating_add(xor.len()) > planes.len() / 8 {
        return Err(outside());
    }
    gather_words(planes, 8, col, xor);
    for (slot, &x) in page.iter_mut().zip(xor.iter()) {
        *slot = f64::from_bits(slot.to_bits() ^ x);
    }
    Ok(())
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
        let (packed, _) = increment(&base, &cur, Level::Default).unwrap();
        let restored = apply(&base, &packed).unwrap();
        for (a, b) in restored.as_slice().iter().zip(cur.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn a_change_only_a_bit_compare_sees_is_stored() {
        // 0.0 -> -0.0 compares equal as floats; a NaN page compares
        // unequal to itself. Dirtiness is about bits.
        let mut base = Tensor::<f64>::zeros(&[3, PAGE_ELEMS]).unwrap();
        base.as_mut_slice()[2 * PAGE_ELEMS] = f64::NAN;
        let mut cur = base.clone();
        cur.as_mut_slice()[5] = -0.0;
        let (packed, stats) = increment(&base, &cur, Level::Default).unwrap();
        assert_eq!(stats.dirty_pages, 1, "only the signed zero's page");
        let restored = apply(&base, &packed).unwrap();
        assert!(restored.as_slice()[5].is_sign_negative());
    }

    #[test]
    fn the_writer_lays_the_xor_out_as_planes_and_the_words_layout_reads_the_same() {
        let base = field(6);
        let mut cur = base.clone();
        for v in cur.as_mut_slice().iter_mut().step_by(3) {
            *v *= 1.0001;
        }
        let (packed, _) = increment(&base, &cur, Level::Default).unwrap();
        let inc = decode(&packed).unwrap();
        assert_eq!(inc.layout(), Layout::Planes);
        let inner = gzip::decompress(&packed).unwrap();
        assert_eq!(&inner[..5], b"INC2\x01");

        // The same header without the version byte, the planes turned
        // back into words, under the INC1 magic.
        let planes = &inner[inc.payload..];
        let words = crate::shuffle::read_planes(planes, 0, planes.len() / 8);
        let mut inc1 = b"INC1".to_vec();
        inc1.extend_from_slice(&inner[5..inc.payload]);
        inc1.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        let old = decode(&gzip::compress(&inc1, Level::Default)).unwrap();
        assert_eq!(old.layout(), Layout::Words);
        let (mut a, mut b) = (base.clone(), base.clone());
        inc.xor_into(&mut a).unwrap();
        old.xor_into(&mut b).unwrap();
        assert!(a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(a.as_slice(), cur.as_slice());
    }

    #[test]
    fn an_unknown_version_or_magic_is_refused() {
        let t = field(7);
        let (packed, _) = increment(&t, &t, Level::Default).unwrap();
        let mut inner = gzip::decompress(&packed).unwrap();
        inner[4] = 2;
        let why = decode(&gzip::compress(&inner, Level::Default)).err().unwrap().to_string();
        assert!(why.contains("unsupported version 2"), "{why}");
        inner[..5].copy_from_slice(b"INC3\x01");
        let why = decode(&gzip::compress(&inner, Level::Default)).err().unwrap().to_string();
        assert!(why.contains("bad magic"), "{why}");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Tensor::<f64>::zeros(&[8, 8]).unwrap();
        let b = Tensor::<f64>::zeros(&[4, 4]).unwrap();
        assert!(increment(&a, &b, Level::Default).is_err());
        let (packed, _) = increment(&a, &a, Level::Default).unwrap();
        assert!(apply(&b, &packed).is_err());
    }

    #[test]
    fn corrupt_increment_detected() {
        let t = field(5);
        let (mut packed, _) = increment(&t, &t, Level::Default).unwrap();
        let n = packed.len();
        packed[n / 2] ^= 0xFF;
        assert!(apply(&t, &packed).is_err());
    }
}
