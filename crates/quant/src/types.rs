//! Shared quantizer types: configuration, output stream, errors.

use crate::bitmap::Bitmap;
use std::fmt;

/// Which quantization method to run (Section III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Simple quantization: quantize every high-band value.
    Simple,
    /// Proposed quantization: quantize only values inside detected spike
    /// partitions.
    Proposed,
}

impl Method {
    /// Human-readable name used in experiment reports.
    pub fn name(self) -> &'static str {
        match self {
            Method::Simple => "simple",
            Method::Proposed => "proposed",
        }
    }
}

/// Quantizer configuration.
///
/// `n` is the paper's *division number* (x-axis of Figures 7 and 8,
/// swept 1..=128); `d` is the spike-detection partition count
/// (Section IV-A fixes `d = 64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantConfig {
    /// Method to apply.
    pub method: Method,
    /// Division number: number of quantization partitions, `1..=256`
    /// (indexes must fit one byte, Section III-C).
    pub n: usize,
    /// Spike-detection partition count, at most `u16::MAX` (the `WCK1`
    /// header field's width); [`Method::Simple`] records but ignores it.
    pub d: usize,
}

impl QuantConfig {
    /// Validates the parameter ranges.
    pub fn validate(&self) -> Result<(), QuantError> {
        if self.n == 0 || self.n > 256 {
            return Err(QuantError::BadDivisionNumber(self.n));
        }
        if (self.method == Method::Proposed && self.d == 0) || self.d > usize::from(u16::MAX) {
            return Err(QuantError::BadSpikePartitions(self.d));
        }
        Ok(())
    }
}

/// Errors from quantization or stream reassembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// Division number outside `1..=256`.
    BadDivisionNumber(usize),
    /// Spike partition count of zero, or too large for the header's
    /// `u16` field.
    BadSpikePartitions(usize),
    /// A [`Quantized`] stream failed its internal consistency check.
    CorruptStream(&'static str),
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::BadDivisionNumber(n) => {
                write!(f, "division number {n} outside 1..=256")
            }
            QuantError::BadSpikePartitions(d) => {
                write!(f, "spike partition count {d} outside 1..=65535")
            }
            QuantError::CorruptStream(why) => write!(f, "corrupt quantized stream: {why}"),
        }
    }
}

impl std::error::Error for QuantError {}

/// The output of either quantizer over one value stream.
///
/// Positions with a set bitmap bit were quantized: their reconstruction
/// is `averages[indexes[j]]` where `j` counts set bits in order.
/// Positions with a clear bit pass through exactly as `raw[k]`, `k`
/// counting clear bits in order. This mirrors the paper's output format
/// (Figure 5) before byte-level framing.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    /// Total number of values in the original stream.
    pub len: usize,
    /// Which positions were quantized.
    pub bitmap: Bitmap,
    /// One table index per quantized position, in position order.
    pub indexes: Vec<u8>,
    /// The average table (at most `n` entries; empty partitions are
    /// compacted away).
    pub averages: Vec<f64>,
    /// Unquantized values, in position order.
    pub raw: Vec<f64>,
    /// Width of one of the `n` partitions the average table was built
    /// over: the quantized values' range over `n`, 0 when nothing was
    /// quantized. The encoder sizes its grid from it; the stream does
    /// not carry it, so a decoded stream holds 0.
    pub bin_width: f64,
}

impl Quantized {
    /// Internal consistency check: bit counts must match stream lengths
    /// and indexes must address the table.
    pub fn validate(&self) -> Result<(), QuantError> {
        if self.bitmap.len() != self.len {
            return Err(QuantError::CorruptStream("bitmap length mismatch"));
        }
        let ones = self.bitmap.count_ones();
        if self.indexes.len() != ones {
            return Err(QuantError::CorruptStream("index count != set bits"));
        }
        if self.raw.len() != self.len - ones {
            return Err(QuantError::CorruptStream("raw count != clear bits"));
        }
        if self.indexes.iter().any(|&i| (i as usize) >= self.averages.len()) {
            return Err(QuantError::CorruptStream("index beyond average table"));
        }
        Ok(())
    }

    /// Rebuilds the (lossy) value stream, a bitmap byte at a time: an
    /// all-ones byte is eight table lookups, an all-zero byte an
    /// eight-value copy of the raw stream, any other byte bit by bit.
    ///
    /// Panics if the stream fails [`Quantized::validate`].
    pub fn reconstruct(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        self.reconstruct_into(&mut out);
        out
    }

    /// [`Quantized::reconstruct`] into `out`, replacing what it held,
    /// so a caller can hand in a buffer with room for more than the
    /// stream (the decoder lends it to the inverse wavelet next).
    ///
    /// Panics if the stream fails [`Quantized::validate`].
    pub fn reconstruct_into(&self, out: &mut Vec<f64>) {
        let lookup = |i: &u8| self.averages[usize::from(*i)];
        out.clear();
        out.reserve(self.len);
        let (mut qi, mut ri) = (0, 0);
        for (w, &word) in self.bitmap.words().iter().enumerate() {
            let bits = (self.len - w * 64).min(64);
            for at in (0..bits).step_by(8) {
                let byte = (word >> at) as u8;
                let m = (bits - at).min(8);
                if byte == 0xFF {
                    out.extend(self.indexes[qi..qi + 8].iter().map(lookup));
                    qi += 8;
                } else if byte == 0 {
                    out.extend_from_slice(&self.raw[ri..ri + m]);
                    ri += m;
                } else {
                    for j in 0..m {
                        if byte >> j & 1 != 0 {
                            out.push(lookup(&self.indexes[qi]));
                            qi += 1;
                        } else {
                            out.push(self.raw[ri]);
                            ri += 1;
                        }
                    }
                }
            }
        }
    }

    /// Fraction of positions that were quantized (1.0 for the simple
    /// method; the proposed method's coverage is data-dependent).
    pub fn coverage(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.bitmap.count_ones() as f64 / self.len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Quantized {
        let mut bitmap = Bitmap::zeros(4);
        bitmap.set(0, true);
        bitmap.set(2, true);
        Quantized {
            len: 4,
            bitmap,
            indexes: vec![1, 0],
            averages: vec![10.0, 20.0],
            raw: vec![-1.0, -2.0],
            bin_width: 0.0,
        }
    }

    #[test]
    fn reconstruct_interleaves_streams() {
        let q = sample();
        q.validate().unwrap();
        assert_eq!(q.reconstruct(), vec![20.0, -1.0, 10.0, -2.0]);
        assert_eq!(q.coverage(), 0.5);
    }

    #[test]
    fn validate_catches_corruptions() {
        let mut q = sample();
        q.indexes.push(0);
        assert!(matches!(q.validate(), Err(QuantError::CorruptStream(_))));

        let mut q = sample();
        q.raw.pop();
        assert!(q.validate().is_err());

        let mut q = sample();
        q.indexes[0] = 9;
        assert!(q.validate().is_err());

        let mut q = sample();
        q.len = 5;
        assert!(q.validate().is_err());
    }

    #[test]
    fn config_validation() {
        assert!(QuantConfig { method: Method::Proposed, n: 128, d: 64 }.validate().is_ok());
        assert!(QuantConfig { method: Method::Simple, n: 0, d: 64 }.validate().is_err());
        assert!(QuantConfig { method: Method::Simple, n: 257, d: 64 }.validate().is_err());
        assert!(QuantConfig { method: Method::Proposed, n: 8, d: 0 }.validate().is_err());
        // d = 0 is fine for the simple method (unused).
        assert!(QuantConfig { method: Method::Simple, n: 8, d: 0 }.validate().is_ok());
        // The header records d in a u16 whatever the method.
        for method in [Method::Simple, Method::Proposed] {
            assert!(QuantConfig { method, n: 8, d: 65_535 }.validate().is_ok());
            assert_eq!(
                QuantConfig { method, n: 8, d: 65_536 }.validate(),
                Err(QuantError::BadSpikePartitions(65_536))
            );
        }
    }

    #[test]
    fn method_names() {
        assert_eq!(Method::Simple.name(), "simple");
        assert_eq!(Method::Proposed.name(), "proposed");
    }
}
