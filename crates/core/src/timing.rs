//! Per-stage wall-clock accounting, matching the breakdown of Figure 9:
//! wavelet transformation, quantization + encoding, gzip itself, and
//! other overheads (formatting etc.). The figure's fifth bar, the
//! paper's temporary-file write before gzip, is no stage of this
//! pipeline; `fig9` times it itself.

use std::ops::AddAssign;
use std::time::Duration;

/// Wall-clock time spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Haar transform (forward or inverse).
    pub wavelet: Duration,
    /// Quantization and encoding: gathering the subbands, then for the
    /// product stream the spike quantizer's bin-width histogram and the
    /// map of both grid sections to words; for the paper's stream the
    /// spike (or simple) quantizer and its index encoding.
    pub quantize_encode: Duration,
    /// Byte-level formatting: the header and the sections' byte planes
    /// (or the Figure 5 layout).
    pub format: Duration,
    /// The final DEFLATE pass.
    pub gzip: Duration,
}

impl StageTimings {
    /// Zeroed timings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total across all stages.
    pub fn total(&self) -> Duration {
        self.wavelet + self.quantize_encode + self.format + self.gzip
    }

    /// The paper's Figure 9 labels and values, in its stacking order.
    pub fn breakdown(&self) -> [(&'static str, Duration); 4] {
        [
            ("wavelet transformation", self.wavelet),
            ("quantization and encoding", self.quantize_encode),
            ("other overheads", self.format),
            ("gzip", self.gzip),
        ]
    }
}

impl AddAssign for StageTimings {
    fn add_assign(&mut self, rhs: Self) {
        self.wavelet += rhs.wavelet;
        self.quantize_encode += rhs.quantize_encode;
        self.format += rhs.format;
        self.gzip += rhs.gzip;
    }
}

/// Times a closure, adding the elapsed duration into `slot`.
pub fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_stages() {
        let t = StageTimings {
            wavelet: Duration::from_millis(2),
            quantize_encode: Duration::from_millis(3),
            format: Duration::from_millis(1),
            gzip: Duration::from_millis(14),
        };
        assert_eq!(t.total(), Duration::from_millis(20));
        assert_eq!(t.breakdown().len(), 4);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = StageTimings::new();
        let b = StageTimings { gzip: Duration::from_millis(5), ..Default::default() };
        a += b;
        a += b;
        assert_eq!(a.gzip, Duration::from_millis(10));
        assert_eq!(a.wavelet, Duration::ZERO);
    }

    #[test]
    fn timed_measures_and_passes_through() {
        let mut slot = Duration::ZERO;
        let v = timed(&mut slot, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(slot >= Duration::from_millis(4));
    }
}
