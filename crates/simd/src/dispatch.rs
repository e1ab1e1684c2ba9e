//! Runtime kernel dispatch.
//!
//! The kernel tier is picked once per process from CPU feature
//! detection, with two escape hatches:
//!
//! - the `CKPT_FORCE_SCALAR` environment variable (set to anything but
//!   `0`) pins the process to the portable scalar tier, so CI can
//!   exercise the fallback path on any host;
//! - [`set_override`] swaps the tier at runtime, which the equivalence
//!   harnesses use to run both tiers inside one process.
//!
//! Every tier produces bit-identical output (see the module docs in
//! [`crate::wavelet`], [`crate::quant`] and [`crate::crc32`]), so which
//! tier runs is purely a throughput decision — never a correctness one.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Kernel tier, ordered from portable to widest. The discriminants
/// are what the `e2e` benchmark reports as `simd.tier`, so they are
/// pinned (1 was the retired SSE2 tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Portable scalar reference — always available.
    Scalar = 0,
    /// 256-bit AVX2 (4×f64 per op), with PCLMULQDQ and SSE4.1 for the
    /// CRC-32 fold.
    Avx2 = 2,
}

impl Level {
    /// Every tier, for harnesses that compare them (filter with
    /// [`Level::is_available`]).
    pub const ALL: [Level; 2] = [Level::Scalar, Level::Avx2];

    /// Stable lowercase name for logs and benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
        }
    }

    /// True when this tier's instructions exist on the running CPU.
    pub fn is_available(self) -> bool {
        match self {
            Level::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => {
                is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("pclmulqdq")
                    && is_x86_feature_detected!("sse4.1")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Level::Avx2 => false,
        }
    }

    /// Panics unless the tier is available. Every kernel dispatcher
    /// calls this before entering a `#[target_feature]` fn, so the
    /// feature-detect guard sits on every unsafe call path.
    pub fn assert_available(self) {
        assert!(
            self.is_available(),
            "kernel tier {} selected but the CPU does not support it",
            self.name()
        );
    }
}

/// Detected tier, computed once. `CKPT_FORCE_SCALAR` wins over CPUID.
fn detect() -> Level {
    if std::env::var_os("CKPT_FORCE_SCALAR").is_some_and(|v| v != "0") {
        return Level::Scalar;
    }
    if Level::Avx2.is_available() {
        Level::Avx2
    } else {
        Level::Scalar
    }
}

static DETECTED: OnceLock<Level> = OnceLock::new();

/// Runtime override: 0 = none (use detection), else `Level as u8 + 1`.
/// Acquire/Release so a tier set on one thread is seen by kernel calls
/// on another (tests flip it around threaded sections).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The tier kernels run at right now.
pub fn level() -> Level {
    match OVERRIDE.load(Ordering::Acquire) {
        1 => Level::Scalar,
        3 => Level::Avx2,
        _ => *DETECTED.get_or_init(detect),
    }
}

/// Forces a tier (`Some`) or returns to detection (`None`). Panics if
/// the requested tier is not available on this CPU, so an override can
/// never smuggle an unsupported instruction past the dispatch guard.
pub fn set_override(level: Option<Level>) {
    let code = match level {
        None => 0,
        Some(l) => {
            l.assert_available();
            l as u8 + 1
        }
    };
    OVERRIDE.store(code, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(Level::Scalar.is_available());
        Level::Scalar.assert_available();
    }

    #[test]
    fn override_round_trips() {
        set_override(Some(Level::Scalar));
        assert_eq!(level(), Level::Scalar);
        set_override(None);
        let detected = level();
        assert!(detected.is_available());
        // Detection is monotone: if AVX2 is up, detection picks it
        // (unless CKPT_FORCE_SCALAR pinned the process to scalar).
        if Level::Avx2.is_available()
            && std::env::var_os("CKPT_FORCE_SCALAR").is_none_or(|v| v == "0")
        {
            assert_eq!(detected, Level::Avx2);
        }
    }

    #[test]
    fn names_and_tier_numbers_are_stable() {
        assert_eq!(Level::Scalar.name(), "scalar");
        assert_eq!(Level::Avx2.name(), "avx2");
        assert_eq!((Level::Scalar as u8, Level::Avx2 as u8), (0, 2));
    }
}
