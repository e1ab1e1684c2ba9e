//! Offline shim for the subset of `rand` 0.9 this workspace uses.
//!
//! The build container has no network access and no vendored registry,
//! so the real crates.io `rand` cannot be fetched. This crate provides
//! API-compatible replacements for exactly what the workspace calls:
//! `rngs::StdRng`, `SeedableRng::seed_from_u64`, and
//! `Rng::random_range` over integer and float ranges.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — a
//! different stream than upstream `StdRng` (ChaCha12), which is fine:
//! every consumer in this repo treats the stream as an arbitrary
//! deterministic source (synthetic field phases, test inputs), never
//! as a cross-implementation fixture.

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a source of uniform `u64`s.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing sampling methods, as `rand 0.9` spells them.
pub trait Rng: RngCore + Sized {
    /// A uniform sample from `range` (`Range` or `RangeInclusive`).
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_uniform(self)
    }

    /// A uniform `f64` in `[0, 1)`.
    fn random_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl<G: RngCore + Sized> Rng for G {}

/// Seeding interface (only the `u64` entry point is provided).
pub trait SeedableRng: Sized {
    /// Deterministically builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Ranges that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_uniform<G: RngCore>(self, rng: &mut G) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_uniform<G: RngCore>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_uniform<G: RngCore>(self, rng: &mut G) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

int_sample_range!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_uniform<G: RngCore>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "empty range");
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_uniform<G: RngCore>(self, rng: &mut G) -> f32 {
        assert!(self.start < self.end, "empty range");
        let u = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        self.start + u * (self.end - self.start)
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random_range(0u64..1 << 40), b.random_range(0u64..1 << 40));
        }
        let mut c = StdRng::seed_from_u64(43);
        let same: Vec<u64> = (0..8).map(|_| c.random_range(0u64..u64::MAX)).collect();
        let mut a = StdRng::seed_from_u64(42);
        let other: Vec<u64> = (0..8).map(|_| a.random_range(0u64..u64::MAX)).collect();
        assert_ne!(same, other);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: i32 = rng.random_range(1..=6);
            assert!((1..=6).contains(&v));
            let f: f64 = rng.random_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
            let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn roughly_uniform_over_small_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 6];
        for _ in 0..60_000 {
            counts[rng.random_range(0usize..6)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }
}
