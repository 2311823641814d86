//! Offline stand-in for the `rand` crate exposing exactly the subset of the
//! API this workspace uses: the `Rng`/`RngCore`/`SeedableRng` traits,
//! `rngs::StdRng`, `gen`, `gen_range`, and `fill_bytes`.
//!
//! The build environment has no crates.io access, so the workspace patches
//! `rand` to this crate. `StdRng` here is xoshiro256++ seeded through
//! SplitMix64 — deterministic and statistically strong, but **not** the same
//! stream as upstream `StdRng` (ChaCha12) and not cryptographically secure.
//! Every test in the workspace derives its expectations from the same seeds
//! it feeds the protocol, so only determinism matters.

/// Low-level source of randomness: the object-safe core trait.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Types that can be sampled uniformly by [`Rng::gen`].
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for i128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u128::sample(rng) as i128
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform bits in [0, 1), matching upstream's Standard for f64.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges acceptable to [`Rng::gen_range`].
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u128;
                self.start + (u128::sample(rng) % span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi - lo) as u128 + 1;
                lo + (u128::sample(rng) % span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeFrom<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let span = (<$t>::MAX - self.start) as u128 + 1;
                self.start + (u128::sample(rng) % span) as $t
            }
        }
    )*};
}
impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_sint {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (u128::sample(rng) % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (u128::sample(rng) % span) as i128) as $t
            }
        }
    )*};
}
impl_sample_range_sint!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleRange<u128> for core::ops::Range<u128> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> u128 {
        assert!(self.start < self.end, "gen_range: empty range");
        let span = self.end - self.start;
        self.start + u128::sample(rng) % span
    }
}

impl SampleRange<u128> for core::ops::RangeFrom<u128> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> u128 {
        let span = u128::MAX - self.start;
        if span == u128::MAX {
            return u128::sample(rng);
        }
        self.start + u128::sample(rng) % (span + 1)
    }
}

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f32::sample(rng) * (self.end - self.start)
    }
}

/// Buffers fillable by [`Rng::fill`].
pub trait Fill {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

impl<const N: usize> Fill for [u8; N] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

impl Fill for [u64] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for v in self.iter_mut() {
            *v = rng.next_u64();
        }
    }
}

impl<const N: usize> Fill for [u64; N] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        self.as_mut_slice().fill_from(rng);
    }
}

/// User-facing randomness trait, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T) {
        dest.fill_from(self)
    }

    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic seeding, mirroring `rand::SeedableRng`'s `seed_from_u64`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;

    /// Seeds from OS entropy: the 64-bit hash of a fresh std `RandomState`,
    /// whose keys std draws from the OS once per thread and steps on every
    /// `new`, so each call seeds differently. Not a CSPRNG seed: 64 bits.
    fn from_entropy() -> Self {
        use std::hash::{BuildHasher, Hasher};
        let h = std::collections::hash_map::RandomState::new().build_hasher();
        Self::seed_from_u64(h.finish())
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ seeded via SplitMix64. Deterministic per seed.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let v = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&v[..chunk.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(-128i64..128);
            assert!((-128..128).contains(&v));
            let w = rng.gen_range(1u32..=64);
            assert!((1..=64).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn unit_interval_floats() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
