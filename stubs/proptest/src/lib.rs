//! Offline stand-in for `proptest` covering the subset this workspace uses:
//! the `proptest!` macro with `name in strategy` / `name: Type` parameters,
//! `#![proptest_config(ProptestConfig::with_cases(n))]`, and the
//! `prop_assert!`/`prop_assert_eq!` assertions.
//!
//! Cases are drawn from a deterministic per-test RNG (seeded from the test's
//! module path), so failures reproduce exactly. There is no shrinking: the
//! panic message carries the concrete failing values via `assert_eq!`.

/// Per-test run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Deterministic xoshiro256++ used to drive case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds deterministically from a test identifier (module path + name).
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the identifier, expanded through SplitMix64.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut sm = h;
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

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    pub fn next_u128(&mut self) -> u128 {
        ((self.next_u64() as u128) << 64) | self.next_u64() as u128
    }

    /// Uniform f64 in [0, 1).
    pub fn next_unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Value generator used for `name in strategy` parameters.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_strategy_uint {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty proptest range");
                let span = (self.end - self.start) as u128;
                self.start + (rng.next_u128() % span) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty proptest range");
                let span = (hi - lo) as u128 + 1;
                lo + (rng.next_u128() % span) as $t
            }
        }
        impl Strategy for core::ops::RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (<$t>::MAX - self.start) as u128 + 1;
                self.start + (rng.next_u128() % span) as $t
            }
        }
    )*};
}
impl_strategy_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_strategy_sint {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty proptest range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u128() % span) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty proptest range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u128() % span) as i128) as $t
            }
        }
    )*};
}
impl_strategy_sint!(i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        assert!(self.start < self.end, "empty proptest range");
        self.start + rng.next_u128() % (self.end - self.start)
    }
}

impl Strategy for core::ops::RangeFrom<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        let span = u128::MAX - self.start;
        if span == u128::MAX {
            return rng.next_u128();
        }
        self.start + rng.next_u128() % (span + 1)
    }
}

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty proptest range");
        self.start + rng.next_unit_f64() * (self.end - self.start)
    }
}

/// Types usable as bare `name: Type` proptest parameters.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u128()
    }
}

impl Arbitrary for i128 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u128() as i128
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_unit_f64()
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        core::array::from_fn(|_| T::arbitrary(rng))
    }
}

/// `any::<T>()` strategy over the full value domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Skips the current case when the assumption fails. Expands to `continue`
/// on the case loop, so it must appear at the top level of the test body
/// (which is how the workspace uses it).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!($crate::ProptestConfig::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ($cfg:expr; ) => {};
    ($cfg:expr; $(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng =
                $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                let _ = __case;
                $crate::__proptest_bind!(__rng, $($params)*);
                $body
            }
        }
        $crate::__proptest_fns!($cfg; $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    ($rng:ident, $name:ident in $strat:expr) => {
        let $name = $crate::Strategy::generate(&($strat), &mut $rng);
    };
    ($rng:ident, $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name: $ty = $crate::Arbitrary::arbitrary(&mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    ($rng:ident, $name:ident : $ty:ty) => {
        let $name: $ty = $crate::Arbitrary::arbitrary(&mut $rng);
    };
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Any, Arbitrary,
        ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn mixed_params(bits in 1u32..=64, a: u64, w in -128i64..128, sel: bool) {
            prop_assert!(bits >= 1 && bits <= 64);
            prop_assert!((-128..128).contains(&w));
            let _ = (a, sel);
        }

        #[test]
        fn open_range(b in 1u128..) {
            prop_assert!(b >= 1);
        }
    }

    proptest! {
        #[test]
        fn float_range(x in -1.0e4f64..1.0e4) {
            prop_assert!((-1.0e4..1.0e4).contains(&x));
        }
    }

    #[test]
    fn deterministic_rng() {
        let mut a = super::TestRng::deterministic("x");
        let mut b = super::TestRng::deterministic("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
