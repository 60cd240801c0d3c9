//! Offline stand-in for the subset of [proptest](https://docs.rs/proptest)
//! this workspace uses.
//!
//! The build container cannot reach crates.io, so the real proptest cannot
//! be fetched. This shim keeps the workspace's property tests running as
//! *deterministic randomized tests*: each `proptest!` test derives a fixed
//! RNG seed from its module path and name, samples `ProptestConfig::cases`
//! inputs from the declared strategies, and fails (with the case number and
//! seed) on the first counterexample.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports the sampled inputs via
//!   `Debug`-free messages (the case index + seed reproduce it exactly).
//! * **Strategies are samplers.** `Strategy` is a plain trait with a
//!   `sample(&self, &mut TestRng)` method; ranges, `collection::vec`,
//!   `sample::select`, `any::<T>()` and `prop_compose!` cover everything the
//!   workspace declares.
//! * **Rejections** (`prop_assume!`) skip the case without retrying.

use std::ops::Range;

pub mod test_runner {
    //! The deterministic RNG behind every strategy.

    /// xoshiro256++ with a SplitMix64 seeder — small, fast, and good enough
    /// for test-input generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Seed from an arbitrary u64 via SplitMix64.
        pub fn seed_from(seed: u64) -> Self {
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            TestRng {
                s: [next(), next(), next(), next()],
            }
        }

        /// Deterministic seed for a named test: FNV-1a of the name.
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            Self::seed_from(h)
        }

        /// Next raw 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }

        /// Uniform f64 in [0, 1).
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform usize in [0, n). `n` must be non-zero.
        pub fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }
}

use test_runner::TestRng;

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// A `prop_assert!` failed: a genuine counterexample.
    Fail(String),
    /// A `prop_assume!` rejected the inputs: skip, not a failure.
    Reject(String),
}

impl TestCaseError {
    /// Build a failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
    /// Build a rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A sampler of test inputs.
pub trait Strategy {
    /// The produced value type.
    type Value;
    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

pub mod strategy {
    //! Strategy adapters.

    use super::{Strategy, TestRng};

    /// A strategy from a sampling closure — what `prop_compose!` builds.
    pub struct FnStrategy<F>(pub F);

    impl<V, F: Fn(&mut TestRng) -> V> Strategy for FnStrategy<F> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            (self.0)(rng)
        }
    }
}

/// Types with a canonical `any::<T>()` strategy.
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, broad range; the real crate's any::<f64> includes
        // specials, which the workspace's tests never rely on.
        (rng.unit_f64() - 0.5) * 2e9
    }
}

/// Strategy produced by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (`any::<u64>()`, `any::<Index>()`, …).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`]: an exact length or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi - self.size.lo;
            let len = self.size.lo + if span > 1 { rng.below(span) } else { 0 };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling helpers: `select` and `Index`.

    use super::{Arbitrary, Strategy, TestRng};

    /// Strategy choosing uniformly from a fixed list.
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// Choose uniformly from `options`.
    ///
    /// # Panics
    /// Panics (at sample time) if `options` is empty.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            assert!(!self.options.is_empty(), "select from empty list");
            self.options[rng.below(self.options.len())].clone()
        }
    }

    /// An arbitrary index, scaled into a collection's bounds at use time.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// This index projected into `[0, len)`.
        ///
        /// # Panics
        /// Panics if `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "index into empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_compose, proptest, Arbitrary,
        ProptestConfig, Strategy, TestCaseError,
    };

    /// Mirror of the real crate's `prelude::prop` module alias.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Define property tests. Mirrors the real crate's syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0usize..10, ys in proptest::collection::vec(-1.0f64..1.0, 1..50)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (@run ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let test_name = concat!(module_path!(), "::", stringify!($name));
                let mut rng = $crate::test_runner::TestRng::for_test(test_name);
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)*
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                        ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property '{}' failed at case {}/{}: {}",
                                test_name, case + 1, config.cases, msg
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Assert inside a `proptest!` body; failure reports the counterexample
/// case instead of unwinding through the harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Equality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {} ({:?} vs {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Skip the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Compose strategies into a named strategy-producing function, mirroring
/// the real crate's `prop_compose!`.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($outer:tt)*)($($arg:pat in $strat:expr),* $(,)?) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($outer)*) -> impl $crate::Strategy<Value = $ret> {
            $crate::strategy::FnStrategy(move |rng: &mut $crate::test_runner::TestRng| {
                $(let $arg = $crate::Strategy::sample(&($strat), rng);)*
                $body
            })
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    prop_compose! {
        fn point()(x in -10.0f64..10.0, y in -10.0f64..10.0) -> (f64, f64) {
            (x, y)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(
            a in 3usize..9,
            b in -5i64..5,
            x in -1.5f64..1.5,
        ) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((-5..5).contains(&b));
            prop_assert!((-1.5..1.5).contains(&x));
        }

        #[test]
        fn vec_lengths_respect_size_range(
            xs in crate::collection::vec(0.0f64..1.0, 2..7),
        ) {
            prop_assert!(xs.len() >= 2 && xs.len() < 7);
            prop_assert!(xs.iter().all(|v| (0.0..1.0).contains(v)));
        }

        #[test]
        fn select_picks_from_options(
            dt in prop::sample::select(vec![15u32, 30, 60, 300]),
        ) {
            prop_assert!([15, 30, 60, 300].contains(&dt));
        }

        #[test]
        fn index_projects_into_bounds(ix in any::<prop::sample::Index>(), n in 1usize..20) {
            prop_assert!(ix.index(n) < n);
        }

        #[test]
        fn composed_strategies_work(p in point()) {
            prop_assert!(p.0.abs() <= 10.0 && p.1.abs() <= 10.0);
        }

        #[test]
        fn assume_rejects_without_failing(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::for_test("x");
        let mut b = crate::test_runner::TestRng::for_test("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
