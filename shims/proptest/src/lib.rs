//! Offline shim for `proptest`.
//!
//! A deterministic property-testing harness: each `proptest!` test runs a
//! fixed number of cases with inputs drawn from `Strategy` values, seeded
//! from the test's file and name so failures reproduce exactly. No
//! shrinking — a failing case reports its case number and assertion text.
//!
//! Covered surface: `proptest! { #![proptest_config(...)] #[test] fn t(x in
//! strategy, ...) { ... } }`, `prop_assert!`/`prop_assert_eq!`/
//! `prop_assert_ne!`, integer/float range strategies, regex-subset string
//! strategies, tuple strategies, `proptest::collection::vec`, and
//! `Strategy::prop_map`.

use std::fmt;
use std::ops::{Range, RangeInclusive};

pub mod strings;

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// A failed property within a test case; returned by `prop_assert!`.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Deterministic per-case random source (SplitMix64 stream).
pub struct TestRunner {
    state: u64,
}

impl TestRunner {
    pub fn from_seed(seed: u64) -> TestRunner {
        TestRunner {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform usize in `[0, bound)`; bound must be nonzero.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Drive one `proptest!` test: run `config.cases` deterministic cases.
pub fn run_proptest<F>(config: &ProptestConfig, file: &str, name: &str, mut case_fn: F)
where
    F: FnMut(&mut TestRunner) -> Result<(), TestCaseError>,
{
    for case in 0..config.cases {
        let seed = fnv1a(file.as_bytes())
            .wrapping_mul(31)
            .wrapping_add(fnv1a(name.as_bytes()))
            .wrapping_add(case as u64);
        let mut runner = TestRunner::from_seed(seed);
        if let Err(error) = case_fn(&mut runner) {
            panic!(
                "proptest {name} failed at case {case}/{}: {error}",
                config.cases
            );
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A generator of test-case values.
pub trait Strategy {
    type Value;

    fn generate(&self, runner: &mut TestRunner) -> Self::Value;

    fn prop_map<O, F>(self, map: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        MapStrategy { base: self, map }
    }
}

/// `prop_map` adapter.
pub struct MapStrategy<S, F> {
    base: S,
    map: F,
}

impl<S, O, F> Strategy for MapStrategy<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, runner: &mut TestRunner) -> O {
        (self.map)(self.base.generate(runner))
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, runner: &mut TestRunner) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (runner.next_u64() as u128 % span) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, runner: &mut TestRunner) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                (lo as i128 + (runner.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, runner: &mut TestRunner) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + (runner.unit_f64() as $t) * (self.end - self.start)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, runner: &mut TestRunner) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                lo + (runner.unit_f64() as $t) * (hi - lo)
            }
        }
    )*};
}

float_strategy!(f32, f64);

/// String literals are regex-subset strategies, as in proptest.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, runner: &mut TestRunner) -> String {
        strings::generate_matching(self, runner)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, runner: &mut TestRunner) -> Self::Value {
                ($(self.$idx.generate(runner),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

pub mod collection {
    use super::{Strategy, TestRunner};
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for [`vec()`]; concrete `From` impls pin the integer
    /// literals in `vec(elem, 1..8)` to `usize` (mirroring proptest).
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            SizeRange {
                min: len,
                max_inclusive: len,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> Self {
            assert!(range.start < range.end, "proptest shim: empty size range");
            SizeRange {
                min: range.start,
                max_inclusive: range.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(range: RangeInclusive<usize>) -> Self {
            assert!(
                range.start() <= range.end(),
                "proptest shim: empty size range"
            );
            SizeRange {
                min: *range.start(),
                max_inclusive: *range.end(),
            }
        }
    }

    impl SizeRange {
        fn generate(&self, runner: &mut TestRunner) -> usize {
            self.min + runner.below(self.max_inclusive - self.min + 1)
        }
    }

    /// Vec strategy: `size` gives the length bounds.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let len = self.size.generate(runner);
            (0..len).map(|_| self.element.generate(runner)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
        TestCaseError, TestRunner,
    };
}

/// The `proptest!` block: an optional `#![proptest_config(..)]` inner
/// attribute followed by `#[test] fn name(arg in strategy, ..) { .. }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_proptest(&$config, file!(), stringify!($name), |__runner| {
                $(let $arg = $crate::Strategy::generate(&($strategy), __runner);)+
                let __case = move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    Ok(())
                };
                __case()
            });
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// Assert within a proptest body; failure aborts the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = $left;
        let __r = $right;
        if __l != __r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __l = $left;
        let __r = $right;
        if __l != __r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = $left;
        let __r = $right;
        if __l == __r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {} (both: {:?})",
                stringify!($left),
                stringify!($right),
                __l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __l = $left;
        let __r = $right;
        if __l == __r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Range strategies respect bounds; tuple and vec compose.
        #[test]
        fn strategy_bounds(
            n in 3u32..12,
            pairs in collection::vec((0u32..64, -10.0f64..10.0), 0..16),
        ) {
            prop_assert!((3..12).contains(&n));
            prop_assert!(pairs.len() < 16);
            for (i, v) in pairs {
                prop_assert!(i < 64);
                prop_assert!((-10.0..10.0).contains(&v), "v out of range: {v}");
            }
        }

        /// prop_map applies the function.
        #[test]
        fn map_applies(x in (1usize..5).prop_map(|v| v * 10)) {
            prop_assert!(x % 10 == 0 && (10..50).contains(&x));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRunner::from_seed(9);
        let mut b = TestRunner::from_seed(9);
        assert_eq!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }
}
