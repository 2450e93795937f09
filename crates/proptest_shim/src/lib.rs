//! Offline in-tree shim for the `proptest` crate.
//!
//! The build container has no crates.io access, so this crate implements the
//! subset of proptest the workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` /
//! `prop_recursive`, `any::<T>()`, range and tuple and `&str`-pattern
//! strategies, `prop::collection::vec`, `Just`, `prop_oneof!`, and the
//! `proptest!` / `prop_assert*` macros.
//!
//! Differences from real proptest, by design:
//!
//! * generation only — failing cases are **not shrunk**;
//! * the RNG seed is derived deterministically from the test name, so runs
//!   are reproducible without a persisted regression file;
//! * `&str` strategies support the simple character-class patterns used in
//!   this repo (e.g. `"[a-z]{0,12}"`), not full regex syntax.

#![warn(missing_docs)]

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// The `proptest::prelude` equivalent.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirror of the real prelude's `prop` module alias.
    pub mod prop {
        pub use crate::collection;
    }

    /// Per-`proptest!` block configuration.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Overrides the number of cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }
}

/// Defines property tests over generated inputs.
///
/// Supports the forms used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))] // optional
///     #[test]
///     fn name(x in strategy1, y in strategy2) { ...body with prop_assert!... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::prelude::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( ($cfg:expr) $( #[test] fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block )* ) => {
        $(
            #[test]
            fn $name() {
                #[allow(unused_variables)]
                let cfg: $crate::prelude::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                for case in 0..cfg.cases {
                    $( let $arg = {
                        let strat = $strat;
                        $crate::strategy::Strategy::generate(&strat, &mut rng)
                    }; )*
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest case {}/{} of `{}` failed: {}",
                            case + 1, cfg.cases, stringify!($name), e
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(l == r, "assertion failed: `{:?}` == `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(l != r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
}

/// Uniform choice between alternative strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($strat) ),+
        ])
    };
}
