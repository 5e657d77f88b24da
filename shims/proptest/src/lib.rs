//! Minimal deterministic stand-in for the `proptest` crate.
//!
//! Supports the subset this workspace uses: the `proptest!` macro (with an
//! optional `#![proptest_config(..)]` header), `prop_assert!`/
//! `prop_assert_eq!`/`prop_assert_ne!`, the [`strategy::Strategy`] trait
//! with `prop_map`/`prop_flat_map`, `any::<T>()`, numeric-range, tuple and
//! string-pattern strategies, and `collection::{vec, btree_map}`.
//!
//! Unlike upstream proptest there is **no shrinking** and the case stream
//! is fully deterministic: each test function derives its RNG seed from a
//! hash of its own name, so failures reproduce on every run. The failure
//! message reports the case index. The number of cases defaults to 32 and
//! can be set per-suite with `ProptestConfig::with_cases(n)`; the
//! `PROPTEST_CASES` environment variable, when set, overrides every suite.

pub mod arbitrary;
pub mod collection;
pub mod config;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub use arbitrary::any;

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::config::ProptestConfig;
    pub use crate::strategy::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// FNV-1a hash of a test name, used to derive a per-test deterministic seed.
pub fn seed_of(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Defines property tests. Each `#[test] fn name(arg in strategy, ..)` item
/// becomes a plain `#[test]` that draws `cases` deterministic inputs and
/// runs the body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::config::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr) $(
        #[test]
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            #[test]
            fn $name() {
                let cfg: $crate::config::ProptestConfig = $cfg;
                let seed = $crate::seed_of(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..cfg.cases {
                    let mut rng = $crate::test_runner::TestRng::deterministic(seed, case);
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let run = ::std::panic::AssertUnwindSafe(move || { $body });
                    if let Err(panic) = ::std::panic::catch_unwind(run) {
                        eprintln!(
                            "proptest: {} failed at case {}/{} (seed {:#x})",
                            stringify!($name), case, cfg.cases, seed,
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

/// `assert!` under a name the real proptest exports.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}
