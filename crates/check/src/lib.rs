//! A micro property-testing harness (in-tree replacement for `proptest`).
//!
//! The three property suites of this workspace need a small surface:
//! generate random structured inputs from typed strategies, run a
//! property over many cases, and on failure *shrink* the input to a small
//! counterexample before reporting. This crate provides exactly that,
//! fully deterministic and offline:
//!
//! * [`Strategy`] — typed generators with in-domain shrinking. Integer
//!   and float ranges shrink by halving toward the lower bound; vectors
//!   shrink by dropping halves, then elements, then shrinking elements.
//! * [`check`] / [`check_with`] — the runner: a fixed-seed regression
//!   corpus first, then `cases` novel inputs derived from the
//!   property-name hash, greedy shrinking on the first failure.
//! * [`prop_assert!`] / [`prop_assert_eq!`] — assertion macros for
//!   properties returning `Result<(), String>` (same spelling as the
//!   proptest suites they replace).
//! * [`corpus_from_proptest_file`] — derives replay seeds from a
//!   `proptest-regressions` file so historical failure cases keep
//!   running first.
//!
//! Environment overrides: `PROFESS_CHECK_CASES` (cases per property, a
//! positive 32-bit integer) and `PROFESS_CHECK_SEED` (base seed, any
//! 64-bit unsigned integer). A malformed or out-of-range value panics
//! with a message naming the variable: a typo must never run fewer cases
//! than asked for, or none.
//!
//! # Example
//!
//! ```
//! use profess_check::{check, strategy::{vec_of, u64_range}, prop_assert};
//!
//! check("sum_is_monotonic", vec_of(u64_range(0..1000), 0..16), |xs| {
//!     let total: u64 = xs.iter().sum();
//!     prop_assert!(total >= xs.iter().copied().max().unwrap_or(0));
//!     Ok(())
//! });
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod strategy;

use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;

pub use profess_rng::Rng;
pub use strategy::Strategy;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Novel cases to run per property.
    pub cases: u32,
    /// Base seed; each property derives its streams from this and its
    /// name, so properties are independent and individually replayable.
    pub seed: u64,
    /// Cap on shrinking steps.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    /// 256 cases from the default seed, unless `PROFESS_CHECK_CASES` or
    /// `PROFESS_CHECK_SEED` says otherwise.
    ///
    /// # Panics
    ///
    /// Panics if either variable is set to a malformed or out-of-range
    /// value.
    fn default() -> Self {
        let env = |name: &str| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        let cases = parse_knob(
            "PROFESS_CHECK_CASES",
            env("PROFESS_CHECK_CASES").as_deref(),
            256,
            1..=u32::MAX,
        );
        let seed = parse_knob(
            "PROFESS_CHECK_SEED",
            env("PROFESS_CHECK_SEED").as_deref(),
            0x5052_4F46_4553_5321,
            0..=u64::MAX,
        );
        Config {
            cases: cases.unwrap_or_else(|e| panic!("{e}")),
            seed: seed.unwrap_or_else(|e| panic!("{e}")),
            max_shrink_steps: 2048,
        }
    }
}

impl Config {
    /// [`Config::default`] with at least `cases` novel cases: `cases`,
    /// or `PROFESS_CHECK_CASES` where that is larger. A property that
    /// runs fewer cases than the default in the test suite can still be
    /// run at volume, and a quick run at a small count never cuts a
    /// property below its own.
    ///
    /// # Panics
    ///
    /// As [`Config::default`].
    pub fn with_cases(cases: u32) -> Self {
        let cfg = Config::default();
        let cases = if std::env::var_os("PROFESS_CHECK_CASES").is_some() {
            cfg.cases.max(cases)
        } else {
            cases
        };
        Config { cases, ..cfg }
    }
}

/// Parses the value of the knob `name`: `default` when unset, else an
/// integer in `range`. Anything else is an error that names the
/// variable.
fn parse_knob<T: FromStr + PartialOrd + Display>(
    name: &str,
    value: Option<&str>,
    default: T,
    range: RangeInclusive<T>,
) -> Result<T, String> {
    let Some(v) = value else {
        return Ok(default);
    };
    match v.trim().parse::<T>() {
        Ok(n) if range.contains(&n) => Ok(n),
        _ => Err(format!(
            "{name}={v}: expected an integer in {}..={}",
            range.start(),
            range.end()
        )),
    }
}

/// FNV-1a, used to give every property its own seed stream.
fn hash_name(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `prop` over `cases` generated inputs with the default
/// configuration and no extra corpus. Panics with the shrunk
/// counterexample on failure.
pub fn check<S: Strategy>(name: &str, strategy: S, prop: impl Fn(&S::Value) -> Result<(), String>) {
    check_with(&Config::default(), &[], name, strategy, prop);
}

/// Runs `prop` with an explicit configuration and a regression-seed
/// corpus. Corpus seeds are replayed (one generated input each) before
/// any novel case.
///
/// # Panics
///
/// Panics if the property fails; the message contains the property name,
/// the replay seed of the failing case, the original counterexample and
/// the shrunk one.
pub fn check_with<S: Strategy>(
    cfg: &Config,
    corpus: &[u64],
    name: &str,
    strategy: S,
    prop: impl Fn(&S::Value) -> Result<(), String>,
) {
    let name_hash = hash_name(name);
    let corpus_cases = corpus.iter().map(|&s| (s, true));
    let novel_cases = (0..cfg.cases).map(|i| {
        let mix = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(i) + 1);
        (cfg.seed ^ name_hash ^ mix, false)
    });
    for (case_seed, from_corpus) in corpus_cases.chain(novel_cases) {
        let mut rng = Rng::seed_from_u64(case_seed);
        let value = strategy.generate(&mut rng);
        if let Err(msg) = prop(&value) {
            let (min_value, min_msg, steps) =
                shrink_failure(&strategy, &prop, value.clone(), msg.clone(), cfg);
            panic!(
                "property {name:?} failed{}\n  replay seed: {case_seed:#x}\n  \
                 original: {value:?}\n  original error: {msg}\n  \
                 shrunk ({steps} steps): {min_value:?}\n  shrunk error: {min_msg}",
                if from_corpus { " (corpus case)" } else { "" },
            );
        }
    }
}

/// Greedy shrink: repeatedly take the first shrink candidate that still
/// fails, until none does or the step cap is hit. Returns the minimal
/// failing value, its error, and the steps taken.
fn shrink_failure<S: Strategy>(
    strategy: &S,
    prop: &impl Fn(&S::Value) -> Result<(), String>,
    mut value: S::Value,
    mut msg: String,
    cfg: &Config,
) -> (S::Value, String, u32) {
    let mut steps = 0;
    'outer: while steps < cfg.max_shrink_steps {
        for candidate in strategy.shrink(&value) {
            steps += 1;
            if let Err(m) = prop(&candidate) {
                value = candidate;
                msg = m;
                continue 'outer;
            }
            if steps >= cfg.max_shrink_steps {
                break;
            }
        }
        break;
    }
    (value, msg, steps)
}

/// Extracts replay seeds from a proptest `*-regressions` file: every
/// `cc <hex-digest> ...` line contributes the first 16 hex digits of its
/// digest, folded to a `u64`. Missing files yield an empty corpus (the
/// file is an optional artifact, not an input contract).
pub fn corpus_from_proptest_file(path: &str) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| l.trim().strip_prefix("cc "))
        .filter_map(|rest| {
            let digest: String = rest
                .chars()
                .take_while(|c| c.is_ascii_hexdigit())
                .take(16)
                .collect();
            u64::from_str_radix(&digest, 16).ok()
        })
        .collect()
}

/// Asserts a condition inside a property; on failure returns
/// `Err(String)` naming the condition and location.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed at {}:{}: {}",
                file!(),
                line!(),
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed at {}:{}: {}",
                file!(),
                line!(),
                format!($($fmt)+)
            ));
        }
    };
}

/// Asserts equality inside a property; on failure returns `Err(String)`
/// with both values.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed at {}:{}: {:?} != {:?}",
                file!(),
                line!(),
                a,
                b
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::strategy::*;
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0u32);
        let cfg = Config {
            cases: 50,
            ..Config::default()
        };
        check_with(&cfg, &[1, 2], "always_true", u64_range(0..100), |_| {
            count.set(count.get() + 1);
            Ok(())
        });
        // 2 corpus cases + 50 novel.
        assert_eq!(count.get(), 52);
    }

    #[test]
    fn failing_property_shrinks_to_boundary() {
        let result = std::panic::catch_unwind(|| {
            check("fails_above_17", u64_range(0..1000), |&v| {
                prop_assert!(v < 18, "{v} too big");
                Ok(())
            });
        });
        let msg = *result
            .expect_err("must fail")
            .downcast::<String>()
            .expect("string panic");
        // Halving shrink lands exactly on the smallest failing value.
        assert!(msg.contains("shrunk"), "{msg}");
        assert!(msg.contains(": 18\n"), "not minimal: {msg}");
    }

    #[test]
    fn vec_shrinks_to_minimal_length() {
        let result = std::panic::catch_unwind(|| {
            check(
                "fails_when_len_ge_3",
                vec_of(u64_range(0..10), 0..20),
                |xs| {
                    prop_assert!(xs.len() < 3);
                    Ok(())
                },
            );
        });
        let msg = *result
            .expect_err("must fail")
            .downcast::<String>()
            .expect("string panic");
        assert!(
            msg.contains("shrunk") && msg.contains("[0, 0, 0]"),
            "vec not minimized: {msg}"
        );
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let mut a = Rng::seed_from_u64(123);
        let mut b = Rng::seed_from_u64(123);
        let s = tuple2(u64_range(0..1_000_000), f64_range(0.0..1.0));
        for _ in 0..100 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }

    #[test]
    fn same_config_sees_same_inputs() {
        let run = || {
            let inputs = std::cell::RefCell::new(Vec::new());
            let cfg = Config {
                cases: 20,
                ..Config::default()
            };
            check_with(&cfg, &[7], "capture", u64_range(0..1 << 40), |&v| {
                inputs.borrow_mut().push(v);
                Ok(())
            });
            inputs.into_inner()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn knobs_are_parsed_strictly() {
        let cases = |v| parse_knob("PROFESS_CHECK_CASES", v, 256, 1..=u32::MAX);
        assert_eq!(cases(None), Ok(256));
        assert_eq!(cases(Some("64")), Ok(64));
        assert_eq!(cases(Some(" 4294967295 ")), Ok(u32::MAX));
        for bad in ["0", "4294967296", "abc", "", "-1", "1.5"] {
            let err = cases(Some(bad)).expect_err(bad);
            assert!(
                err.starts_with(&format!("PROFESS_CHECK_CASES={bad}:")),
                "{err}"
            );
        }
        let seed = |v| parse_knob("PROFESS_CHECK_SEED", v, 7u64, 0..=u64::MAX);
        assert_eq!(seed(None), Ok(7));
        assert_eq!(seed(Some("0")), Ok(0));
        assert_eq!(seed(Some("18446744073709551615")), Ok(u64::MAX));
        for bad in ["abc", "18446744073709551616", "0x10"] {
            let err = seed(Some(bad)).expect_err(bad);
            assert!(
                err.starts_with(&format!("PROFESS_CHECK_SEED={bad}:")),
                "{err}"
            );
        }
    }

    #[test]
    fn corpus_parser_reads_cc_lines() {
        let dir = std::env::temp_dir().join("profess-check-corpus-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("regressions.txt");
        std::fs::write(
            &path,
            "# comment\ncc 78c854b351b5f88c73de42f13674022082af71e0 # shrinks to x\nnoise\ncc ffff\n",
        )
        .expect("write");
        let seeds = corpus_from_proptest_file(path.to_str().expect("utf8"));
        assert_eq!(seeds, vec![0x78c854b351b5f88c, 0xffff]);
        assert!(corpus_from_proptest_file("/nonexistent/file").is_empty());
    }
}
