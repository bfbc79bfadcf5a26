//! Centralized parsing for `WSM_*` environment knobs.
//!
//! Every tunable in the workspace (`WSM_POOL_THREADS`, `WSM_TREE_FANOUT`,
//! the `WSM_WAL_*` family, and the examples' own knobs)
//! goes through this module instead of hand-rolled
//! `var(..).ok().and_then(parse)` chains.  The difference is observability:
//! an invalid value used to be silently swallowed into the default —
//! `WSM_POOL_THREADS=0` ran on the default pool without a word, a typo'd
//! `WSM_POOL_THREADS=fourteen` benchmarked on the default thread count while
//! the operator believed otherwise.  Here an unparsable or out-of-range
//! value falls back to the default *and warns once per variable* on stderr,
//! naming the variable, the rejected value and the expected form.
//!
//! The module lives in `wsm-sync` because that crate sits below every
//! consumer in the dependency graph; every caller spells it
//! `wsm_sync::env`.

use std::collections::BTreeSet;
use std::str::FromStr;
use std::sync::Mutex;

/// Warns once per variable name for the lifetime of the process.  Repeated
/// lookups of the same bad knob (maps are often constructed in loops) must
/// not spam stderr.
fn warn_once(name: &str, raw: &str, expected: &str) {
    static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
    if warned.insert(name.to_string()) {
        eprintln!(
            "warning: ignoring invalid {name}={raw:?} (expected {expected}); \
             falling back to the default"
        );
    }
}

/// Core of [`parse_with`], split out so the accept/reject/warn logic is unit
/// testable without mutating the process environment (tests run in parallel;
/// `std::env::set_var` would race).  Returns `(value, warned)`.
fn resolve<T>(
    name: &str,
    raw: Option<&str>,
    expected: &str,
    default: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> (T, bool) {
    match raw {
        None => (default, false),
        Some(raw) => match parse(raw) {
            Some(v) => (v, false),
            None => {
                warn_once(name, raw, expected);
                (default, true)
            }
        },
    }
}

/// Reads `name` from the environment through an arbitrary parser.  Unset →
/// `default` silently; set but rejected by `parse` (or not unicode) →
/// `default` with a once-per-variable stderr warning describing `expected`.
///
/// Use this form for enum-like knobs (`WSM_WAL_SYNC=always|batch|off`);
/// numeric knobs have the [`parse`] shorthand.
pub fn parse_with<T>(
    name: &str,
    expected: &str,
    default: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(_)) => {
            warn_once(name, "<non-unicode>", expected);
            default
        }
        Ok(raw) => resolve(name, Some(raw.as_str()), expected, default, parse).0,
    }
}

/// Reads a `FromStr` knob with a validity predicate: the value must both
/// parse and satisfy `valid`, otherwise the default is used and a warning is
/// emitted once.  `expected` names the accepted form in that warning, e.g.
/// `"a shard count >= 1"`.
pub fn parse<T: FromStr>(name: &str, expected: &str, default: T, valid: impl Fn(&T) -> bool) -> T {
    parse_with(name, expected, default, |raw| {
        raw.trim().parse::<T>().ok().filter(|v| valid(v))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_uses_default_without_warning() {
        let (v, warned) = resolve("WSM_TEST_A", None, "a number", 7usize, |r| r.parse().ok());
        assert_eq!(v, 7);
        assert!(!warned);
    }

    #[test]
    fn valid_value_is_accepted() {
        let (v, warned) = resolve("WSM_TEST_B", Some("12"), "a number", 7usize, |r| {
            r.parse().ok()
        });
        assert_eq!(v, 12);
        assert!(!warned);
    }

    #[test]
    fn invalid_value_warns_and_falls_back() {
        let (v, warned) = resolve("WSM_TEST_C", Some("zero"), "a number", 7usize, |r| {
            r.parse().ok()
        });
        assert_eq!(v, 7);
        assert!(warned);
    }

    #[test]
    fn out_of_range_value_warns_and_falls_back() {
        // The WSM_SHARDS=0 shape: parses fine, rejected by the validator.
        let parse = |r: &str| r.parse::<usize>().ok().filter(|&n| n >= 1);
        let (v, warned) = resolve("WSM_TEST_D", Some("0"), "a count >= 1", 1usize, parse);
        assert_eq!(v, 1);
        assert!(warned);
        let (v, warned) = resolve("WSM_TEST_D2", Some("4"), "a count >= 1", 1usize, parse);
        assert_eq!(v, 4);
        assert!(!warned);
    }

    #[test]
    fn warning_fires_once_per_variable() {
        // Both calls report the fallback, but only the first emits (insert
        // returns false the second time); we can only observe the fallback
        // value here, the dedup set is internal — exercise it for coverage.
        for _ in 0..2 {
            let (v, _) = resolve("WSM_TEST_E", Some("junk"), "a number", 3u32, |r| {
                r.parse().ok()
            });
            assert_eq!(v, 3);
        }
        warn_once("WSM_TEST_E", "junk", "a number");
        warn_once("WSM_TEST_E", "junk", "a number");
    }

    #[test]
    fn enum_knob_via_parse_with_shape() {
        let parse = |r: &str| match r {
            "cell" => Some(1),
            "doorbell" => Some(0),
            _ => None,
        };
        assert_eq!(
            resolve("WSM_TEST_F", Some("cell"), "cell|doorbell", 0, parse).0,
            1
        );
        let (v, warned) = resolve("WSM_TEST_F2", Some("Cell"), "cell|doorbell", 0, parse);
        assert_eq!(v, 0);
        assert!(warned);
    }
}
