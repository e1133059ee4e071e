//! The shared exit-code taxonomy of the bench binaries (`profess-run`,
//! `profess-validate`), so a CI script can branch on the code alone:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | validation failed (regression, malformed artifact, diff) |
//! | 2    | usage error (bad flags, unreadable config, bad env) |
//! | 3    | an experiment ended with terminally-failed cells |
//!
//! Injected faults are the one exception: a run killed by
//! `PROFESS_FAULT=exit@N` dies with
//! [`profess_par::FAULT_EXIT_CODE`] (86), deliberately outside this
//! range so a test harness can tell an injected death from a real
//! verdict.

/// Success.
pub const OK: i32 = 0;

/// A validation failure: a gated regression, a malformed artifact, a
/// byte-diff mismatch, a conflicting journal entry.
pub const VALIDATION_FAIL: i32 = 1;

/// A usage error: bad arguments or flags, invalid `PROFESS_*`
/// environment values. (An unreadable or malformed *input file* is a
/// validation failure — the invocation was fine, the artifact is not.)
pub const USAGE: i32 = 2;

/// An experiment completed but at least one of its cells failed
/// terminally (a simulator error, retries exhausted, timed out,
/// panicked). `profess-run` names each failed cell on stderr.
pub const SWEEP_FAILURE: i32 = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_stable() {
        assert_eq!(OK, 0);
        assert_eq!(VALIDATION_FAIL, 1);
        assert_eq!(USAGE, 2);
        assert_eq!(SWEEP_FAILURE, 3);
        // The injected-fault code stays outside the taxonomy range.
        assert_eq!(profess_par::FAULT_EXIT_CODE, 86);
    }
}
