//! Figures of merit (paper §4.3) and reporting helpers.
//!
//! * **Slowdown** of program *i*: `sdn_i = IPC_SP / IPC_MP` (eq. 1);
//! * **Weighted speedup** (performance): `Σ_i 1 / sdn_i`;
//! * **Unfairness**: `max_i sdn_i` (lower is better; the paper reports
//!   "max slowdown" normalized to the baseline);
//! * **Energy efficiency**: requests served per second per watt, which
//!   equals requests per joule;
//! * Tukey box-plot summaries (quartiles, whiskers, outliers) and the
//!   geometric mean, used by the paper's Figure 5.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod boxplot;
pub mod codec;
pub mod emit;
pub mod table;

pub use boxplot::BoxPlot;
pub use codec::{State, StateCodec};
pub use emit::Json;

/// FNV-1a 64-bit hash: the fingerprint of snapshots, checkpoint journal
/// payloads and the pinned report tests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Slowdown of one program (eq. 1).
///
/// # Panics
///
/// Panics if `ipc_mp` is not positive.
pub fn slowdown(ipc_sp: f64, ipc_mp: f64) -> f64 {
    assert!(ipc_mp > 0.0, "IPC under contention must be positive");
    ipc_sp / ipc_mp
}

/// Weighted speedup of a workload (paper §4.3): `Σ 1/sdn_i`.
pub fn weighted_speedup(slowdowns: &[f64]) -> f64 {
    slowdowns.iter().map(|s| 1.0 / s).sum()
}

/// Unfairness: the maximum slowdown (paper §4.3, after [13, 14]).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn unfairness(slowdowns: &[f64]) -> f64 {
    assert!(!slowdowns.is_empty());
    slowdowns.iter().copied().fold(f64::MIN, f64::max)
}

/// Geometric mean.
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let s: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values");
            x.ln()
        })
        .sum();
    (s / xs.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_known_answers() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn slowdown_basic() {
        assert!((slowdown(2.0, 1.0) - 2.0).abs() < 1e-12);
        assert!((slowdown(1.5, 1.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn slowdown_rejects_zero_ipc() {
        slowdown(1.0, 0.0);
    }

    #[test]
    fn weighted_speedup_of_ideal_workload_is_n() {
        // No slowdown at all: weighted speedup equals the program count.
        let s = weighted_speedup(&[1.0, 1.0, 1.0, 1.0]);
        assert!((s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn unfairness_is_max() {
        assert!((unfairness(&[2.2, 3.7, 2.1]) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stddev_basic() {
        assert_eq!(stddev(&[5.0]), 0.0);
        let s = stddev(&[1.0, 3.0]);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn improving_fairness_and_performance_together() {
        // The paper's point: reducing the max slowdown can *increase*
        // weighted speedup (performance is measured as weighted speedup).
        let before = [3.7, 2.2, 2.2, 2.3];
        let after = [2.8, 2.3, 2.3, 2.3];
        assert!(unfairness(&after) < unfairness(&before));
        assert!(weighted_speedup(&after) > weighted_speedup(&before));
    }
}
