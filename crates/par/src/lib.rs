//! A minimal scoped thread pool with deterministic, input-order result
//! collection (in-tree replacement for `rayon`; the workspace is offline
//! by policy).
//!
//! The simulator's sweeps are embarrassingly parallel: each (policy ×
//! workload × config) simulation is independent and internally
//! deterministic. [`Pool::map`] runs such jobs across OS threads and
//! returns the results **in input order**, so the output of a parallel
//! sweep is byte-identical to the serial one regardless of how the jobs
//! interleave at runtime.
//!
//! Thread count selection ([`Pool::from_env`]): the `PROFESS_THREADS`
//! environment variable if set to a positive integer, else the host's
//! available parallelism, else 1. `PROFESS_THREADS=1` forces fully
//! serial in-caller execution (no worker threads are spawned at all).

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

pub mod process;
pub mod supervise;

pub use process::{fire_worker_fault, run_child, ChildExit};
pub use supervise::{
    panic_failure, CancelToken, Fault, FaultKind, FaultPlan, SuperviseConfig, Supervised, TaskCtx,
    TaskOutcome, FAULT_ENV, FAULT_EXIT_CODE, RETRIES_ENV, TIMED_OUT, TIMEOUT_ENV,
};

use std::sync::atomic::{AtomicUsize, Ordering};

/// The environment variable controlling the default worker count.
pub const THREADS_ENV: &str = "PROFESS_THREADS";

/// Parses a `PROFESS_THREADS`-style value: a positive integer, anything
/// else (including `0`) is rejected.
fn parse_threads(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// The worker count [`Pool::from_env`] uses: `PROFESS_THREADS` if valid,
/// else the host's available parallelism, else 1.
pub fn default_threads() -> usize {
    // The thread count affects scheduling only: sweeps are pinned
    // byte-identical across 1 vs 4 workers.
    std::env::var(THREADS_ENV)
        .ok()
        .as_deref()
        .and_then(parse_threads)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// A fixed-width scoped thread pool.
///
/// The pool holds no threads between calls; each [`Pool::map`] spawns
/// scoped workers, which lets the jobs borrow from the caller's stack
/// (configs, workload tables) without `Arc` plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`default_threads`].
    pub fn from_env() -> Self {
        Pool::new(default_threads())
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item and returns the results in input order.
    ///
    /// Jobs are claimed dynamically (an atomic cursor), so uneven job
    /// lengths balance across workers; each worker records `(index,
    /// result)` pairs and the pairs are merged back into input order, so
    /// scheduling never affects the output.
    ///
    /// # Panics
    ///
    /// Propagates the first observed worker panic.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed(items, |_, item| f(item))
    }

    /// Like [`Pool::map`], but `f` also receives the item's index.
    ///
    /// # Panics
    ///
    /// Propagates the first observed worker panic.
    pub fn map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let f = &f;
        let cursor = &cursor;
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut done: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                return done;
                            }
                            done.push((i, f(i, &items[i])));
                        }
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(pairs) => {
                        for (i, r) in pairs {
                            slots[i] = Some(r);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        #[expect(
            clippy::expect_used,
            reason = "the atomic index counter hands out each slot exactly once"
        )]
        let out = slots
            .into_iter()
            .map(|r| r.expect("every index claimed exactly once"))
            .collect();
        out
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = Pool::new(4).map(&items, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn map_indexed_sees_matching_indices() {
        let items: Vec<u64> = (10..50).collect();
        let out = Pool::new(3).map_indexed(&items, |i, &x| (i, x));
        for (i, &(j, x)) in out.iter().enumerate() {
            assert_eq!(i, j);
            assert_eq!(x, items[i]);
        }
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let items: Vec<u64> = (0..57).collect();
        let serial = Pool::new(1).map(&items, |&x| x.wrapping_mul(0x9E37_79B9));
        for threads in [2, 3, 4, 8] {
            let par = Pool::new(threads).map(&items, |&x| x.wrapping_mul(0x9E37_79B9));
            assert_eq!(par, serial, "{threads} threads diverged from serial");
        }
    }

    #[test]
    fn each_item_processed_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items: Vec<u32> = (0..33).collect();
        let out = Pool::new(4).map(&items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 33);
        assert_eq!(out, items);
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u8, 2];
        assert_eq!(Pool::new(16).map(&items, |&x| x + 1), vec![2, 3]);
    }

    #[test]
    fn empty_input() {
        let items: [u8; 0] = [];
        assert!(Pool::new(4).map(&items, |&x| x).is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let r = std::panic::catch_unwind(|| {
            Pool::new(4).map(&items, |&x| {
                assert!(x != 7, "boom");
                x
            })
        });
        assert!(r.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 2 "), Some(2));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-1"), None);
        assert_eq!(parse_threads("many"), None);
        assert_eq!(parse_threads(""), None);
    }
}
