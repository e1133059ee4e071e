//! Set-up work counted on the calling thread, in debug builds only.
//!
//! Tests gate set-up by the work it does, not the time it takes: how
//! often a thread built free-list templates (`alloc.rs`) and computed a
//! configuration fingerprint (`system.rs`). A release build keeps no
//! counter and compiles every count to nothing.

#[cfg(debug_assertions)]
use std::cell::Cell;

#[cfg(debug_assertions)]
thread_local! {
    static FREE_LIST_BUILDS: Cell<u64> = const { Cell::new(0) };
    static CONFIG_FINGERPRINTS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one free-list template built on this thread.
#[inline]
pub(crate) fn count_free_list_build() {
    #[cfg(debug_assertions)]
    FREE_LIST_BUILDS.with(|c| c.set(c.get() + 1));
}

/// Counts one configuration fingerprint computed on this thread.
#[inline]
pub(crate) fn count_config_fingerprint() {
    #[cfg(debug_assertions)]
    CONFIG_FINGERPRINTS.with(|c| c.set(c.get() + 1));
}

/// Free-list templates built on this thread so far.
#[cfg(debug_assertions)]
pub fn free_list_builds() -> u64 {
    FREE_LIST_BUILDS.with(Cell::get)
}

/// Configuration fingerprints computed on this thread so far.
#[cfg(debug_assertions)]
pub fn config_fingerprints() -> u64 {
    CONFIG_FINGERPRINTS.with(Cell::get)
}
