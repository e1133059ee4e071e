//! Core-model work counted on the calling thread, in debug builds only.
//!
//! Tests gate the core model by the work it does, not the time it takes:
//! how many times a core advanced, how many of those advances issued no
//! request, how many memory responses it was delivered, and how many of
//! those woke it: `CoreSim::complete` returned `true`, because the core
//! was blocked on that response or ready. A release build keeps no
//! counter and compiles every count to nothing.

#[cfg(debug_assertions)]
use std::cell::Cell;

#[cfg(debug_assertions)]
thread_local! {
    static ADVANCES: Cell<u64> = const { Cell::new(0) };
    static IDLE_ADVANCES: Cell<u64> = const { Cell::new(0) };
    static COMPLETIONS: Cell<u64> = const { Cell::new(0) };
    static WAKES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one core advance on this thread.
#[inline]
pub(crate) fn count_advance() {
    #[cfg(debug_assertions)]
    ADVANCES.with(|c| c.set(c.get() + 1));
}

/// Counts one core advance on this thread that issued no request.
#[inline]
pub(crate) fn count_idle_advance() {
    #[cfg(debug_assertions)]
    IDLE_ADVANCES.with(|c| c.set(c.get() + 1));
}

/// Counts one memory response delivered to a core on this thread.
#[inline]
pub(crate) fn count_completion() {
    #[cfg(debug_assertions)]
    COMPLETIONS.with(|c| c.set(c.get() + 1));
}

/// Counts one delivered response that woke its core on this thread.
#[inline]
pub(crate) fn count_wake() {
    #[cfg(debug_assertions)]
    WAKES.with(|c| c.set(c.get() + 1));
}

/// Core advances on this thread so far.
#[cfg(debug_assertions)]
pub fn advances() -> u64 {
    ADVANCES.with(Cell::get)
}

/// Core advances on this thread so far that issued no request.
#[cfg(debug_assertions)]
pub fn idle_advances() -> u64 {
    IDLE_ADVANCES.with(Cell::get)
}

/// Memory responses delivered to cores on this thread so far.
#[cfg(debug_assertions)]
pub fn completions() -> u64 {
    COMPLETIONS.with(Cell::get)
}

/// Delivered responses that woke their core on this thread so far.
#[cfg(debug_assertions)]
pub fn wakes() -> u64 {
    WAKES.with(Cell::get)
}
