//! Set-up and run-loop work counted on the calling thread, in debug
//! builds only.
//!
//! Tests gate set-up and the event loop by the work they do, not the
//! time they take: how often a thread built free-list templates
//! (`alloc.rs`) and computed a configuration fingerprint (`system.rs`),
//! and how many steps `System::run` took, how many channel and core
//! advances they made, how many cores they asked whether their program
//! finished, and how many served data requests had to search the STC
//! for their entry because the way slot their issue found no longer held
//! it (`Stc::peek_at`). A release build keeps no counter and compiles
//! every count to nothing.

#[cfg(debug_assertions)]
use std::cell::Cell;

#[cfg(debug_assertions)]
thread_local! {
    static FREE_LIST_BUILDS: Cell<u64> = const { Cell::new(0) };
    static CONFIG_FINGERPRINTS: Cell<u64> = const { Cell::new(0) };
    static STEPS: Cell<u64> = const { Cell::new(0) };
    static CHANNEL_ADVANCES: Cell<u64> = const { Cell::new(0) };
    static CORE_ADVANCES: Cell<u64> = const { Cell::new(0) };
    static COMPLETION_CHECKS: Cell<u64> = const { Cell::new(0) };
    static STC_SEARCHES: Cell<u64> = const { Cell::new(0) };
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

/// Counts one run-loop step on this thread.
#[inline]
pub(crate) fn count_step() {
    #[cfg(debug_assertions)]
    STEPS.with(|c| c.set(c.get() + 1));
}

/// Counts one channel advance by the run loop on this thread.
#[inline]
pub(crate) fn count_channel_advance() {
    #[cfg(debug_assertions)]
    CHANNEL_ADVANCES.with(|c| c.set(c.get() + 1));
}

/// Counts one core advance by the run loop on this thread.
#[inline]
pub(crate) fn count_core_advance() {
    #[cfg(debug_assertions)]
    CORE_ADVANCES.with(|c| c.set(c.get() + 1));
}

/// Counts one core the run loop asked whether its program finished.
#[inline]
pub(crate) fn count_completion_check() {
    #[cfg(debug_assertions)]
    COMPLETION_CHECKS.with(|c| c.set(c.get() + 1));
}

/// Counts one STC set search by a hinted peek on this thread.
#[inline]
pub(crate) fn count_stc_search() {
    #[cfg(debug_assertions)]
    STC_SEARCHES.with(|c| c.set(c.get() + 1));
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

/// Run-loop steps taken on this thread so far.
#[cfg(debug_assertions)]
pub fn steps() -> u64 {
    STEPS.with(Cell::get)
}

/// Channel advances made by the run loop on this thread so far.
#[cfg(debug_assertions)]
pub fn channel_advances() -> u64 {
    CHANNEL_ADVANCES.with(Cell::get)
}

/// Core advances made by the run loop on this thread so far.
#[cfg(debug_assertions)]
pub fn core_advances() -> u64 {
    CORE_ADVANCES.with(Cell::get)
}

/// Cores the run loop asked whether their program finished, on this
/// thread so far.
#[cfg(debug_assertions)]
pub fn completion_checks() -> u64 {
    COMPLETION_CHECKS.with(Cell::get)
}

/// Hinted STC peeks on this thread so far whose way slot no longer held
/// the group, so that they searched its set.
#[cfg(debug_assertions)]
pub fn stc_searches() -> u64 {
    STC_SEARCHES.with(Cell::get)
}
