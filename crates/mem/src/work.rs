//! Scheduler work counted on the calling thread, in debug builds only.
//!
//! Tests gate the FR-FCFS-Cap scheduler by the work it does, not the time
//! it takes: how many picks ran, how many queue entries they scanned,
//! how many bank schedules were built, and how many queue entries a
//! starvation test visited. A release build keeps no counter and
//! compiles every count to nothing.

#[cfg(debug_assertions)]
use std::cell::Cell;

#[cfg(debug_assertions)]
thread_local! {
    static PICKS: Cell<u64> = const { Cell::new(0) };
    static PICK_ENTRIES: Cell<u64> = const { Cell::new(0) };
    static PLANS: Cell<u64> = const { Cell::new(0) };
    static CAP_TEST_VISITS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one FR-FCFS-Cap pick over a queue on this thread.
#[inline]
pub(crate) fn count_pick() {
    #[cfg(debug_assertions)]
    PICKS.with(|c| c.set(c.get() + 1));
}

/// Counts one queue entry a pick examined on this thread.
#[inline]
pub(crate) fn count_pick_entry() {
    #[cfg(debug_assertions)]
    PICK_ENTRIES.with(|c| c.set(c.get() + 1));
}

/// Counts one bank schedule built on this thread.
#[inline]
pub(crate) fn count_plan() {
    #[cfg(debug_assertions)]
    PLANS.with(|c| c.set(c.get() + 1));
}

/// Counts one queue entry visited by a starvation test on this thread:
/// the scheduler's, which scans the entries older than a startable
/// capped row hit, or the scanning reference scheduler's in the unit
/// tests.
#[inline]
pub(crate) fn count_cap_test_visit() {
    #[cfg(debug_assertions)]
    CAP_TEST_VISITS.with(|c| c.set(c.get() + 1));
}

/// FR-FCFS-Cap picks run on this thread so far.
#[cfg(debug_assertions)]
pub fn picks() -> u64 {
    PICKS.with(Cell::get)
}

/// Queue entries examined by picks on this thread so far.
#[cfg(debug_assertions)]
pub fn pick_entries() -> u64 {
    PICK_ENTRIES.with(Cell::get)
}

/// Bank schedules built on this thread so far.
#[cfg(debug_assertions)]
pub fn plans() -> u64 {
    PLANS.with(Cell::get)
}

/// Queue entries visited by starvation scans on this thread so far.
#[cfg(debug_assertions)]
pub fn cap_test_visits() -> u64 {
    CAP_TEST_VISITS.with(Cell::get)
}
