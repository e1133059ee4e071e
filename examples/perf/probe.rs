//! Sampled host-time spans around the calls the simulator makes into its
//! op sources and migration policy, recorded from outside the simulator.
//!
//! Two `Instant` reads cost about as much as a whole `on_access`, so only
//! one call in [`SAMPLE_EVERY`] is timed and the measured cost of an empty
//! span is subtracted from each timed call. Call counts are exact.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use profess::core::policies::{AccessCtx, EvictRecord, PolicyDiagnostics};
use profess::cpu::{MemOp, MemOpKind, OpSource};
use profess::obs::TraceEvent;
use profess::prelude::*;
use profess::types::ids::{ProgramId, SlotIdx};
use profess::types::GroupId;

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// Longest group stream one cell records for the standalone STC replay.
const GROUP_CAP: usize = 1 << 18;

/// Exact call count plus timed samples of one kind of call.
#[derive(Debug, Default)]
pub struct Span {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
}

impl Span {
    #[inline]
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let calls = self.calls.get() + 1;
        self.calls.set(calls);
        if !calls.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.sampled.set(self.sampled.get() + 1);
        self.sampled_ns.set(self.sampled_ns.get() + ns);
        r
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Estimated host time of all calls: the mean timed call, less the
    /// empty-span cost, times the call count.
    pub fn total_ns(&self, empty_span_ns: f64) -> f64 {
        let sampled = self.sampled.get();
        if sampled == 0 {
            return 0.0;
        }
        let mean = self.sampled_ns.get() as f64 / sampled as f64;
        (mean - empty_span_ns).max(0.0) * self.calls.get() as f64
    }
}

/// What one probed cell recorded.
#[derive(Debug, Default)]
pub struct Probe {
    /// `OpSource::next_op` (trace generation).
    pub next_op: Span,
    /// `MigrationPolicy::on_access`.
    pub on_access: Span,
    /// Every other policy hook the run loop calls.
    pub hooks: Span,
    pub loads: Cell<u64>,
    pub stores: Cell<u64>,
    /// `on_stc_evict` calls.
    pub evictions: Cell<u64>,
    /// Swap groups in `on_access` order, for the standalone STC replay.
    pub groups: RefCell<Vec<GroupId>>,
}

/// The host time an empty span reads, in ns: the median over batches of
/// the mean `Instant::now()` → `elapsed()` interval.
pub fn empty_span_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let mut means: Vec<f64> = (0..9)
        .map(|_| {
            let mut ns = 0u128;
            for _ in 0..BATCH {
                let t = Instant::now();
                ns += black_box(t.elapsed()).as_nanos();
            }
            ns as f64 / f64::from(BATCH)
        })
        .collect();
    means.sort_by(f64::total_cmp);
    means[means.len() / 2]
}

/// An op source whose `next_op` calls are counted and sampled.
pub struct ProbedSource<S> {
    inner: S,
    probe: Rc<Probe>,
}

impl<S: OpSource> ProbedSource<S> {
    pub fn new(inner: S, probe: Rc<Probe>) -> Self {
        ProbedSource { inner, probe }
    }
}

impl<S: OpSource> OpSource for ProbedSource<S> {
    fn next_op(&mut self) -> Option<MemOp> {
        let op = self.probe.next_op.time(|| self.inner.next_op());
        match op.map(|o| o.kind) {
            Some(MemOpKind::Load) => self.probe.loads.set(self.probe.loads.get() + 1),
            Some(MemOpKind::Store) => self.probe.stores.set(self.probe.stores.get() + 1),
            None => {}
        }
        op
    }
}

/// A built-in policy whose hooks are counted and sampled; every decision
/// is the wrapped policy's own.
pub struct ProbedPolicy {
    inner: Box<dyn MigrationPolicy>,
    probe: Rc<Probe>,
}

impl ProbedPolicy {
    pub fn new(inner: Box<dyn MigrationPolicy>, probe: Rc<Probe>) -> Self {
        ProbedPolicy { inner, probe }
    }
}

impl MigrationPolicy for ProbedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn write_weight(&self) -> u32 {
        self.probe.hooks.time(|| self.inner.write_weight())
    }

    fn on_access(&mut self, ctx: &mut AccessCtx<'_>) -> Decision {
        let mut groups = self.probe.groups.borrow_mut();
        if groups.len() < GROUP_CAP {
            groups.push(ctx.group);
        }
        drop(groups);
        self.probe.on_access.time(|| self.inner.on_access(ctx))
    }

    fn on_served(&mut self, program: ProgramId, class: RegionClass, from_m1: bool) {
        self.probe
            .hooks
            .time(|| self.inner.on_served(program, class, from_m1))
    }

    fn on_swap(&mut self, promoted: ProgramId, demoted: Option<ProgramId>, private: bool) {
        self.probe
            .hooks
            .time(|| self.inner.on_swap(promoted, demoted, private))
    }

    fn on_stc_evict(&mut self, records: &[EvictRecord]) {
        self.probe.evictions.set(self.probe.evictions.get() + 1);
        self.probe.hooks.time(|| self.inner.on_stc_evict(records))
    }

    fn poll(&mut self, now: Cycle) -> Vec<(GroupId, SlotIdx)> {
        self.probe.hooks.time(|| self.inner.poll(now))
    }

    fn next_poll(&self) -> Option<Cycle> {
        self.inner.next_poll()
    }

    fn diagnostics(&self) -> PolicyDiagnostics {
        self.inner.diagnostics()
    }

    fn set_tracing(&mut self, on: bool) {
        self.inner.set_tracing(on)
    }

    fn drain_trace(&mut self, now: Cycle, out: &mut Vec<TraceEvent>) {
        self.inner.drain_trace(now, out)
    }
}
