//! The ROB-limited out-of-order core timing model.

use std::collections::VecDeque;
use std::fmt;

use profess_metrics::{State, StateCodec};
use profess_obs::Log2Histogram;
use profess_types::clock::ClockSpec;
use profess_types::config::CpuConfig;
use profess_types::Cycle;

use crate::op::{MemOp, MemOpKind, OpSource};

/// Optional per-core profiling histograms, allocated only when the
/// system enables observability (`PROFESS_TRACE`); with them off the
/// timing loop pays one `Option` test per [`CoreSim::advance`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreObs {
    /// ROB occupancy (unretired instructions) sampled at each advance.
    ///
    /// One sample per [`CoreSim::advance`] call, so the distribution is
    /// weighted by calls, not by simulated time: a change to when the run
    /// loop wakes the core (such as sleeping through non-memory gaps)
    /// moves it without any change to the timing model.
    pub rob_occupancy: Log2Histogram,
}

/// A memory request emitted by the core. `id` is the instruction sequence
/// number of the op (unique per program instance) and is echoed back via
/// [`CoreSim::complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreRequest {
    /// Instruction sequence number, used as the completion token.
    pub id: u64,
    /// Load or store.
    pub kind: MemOpKind,
    /// 64 B line index in the program's address space.
    pub line: u64,
}

/// Why the core is not executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitState {
    /// Can make progress now.
    Ready,
    /// Blocked until the given slot (sub-cycle time unit).
    UntilSlot(u64),
    /// Blocked until some memory response arrives (ROB-head load, MSHRs
    /// exhausted, dependent load, or full write buffer).
    OnResponse,
    /// Program complete: source exhausted and all memory drained.
    Finished,
}

#[derive(Debug, Clone, Copy, Default)]
struct InflightLoad {
    seq: u64,
    done: Option<u64>, // completion slot
}

#[derive(Debug, Clone, Copy, Default)]
struct PendingOp {
    op: MemOp,
    gap_left: u32,
}

/// One core executing one program instance.
///
/// Time is tracked in *slots*: one slot is one retire opportunity, i.e.
/// `1 / width` core cycles or `1 / (width * core_mult)` memory cycles. All
/// public interfaces use memory [`Cycle`]s.
pub struct CoreSim {
    source: Box<dyn OpSource>,
    rob: u64,
    mshrs: usize,
    wb_cap: usize,
    width: u64,
    spmc: u64, // slots per memory cycle
    exec_slot: u64,
    exec_seq: u64,
    pending: Option<PendingOp>,
    inflight: VecDeque<InflightLoad>,
    outstanding: usize,
    last_load: Option<InflightLoad>,
    wb_used: usize,
    wait: WaitState,
    exhausted: bool,
    finish_slot: Option<u64>,
    instance_start_slot: u64,
    loads_issued: u64,
    stores_issued: u64,
    /// Ops drawn from `source` for the current program instance; lets a
    /// snapshot restore re-position a regenerated source by replay.
    ops_consumed: u64,
    obs: Option<Box<CoreObs>>,
}

impl fmt::Debug for CoreSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoreSim")
            .field("exec_seq", &self.exec_seq)
            .field("exec_slot", &self.exec_slot)
            .field("outstanding", &self.outstanding)
            .field("wait", &self.wait)
            .finish_non_exhaustive()
    }
}

impl CoreSim {
    /// Creates a core running the program produced by `source`.
    pub fn new(cfg: &CpuConfig, clock: &ClockSpec, source: Box<dyn OpSource>) -> Self {
        CoreSim {
            source,
            rob: cfg.rob as u64,
            mshrs: cfg.mshrs,
            wb_cap: cfg.write_buffer,
            width: u64::from(cfg.width),
            spmc: u64::from(cfg.width) * u64::from(clock.core_mult),
            exec_slot: 0,
            exec_seq: 0,
            pending: None,
            inflight: VecDeque::new(),
            outstanding: 0,
            last_load: None,
            wb_used: 0,
            wait: WaitState::Ready,
            exhausted: false,
            finish_slot: None,
            instance_start_slot: 0,
            loads_issued: 0,
            stores_issued: 0,
            ops_consumed: 0,
            obs: None,
        }
    }

    /// Enables per-core profiling histograms (off by default).
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(Box::default());
        }
    }

    /// Takes the profiling histograms, leaving observability disabled.
    pub fn take_obs(&mut self) -> Option<Box<CoreObs>> {
        self.obs.take()
    }

    /// Replaces the program (restart for multiprogram runs).
    ///
    /// # Panics
    ///
    /// Panics unless the previous program fully finished (no outstanding
    /// memory traffic), which the system layer guarantees by restarting
    /// only finished programs.
    pub fn restart(&mut self, source: Box<dyn OpSource>) {
        assert!(
            self.is_finished(),
            "restart requires a fully drained program"
        );
        self.source = source;
        self.exec_seq = 0;
        self.pending = None;
        self.inflight.clear();
        self.outstanding = 0;
        self.last_load = None;
        self.wait = WaitState::Ready;
        self.exhausted = false;
        self.finish_slot = None;
        self.ops_consumed = 0;
        // exec_slot and the issue counters carry across restarts: the core
        // keeps running in the same time base. IPC accounting restarts
        // from the current slot.
        self.instance_start_slot = self.exec_slot;
    }

    /// Installs `source` as the op stream without touching timing state:
    /// snapshot restore installs a fresh regeneration of the captured
    /// program, which loading then fast-forwards (see the [`State`] impl).
    pub fn set_source(&mut self, source: Box<dyn OpSource>) {
        self.source = source;
    }

    /// Instructions executed so far (current program instance).
    pub fn instructions(&self) -> u64 {
        self.exec_seq
    }

    /// Loads issued to memory so far (across restarts).
    pub fn loads_issued(&self) -> u64 {
        self.loads_issued
    }

    /// Stores issued to memory so far (across restarts).
    pub fn stores_issued(&self) -> u64 {
        self.stores_issued
    }

    /// Current wait state.
    pub fn wait_state(&self) -> WaitState {
        self.wait
    }

    /// `true` once the program is exhausted and all its memory traffic has
    /// drained.
    #[inline]
    pub fn is_finished(&self) -> bool {
        matches!(self.wait, WaitState::Finished)
    }

    /// The slot at which the last instruction finished (set when the
    /// program completes).
    pub fn finish_slot(&self) -> Option<u64> {
        self.finish_slot
    }

    /// Committed IPC of the current program instance: instructions per
    /// *core* cycle up to the finish slot (or the current slot if still
    /// running).
    pub fn ipc(&self) -> f64 {
        let slot = self
            .finish_slot
            .unwrap_or(self.exec_slot)
            .saturating_sub(self.instance_start_slot)
            .max(1);
        let core_cycles = slot as f64 / self.width as f64;
        self.exec_seq as f64 / core_cycles
    }

    /// Core cycles consumed by the current program instance so far (or to
    /// completion once finished).
    pub fn instance_core_cycles(&self) -> u64 {
        let slot = self
            .finish_slot
            .unwrap_or(self.exec_slot)
            .saturating_sub(self.instance_start_slot);
        slot / self.width
    }

    /// Memory cycle corresponding to a slot (rounded up).
    fn slot_to_cycle(&self, slot: u64) -> Cycle {
        Cycle(slot.div_ceil(self.spmc))
    }

    /// Sequence number of the newest instruction that has retired: the
    /// instruction just before the oldest incomplete load, or everything
    /// executed if no load is outstanding at the ROB head.
    fn retired_seq(&self) -> u64 {
        match self.inflight.front() {
            Some(l) => l.seq - 1,
            None => self.exec_seq,
        }
    }

    /// Pops one completed load from the ROB head to make room, charging
    /// its completion time to the execution clock (the ROB was full, so
    /// execution could not proceed past this retirement). Returns `false`
    /// if the head load is still outstanding.
    fn pop_head_for_space(&mut self) -> bool {
        match self.inflight.front().and_then(|l| l.done) {
            Some(d) => {
                self.inflight.pop_front();
                self.exec_slot = self.exec_slot.max(d);
                true
            }
            None => false,
        }
    }

    /// Drains completed loads at program end, charging their completion
    /// times (the program is not finished before its last load returns).
    fn drain_done_loads(&mut self) {
        while let Some(d) = self.inflight.front().and_then(|l| l.done) {
            self.inflight.pop_front();
            self.exec_slot = self.exec_slot.max(d);
        }
    }

    /// Delivers a memory response for request `id` at memory cycle `at`.
    #[inline]
    pub fn complete(&mut self, id: u64, at: Cycle) {
        let slot = at.raw() * self.spmc;
        if let Some(l) = self.inflight.iter_mut().find(|l| l.seq == id) {
            debug_assert!(l.done.is_none(), "duplicate completion for load {id}");
            l.done = Some(slot);
            self.outstanding -= 1;
        } else {
            // A store leaving the write buffer.
            debug_assert!(self.wb_used > 0, "store completion with empty buffer");
            self.wb_used -= 1;
        }
        if let Some(ll) = &mut self.last_load {
            if ll.seq == id {
                ll.done = Some(slot);
            }
        }
        if matches!(self.wait, WaitState::OnResponse) {
            self.wait = WaitState::Ready;
        }
    }

    /// Advances execution up to memory cycle `now`, appending any issued
    /// memory requests to `out`.
    pub fn advance(&mut self, now: Cycle, out: &mut Vec<CoreRequest>) {
        if self.is_finished() {
            return;
        }
        let occ = self.exec_seq - self.retired_seq();
        if let Some(obs) = self.obs.as_mut() {
            obs.rob_occupancy.record(occ);
        }
        let now_slot = now.raw().saturating_mul(self.spmc);
        loop {
            if self.exhausted && self.pending.is_none() {
                self.drain_done_loads();
                if self.inflight.is_empty() {
                    if self.finish_slot.is_none() {
                        self.finish_slot = Some(self.exec_slot);
                    }
                    if self.wb_used == 0 {
                        self.wait = WaitState::Finished;
                    } else {
                        self.wait = WaitState::OnResponse;
                    }
                } else {
                    self.wait = WaitState::OnResponse;
                }
                return;
            }
            // Fetch the next op if needed.
            if self.pending.is_none() {
                match self.source.next_op() {
                    Some(op) => {
                        self.ops_consumed += 1;
                        self.pending = Some(PendingOp {
                            op,
                            gap_left: op.gap,
                        })
                    }
                    None => {
                        self.exhausted = true;
                        continue;
                    }
                }
            }
            // Execute the gap (non-memory instructions).
            let gap_left = self.pending.as_ref().map_or(0, |p| p.gap_left);
            if gap_left > 0 {
                let rob_space = self.rob - (self.exec_seq - self.retired_seq());
                if self.exec_slot >= now_slot {
                    // Until the gap ends or the ROB fills, execution only
                    // retires non-memory instructions: sleep to the first
                    // slot at which the memory op can issue or the ROB is
                    // full.
                    let run = u64::from(gap_left).min(rob_space);
                    self.wait = WaitState::UntilSlot(self.exec_slot + run + 1);
                    return;
                }
                if rob_space == 0 {
                    // ROB full: retire the head load (charging its
                    // completion time) or stall until it returns.
                    if self.pop_head_for_space() {
                        continue;
                    }
                    self.wait = WaitState::OnResponse;
                    return;
                }
                let n = u64::from(gap_left)
                    .min(now_slot - self.exec_slot)
                    .min(rob_space);
                self.exec_slot += n;
                self.exec_seq += n;
                #[expect(
                    clippy::expect_used,
                    reason = "state-machine invariant: Executing implies a pending op"
                )]
                let pending = self.pending.as_mut().expect("pending op");
                pending.gap_left -= n as u32;
                continue;
            }
            // Execute the memory op itself (one instruction).
            if self.exec_slot >= now_slot {
                self.wait = WaitState::UntilSlot(self.exec_slot + 1);
                return;
            }
            let rob_space = self.rob - (self.exec_seq - self.retired_seq());
            if rob_space == 0 {
                if self.pop_head_for_space() {
                    continue;
                }
                self.wait = WaitState::OnResponse;
                return;
            }
            #[expect(
                clippy::expect_used,
                reason = "state-machine invariant: Executing implies a pending op"
            )]
            let op = self.pending.as_ref().expect("pending op").op;
            match op.kind {
                MemOpKind::Load => {
                    if self.outstanding >= self.mshrs {
                        self.wait = WaitState::OnResponse;
                        return;
                    }
                    if op.dependent {
                        match self.last_load {
                            Some(InflightLoad { done: None, .. }) => {
                                self.wait = WaitState::OnResponse;
                                return;
                            }
                            Some(InflightLoad { done: Some(d), .. }) => {
                                self.exec_slot = self.exec_slot.max(d);
                                if self.exec_slot >= now_slot {
                                    self.wait = WaitState::UntilSlot(self.exec_slot + 1);
                                    return;
                                }
                            }
                            None => {}
                        }
                    }
                    self.exec_seq += 1;
                    self.exec_slot += 1;
                    let load = InflightLoad {
                        seq: self.exec_seq,
                        done: None,
                    };
                    self.inflight.push_back(load);
                    self.last_load = Some(load);
                    self.outstanding += 1;
                    self.loads_issued += 1;
                    out.push(CoreRequest {
                        id: self.exec_seq,
                        kind: MemOpKind::Load,
                        line: op.line,
                    });
                }
                MemOpKind::Store => {
                    if self.wb_used >= self.wb_cap {
                        self.wait = WaitState::OnResponse;
                        return;
                    }
                    self.exec_seq += 1;
                    self.exec_slot += 1;
                    self.wb_used += 1;
                    self.stores_issued += 1;
                    out.push(CoreRequest {
                        id: self.exec_seq,
                        kind: MemOpKind::Store,
                        line: op.line,
                    });
                }
            }
            self.pending = None;
        }
    }

    /// The next memory cycle at which the core can make progress on its
    /// own, or [`Cycle::NEVER`] if it waits for a memory response (or has
    /// finished).
    #[inline]
    pub fn next_event(&self, now: Cycle) -> Cycle {
        match self.wait {
            WaitState::Ready => now + 1,
            WaitState::UntilSlot(s) => self.slot_to_cycle(s).max(now + 1),
            WaitState::OnResponse | WaitState::Finished => Cycle::NEVER,
        }
    }
}

/// The core's mutable execution state.
///
/// The op source travels as a replay position (`ops_consumed`): loading
/// fast-forwards the installed source by it, so install a fresh
/// regeneration of the captured program first
/// ([`CoreSim::set_source`]). Configuration-derived fields (`rob`,
/// `mshrs`, `wb_cap`, `width`, `spmc`) and the profiling histograms
/// (`obs`) are excluded. A source that runs dry before the replay
/// position is an error: the regenerated program differs from the
/// captured one.
impl State for CoreSim {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("ops_consumed", &mut self.ops_consumed)?;
        if c.is_load() {
            for i in 0..self.ops_consumed {
                if self.source.next_op().is_none() {
                    return Err(format!(
                        "op source ran dry at op {i} of {}: regenerated program differs from the captured one",
                        self.ops_consumed
                    ));
                }
            }
        }
        c.field("exec_slot", &mut self.exec_slot)?;
        c.field("exec_seq", &mut self.exec_seq)?;
        c.field("pending", &mut self.pending)?;
        c.field("inflight", &mut self.inflight)?;
        c.field("outstanding", &mut self.outstanding)?;
        c.field("last_load", &mut self.last_load)?;
        c.field("wb_used", &mut self.wb_used)?;
        let (mut wait_kind, mut wait_slot) = match self.wait {
            WaitState::Ready => (0u64, 0),
            WaitState::UntilSlot(s) => (1, s),
            WaitState::OnResponse => (2, 0),
            WaitState::Finished => (3, 0),
        };
        c.field("wait_kind", &mut wait_kind)?;
        c.field("wait_slot", &mut wait_slot)?;
        self.wait = match wait_kind {
            0 => WaitState::Ready,
            1 => WaitState::UntilSlot(wait_slot),
            2 => WaitState::OnResponse,
            3 => WaitState::Finished,
            k => return Err(format!("wait_kind: unknown value {k}")),
        };
        c.field("exhausted", &mut self.exhausted)?;
        c.field("finish_slot", &mut self.finish_slot)?;
        c.field("instance_start_slot", &mut self.instance_start_slot)?;
        c.field("loads_issued", &mut self.loads_issued)?;
        c.field("stores_issued", &mut self.stores_issued)
    }
}

impl State for PendingOp {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("gap", &mut self.op.gap)?;
        c.flag(
            "store",
            &mut self.op.kind,
            [MemOpKind::Load, MemOpKind::Store],
        )?;
        c.field("line", &mut self.op.line)?;
        c.field("dependent", &mut self.op.dependent)?;
        c.field("gap_left", &mut self.gap_left)
    }
}

impl State for InflightLoad {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("seq", &mut self.seq)?;
        c.field("done", &mut self.done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profess_metrics::Json;

    fn save(core: &mut CoreSim) -> Json {
        StateCodec::save(core).expect("a core always saves")
    }

    /// A fresh core running `source`, loaded from `snap`.
    fn restored(snap: &Json, source: Box<dyn OpSource>) -> Result<CoreSim, String> {
        let mut core = CoreSim::new(&cfg(), &ClockSpec::paper(), source);
        StateCodec::load(&mut core, snap)?;
        Ok(core)
    }

    fn cfg() -> CpuConfig {
        CpuConfig {
            num_cores: 1,
            rob: 256,
            width: 4,
            mshrs: 16,
            write_buffer: 64,
        }
    }

    fn scripted(ops: Vec<MemOp>) -> Box<dyn OpSource> {
        let mut iter = ops.into_iter();
        Box::new(move || iter.next())
    }

    fn load(gap: u32, line: u64) -> MemOp {
        MemOp {
            gap,
            kind: MemOpKind::Load,
            line,
            dependent: false,
        }
    }

    fn dep_load(gap: u32, line: u64) -> MemOp {
        MemOp {
            gap,
            kind: MemOpKind::Load,
            line,
            dependent: true,
        }
    }

    fn store(gap: u32, line: u64) -> MemOp {
        MemOp {
            gap,
            kind: MemOpKind::Store,
            line,
            dependent: false,
        }
    }

    /// Runs the core against a fixed-latency memory; returns (core, issued
    /// request log, finish cycle).
    fn run_fixed_latency(
        cfg: &CpuConfig,
        ops: Vec<MemOp>,
        latency: u64,
    ) -> (CoreSim, Vec<(Cycle, CoreRequest)>, Cycle) {
        let clock = ClockSpec::paper();
        let mut core = CoreSim::new(cfg, &clock, scripted(ops));
        let mut log = Vec::new();
        let mut pending: Vec<(Cycle, u64)> = Vec::new(); // (done, id)
        let mut now = Cycle(0);
        for _ in 0..1_000_000 {
            if core.is_finished() {
                break;
            }
            let mut out = Vec::new();
            core.advance(now, &mut out);
            for r in out {
                log.push((now, r));
                pending.push((now + latency, r.id));
            }
            // Next event: core's own or earliest memory completion.
            let mut next = core.next_event(now);
            for (d, _) in &pending {
                next = next.min(*d);
            }
            if next == Cycle::NEVER {
                break;
            }
            now = next;
            let mut i = 0;
            while i < pending.len() {
                if pending[i].0 <= now {
                    let (at, id) = pending.swap_remove(i);
                    core.complete(id, at);
                } else {
                    i += 1;
                }
            }
        }
        // Final drain.
        let mut out = Vec::new();
        core.advance(now, &mut out);
        (core, log, now)
    }

    #[test]
    fn pure_compute_ipc_is_width() {
        // 4000 instructions, one trailing cheap load to carry the gap.
        let ops = vec![load(4000, 0)];
        let (core, _, _) = run_fixed_latency(&cfg(), ops, 1);
        assert_eq!(core.instructions(), 4001);
        // IPC ~= 4 (width); the single load adds negligible time.
        assert!(core.ipc() > 3.9, "ipc = {}", core.ipc());
    }

    #[test]
    fn independent_loads_overlap() {
        // Two independent loads far apart in memory: total time ~= one
        // latency, not two.
        let lat = 100;
        let ops = vec![load(0, 1), load(0, 2)];
        let (_, log, finish) = run_fixed_latency(&cfg(), ops, lat);
        assert_eq!(log.len(), 2);
        assert!(
            finish.raw() < 2 * lat,
            "independent loads did not overlap: {finish}"
        );
    }

    #[test]
    fn dependent_loads_serialize() {
        let lat = 100;
        let ops = vec![load(0, 1), dep_load(0, 2), dep_load(0, 3)];
        let (_, log, finish) = run_fixed_latency(&cfg(), ops, lat);
        assert_eq!(log.len(), 3);
        assert!(
            finish.raw() >= 3 * lat,
            "dependent loads overlapped: {finish}"
        );
        // Issue times are staggered by the latency.
        assert!(log[1].0.raw() >= lat);
        assert!(log[2].0.raw() >= 2 * lat);
    }

    #[test]
    fn mshr_limit_caps_outstanding() {
        let mut c = cfg();
        c.mshrs = 2;
        let ops = (0..8).map(|i| load(0, i)).collect();
        let lat = 50;
        let (_, log, _) = run_fixed_latency(&c, ops, lat);
        assert_eq!(log.len(), 8);
        // With 2 MSHRs and latency 50, at most 2 issues before cycle 50.
        let early = log.iter().filter(|(t, _)| t.raw() < lat).count();
        assert!(early <= 2, "{early} loads issued with 2 MSHRs");
    }

    #[test]
    fn rob_limits_runahead() {
        // A long-latency load followed by more instructions than the ROB
        // holds: execution must stall until the load returns.
        let mut c = cfg();
        c.rob = 64;
        let lat = 1000;
        let ops = vec![load(0, 1), load(1000, 2)];
        let (_, log, _) = run_fixed_latency(&c, ops, lat);
        // Second load cannot issue before the first returns (its gap alone
        // exceeds the ROB), so its issue time is >= lat.
        assert!(log[1].0.raw() >= lat, "ROB did not limit run-ahead");
    }

    #[test]
    fn rob_allows_runahead_within_window() {
        // Gap smaller than ROB: the second load issues long before the
        // first completes.
        let lat = 1000;
        let ops = vec![load(0, 1), load(100, 2)];
        let (_, log, _) = run_fixed_latency(&cfg(), ops, lat);
        assert!(
            log[1].0.raw() < lat / 2,
            "second load delayed to {}",
            log[1].0
        );
    }

    #[test]
    fn stores_do_not_block_until_buffer_full() {
        let mut c = cfg();
        c.write_buffer = 4;
        let lat = 200;
        let ops = (0..8).map(|i| store(0, i)).collect();
        let (_, log, _) = run_fixed_latency(&c, ops, lat);
        let early = log.iter().filter(|(t, _)| t.raw() < lat).count();
        assert_eq!(early, 4, "write buffer should admit exactly 4 stores");
    }

    #[test]
    fn finishes_and_reports_ipc() {
        let ops = vec![load(10, 1), store(10, 2), load(10, 3)];
        let (core, _, _) = run_fixed_latency(&cfg(), ops, 20);
        assert!(core.is_finished());
        assert_eq!(core.instructions(), 33);
        assert!(core.ipc() > 0.0);
        assert_eq!(core.loads_issued(), 2);
        assert_eq!(core.stores_issued(), 1);
        assert!(core.finish_slot().is_some());
    }

    #[test]
    fn restart_runs_second_program() {
        let clock = ClockSpec::paper();
        let mut core = CoreSim::new(&cfg(), &clock, scripted(vec![load(5, 1)]));
        let mut out = Vec::new();
        core.advance(Cycle(10), &mut out);
        assert_eq!(out.len(), 1);
        core.complete(out[0].id, Cycle(12));
        core.advance(Cycle(13), &mut out);
        assert!(core.is_finished());
        core.restart(scripted(vec![load(5, 9)]));
        assert!(!core.is_finished());
        let mut out2 = Vec::new();
        core.advance(Cycle(30), &mut out2);
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].line, 9);
    }

    #[test]
    #[should_panic(expected = "restart requires")]
    fn restart_unfinished_panics() {
        let clock = ClockSpec::paper();
        let mut core = CoreSim::new(&cfg(), &clock, scripted(vec![load(5, 1)]));
        core.restart(scripted(vec![]));
    }

    #[test]
    fn obs_histogram_samples_rob_occupancy() {
        let clock = ClockSpec::paper();
        let mut core = CoreSim::new(&cfg(), &clock, scripted(vec![load(10, 1)]));
        assert!(core.take_obs().is_none(), "obs is off by default");
        core.enable_obs();
        let mut out = Vec::new();
        core.advance(Cycle(10), &mut out);
        core.advance(Cycle(20), &mut out);
        let obs = core.take_obs().expect("obs enabled");
        assert_eq!(obs.rob_occupancy.count(), 2);
        // The second sample sees the unretired in-flight load.
        assert!(obs.rob_occupancy.max() >= 1);
    }

    /// Mid-run snapshot → restore into a fresh core (with a regenerated
    /// source) must continue identically: same requests, same IPC, same
    /// final serialized state.
    #[test]
    fn snapshot_restore_resumes_identically() {
        let clock = ClockSpec::paper();
        let ops: Vec<MemOp> = (0..20)
            .map(|i| match i % 3 {
                0 => load(7, i),
                1 => dep_load(3, i),
                _ => store(5, i),
            })
            .collect();
        let mut core = CoreSim::new(&cfg(), &clock, scripted(ops.clone()));
        let mut issued = Vec::new();
        // Advance partway with a fixed 40-cycle latency memory.
        let mut pending: Vec<(Cycle, u64)> = Vec::new();
        let mut now = Cycle(0);
        for _ in 0..6 {
            let mut out = Vec::new();
            core.advance(now, &mut out);
            for r in out {
                issued.push(r);
                pending.push((now + 40, r.id));
            }
            let mut next = core.next_event(now);
            for (d, _) in &pending {
                next = next.min(*d);
            }
            if next == Cycle::NEVER {
                break;
            }
            now = next;
            let mut i = 0;
            while i < pending.len() {
                if pending[i].0 <= now {
                    let (at, id) = pending.swap_remove(i);
                    core.complete(id, at);
                } else {
                    i += 1;
                }
            }
        }

        let snap = save(&mut core);
        let mut restored = restored(
            &Json::parse(&snap.to_string()).expect("parse"),
            scripted(ops.clone()),
        )
        .expect("restore");
        assert_eq!(save(&mut restored).to_string(), snap.to_string());

        // Drive both to completion with the same memory and compare.
        let drive = |core: &mut CoreSim, mut pending: Vec<(Cycle, u64)>, mut now: Cycle| {
            let mut log = Vec::new();
            for _ in 0..100_000 {
                if core.is_finished() {
                    break;
                }
                let mut out = Vec::new();
                core.advance(now, &mut out);
                for r in out {
                    log.push((now, r));
                    pending.push((now + 40, r.id));
                }
                let mut next = core.next_event(now);
                for (d, _) in &pending {
                    next = next.min(*d);
                }
                if next == Cycle::NEVER {
                    break;
                }
                now = next;
                let mut i = 0;
                while i < pending.len() {
                    if pending[i].0 <= now {
                        let (at, id) = pending.swap_remove(i);
                        core.complete(id, at);
                    } else {
                        i += 1;
                    }
                }
            }
            log
        };
        let log_a = drive(&mut core, pending.clone(), now);
        let log_b = drive(&mut restored, pending, now);
        assert_eq!(log_a, log_b, "restored core diverged");
        assert!(core.is_finished() && restored.is_finished());
        assert_eq!(save(&mut core).to_string(), save(&mut restored).to_string());
        assert_eq!(core.ipc(), restored.ipc());
    }

    #[test]
    fn restore_rejects_short_source_and_malformed_state() {
        let clock = ClockSpec::paper();
        let mut core = CoreSim::new(&cfg(), &clock, scripted(vec![load(2, 1), load(2, 2)]));
        let mut out = Vec::new();
        core.advance(Cycle(50), &mut out);
        let snap = save(&mut core);
        assert!(snap.get("ops_consumed").and_then(Json::as_u64).unwrap() > 0);

        // A regenerated source with fewer ops than were consumed is a
        // different program: restore must fail, not silently desync.
        let err = restored(&snap, scripted(Vec::new())).unwrap_err();
        assert!(err.contains("ran dry"), "{err}");

        // A missing field is reported by name.
        let mut broken = snap.clone();
        if let Json::Obj(pairs) = &mut broken {
            pairs.retain(|(k, _)| k != "exec_slot");
        }
        let err = restored(&broken, scripted(vec![load(2, 1), load(2, 2)])).unwrap_err();
        assert!(err.contains("exec_slot"), "{err}");
    }

    #[test]
    fn ipc_degrades_with_latency() {
        let ops: Vec<MemOp> = (0..50).map(|i| dep_load(30, i)).collect();
        let (fast, _, _) = run_fixed_latency(&cfg(), ops.clone(), 30);
        let (slow, _, _) = run_fixed_latency(&cfg(), ops, 300);
        assert!(
            fast.ipc() > 3.0 * slow.ipc(),
            "fast {} vs slow {}",
            fast.ipc(),
            slow.ipc()
        );
    }
}
