//! The ROB-limited out-of-order core timing model.

use std::collections::VecDeque;
use std::fmt;

use profess_metrics::{State, StateCodec};
use profess_obs::Log2Histogram;
use profess_types::clock::ClockSpec;
use profess_types::config::CpuConfig;
use profess_types::geometry::Divisor;
use profess_types::Cycle;

use crate::op::{MemOp, MemOpKind, OpSource};
use crate::work;

/// Optional per-core profiling histograms, allocated only when the
/// run is traced (the system's `TraceConfig`); with them off the timing
/// loop pays one `Option` test per issued memory op.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreObs {
    /// ROB occupancy sampled once per issued memory op: the instructions
    /// executed before the op, counted from the oldest load that is not
    /// done by the op's slot.
    ///
    /// A function of the simulated timeline alone: the loads it counts
    /// as done are the ones whose data arrived by that slot, wherever the
    /// core had retired them, so the histogram does not depend on when
    /// the run loop advances the core.
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
    /// Asleep until the given slot (sub-cycle time unit), at which its
    /// next memory op can issue. Until then the core only runs
    /// non-memory instructions, which read no memory response: a head
    /// load that is done retired when it went to sleep, and the ROB
    /// cannot fill before the slot. A response delivered meanwhile is
    /// read by the advance at the slot, so it does not wake the core.
    UntilSlot(u64),
    /// Blocked until some memory response arrives (ROB-head load, MSHRs
    /// exhausted, dependent load, or full write buffer). A gap that would
    /// fill the ROB behind an outstanding head load blocks here on that
    /// load, and runs its remaining instructions when the load returns.
    OnResponse,
    /// Program complete: source exhausted and all memory drained.
    Finished,
}

/// What a core in [`WaitState::OnResponse`] waits for: the completions
/// that can unblock it. Any other completion leaves its state as it is,
/// so advancing the core on one would change nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Awaits {
    /// The load with this sequence number: the ROB head when the ROB is
    /// full, or the last load when a dependent load waits for its data.
    Load(u64),
    /// Any load, freeing an MSHR.
    AnyLoad,
    /// Any store, freeing a write-buffer entry.
    AnyStore,
    /// Any completion: the program drains its last requests, or the core
    /// was restored from a snapshot, which does not record what it waits
    /// for.
    Any,
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
///
/// The core is event-driven: it asks to be advanced only at a slot where
/// its next memory op can issue ([`WaitState::UntilSlot`]) or at a memory
/// response it waits for ([`CoreSim::complete`] returns `true`). Advancing
/// it at any other cycle as well changes none of its outputs: the
/// requests, their issue cycles, and its instruction count, cycles and
/// IPC at the end of the program. It may change the instructions counted
/// so far, since an early advance runs part of a non-memory gap ahead.
pub struct CoreSim {
    source: Box<dyn OpSource>,
    rob: u64,
    mshrs: usize,
    wb_cap: usize,
    width: u64,
    spmc: Divisor, // slots per memory cycle
    exec_slot: u64,
    exec_seq: u64,
    pending: Option<PendingOp>,
    inflight: VecDeque<InflightLoad>,
    // Derived from `inflight`, never serialized: `load_index[seq & mask]`
    // is the ordinal of the last load issued with those low `seq` bits,
    // where the load at `inflight[i]` has ordinal `next_ord - len + i`
    // (wrapping). Every load in flight lies within one ROB of `exec_seq`,
    // and the table has at least `rob` entries, so no two loads in flight
    // share an entry; an entry another request left behind fails the
    // `seq` check in `load_pos`.
    load_index: Box<[u32]>,
    next_ord: u32,
    outstanding: usize,
    last_load: Option<InflightLoad>,
    wb_used: usize,
    wait: WaitState,
    // Meaningful only while `wait` is `OnResponse`; never serialized.
    awaits: Awaits,
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
            spmc: Divisor::new(u64::from(cfg.width) * u64::from(clock.core_mult)),
            exec_slot: 0,
            exec_seq: 0,
            pending: None,
            inflight: VecDeque::new(),
            load_index: vec![0; cfg.rob.next_power_of_two()].into_boxed_slice(),
            next_ord: 0,
            outstanding: 0,
            last_load: None,
            wb_used: 0,
            wait: WaitState::Ready,
            awaits: Awaits::Any,
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
        self.awaits = Awaits::Any;
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
        Cycle(self.spmc.div_ceil(slot))
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

    /// Free ROB entries: the ROB holds every instruction from the oldest
    /// unretired one on.
    fn rob_space(&self) -> u64 {
        self.rob - (self.exec_seq - self.retired_seq())
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

    /// Pops the done loads at the ROB head, charging their completion
    /// times: at program end, which is not before the last load returns,
    /// and at a gap sleep, where each was done by `exec_slot` and so is
    /// charged nothing.
    fn drain_done_loads(&mut self) {
        while let Some(d) = self.inflight.front().and_then(|l| l.done) {
            self.inflight.pop_front();
            self.exec_slot = self.exec_slot.max(d);
        }
    }

    /// Appends a load to the in-flight list and indexes it by `seq`.
    fn push_load(&mut self, load: InflightLoad) {
        let mask = self.load_index.len() as u64 - 1;
        self.load_index[(load.seq & mask) as usize] = self.next_ord;
        self.next_ord = self.next_ord.wrapping_add(1);
        self.inflight.push_back(load);
    }

    /// Position in `inflight` of the load with sequence number `id`, or
    /// `None` for a store, in O(1) through `load_index`.
    #[inline]
    fn load_pos(&self, id: u64) -> Option<usize> {
        let mask = self.load_index.len() as u64 - 1;
        let ord = self.load_index[(id & mask) as usize];
        let head = self.next_ord.wrapping_sub(self.inflight.len() as u32);
        let pos = ord.wrapping_sub(head) as usize;
        (self.inflight.get(pos)?.seq == id).then_some(pos)
    }

    /// Delivers a memory response for request `id` at memory cycle `at`,
    /// which must not be later than the `now` of the next
    /// [`advance`](Self::advance).
    ///
    /// Returns whether the run loop should advance the core at `at`:
    /// `true` when the core is blocked on this response, or ready;
    /// `false` when it is blocked on another response, or asleep until a
    /// slot ([`WaitState::UntilSlot`]), whose advance reads this response.
    #[inline]
    pub fn complete(&mut self, id: u64, at: Cycle) -> bool {
        let pos = self.load_pos(id);
        self.complete_at(id, at, pos)
    }

    /// [`complete`](Self::complete) for the load at `inflight[pos]`, or
    /// for a store if `pos` is `None`.
    #[inline]
    fn complete_at(&mut self, id: u64, at: Cycle, pos: Option<usize>) -> bool {
        work::count_completion();
        let slot = at.raw() * self.spmc.get();
        let is_load = if let Some(l) = pos.and_then(|p| self.inflight.get_mut(p)) {
            debug_assert!(l.done.is_none(), "duplicate completion for load {id}");
            l.done = Some(slot);
            self.outstanding -= 1;
            true
        } else {
            // A store leaving the write buffer.
            debug_assert!(self.wb_used > 0, "store completion with empty buffer");
            self.wb_used -= 1;
            false
        };
        if let Some(ll) = &mut self.last_load {
            if ll.seq == id {
                ll.done = Some(slot);
            }
        }
        let wakes = match self.wait {
            WaitState::UntilSlot(_) => false,
            WaitState::OnResponse => match self.awaits {
                Awaits::Load(seq) => seq == id,
                Awaits::AnyLoad => is_load,
                Awaits::AnyStore => !is_load,
                Awaits::Any => true,
            },
            WaitState::Ready | WaitState::Finished => true,
        };
        if wakes {
            work::count_wake();
            if self.wait == WaitState::OnResponse {
                self.wait = WaitState::Ready;
            }
        }
        wakes
    }

    /// Blocks the core until a completion that `awaits` names arrives.
    fn block_on(&mut self, awaits: Awaits) {
        self.wait = WaitState::OnResponse;
        self.awaits = awaits;
    }

    /// Blocks the core on its ROB head, which is still outstanding.
    fn block_on_rob_head(&mut self) {
        let head = self
            .inflight
            .front()
            .map_or(Awaits::Any, |l| Awaits::Load(l.seq));
        self.block_on(head);
    }

    /// Sleeps through the rest of a non-memory gap of `gap_left`
    /// instructions, at a slot the core has caught up with.
    ///
    /// First every head load that is done retires: its data arrived by
    /// `exec_slot` (a response is delivered no later than the advance
    /// that reads it, and `exec_slot` has caught up with that advance),
    /// so [`pop_head_for_space`](Self::pop_head_for_space) would charge
    /// it nothing later. Then, if the ROB would fill behind the
    /// head load, which is still outstanding, before the memory op can
    /// issue, the core blocks on that load and runs the rest of the gap
    /// when it returns, by the same slot arithmetic; otherwise the ROB
    /// cannot fill during the gap, and the core sleeps to the slot at
    /// which the memory op can issue.
    fn sleep_in_gap(&mut self, gap_left: u32) {
        debug_assert!(
            self.inflight
                .iter()
                .filter_map(|l| l.done)
                .all(|d| d <= self.exec_slot),
            "a load done after the slot the core caught up with"
        );
        self.drain_done_loads();
        let gap = u64::from(gap_left);
        match self.inflight.front() {
            Some(head) if self.rob_space() <= gap => {
                self.block_on(Awaits::Load(head.seq));
            }
            _ => self.wait = WaitState::UntilSlot(self.exec_slot + gap + 1),
        }
    }

    /// Records the ROB occupancy seen by a memory op about to issue at
    /// `exec_slot`: the instructions executed since the oldest load that
    /// is not done by then.
    fn sample_occupancy(&mut self) {
        let Some(obs) = self.obs.as_mut() else {
            return;
        };
        let slot = self.exec_slot;
        let occ = self
            .inflight
            .iter()
            .find(|l| l.done.is_none_or(|d| d > slot))
            .map_or(0, |l| self.exec_seq - (l.seq - 1));
        obs.rob_occupancy.record(occ);
    }

    /// Advances execution up to memory cycle `now`, appending any issued
    /// memory requests to `out`.
    pub fn advance(&mut self, now: Cycle, out: &mut Vec<CoreRequest>) {
        work::count_advance();
        let issued = out.len();
        self.run_to(now, out);
        if out.len() == issued {
            work::count_idle_advance();
        }
    }

    /// Executes up to memory cycle `now`: the body of
    /// [`advance`](Self::advance), which counts its work.
    fn run_to(&mut self, now: Cycle, out: &mut Vec<CoreRequest>) {
        if self.is_finished() {
            return;
        }
        let now_slot = now.raw().saturating_mul(self.spmc.get());
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
                        self.block_on(Awaits::Any);
                    }
                } else {
                    self.block_on(Awaits::Any);
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
                if self.exec_slot >= now_slot {
                    self.sleep_in_gap(gap_left);
                    return;
                }
                let rob_space = self.rob_space();
                if rob_space == 0 {
                    // ROB full: retire the head load (charging its
                    // completion time) or stall until it returns.
                    if self.pop_head_for_space() {
                        continue;
                    }
                    self.block_on_rob_head();
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
            if self.rob_space() == 0 {
                if self.pop_head_for_space() {
                    continue;
                }
                self.block_on_rob_head();
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
                        self.block_on(Awaits::AnyLoad);
                        return;
                    }
                    if op.dependent {
                        match self.last_load {
                            Some(InflightLoad { seq, done: None }) => {
                                self.block_on(Awaits::Load(seq));
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
                    self.sample_occupancy();
                    self.exec_seq += 1;
                    self.exec_slot += 1;
                    let load = InflightLoad {
                        seq: self.exec_seq,
                        done: None,
                    };
                    self.push_load(load);
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
                        self.block_on(Awaits::AnyStore);
                        return;
                    }
                    self.sample_occupancy();
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
/// `mshrs`, `wb_cap`, `width`, `spmc`), the profiling histograms
/// (`obs`) and what a blocked core waits for (`awaits`, which loads as
/// "any completion") are excluded. A source that runs dry before the replay
/// position is an error: the regenerated program differs from the
/// captured one. So is state the timing rules cannot have produced: an
/// `inflight` list not strictly increasing in `seq`, holding a `seq`
/// above `exec_seq`, or spanning more than the ROB from its head to
/// `exec_seq`, an `outstanding` count other than the number of
/// loads in flight that are not done, or a `wb_used` above the write
/// buffer.
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
        if c.is_load() {
            // The ROB arithmetic reads the head's seq as the oldest
            // unretired instruction, and a response finds its load by seq.
            let mut prev = 0;
            for (i, l) in self.inflight.iter().enumerate() {
                if l.seq <= prev {
                    return Err(format!(
                        "inflight: [{i}]: seq {} is not above {prev}",
                        l.seq
                    ));
                }
                if l.seq > self.exec_seq {
                    return Err(format!(
                        "inflight: [{i}]: seq {} is above exec_seq {}",
                        l.seq, self.exec_seq
                    ));
                }
                prev = l.seq;
            }
            // `rob_space` and the load index both rely on every load in
            // flight lying within one ROB of `exec_seq`.
            if let Some(head) = self.inflight.front() {
                if self.exec_seq - head.seq >= self.rob {
                    return Err(format!(
                        "inflight: [0]: seq {} lies {} instructions behind exec_seq {}, \
                         beyond the {}-entry ROB",
                        head.seq,
                        self.exec_seq - head.seq,
                        self.exec_seq,
                        self.rob
                    ));
                }
            }
            for l in std::mem::take(&mut self.inflight) {
                self.push_load(l);
            }
        }
        c.field("outstanding", &mut self.outstanding)?;
        if c.is_load() {
            let waiting = self.inflight.iter().filter(|l| l.done.is_none()).count();
            if self.outstanding != waiting {
                return Err(format!(
                    "outstanding: {} but {waiting} loads in flight are not done",
                    self.outstanding
                ));
            }
        }
        c.field("last_load", &mut self.last_load)?;
        c.field("wb_used", &mut self.wb_used)?;
        if c.is_load() && self.wb_used > self.wb_cap {
            return Err(format!(
                "wb_used: {} exceeds the {}-entry write buffer",
                self.wb_used, self.wb_cap
            ));
        }
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
        if c.is_load() {
            // Not saved: a restored core wakes on any completion, and one
            // it does not wait for advances it as a no-op.
            self.awaits = Awaits::Any;
        }
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
        let ops = vec![load(10, 1), load(0, 2)];
        let mut core = CoreSim::new(&cfg(), &clock, scripted(ops));
        assert!(core.take_obs().is_none(), "obs is off by default");
        core.enable_obs();
        let mut out = Vec::new();
        core.advance(Cycle(10), &mut out);
        core.advance(Cycle(20), &mut out);
        assert_eq!(out.len(), 2);
        let obs = core.take_obs().expect("obs enabled");
        // One sample per issued op, not per advance.
        assert_eq!(obs.rob_occupancy.count(), 2);
        // The second load sees the first, unretired, in the ROB.
        assert_eq!(
            (obs.rob_occupancy.max(), obs.rob_occupancy.mean()),
            (1, 0.5)
        );
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

    impl CoreSim {
        /// The reference for the load index: [`CoreSim::complete`]
        /// finding its load by a scan of the loads in flight.
        fn complete_by_scan(&mut self, id: u64, at: Cycle) -> bool {
            let pos = self.scan_pos(id);
            self.complete_at(id, at, pos)
        }

        fn scan_pos(&self, id: u64) -> Option<usize> {
            self.inflight.iter().position(|l| l.seq == id)
        }
    }

    /// Drives a core completing through the load index and one
    /// completing through the scan in lockstep against the same
    /// random-latency memory, over `instances` run one after another
    /// (restarts), with both restored from their snapshots once, at step
    /// `restore_at`. A small ROB and stores slower than most loads make
    /// store ids share index entries with loads in flight.
    fn indexed_and_scanning_cores_agree(
        instances: &[Vec<MemOp>],
        latencies: &[u32],
        restore_at: u32,
    ) -> Result<(), String> {
        let cfg = CpuConfig {
            num_cores: 1,
            rob: 24,
            width: 4,
            mshrs: 8,
            write_buffer: 32,
        };
        let clock = ClockSpec::paper();
        let mut k = 0;
        let mut a = CoreSim::new(&cfg, &clock, scripted(instances[0].clone()));
        let mut b = CoreSim::new(&cfg, &clock, scripted(instances[0].clone()));
        let mut pending: Vec<(Cycle, u64)> = Vec::new();
        let mut issued = 0usize;
        let mut now = Cycle(0);
        for step in 0..100_000u32 {
            if step == restore_at {
                for core in [&mut a, &mut b] {
                    let snap = save(core);
                    let mut back = CoreSim::new(&cfg, &clock, scripted(instances[k].clone()));
                    StateCodec::load(&mut back, &snap)?;
                    *core = back;
                }
            }
            let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
            a.advance(now, &mut out_a);
            b.advance(now, &mut out_b);
            if out_a != out_b {
                return Err(format!("step {step}: requests {out_a:?} != {out_b:?}"));
            }
            for r in out_a {
                let lat = latencies[issued % latencies.len()];
                let lat = if r.kind == MemOpKind::Store {
                    4 * lat
                } else {
                    lat
                };
                pending.push((now + u64::from(lat), r.id));
                issued += 1;
            }
            if a.is_finished() != b.is_finished() {
                return Err(format!("step {step}: only one core finished"));
            }
            if a.is_finished() {
                k += 1;
                let Some(ops) = instances.get(k) else {
                    break;
                };
                a.restart(scripted(ops.clone()));
                b.restart(scripted(ops.clone()));
                continue;
            }
            let next = pending
                .iter()
                .map(|&(d, _)| d)
                .fold(a.next_event(now), Cycle::min);
            if next
                != pending
                    .iter()
                    .map(|&(d, _)| d)
                    .fold(b.next_event(now), Cycle::min)
            {
                return Err(format!("step {step}: next events differ"));
            }
            if next == Cycle::NEVER {
                return Err(format!("step {step}: deadlock"));
            }
            now = next;
            pending.sort_unstable();
            let due = pending.iter().take_while(|&&(d, _)| d <= now).count();
            for (at, id) in pending.drain(..due) {
                let (pos, reference) = (a.load_pos(id), b.scan_pos(id));
                if pos != reference || a.scan_pos(id) != reference {
                    return Err(format!(
                        "request {id}: found at {pos:?}, scan {reference:?}"
                    ));
                }
                let (wa, wb) = (a.complete(id, at), b.complete_by_scan(id, at));
                let state = |c: &CoreSim| (c.wait, c.outstanding, c.wb_used);
                if wa != wb || state(&a) != state(&b) {
                    return Err(format!(
                        "request {id}: wake {wa} {:?} != wake {wb} {:?}",
                        state(&a),
                        state(&b)
                    ));
                }
            }
        }
        if !a.is_finished() || save(&mut a).to_string() != save(&mut b).to_string() {
            return Err("the cores did not finish alike".to_string());
        }
        Ok(())
    }

    #[test]
    fn indexed_complete_matches_the_scan() {
        use profess_check::check;
        use profess_check::strategy::{any_bool, tuple3, tuple4, u32_range, u8_range, vec_of};
        let op = tuple4(u8_range(0..40), any_bool(), any_bool(), u32_range(1..300));
        check(
            "indexed_complete_matches_the_scan",
            tuple3(vec_of(op, 1..160), u8_range(1..4), u32_range(0..300)),
            |(raw, instances, restore_at)| {
                let ops: Vec<MemOp> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &(gap, is_store, dependent, _))| MemOp {
                        gap: u32::from(gap),
                        kind: if is_store {
                            MemOpKind::Store
                        } else {
                            MemOpKind::Load
                        },
                        line: i as u64,
                        dependent,
                    })
                    .collect();
                let latencies: Vec<u32> = raw.iter().map(|r| r.3).collect();
                let per = ops.len().div_ceil(usize::from(*instances));
                let instances: Vec<Vec<MemOp>> = ops.chunks(per).map(<[MemOp]>::to_vec).collect();
                indexed_and_scanning_cores_agree(&instances, &latencies, *restore_at)
            },
        );
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
