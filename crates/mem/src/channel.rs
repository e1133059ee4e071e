//! Event-driven model of one memory channel (M1 module + M2 module sharing
//! a data bus) with FR-FCFS-Cap scheduling, write draining, M1 refresh and
//! channel-blocking block swaps.

use std::collections::VecDeque;

use profess_metrics::{State, StateCodec};
use profess_obs::Log2Histogram;
use profess_types::config::{EnergyConfig, MemTimingConfig, TechTiming};
use profess_types::geometry::{MemLoc, Module};
use profess_types::Cycle;

use crate::bank::BankState;
use crate::energy::EnergyCounters;
use crate::request::{AccessKind, PhysRequest, Served};
use crate::stats::ChannelStats;
use crate::work;

/// Optional per-channel profiling histograms, allocated only when the
/// run is traced (the system's `TraceConfig`); the hot path pays a
/// single `Option` test per record site when off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelObs {
    /// Read latency (enqueue to data end) in memory cycles.
    pub read_latency: Log2Histogram,
    /// Queue depth (reads + writes) sampled after each enqueue.
    pub queue_depth: Log2Histogram,
}

#[derive(Debug, Clone, Copy, Default)]
struct Queued {
    req: PhysRequest,
    enq: Cycle,
}

/// Cached per-queue [`ChannelSim::next_event`] contributions: the first
/// cycle at which each queue could start anything. Valid at every cycle
/// while the channel is unblocked and no bank, bus or queue state changes.
///
/// [`ChannelSim::advance`] ends its issue loop with both queues refusing
/// to start anything; the refusal cycles it computed are exactly what
/// `next_event` would re-derive by scanning both queues again, so they
/// are recorded here instead. Every plan is `max(bound from state, now)`,
/// so a refusal computed at `t0` stays exact at every later `now` below
/// it: `advance` skips the issue loop until then. [`ChannelSim::push`]
/// folds a new request's contribution in incrementally (it cannot change
/// any existing entry's plan); an issue overwrites the hint, and every
/// other state mutation (a swap, a refresh, a restore) drops it.
#[derive(Debug, Clone, Copy)]
struct SchedHint {
    read: Cycle,
    write: Cycle,
}

/// The FR-FCFS-Cap starvation test: whether the capped row hit `q` must
/// yield to an older request for another row on its bank. On a bank with
/// `q`'s row open, "another row" is "a miss". `older` is the part of
/// `q`'s enqueue-ordered queue before it (or all of it: no entry after
/// `q` is older), and an equally old miss does not count.
///
/// A pick runs the test only for a startable capped hit while no earlier
/// entry may start: at most once per pick, plus once per hit that
/// yields, which is rare. Scanning there costs less than keeping a per-bank
/// oldest-miss record current at every entry of every scan, a store
/// behind a branch on whether each entry hits (DESIGN.md §7.2). Kept out
/// of line so the pick's loop stays small.
#[inline(never)]
fn starved(older: &[Queued], q: &Queued) -> bool {
    let loc = q.req.loc;
    older.iter().any(|o| {
        work::count_cap_test_visit();
        o.req.loc.module == loc.module
            && o.req.loc.bank == loc.bank
            && o.req.loc.row != loc.row
            && o.enq < q.enq
    })
}

/// Index of `loc`'s bank in a channel's bank vector: M1's `per_module`
/// banks, then M2's.
#[inline(always)]
fn bank_index(loc: MemLoc, per_module: usize) -> usize {
    loc.module as usize * per_module + loc.bank as usize
}

/// The bank and bus state a scan reads, copied out of the channel once
/// per pick.
#[derive(Debug, Clone, Copy)]
struct BankView<'a> {
    banks: &'a [BankState],
    per_module: usize,
    /// The bus term of a row hit's first command, per module (M1, M2).
    bus: [Cycle; 2],
}

impl BankView<'_> {
    /// Scans one queued request at `now`: one bank lookup and a few
    /// compares. The first-command cycle is exactly [`BankState::plan`]'s,
    /// with a row hit's CAS delayed to its bus slot: `max(cas_at + t_cl,
    /// bus_free) - t_cl` is `max(cas_ready, bus_free - t_cl, now)`, and a
    /// miss starts at `max(miss_first, now)`.
    ///
    /// The hit test and the choice between the two terms are selects,
    /// not branches: whether a queued request hits its bank's open row is
    /// nothing a branch predictor can learn, and a pick scans every entry.
    #[inline(always)]
    fn scan(&self, q: &Queued, now: Cycle) -> Scanned {
        let loc = q.req.loc;
        let bank = &self.banks[bank_index(loc, self.per_module)];
        let hit = bank.open_row.is_some() & (bank.open_row.unwrap_or_default() == loc.row);
        let first_cmd = std::hint::select_unpredictable(
            hit,
            bank.cas_ready.max(self.bus[loc.module as usize]),
            bank.miss_first,
        );
        Scanned {
            first_cmd: first_cmd.max(now),
            hit,
            hit_streak: bank.hit_streak,
        }
    }
}

/// One queued request as a scan sees it: when its first command could
/// issue, and what the FR-FCFS-Cap rule needs to know about its bank.
#[derive(Debug, Clone, Copy)]
struct Scanned {
    first_cmd: Cycle,
    /// The request's row is open in its bank.
    hit: bool,
    /// Row hits the bank has served in a row.
    hit_streak: u32,
}

/// Simulator for one memory channel.
///
/// Requests enter via [`ChannelSim::push`]; time advances via
/// [`ChannelSim::advance`], which appends completion records to the caller's
/// buffer; [`ChannelSim::next_event`] reports the next cycle at which the
/// channel state can change, enabling an event-driven outer loop.
#[derive(Debug)]
pub struct ChannelSim {
    timing: MemTimingConfig,
    // M1's banks, then M2's (`bank_index`).
    banks: Vec<BankState>,
    bus_free: Cycle,
    blocked_until: Cycle,
    read_q: Vec<Queued>,
    write_q: Vec<Queued>,
    // Issued requests in issue order, which is completion order: every
    // burst starts at or after `bus_free`, where the previous one ended,
    // and lasts `t_burst > 0` cycles, so `done` strictly increases.
    inflight: VecDeque<Served>,
    draining_writes: bool,
    sched_hint: Option<SchedHint>,
    next_refresh: Cycle,
    lines_per_block: u64,
    energy: EnergyCounters,
    stats: ChannelStats,
    energy_cfg: EnergyConfig,
    obs: Option<Box<ChannelObs>>,
}

impl ChannelSim {
    /// Creates a channel with `banks` banks per module and `lines_per_block`
    /// 64 B lines per swap block (32 for 2 KB blocks).
    ///
    /// # Panics
    ///
    /// Panics if a burst of either module takes zero cycles: completions
    /// leave the channel in issue order only because each burst ends
    /// after the previous one.
    pub fn new(
        timing: MemTimingConfig,
        energy_cfg: EnergyConfig,
        banks: usize,
        lines_per_block: u64,
    ) -> Self {
        assert!(
            timing.m1.t_burst > 0 && timing.m2.t_burst > 0,
            "t_burst must be positive"
        );
        let next_refresh = timing.m1.t_refi.map_or(Cycle::NEVER, Cycle);
        ChannelSim {
            timing,
            banks: vec![BankState::default(); 2 * banks],
            bus_free: Cycle::ZERO,
            blocked_until: Cycle::ZERO,
            read_q: Vec::new(),
            write_q: Vec::new(),
            inflight: VecDeque::new(),
            draining_writes: false,
            sched_hint: None,
            next_refresh,
            lines_per_block,
            energy: EnergyCounters::default(),
            stats: ChannelStats::default(),
            energy_cfg,
            obs: None,
        }
    }

    /// Enables per-channel profiling histograms (off by default).
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(Box::default());
        }
    }

    /// Takes the profiling histograms, leaving observability disabled.
    pub fn take_obs(&mut self) -> Option<Box<ChannelObs>> {
        self.obs.take()
    }

    /// Enqueues a request at cycle `now`.
    pub fn push(&mut self, req: PhysRequest, now: Cycle) {
        // The outer loop advances channels lazily, so banks may be
        // refresh-stale here; any plan over this request must see the
        // same bank state an eagerly advanced channel would. A fired
        // refresh rewrites bank state, so the hint cannot survive it.
        if self.next_refresh <= now {
            self.sched_hint = None;
            self.run_refresh(now);
        }
        let q = Queued { req, enq: now };
        match req.kind {
            AccessKind::Read => self.read_q.push(q),
            AccessKind::Write => self.write_q.push(q),
        }
        self.note_push(&q, now);
        let depth = (self.read_q.len() + self.write_q.len()) as u64;
        if let Some(obs) = &mut self.obs {
            obs.queue_depth.record(depth);
        }
    }

    /// Folds a just-pushed request into the scheduling hint.
    ///
    /// A push cannot alter any existing entry's plan (bank and bus state
    /// are untouched) and, being the youngest entry, cannot become the
    /// older starved request that unskips a capped row hit — so the only
    /// delta versus the recorded refusal cycles is the new entry's own
    /// contribution: its first-command cycle if it cannot start at
    /// `now`, `now` itself if it can (so an `advance` at `now` runs the
    /// issue loop; `next_event` clamps it to `now + 1`), and nothing at
    /// all if the cap forces it to yield. A startable capped hit runs the
    /// starvation test over the whole queue, every entry of which is at
    /// most as old as the new one.
    fn note_push(&mut self, q: &Queued, now: Cycle) {
        let Some(h) = self.sched_hint else {
            return;
        };
        let (queue_at, queue) = match q.req.kind {
            AccessKind::Read => (h.read, &self.read_q),
            AccessKind::Write => (h.write, &self.write_q),
        };
        // A queue that can already start something by `now` cannot get
        // earlier, and its next issue loop rescans it: skip the entry.
        if queue_at <= now {
            return;
        }
        let e = self.view().scan(q, now);
        let contribution = if e.first_cmd > now {
            e.first_cmd
        } else if e.hit && e.hit_streak >= self.timing.frfcfs_cap && starved(queue, q) {
            Cycle::NEVER
        } else {
            now
        };
        #[expect(clippy::expect_used, reason = "checked Some above; no mutation since")]
        let h = self.sched_hint.as_mut().expect("hint present");
        match q.req.kind {
            AccessKind::Read => h.read = h.read.min(contribution),
            AccessKind::Write => h.write = h.write.min(contribution),
        }
    }

    /// Number of queued (not yet scheduled) requests.
    #[inline]
    pub fn queue_len(&self) -> usize {
        self.read_q.len() + self.write_q.len()
    }

    /// Current `(read queue, write queue, in flight)` sizes, for
    /// queue-occupancy trace samples.
    pub fn queue_state(&self) -> (u32, u32, u32) {
        (
            self.read_q.len() as u32,
            self.write_q.len() as u32,
            self.inflight.len() as u32,
        )
    }

    /// Returns `true` if no request is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue_len() == 0 && self.inflight.is_empty()
    }

    /// Channel statistics so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Energy event counters so far.
    pub fn energy(&self) -> &EnergyCounters {
        &self.energy
    }

    /// Total energy in joules for `elapsed` simulated cycles.
    pub fn energy_joules(&self, elapsed: Cycle) -> f64 {
        let ns = self.timing.clock.cycles_to_ns(elapsed.raw());
        self.energy.total_joules(&self.energy_cfg, ns)
    }

    /// The channel's timing configuration.
    pub fn timing(&self) -> &MemTimingConfig {
        &self.timing
    }

    fn tech(&self, module: Module) -> &TechTiming {
        match module {
            Module::M1 => &self.timing.m1,
            Module::M2 => &self.timing.m2,
        }
    }

    /// Banks per module.
    #[inline(always)]
    fn banks_per_module(&self) -> usize {
        self.banks.len() / 2
    }

    fn bank_mut(&mut self, loc: MemLoc) -> &mut BankState {
        let i = bank_index(loc, self.banks_per_module());
        &mut self.banks[i]
    }

    fn bank(&self, loc: MemLoc) -> &BankState {
        &self.banks[bank_index(loc, self.banks_per_module())]
    }

    /// Applies all pending M1 refreshes up to `now`.
    fn run_refresh(&mut self, now: Cycle) {
        let Some(refi) = self.timing.m1.t_refi else {
            return;
        };
        while self.next_refresh <= now {
            let at = self.next_refresh;
            let m1_banks = self.banks_per_module();
            for b in &mut self.banks[..m1_banks] {
                b.refresh(&self.timing.m1, at);
            }
            self.energy.m1_refreshes += 1;
            self.stats.refreshes += 1;
            self.next_refresh = at + refi;
        }
    }

    /// Applies pending M1 refreshes up to `now` without issuing anything.
    ///
    /// An event-driven caller that skips idle channels uses this at end
    /// of run so refresh (and its energy) is accounted to the same final
    /// cycle as a channel that was advanced every step.
    pub fn catch_up_refresh(&mut self, now: Cycle) {
        self.sched_hint = None;
        self.run_refresh(now);
    }

    /// What a scan reads of the channel, copied out once per pick.
    #[inline(always)]
    fn view(&self) -> BankView<'_> {
        BankView {
            banks: &self.banks,
            per_module: self.banks_per_module(),
            // A row hit's CAS issues `t_cl` before its data slot, which
            // starts no earlier than `bus_free`.
            bus: [
                self.bus_free.saturating_sub(Cycle(self.timing.m1.t_cl)),
                self.bus_free.saturating_sub(Cycle(self.timing.m2.t_cl)),
            ],
        }
    }

    /// Picks the FR-FCFS-Cap winner among `queue`: the oldest row hit
    /// under the cap, else the oldest request that may start (a capped
    /// hit may not while an older miss waits on its bank), considering
    /// only requests whose first command can issue by `now`. Returns the
    /// winner's index or the earliest cycle a candidate could start.
    ///
    /// Inlined into its few callers: the channel runs one pick per
    /// issued request and about two more per issue loop.
    #[inline(always)]
    fn pick(&self, queue: &[Queued], now: Cycle) -> Result<usize, Cycle> {
        work::count_pick();
        let cap = self.timing.frfcfs_cap;
        let view = self.view();
        // Queues are enq-ordered (pushes append at non-decreasing cycles
        // and removals keep relative order), so "oldest" is simply "first
        // found": the scan can return at the first eligible row hit, and
        // `earliest` only matters once no entry is startable at all.
        let mut best_any = None;
        let mut earliest = Cycle::NEVER;
        for (i, q) in queue.iter().enumerate() {
            work::count_pick_entry();
            let e = view.scan(q, now);
            if e.first_cmd > now {
                earliest = earliest.min(e.first_cmd);
                continue;
            }
            if e.hit && e.hit_streak < cap {
                return Ok(i);
            }
            // FR-FCFS-Cap: after `cap` consecutive hits, further hits
            // must yield to an older conflicting request on the same bank
            // (otherwise the open row would starve it forever). Only the
            // first entry that may start becomes `best_any`, so the test
            // runs only until one has.
            if best_any.is_none() && !(e.hit && starved(&queue[..i], q)) {
                best_any = Some(i);
            }
        }
        best_any.ok_or(earliest)
    }

    /// Commits one queued request, picked at `now`, to the timing model:
    /// the one bank schedule a pick costs.
    fn issue(&mut self, q: Queued, now: Cycle) {
        let t = *self.tech(q.req.loc.module);
        work::count_plan();
        let p = self.bank(q.req.loc).plan(&t, q.req.loc.row, now);
        let data_start = (p.cas_at + t.t_cl).max(self.bus_free);
        let data_end = data_start + t.t_burst;
        let row = q.req.loc.row;
        {
            let bank = self.bank_mut(q.req.loc);
            bank.commit(&t, row, p, q.req.kind, data_end);
            if p.row_hit {
                bank.hit_streak += 1;
            } else {
                bank.hit_streak = 0;
            }
        }
        self.bus_free = data_end;
        match (q.req.loc.module, q.req.kind, p.activates) {
            (Module::M1, AccessKind::Read, a) => {
                self.energy.m1_reads += 1;
                self.energy.m1_acts += u64::from(a);
            }
            (Module::M1, AccessKind::Write, a) => {
                self.energy.m1_writes += 1;
                self.energy.m1_acts += u64::from(a);
            }
            (Module::M2, AccessKind::Read, a) => {
                self.energy.m2_reads += 1;
                self.energy.m2_acts += u64::from(a);
            }
            (Module::M2, AccessKind::Write, a) => {
                self.energy.m2_writes += 1;
                self.energy.m2_acts += u64::from(a);
            }
        }
        match q.req.kind {
            AccessKind::Read => {
                self.stats.reads_served += 1;
                self.stats.read_latency_sum += (data_end - q.enq).raw();
                if let Some(obs) = &mut self.obs {
                    obs.read_latency.record((data_end - q.enq).raw());
                }
            }
            AccessKind::Write => self.stats.writes_served += 1,
        }
        if p.row_hit {
            self.stats.row_hits += 1;
        }
        debug_assert!(self.inflight.back().is_none_or(|s| s.done < data_end));
        self.inflight.push_back(Served {
            id: q.req.id,
            kind: q.req.kind,
            loc: q.req.loc,
            enqueued: q.enq,
            done: data_end,
            row_hit: p.row_hit,
        });
    }

    fn update_drain_mode(&mut self) {
        if self.write_q.len() >= self.timing.write_drain_high {
            self.draining_writes = true;
        } else if self.write_q.len() <= self.timing.write_drain_low {
            self.draining_writes = false;
        }
    }

    /// Advances the channel to `now`, appending completions (data delivered
    /// at or before `now`) to `served`.
    pub fn advance(&mut self, now: Cycle, served: &mut Vec<Served>) {
        if self.next_refresh <= now {
            // A fired refresh rewrites bank state: the hint cannot survive it.
            self.sched_hint = None;
            self.run_refresh(now);
        }
        if self.blocked_until > now {
            // `begin_swap` dropped the hint; nothing sets it while blocked.
            self.drain_done(now, served);
            return;
        }
        if self.sched_hint.is_some_and(|h| now < h.read.min(h.write)) {
            // Both queues still refuse: a pass through the issue loop
            // would only apply its drain-mode update.
            self.update_drain_mode();
            self.drain_done(now, served);
            return;
        }
        // Issue loop: schedule every request whose command chain can start
        // by `now`, respecting read priority and write draining. The loop
        // only ends once both queues refuse, and those two refusal cycles
        // are the `next_event` queue contributions until state changes —
        // cache them so neither `next_event` nor a later `advance` needs
        // to rescan the queues.
        self.sched_hint = loop {
            self.update_drain_mode();
            let use_writes =
                self.draining_writes || (self.read_q.is_empty() && !self.write_q.is_empty());
            let (primary_is_writes, res) = if use_writes {
                (true, self.pick(&self.write_q, now))
            } else {
                (false, self.pick(&self.read_q, now))
            };
            match res {
                Ok(i) => {
                    let q = if primary_is_writes {
                        self.write_q.remove(i)
                    } else {
                        self.read_q.remove(i)
                    };
                    self.issue(q, now);
                }
                Err(primary_at) => {
                    // Primary queue cannot start anything; try the other
                    // queue opportunistically (reads during drain stalls,
                    // writes when no read can start).
                    let other = if primary_is_writes {
                        self.pick(&self.read_q, now)
                    } else {
                        self.pick(&self.write_q, now)
                    };
                    match other {
                        Ok(i) => {
                            let q = if primary_is_writes {
                                self.read_q.remove(i)
                            } else {
                                self.write_q.remove(i)
                            };
                            self.issue(q, now);
                        }
                        Err(other_at) => {
                            let (read, write) = if primary_is_writes {
                                (other_at, primary_at)
                            } else {
                                (primary_at, other_at)
                            };
                            break Some(SchedHint { read, write });
                        }
                    }
                }
            }
        };
        self.drain_done(now, served);
    }

    /// Moves the requests done by `now` to `served`: a prefix of
    /// `inflight`, already in `(done, id)` order.
    fn drain_done(&mut self, now: Cycle, served: &mut Vec<Served>) {
        while let Some(&s) = self.inflight.front() {
            if s.done > now {
                break;
            }
            self.inflight.pop_front();
            served.push(s);
        }
    }

    /// The next cycle (strictly after `now`) at which channel state can
    /// change: a completion, a possible issue, the end of a swap, or a
    /// refresh. Returns [`Cycle::NEVER`] if fully idle.
    #[inline]
    pub fn next_event(&self, now: Cycle) -> Cycle {
        let mut t = self.inflight.front().map_or(Cycle::NEVER, |s| s.done);
        if self.blocked_until > now {
            t = t.min(self.blocked_until);
        } else if let Some(h) = self.sched_hint {
            t = t.min(h.read).min(h.write);
        } else {
            if let Err(e) = self.pick(&self.read_q, now) {
                t = t.min(e);
            } else if !self.read_q.is_empty() {
                t = t.min(now + 1);
            }
            if let Err(e) = self.pick(&self.write_q, now) {
                t = t.min(e);
            } else if !self.write_q.is_empty() {
                t = t.min(now + 1);
            }
        }
        if self.queue_len() > 0 || !self.inflight.is_empty() {
            t = t.min(self.next_refresh);
        }
        t.max(now + 1)
    }

    /// Diagnostic dump of queued requests: (id, kind, loc, enq, planned
    /// first-command cycle at `now`).
    pub fn debug_queue(&self, now: Cycle) -> Vec<(u64, AccessKind, MemLoc, u64, u64)> {
        let view = self.view();
        self.read_q
            .iter()
            .chain(self.write_q.iter())
            .map(|q| {
                (
                    q.req.id,
                    q.req.kind,
                    q.req.loc,
                    q.enq.raw(),
                    view.scan(q, now).first_cmd.raw(),
                )
            })
            .collect()
    }

    /// Diagnostic dump of bank states for a module.
    pub fn debug_banks(&self, module: Module) -> Vec<(Option<u64>, u64, u64, u32)> {
        let n = self.banks_per_module();
        let first = module as usize * n;
        self.banks[first..first + n]
            .iter()
            .map(|b| {
                (
                    b.open_row,
                    b.cas_ready.raw(),
                    b.pre_ready.raw(),
                    b.hit_streak,
                )
            })
            .collect()
    }

    /// Performs a 2 KB block swap between `m1_loc` and `m2_loc`, blocking
    /// the channel for the analytic swap latency (paper §4.1). Returns the
    /// completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if the locations are not an (M1, M2) pair.
    pub fn begin_swap(&mut self, now: Cycle, m1_loc: MemLoc, m2_loc: MemLoc) -> Cycle {
        assert_eq!(m1_loc.module, Module::M1, "first swap location must be M1");
        assert_eq!(m2_loc.module, Module::M2, "second swap location must be M2");
        // As in `push`: apply pending refreshes before reading bank state,
        // so a lazily advanced channel plans the swap like an eager one.
        self.sched_hint = None;
        self.run_refresh(now);
        let start = now
            .max(self.bus_free)
            .max(self.blocked_until)
            .max(self.bank(m1_loc).cas_ready)
            .max(self.bank(m1_loc).pre_ready)
            .max(self.bank(m2_loc).cas_ready)
            .max(self.bank(m2_loc).pre_ready);
        let dur = self.timing.swap_latency(self.lines_per_block);
        let done = start + dur;
        self.blocked_until = done;
        self.bus_free = done;
        let (m1, m2) = (self.timing.m1, self.timing.m2);
        self.bank_mut(m1_loc).occupy_until(&m1, m1_loc.row, done);
        self.bank_mut(m2_loc).occupy_until(&m2, m2_loc.row, done);
        self.energy.m1_acts += 1;
        self.energy.m2_acts += 1;
        self.energy.m1_reads += self.lines_per_block;
        self.energy.m1_writes += self.lines_per_block;
        self.energy.m2_reads += self.lines_per_block;
        self.energy.m2_writes += self.lines_per_block;
        self.stats.swaps += 1;
        self.stats.swap_busy_cycles += (done - start).raw();
        done
    }
}

/// The channel's mutable timing state: banks, queues, in-flight
/// requests, refresh bookkeeping, energy and statistics counters.
///
/// Configuration-derived fields (`timing`, `energy_cfg`,
/// `lines_per_block`) and the profiling histograms (`obs`) are excluded:
/// a restored channel is rebuilt from the same configuration, and
/// observability restarts empty by design. Bank vectors load in place, so
/// a bank count other than this channel's is rejected.
impl State for ChannelSim {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        let banks = self.banks_per_module();
        c.field("banks_m1", &mut self.banks[..banks])?;
        c.field("banks_m2", &mut self.banks[banks..])?;
        c.field("bus_free", &mut self.bus_free)?;
        c.field("blocked_until", &mut self.blocked_until)?;
        c.field("read_q", &mut self.read_q)?;
        c.field("write_q", &mut self.write_q)?;
        // Queued requests index the bank vector (both modules have
        // `banks` banks).
        if let Some(q) =
            (self.read_q.iter().chain(&self.write_q)).find(|q| q.req.loc.bank as usize >= banks)
        {
            return Err(format!(
                "queued request {} targets bank {} of {banks}",
                q.req.id, q.req.loc.bank
            ));
        }
        // Each queue is in enqueue order: the scheduler's "first found is
        // oldest" rule and its starvation test both read that order.
        for (name, queue) in [("read_q", &self.read_q), ("write_q", &self.write_q)] {
            if let Some(i) = queue.windows(2).position(|w| w[1].enq < w[0].enq) {
                return Err(format!(
                    "{name}: [{}]: enq {} precedes the previous entry's {}",
                    i + 1,
                    queue[i + 1].enq.raw(),
                    queue[i].enq.raw()
                ));
            }
        }
        c.field("inflight", &mut self.inflight)?;
        // In-flight requests are in issue order, which `drain_done` and
        // `next_event` read as completion order.
        if let Some(i) =
            (1..self.inflight.len()).find(|&i| self.inflight[i].done <= self.inflight[i - 1].done)
        {
            return Err(format!(
                "inflight: [{i}]: done {} does not follow the previous entry's {}",
                self.inflight[i].done.raw(),
                self.inflight[i - 1].done.raw()
            ));
        }
        c.field("draining_writes", &mut self.draining_writes)?;
        c.field("next_refresh", &mut self.next_refresh)?;
        let e = &mut self.energy;
        c.field(
            "energy",
            &mut [
                &mut e.m1_acts,
                &mut e.m1_reads,
                &mut e.m1_writes,
                &mut e.m2_acts,
                &mut e.m2_reads,
                &mut e.m2_writes,
                &mut e.m1_refreshes,
            ],
        )?;
        let s = &mut self.stats;
        c.field(
            "stats",
            &mut [
                &mut s.reads_served,
                &mut s.writes_served,
                &mut s.row_hits,
                &mut s.read_latency_sum,
                &mut s.swaps,
                &mut s.swap_busy_cycles,
                &mut s.refreshes,
            ],
        )?;
        if c.is_load() {
            // Derived caches: recomputed, and the refusal hint dropped
            // (the next issue loop re-derives it from the loaded state).
            for b in &mut self.banks[..banks] {
                b.derive_miss_first(&self.timing.m1);
            }
            for b in &mut self.banks[banks..] {
                b.derive_miss_first(&self.timing.m2);
            }
            self.sched_hint = None;
        }
        Ok(())
    }
}

impl State for BankState {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("open_row", &mut self.open_row)?;
        c.field("cas_ready", &mut self.cas_ready)?;
        c.field("last_act", &mut self.last_act)?;
        c.field("pre_ready", &mut self.pre_ready)?;
        c.field("hit_streak", &mut self.hit_streak)
    }
}

/// The fields a queued and a served record share: token, direction and
/// location, flattened into the record's object.
fn request_state(
    c: &mut StateCodec<'_>,
    id: &mut u64,
    kind: &mut AccessKind,
    loc: &mut MemLoc,
) -> Result<(), String> {
    c.field("id", id)?;
    c.flag("write", kind, [AccessKind::Read, AccessKind::Write])?;
    c.flag("m2", &mut loc.module, [Module::M1, Module::M2])?;
    c.field("bank", &mut loc.bank)?;
    c.field("row", &mut loc.row)
}

impl State for Queued {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        let r = &mut self.req;
        request_state(c, &mut r.id, &mut r.kind, &mut r.loc)?;
        c.field("enq", &mut self.enq)
    }
}

impl State for Served {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        request_state(c, &mut self.id, &mut self.kind, &mut self.loc)?;
        c.field("enqueued", &mut self.enqueued)?;
        c.field("done", &mut self.done)?;
        c.field("row_hit", &mut self.row_hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::BankSchedule;
    use profess_check::strategy::{
        any_bool, tuple3, tuple4, u32_range, u64_range, u8_range, vec_of,
    };
    use profess_check::{check_with, prop_assert, prop_assert_eq, Config, Rng};
    use profess_metrics::Json;

    fn save(c: &mut ChannelSim) -> Json {
        StateCodec::save(c).expect("a channel always saves")
    }

    fn ch() -> ChannelSim {
        ChannelSim::new(
            MemTimingConfig::paper(),
            EnergyConfig::default_values(),
            16,
            32,
        )
    }

    fn rd(id: u64, module: Module, bank: u32, row: u64) -> PhysRequest {
        PhysRequest {
            id,
            kind: AccessKind::Read,
            loc: MemLoc { module, bank, row },
        }
    }

    fn wr(id: u64, module: Module, bank: u32, row: u64) -> PhysRequest {
        PhysRequest {
            id,
            kind: AccessKind::Write,
            loc: MemLoc { module, bank, row },
        }
    }

    fn run_until_idle(ch: &mut ChannelSim, mut now: Cycle) -> Vec<Served> {
        let mut out = Vec::new();
        ch.advance(now, &mut out);
        while !ch.is_idle() {
            now = ch.next_event(now);
            assert!(now < Cycle::NEVER, "channel stuck");
            ch.advance(now, &mut out);
        }
        out
    }

    #[test]
    fn single_m1_read_latency() {
        let mut c = ch();
        c.push(rd(1, Module::M1, 0, 0), Cycle(0));
        let out = run_until_idle(&mut c, Cycle(0));
        assert_eq!(out.len(), 1);
        let t = MemTimingConfig::paper();
        // Closed bank: tRCD + CL + burst.
        assert_eq!(out[0].done.raw(), t.m1.t_rcd + t.m1.t_cl + t.m1.t_burst);
        assert!(!out[0].row_hit);
    }

    #[test]
    fn single_m2_read_is_much_slower() {
        let mut c = ch();
        c.push(rd(1, Module::M2, 0, 0), Cycle(0));
        let out = run_until_idle(&mut c, Cycle(0));
        let t = MemTimingConfig::paper();
        assert_eq!(out[0].done.raw(), t.m2.t_rcd + t.m2.t_cl + t.m2.t_burst);
        // 110 + 11 + 4 = 125 vs 26 for M1: ~5x first-access gap.
        assert!(out[0].done.raw() > 4 * (t.m1.t_rcd + t.m1.t_cl + t.m1.t_burst));
    }

    #[test]
    fn row_hits_pipeline_on_bus() {
        let mut c = ch();
        for i in 0..4 {
            c.push(rd(i, Module::M1, 0, 0), Cycle(0));
        }
        let out = run_until_idle(&mut c, Cycle(0));
        assert_eq!(out.len(), 4);
        let t = MemTimingConfig::paper();
        // First access opens the row; the rest are back-to-back bursts.
        let first = t.m1.t_rcd + t.m1.t_cl + t.m1.t_burst;
        assert_eq!(out[0].done.raw(), first);
        for (k, s) in out.iter().enumerate().skip(1) {
            assert!(s.row_hit);
            assert_eq!(s.done.raw(), first + k as u64 * t.m1.t_burst);
        }
    }

    #[test]
    fn bank_parallelism_overlaps_activations() {
        let mut c = ch();
        c.push(rd(0, Module::M1, 0, 0), Cycle(0));
        c.push(rd(1, Module::M1, 1, 0), Cycle(0));
        let out = run_until_idle(&mut c, Cycle(0));
        let t = MemTimingConfig::paper();
        let first = t.m1.t_rcd + t.m1.t_cl + t.m1.t_burst;
        // Bank 1's activation overlaps bank 0's access; only the bus
        // serializes the bursts.
        assert_eq!(out[0].done.raw(), first);
        assert_eq!(out[1].done.raw(), first + t.m1.t_burst);
    }

    #[test]
    fn frfcfs_prefers_row_hit_over_older_conflict() {
        let mut c = ch();
        // Open row 0 in bank 0 and drain the primer.
        c.push(rd(0, Module::M1, 0, 0), Cycle(0));
        let primed = run_until_idle(&mut c, Cycle(0));
        let t0 = primed[0].done;
        // Now: an older conflicting request and a younger row hit.
        c.push(rd(1, Module::M1, 0, 7), t0); // conflict, older
        c.push(rd(2, Module::M1, 0, 0), t0 + 1); // hit, younger
        let rest = run_until_idle(&mut c, t0);
        let ids: Vec<u64> = rest.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![2, 1], "row hit must be served first");
    }

    #[test]
    fn frfcfs_cap_limits_hit_streak() {
        let mut c = ch();
        // Prime the row and drain the primer.
        c.push(rd(100, Module::M1, 0, 0), Cycle(0));
        let primed = run_until_idle(&mut c, Cycle(0));
        let t0 = primed[0].done;
        // One old conflicting request and a long stream of younger hits.
        c.push(rd(0, Module::M1, 0, 9), t0);
        for i in 1..=8 {
            c.push(rd(i, Module::M1, 0, 0), t0 + i);
        }
        let rest = run_until_idle(&mut c, t0);
        let pos_conflict = rest.iter().position(|s| s.id == 0).unwrap();
        // With a cap of 4 the conflicting request is served after at most 4
        // further hits, not starved behind all 8.
        assert!(
            pos_conflict <= 4,
            "conflict served at position {pos_conflict}, cap failed"
        );
    }

    #[test]
    fn writes_drain_in_batches() {
        let mut c = ch();
        let high = c.timing.write_drain_high;
        for i in 0..high as u64 {
            c.push(wr(i, Module::M1, (i % 4) as u32, 0), Cycle(0));
        }
        let out = run_until_idle(&mut c, Cycle(0));
        assert_eq!(out.len(), high);
        assert_eq!(c.stats().writes_served, high as u64);
    }

    #[test]
    fn reads_bypass_small_write_queue() {
        let mut c = ch();
        c.push(wr(0, Module::M1, 0, 0), Cycle(0));
        c.push(rd(1, Module::M1, 1, 0), Cycle(0));
        let out = run_until_idle(&mut c, Cycle(0));
        // The read is served without waiting for a write drain.
        let read = out.iter().find(|s| s.id == 1).unwrap();
        let t = MemTimingConfig::paper();
        assert!(read.done.raw() <= t.m1.t_rcd + t.m1.t_cl + 2 * t.m1.t_burst);
    }

    #[test]
    fn swap_blocks_channel_for_analytic_latency() {
        let mut c = ch();
        let m1 = MemLoc {
            module: Module::M1,
            bank: 0,
            row: 0,
        };
        let m2 = MemLoc {
            module: Module::M2,
            bank: 3,
            row: 9,
        };
        let done = c.begin_swap(Cycle(0), m1, m2);
        assert_eq!(done.raw(), 637); // 796.25 ns at 1.25 ns/cycle
                                     // A read pushed during the swap is served only afterwards.
        c.push(rd(1, Module::M1, 5, 2), Cycle(10));
        let out = run_until_idle(&mut c, Cycle(10));
        assert!(out[0].done > done);
        assert_eq!(c.stats().swaps, 1);
        assert_eq!(c.stats().swap_busy_cycles, 637);
        // Swap energy: 32 lines each way on each module (plus the one
        // demand read issued above).
        assert_eq!(c.energy().m2_writes, 32);
        assert_eq!(c.energy().m1_reads, 32 + 1);
    }

    #[test]
    fn refresh_fires_periodically() {
        let mut c = ch();
        let refi = MemTimingConfig::paper().m1.t_refi.unwrap();
        // Keep the channel busy across two refresh intervals.
        c.push(rd(0, Module::M1, 0, 0), Cycle(0));
        let mut out = Vec::new();
        c.advance(Cycle(refi * 2 + 1), &mut out);
        assert_eq!(c.stats().refreshes, 2);
        assert_eq!(c.energy().m1_refreshes, 2);
    }

    #[test]
    fn next_event_reports_completion_time() {
        let mut c = ch();
        c.push(rd(0, Module::M1, 0, 0), Cycle(0));
        let mut out = Vec::new();
        c.advance(Cycle(0), &mut out);
        assert!(out.is_empty());
        let t = MemTimingConfig::paper();
        assert_eq!(
            c.next_event(Cycle(0)).raw(),
            t.m1.t_rcd + t.m1.t_cl + t.m1.t_burst
        );
    }

    #[test]
    fn idle_channel_reports_never() {
        let c = ch();
        assert_eq!(c.next_event(Cycle(5)), Cycle::NEVER);
        assert!(c.is_idle());
    }

    #[test]
    fn obs_histograms_record_latency_and_depth() {
        let mut c = ch();
        assert!(c.take_obs().is_none(), "obs is off by default");
        c.enable_obs();
        c.push(rd(0, Module::M1, 0, 0), Cycle(0));
        c.push(rd(1, Module::M1, 1, 0), Cycle(0));
        let out = run_until_idle(&mut c, Cycle(0));
        let obs = c.take_obs().expect("obs enabled");
        assert_eq!(obs.read_latency.count(), 2);
        assert_eq!(
            obs.read_latency.max(),
            out.iter().map(Served::latency).max().unwrap()
        );
        // Depth samples: 1 after the first push, 2 after the second.
        assert_eq!(obs.queue_depth.count(), 2);
        assert_eq!(obs.queue_depth.max(), 2);
        assert!(c.take_obs().is_none(), "take_obs disables observability");
    }

    /// Mid-flight snapshot → restore into a fresh channel must continue
    /// byte-identically: same completions, same final counters.
    #[test]
    fn snapshot_restore_resumes_identically() {
        let mut c = ch();
        // Build up rich state: an open row, queued reads and writes, a
        // swap, and requests still in flight at the capture point.
        let m1 = MemLoc {
            module: Module::M1,
            bank: 0,
            row: 0,
        };
        let m2 = MemLoc {
            module: Module::M2,
            bank: 3,
            row: 9,
        };
        c.begin_swap(Cycle(0), m1, m2);
        for i in 0..6 {
            c.push(rd(i, Module::M1, (i % 3) as u32, i), Cycle(5 + i));
            c.push(wr(100 + i, Module::M2, (i % 2) as u32, i), Cycle(6 + i));
        }
        let mut early = Vec::new();
        c.advance(Cycle(700), &mut early);

        let snap = save(&mut c);
        let mut restored = ch();
        StateCodec::load(
            &mut restored,
            &Json::parse(&snap.to_string()).expect("parse"),
        )
        .expect("restore");
        assert_eq!(
            save(&mut restored).to_string(),
            snap.to_string(),
            "snapshot must round-trip byte-identically"
        );

        let rest_a = run_until_idle(&mut c, Cycle(700));
        let rest_b = run_until_idle(&mut restored, Cycle(700));
        assert_eq!(rest_a, rest_b);
        assert_eq!(c.stats(), restored.stats());
        assert_eq!(c.energy(), restored.energy());
        assert_eq!(save(&mut c).to_string(), save(&mut restored).to_string());
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let mut c = ch();
        let mut snap = save(&mut c);
        // Drop a required key.
        if let Json::Obj(pairs) = &mut snap {
            pairs.retain(|(k, _)| k != "bus_free");
        }
        let err = StateCodec::load(&mut c, &snap).unwrap_err();
        assert!(err.contains("bus_free"), "{err}");
        // Bank count mismatch (different configuration).
        let mut other = ChannelSim::new(
            MemTimingConfig::paper(),
            EnergyConfig::default_values(),
            8,
            32,
        );
        let err = StateCodec::load(&mut c, &save(&mut other)).unwrap_err();
        assert!(err.contains("banks"), "{err}");
        // A queued request naming a bank the channel does not have.
        let mut queued = ch();
        queued.push(rd(1, Module::M1, 2, 0), Cycle(0));
        let text = save(&mut queued)
            .to_string()
            .replace("\"bank\":2", "\"bank\":99");
        let err = StateCodec::load(&mut ch(), &Json::parse(&text).expect("valid")).unwrap_err();
        assert!(err.contains("bank 99"), "{err}");
    }

    #[test]
    fn restore_rejects_a_queue_out_of_enqueue_order() {
        let mut queued = ch();
        queued.push(rd(1, Module::M1, 2, 0), Cycle(3));
        queued.push(rd(2, Module::M1, 5, 0), Cycle(9));
        let text = save(&mut queued).to_string();
        assert!(
            text.contains("\"enq\":3") && text.contains("\"enq\":9"),
            "{text}"
        );
        let swapped = text
            .replace("\"enq\":3", "\"enq\":@")
            .replace("\"enq\":9", "\"enq\":3")
            .replace("\"enq\":@", "\"enq\":9");
        let err = StateCodec::load(&mut ch(), &Json::parse(&swapped).expect("valid")).unwrap_err();
        assert!(err.contains("read_q: [1]: enq 3"), "{err}");
    }

    /// A capped row hit pushed under a standing refusal yields to an
    /// older miss on its bank wherever that miss sits in the queue: the
    /// refusal stays the miss's start, as a channel without the hint
    /// computes it.
    #[test]
    fn a_pushed_capped_hit_yields_to_an_older_miss_anywhere_in_the_queue() {
        let mut c = ch();
        let t = c.timing.m1;
        let (before, now) = (Cycle(999), Cycle(1_000));
        // Bank 0 has row 0 open after `cap` hits: a hit may start at
        // `now`, a miss only once write recovery ends. Banks 1 and 2 are
        // closed and busy.
        let b = &mut c.banks[0];
        b.open_row = Some(0);
        b.cas_ready = now;
        b.last_act = Some(Cycle::ZERO);
        b.pre_ready = now + 50;
        b.hit_streak = c.timing.frfcfs_cap;
        b.derive_miss_first(&t);
        for b in &mut c.banks[1..3] {
            b.cas_ready = now + 100;
            b.derive_miss_first(&t);
        }
        // Misses on banks 1, 2 and 0, last the one the hit must wait for.
        for (id, bank) in [(0, 1), (1, 2), (2, 0)] {
            c.push(rd(id, Module::M1, bank, 1), before);
        }
        let mut out = Vec::new();
        c.advance(before, &mut out);
        assert!(c.sched_hint.is_some(), "both queues refused");
        c.push(rd(3, Module::M1, 0, 0), now);
        let hinted = c.next_event(now);
        c.sched_hint = None;
        assert_eq!((hinted, c.next_event(now)), (now + 50, now + 50));
    }

    #[test]
    fn read_latency_stat_accumulates() {
        let mut c = ch();
        c.push(rd(0, Module::M1, 0, 0), Cycle(0));
        let out = run_until_idle(&mut c, Cycle(0));
        assert_eq!(c.stats().read_latency_sum, out[0].latency());
        assert!(c.stats().avg_read_latency() > 0.0);
    }

    /// The parent scheduler's plan, from the bank's raw fields: the cycle
    /// the first command can issue (a row hit's CAS waits for its bus
    /// slot) and the bank schedule.
    fn reference_plan(c: &ChannelSim, q: &Queued, now: Cycle) -> (Cycle, BankSchedule) {
        let t = c.tech(q.req.loc.module);
        let bank = c.bank(q.req.loc);
        let row = q.req.loc.row;
        let (first_cmd, cas_at) = match bank.open_row {
            Some(open) if open == row => {
                let cas_at = bank.cas_ready.max(now);
                let data_start = (cas_at + t.t_cl).max(c.bus_free);
                (data_start - Cycle(t.t_cl), cas_at)
            }
            Some(_) => {
                let last_act = bank.last_act.unwrap_or(Cycle::ZERO);
                let pre_at = bank
                    .pre_ready
                    .max(last_act + t.t_ras)
                    .max(bank.cas_ready)
                    .max(now);
                let act_at = (pre_at + t.t_rp).max(last_act + t.t_rc());
                (pre_at, act_at + t.t_rcd)
            }
            None => {
                let rc_ready = bank.last_act.map_or(Cycle::ZERO, |a| a + t.t_rc());
                let act_at = bank.cas_ready.max(rc_ready).max(now);
                (act_at, act_at + t.t_rcd)
            }
        };
        let row_hit = bank.open_row == Some(row);
        let p = BankSchedule {
            cas_at,
            row_hit,
            activates: !row_hit,
        };
        (first_cmd, p)
    }

    /// The parent scheduler's pick: a plan per entry, and a scan of the
    /// whole queue for each capped row hit's starvation test.
    fn reference_pick(
        c: &ChannelSim,
        queue: &[Queued],
        now: Cycle,
    ) -> Result<(usize, BankSchedule), Cycle> {
        let cap = c.timing.frfcfs_cap;
        let mut best_any: Option<(usize, BankSchedule)> = None;
        let mut earliest = Cycle::NEVER;
        for (i, q) in queue.iter().enumerate() {
            let (first_cmd, p) = reference_plan(c, q, now);
            if first_cmd > now {
                if best_any.is_none() {
                    earliest = earliest.min(first_cmd);
                }
                continue;
            }
            if p.row_hit {
                if c.bank(q.req.loc).hit_streak < cap {
                    return Ok((i, p));
                }
                let starves_older = queue.iter().any(|o| {
                    work::count_cap_test_visit();
                    o.req.loc.module == q.req.loc.module
                        && o.req.loc.bank == q.req.loc.bank
                        && o.req.loc.row != q.req.loc.row
                        && o.enq < q.enq
                });
                if starves_older {
                    continue;
                }
            }
            if best_any.is_none() {
                best_any = Some((i, p));
            }
        }
        best_any.ok_or(earliest)
    }

    /// Starvation-scan visits on this thread so far; a release build
    /// counts none.
    fn cap_test_visits() -> u64 {
        #[cfg(debug_assertions)]
        let visits = work::cap_test_visits();
        #[cfg(not(debug_assertions))]
        let visits = 0;
        visits
    }

    /// Bank states and a bus from `seed`: open or closed rows (rows
    /// 0..3), `last_act` unset or set, hit streaks around the cap, and
    /// timestamps spread around the pick cycles the property uses.
    fn random_channel(banks: usize, seed: u64) -> ChannelSim {
        let mut c = ChannelSim::new(
            MemTimingConfig::paper(),
            EnergyConfig::default_values(),
            banks,
            32,
        );
        let mut rng = Rng::seed_from_u64(seed);
        let cap = c.timing.frfcfs_cap;
        let (m1, m2) = (c.timing.m1, c.timing.m2);
        for (i, bank) in c.banks.iter_mut().enumerate() {
            let t = if i < banks { &m1 } else { &m2 };
            bank.open_row = rng.gen_bool(0.8).then(|| rng.gen_range(0..3u64));
            bank.cas_ready = Cycle(rng.gen_range(0..300u64));
            bank.last_act = rng.gen_bool(0.8).then(|| Cycle(rng.gen_range(0..300u64)));
            bank.pre_ready = Cycle(rng.gen_range(0..300u64));
            bank.hit_streak = rng.gen_range(cap.saturating_sub(2)..cap + 3);
            bank.derive_miss_first(t);
        }
        c.bus_free = Cycle(rng.gen_range(0..300u64));
        c
    }

    /// The pick returns what the scanning pick it replaced returns, on
    /// random bank states at 1 to 79 banks per module, and on
    /// enqueue-ordered queues with runs of equal enqueue cycles that
    /// crowd a few banks (`spread` of them from `base`, in each module);
    /// and its starvation tests visit no more entries than the
    /// reference's, which scans the whole queue for every startable
    /// capped hit.
    #[test]
    fn pick_matches_the_scanning_reference() {
        let cfg = Config::with_cases(2048);
        let visits = cap_test_visits();
        let entry = tuple4(u8_range(0..3), any_bool(), u32_range(0..80), u8_range(0..3));
        check_with(
            &cfg,
            &[],
            "pick_matches_the_scanning_reference",
            tuple3(
                tuple4(
                    u32_range(1..80),
                    u32_range(1..4),
                    u32_range(0..80),
                    u64_range(0..u64::MAX),
                ),
                vec_of(entry, 0..24),
                u64_range(0..300),
            ),
            |((banks, spread, base, seed), entries, now)| {
                let c = random_channel(*banks as usize, *seed);
                let mut enq = Cycle::ZERO;
                let queue: Vec<Queued> = entries
                    .iter()
                    .enumerate()
                    .map(|(i, &(step, m2, bank, row))| {
                        enq += u64::from(step);
                        Queued {
                            req: rd(
                                i as u64,
                                if m2 { Module::M2 } else { Module::M1 },
                                (base + bank % spread) % banks,
                                u64::from(row),
                            ),
                            enq,
                        }
                    })
                    .collect();
                let now = Cycle(*now);
                let visits = cap_test_visits();
                let fast = c.pick(&queue, now).map(|i| {
                    let p = c.bank(queue[i].req.loc).plan(
                        c.tech(queue[i].req.loc.module),
                        queue[i].req.loc.row,
                        now,
                    );
                    (i, p.cas_at, p.row_hit, p.activates)
                });
                let between = cap_test_visits();
                let slow = reference_pick(&c, &queue, now)
                    .map(|(i, p)| (i, p.cas_at, p.row_hit, p.activates));
                prop_assert_eq!(fast, slow);
                let (fast_visits, slow_visits) = (between - visits, cap_test_visits() - between);
                prop_assert!(
                    fast_visits <= slow_visits,
                    "starvation tests visited {fast_visits} entries, the reference {slow_visits}"
                );
                Ok(())
            },
        );
        assert!(
            cfg!(not(debug_assertions)) || cap_test_visits() > visits,
            "no case reached a starvation test"
        );
    }

    /// The scan-and-sort drain the in-order queue replaced: it moves
    /// every request done by `now` out of `inflight`, whatever its
    /// position, then sorts the moved ones by `(done, id)`.
    fn reference_drain(inflight: &mut Vec<Served>, now: Cycle, served: &mut Vec<Served>) {
        let mut i = 0;
        let before = served.len();
        while i < inflight.len() {
            if inflight[i].done <= now {
                served.push(inflight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        served[before..].sort_unstable_by_key(|s| (s.done, s.id));
    }

    /// Draining the front of the in-order queue yields the served stream
    /// the scan and sort yields, on reads and writes to both modules with
    /// swaps between them, advanced at the channel's next event or up to
    /// 40 cycles later (so one drain can complete several requests); and
    /// the queue stays strictly increasing in `done`.
    #[test]
    fn fifo_drain_matches_the_scan_and_sort_reference() {
        let completed_several = std::cell::Cell::new(false);
        check_with(
            &Config {
                cases: 256,
                ..Config::default()
            },
            &[],
            "fifo_drain_matches_the_scan_and_sort_reference",
            vec_of(
                tuple4(
                    u8_range(0..5),
                    u32_range(0..16),
                    u64_range(0..4),
                    u64_range(0..40),
                ),
                1..120,
            ),
            |steps| {
                let mut c = ch();
                let mut now = Cycle::ZERO;
                for (id, &(action, bank, row, late)) in steps.iter().enumerate() {
                    let id = id as u64;
                    match action {
                        0 => c.push(rd(id, Module::M1, bank, row), now),
                        1 => c.push(rd(id, Module::M2, bank, row), now),
                        2 => c.push(wr(id, Module::M1, bank, row), now),
                        3 => c.push(wr(id, Module::M2, bank, row), now),
                        _ => {
                            let m1 = MemLoc {
                                module: Module::M1,
                                bank,
                                row,
                            };
                            let m2 = MemLoc {
                                module: Module::M2,
                                ..m1
                            };
                            c.begin_swap(now, m1, m2);
                        }
                    }
                    let next = c.next_event(now);
                    now = if next < Cycle::NEVER { next } else { now + 1 } + late;
                    let mut served = Vec::new();
                    c.advance(now, &mut served);
                    // The drain saw what it served and what it left.
                    let mut seen: Vec<Served> = c.inflight.iter().chain(&served).copied().collect();
                    seen.reverse();
                    let mut want = Vec::new();
                    reference_drain(&mut seen, now, &mut want);
                    prop_assert_eq!(&served, &want);
                    seen.sort_unstable_by_key(|s| (s.done, s.id));
                    prop_assert_eq!(c.inflight.iter().copied().collect::<Vec<_>>(), seen);
                    prop_assert!(c
                        .inflight
                        .iter()
                        .zip(c.inflight.iter().skip(1))
                        .all(|(a, b)| a.done < b.done));
                    if served.len() > 1 {
                        completed_several.set(true);
                    }
                }
                Ok(())
            },
        );
        assert!(
            completed_several.get(),
            "no drain completed several requests"
        );
    }
}
