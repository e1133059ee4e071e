//! The full-system simulator: cores + page allocation + ST/STC + migration
//! policy + memory channels.
//!
//! Event-driven main loop: at each step the clock jumps to the earliest
//! next event of any channel or core. Channels report served requests; the
//! system routes them back to cores, feeds the policy (access counters,
//! RSM counters, migration decisions), performs swaps, and manages the
//! STC (misses fetch ST entries from M1, evictions write them back —
//! modelled as real M1 traffic, as the paper requires).
//!
//! The loop caches each channel's and core's next-event time and only
//! advances components that are due (`next <= clock`) or were mutated
//! since the cache was filled (pushed to, completed into, swapped,
//! restarted). This is behavior-preserving because `next_event` is exactly
//! the earliest cycle a component's state can change absent outside
//! mutation: advancing it earlier is a no-op (channels apply deferred M1
//! refreshes on `push`/`begin_swap` and at end of run, so bank state and
//! refresh accounting match an eagerly advanced run).
//!
//! Multiprogram methodology (paper §4.2): each program's statistics are
//! recorded for its first completion; programs that finish early restart
//! (fresh instance, new seed) to keep contending until the slowest
//! finishes.

use profess_cpu::{CoreRequest, CoreSim, MemOpKind, OpSource};
use profess_mem::{AccessKind, ChannelSim, PhysRequest, Served};
use profess_metrics::{fnv64, Json, State, StateCodec};
use profess_obs::{Log2Histogram, TraceConfig, TraceEvent, TraceLog, Tracer};
use profess_trace::SpecProgram;
use profess_types::config::SystemConfig;
use profess_types::geometry::Geometry;
use profess_types::ids::{ProgramId, SlotIdx};
use profess_types::{Cycle, GroupId};

use crate::alloc::FrameAllocator;
use crate::errors::{BudgetResource, RunLimits, SimBudget, SimError};
use crate::flat::{FlatPageTable, SlabQueues, TokenRing};
use crate::org::{qac, SwapTable};
use crate::policies::cameo::CameoPolicy;
use crate::policies::mdm::MdmPolicy;
use crate::policies::mempod::MemPodPolicy;
use crate::policies::pom::PomPolicy;
use crate::policies::profess::ProfessPolicy;
use crate::policies::static_::StaticPolicy;
use crate::policies::{AccessCtx, Decision, EvictRecord, MigrationPolicy};
use crate::regions::RegionMap;
use crate::snapshot::{self, SystemSnapshot};
use crate::stc::{CachedEntry, Stc};

/// Which migration policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Never migrate.
    Static,
    /// CAMEO-style global threshold of one access.
    Cameo,
    /// PoM: competing counters + adaptive global threshold (the paper's
    /// baseline).
    Pom,
    /// MemPod: MEA intervals.
    MemPod,
    /// The paper's Migration-Decision Mechanism alone.
    Mdm,
    /// The full framework: MDM guided by RSM.
    Profess,
    /// ProFess with the Case 3 product rule disabled (ablation).
    ProfessNoCase3,
    /// SILC-FM-style: threshold of one access plus lock-above-50
    /// (Table 2 row 3; not part of the paper's evaluation).
    SilcFm,
    /// PoM guided by RSM's Table 7 cases (the paper's §6 suggestion that
    /// RSM can steer other migration algorithms).
    RsmPom,
}

impl PolicyKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Static => "Static",
            PolicyKind::Cameo => "CAMEO",
            PolicyKind::Pom => "PoM",
            PolicyKind::MemPod => "MemPod",
            PolicyKind::Mdm => "MDM",
            PolicyKind::Profess => "ProFess",
            PolicyKind::ProfessNoCase3 => "ProFess-noC3",
            PolicyKind::SilcFm => "SILC-FM",
            PolicyKind::RsmPom => "RSM+PoM",
        }
    }

    /// Whether this policy uses RSM's private regions (and thus the
    /// region-aware OS allocator).
    pub fn uses_private_regions(self) -> bool {
        matches!(
            self,
            PolicyKind::Profess | PolicyKind::ProfessNoCase3 | PolicyKind::RsmPom
        )
    }
}

type ProgramFactory = Box<dyn Fn(u32) -> Box<dyn OpSource>>;

/// Per-program results.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Program name (SPEC name or "custom").
    pub name: String,
    /// Instructions of the recorded (first) instance.
    pub instructions: u64,
    /// Core cycles the recorded instance took.
    pub core_cycles: u64,
    /// Instructions per core cycle of the recorded instance.
    pub ipc: f64,
    /// Requests served for this program (all instances).
    pub served: u64,
    /// Of which served from M1.
    pub served_from_m1: u64,
    /// Mean read latency in channel cycles (all instances).
    pub read_latency_avg: f64,
    /// Completed instances beyond the first.
    pub restarts: u32,
}

impl ProgramReport {
    /// Fraction of requests served from M1.
    pub fn m1_fraction(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.served_from_m1 as f64 / self.served as f64
        }
    }
}

/// Per-period sampling diagnostics (Table 4 study).
#[derive(Debug, Clone)]
pub struct SamplingReport {
    /// Mean (over periods) of the per-region request-count standard
    /// deviation, as a fraction of the per-region mean.
    pub mean_sigma_req: f64,
    /// Standard deviation of the raw per-period SF_A estimates.
    pub sigma_raw_sfa: f64,
    /// Standard deviation of the smoothed SF_A estimates.
    pub sigma_avg_sfa: f64,
    /// Mean raw SF_A.
    pub mean_raw_sfa: f64,
    /// Number of completed sampling periods.
    pub periods: usize,
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Policy name.
    pub policy: String,
    /// Per-program results, in core order.
    pub programs: Vec<ProgramReport>,
    /// Simulated channel cycles.
    pub elapsed_cycles: u64,
    /// Data requests served (reads + writes, excluding ST traffic).
    pub total_served: u64,
    /// Block swaps performed.
    pub swaps: u64,
    /// STC hit rate across channels.
    pub stc_hit_rate: f64,
    /// Total memory-system energy in joules.
    pub energy_joules: f64,
    /// Served requests per joule (= requests per second per watt).
    pub requests_per_joule: f64,
    /// Mean read latency over data reads, channel cycles.
    pub avg_read_latency_cycles: f64,
    /// Row-buffer hit rate at the channels.
    pub row_hit_rate: f64,
    /// True if the run hit the safety cycle cap before completing.
    pub truncated: bool,
    /// Optional RSM sampling diagnostics per program (Table 4 study).
    pub sampling: Vec<Option<SamplingReport>>,
    /// Policy-specific diagnostics (ProFess: guidance stats, SF values).
    pub diag: crate::policies::PolicyDiagnostics,
    /// The drained event trace; `None` unless tracing was enabled
    /// ([`SystemBuilder::trace`] / `PROFESS_TRACE`). Deliberately not
    /// part of the serialized report: the headline artifacts stay
    /// byte-identical whether or not a run was traced.
    pub trace: Option<Box<TraceLog>>,
}

impl SystemReport {
    /// Fraction of swaps among all served requests (paper §5.4 reports
    /// ProFess reducing this).
    pub fn swap_fraction(&self) -> f64 {
        if self.total_served == 0 {
            0.0
        } else {
            self.swaps as f64 / self.total_served as f64
        }
    }

    /// Delivered bandwidth in 64 B lines per kilocycle — the surface
    /// characterization's throughput axis.
    pub fn bandwidth_lines_per_kcycle(&self) -> f64 {
        if self.elapsed_cycles == 0 {
            0.0
        } else {
            self.total_served as f64 * 1000.0 / self.elapsed_cycles as f64
        }
    }

    /// Sum of per-program IPCs (system throughput for a surface cell).
    pub fn aggregate_ipc(&self) -> f64 {
        self.programs.iter().map(|p| p.ipc).sum()
    }

    /// Ratio of the best to the worst per-program IPC. When the
    /// programs are identical load generators (as in a surface cell)
    /// this equals the max-slowdown spread RSM bounds, without needing
    /// solo reference runs. `1.0` is perfectly fair; `0.0` means a
    /// program made no progress (or there are no programs).
    pub fn ipc_spread(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for p in &self.programs {
            min = min.min(p.ipc);
            max = max.max(p.ipc);
        }
        if !min.is_finite() || min <= 0.0 {
            return 0.0;
        }
        max / min
    }
}

/// Builder for a simulation run.
pub struct SystemBuilder {
    cfg: SystemConfig,
    policy: PolicyKind,
    custom_policy: Option<(Box<dyn MigrationPolicy>, bool)>,
    programs: Vec<(String, ProgramFactory)>,
    max_cycles: u64,
    sample_regions: bool,
    trace: TraceConfig,
    limits: RunLimits,
    snapshot_at: Option<u64>,
    snapshot_on_cancel: bool,
    restore_from: Option<SystemSnapshot>,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("policy", &self.policy)
            .field("programs", &self.programs.len())
            .finish_non_exhaustive()
    }
}

impl SystemBuilder {
    /// Starts a builder with the given configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        SystemBuilder {
            cfg,
            policy: PolicyKind::Pom,
            custom_policy: None,
            programs: Vec::new(),
            max_cycles: 2_000_000_000,
            sample_regions: false,
            trace: TraceConfig::from_env(),
            limits: RunLimits::default(),
            snapshot_at: None,
            snapshot_on_cancel: false,
            restore_from: None,
        }
    }

    /// Overrides the tracing configuration (the default comes from the
    /// `PROFESS_TRACE` environment; tests pass an explicit config so they
    /// never depend on process-global state).
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = cfg;
        self
    }

    /// Selects the migration policy.
    pub fn policy(mut self, p: PolicyKind) -> Self {
        self.policy = p;
        self
    }

    /// Installs a user-provided migration policy instead of a built-in
    /// one. `private_regions` selects whether the OS reserves RSM-style
    /// private regions (needed if the policy consumes region classes).
    ///
    /// The paper notes RSM can guide other migration algorithms and MDM
    /// can serve other organizations; this hook is the extension point.
    pub fn custom_policy(
        mut self,
        policy: Box<dyn MigrationPolicy>,
        private_regions: bool,
    ) -> Self {
        self.custom_policy = Some((policy, private_regions));
        self
    }

    /// Caps simulated cycles (safety net; the report flags truncation).
    pub fn max_cycles(mut self, c: u64) -> Self {
        self.max_cycles = c;
        self
    }

    /// Sets a hard resource budget. Unlike [`SystemBuilder::max_cycles`]
    /// (which truncates the run and still reports), blowing a budget
    /// aborts the run with [`SimError::BudgetExceeded`] — use
    /// [`SystemBuilder::try_run`] to observe it.
    pub fn budget(mut self, b: SimBudget) -> Self {
        self.limits.budget = b;
        self
    }

    /// Installs a cooperative cancellation token, polled once per main
    /// loop step; firing it makes [`SystemBuilder::try_run`] return
    /// [`SimError::Cancelled`] promptly instead of running to
    /// completion.
    pub fn cancel_token(mut self, t: profess_par::CancelToken) -> Self {
        self.limits.cancel = Some(t);
        self
    }

    /// Preempts the run into a snapshot at the first clock boundary at or
    /// after `cycle`: [`SystemBuilder::try_run`] returns
    /// [`SimError::Preempted`] instead of running to completion.
    /// Restoring that snapshot (into a builder configured identically but
    /// *without* `snapshot_at`) and running to the end yields a report
    /// byte-identical to the uninterrupted run.
    pub fn snapshot_at(mut self, cycle: u64) -> Self {
        self.snapshot_at = Some(cycle);
        self
    }

    /// Makes cooperative cancellation ([`SystemBuilder::cancel_token`])
    /// preempt the run into a snapshot instead of failing with
    /// [`SimError::Cancelled`] — so a supervisor's watchdog can convert a
    /// timed-out cell into a resumable checkpoint.
    pub fn snapshot_on_cancel(mut self, on: bool) -> Self {
        self.snapshot_on_cancel = on;
        self
    }

    /// Resumes from a mid-run snapshot instead of starting at cycle zero.
    /// The builder must be configured identically to the run that
    /// produced the snapshot (same config, policy, programs, cycle cap);
    /// a mismatch fails with [`SimError::SnapshotConfigMismatch`] and a
    /// damaged snapshot with [`SimError::SnapshotCorrupt`].
    pub fn restore(mut self, snap: &SystemSnapshot) -> Self {
        self.restore_from = Some(snap.clone());
        self
    }

    /// Enables the Table 4 region-sampling diagnostics.
    pub fn sample_regions(mut self, on: bool) -> Self {
        self.sample_regions = on;
        self
    }

    /// Adds a program from a factory producing a fresh op source per
    /// instance (argument = restart index).
    pub fn program(
        mut self,
        name: impl Into<String>,
        factory: impl Fn(u32) -> Box<dyn OpSource> + 'static,
    ) -> Self {
        self.programs.push((name.into(), Box::new(factory)));
        self
    }

    /// Adds a Table 9 program with the given instruction budget; footprint
    /// scaling and seeding come from the configuration.
    pub fn spec_program(self, prog: SpecProgram, instructions: u64) -> Self {
        let div = self.cfg.footprint_div;
        let base_seed = self.cfg.seed;
        let idx = self.programs.len() as u64;
        self.program(prog.name(), move |restart| {
            let seed = base_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(idx * 1_000_003 + u64::from(restart) * 7_919);
            Box::new(prog.generator(div, instructions, seed))
        })
    }

    /// Adds every program of a Table 10 workload, each sized for roughly
    /// `target_misses` memory operations.
    pub fn workload(mut self, w: &profess_trace::Workload, target_misses: u64) -> Self {
        for p in w.programs {
            self = self.spec_program(p, p.budget_for_misses(target_misses));
        }
        self
    }

    /// Runs the simulation to completion, restoring first if a snapshot
    /// was installed via [`SystemBuilder::restore`].
    ///
    /// Every way the run can end without a report is a [`SimError`]: a
    /// builder that cannot run ([`SimError::Config`]), deadlock, budget
    /// exhaustion, cancellation, or a preemption
    /// ([`SystemBuilder::snapshot_at`] /
    /// [`SystemBuilder::snapshot_on_cancel`]) carrying the snapshot to
    /// resume from ([`SimError::Preempted`]).
    pub fn try_run(mut self) -> Result<SystemReport, SimError> {
        let config = |what: &str| SimError::Config {
            what: what.to_string(),
        };
        if self.programs.is_empty() {
            return Err(config("no programs configured"));
        }
        if self.programs.len() > self.cfg.cpu.num_cores {
            return Err(config(&format!(
                "more programs than cores ({} programs, {} cores)",
                self.programs.len(),
                self.cfg.cpu.num_cores
            )));
        }
        let restore_from = self.restore_from.take();
        let mut sys = System::new(self);
        if let Some(snap) = restore_from {
            sys.restore_from_snapshot(&snap)?;
        }
        sys.run()
    }
}

#[derive(Debug, Clone, Copy, Default)]
enum Origin {
    Data {
        core: usize,
        seq: u64,
        is_write: bool,
        group: GroupId,
        orig_slot: SlotIdx,
        from_m1: bool,
    },
    StFetch {
        channel: usize,
        group: GroupId,
    },
    #[default]
    StWrite,
}

/// Tagged by `"t"`: 0 data, 1 ST fetch, 2 ST write-back. Indices into
/// system state are bounds-checked by [`System`]'s load.
impl State for Origin {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        let mut t = match self {
            Origin::Data { .. } => 0u8,
            Origin::StFetch { .. } => 1,
            Origin::StWrite => 2,
        };
        c.field("t", &mut t)?;
        if c.is_load() {
            *self = match t {
                0 => Origin::Data {
                    core: 0,
                    seq: 0,
                    is_write: false,
                    group: GroupId(0),
                    orig_slot: SlotIdx::M1,
                    from_m1: false,
                },
                1 => Origin::StFetch {
                    channel: 0,
                    group: GroupId(0),
                },
                2 => Origin::StWrite,
                t => return Err(format!("t: unknown origin tag {t}")),
            };
        }
        match self {
            Origin::Data {
                core,
                seq,
                is_write,
                group,
                orig_slot,
                from_m1,
            } => {
                c.field("core", core)?;
                c.field("seq", seq)?;
                c.field("w", is_write)?;
                c.field("g", group)?;
                c.field("s", orig_slot)?;
                c.field("m1", from_m1)
            }
            Origin::StFetch { channel, group } => {
                c.field("ch", channel)?;
                c.field("g", group)
            }
            Origin::StWrite => Ok(()),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PendingData {
    core: usize,
    seq: u64,
    is_write: bool,
    orig_slot: SlotIdx,
}

/// A `[core, seq, is_write, slot]` tuple.
impl State for PendingData {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        (
            &mut self.core,
            &mut self.seq,
            &mut self.is_write,
            &mut self.orig_slot,
        )
            .state(c)
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct CoreStats {
    served: u64,
    from_m1: u64,
    reads: u64,
    read_lat_sum: u64,
}

/// A `[served, from_m1, reads, read_lat_sum]` tuple.
impl State for CoreStats {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        [
            &mut self.served,
            &mut self.from_m1,
            &mut self.reads,
            &mut self.read_lat_sum,
        ]
        .state(c)
    }
}

/// Region-sampling instrumentation for the Table 4 study.
#[derive(Debug)]
struct RegionSampler {
    m_samp: u64,
    num_regions: usize,
    counts: Vec<u64>,
    served: u64,
    sigma_fracs: Vec<f64>,
}

impl RegionSampler {
    fn new(m_samp: u64, num_regions: usize) -> Self {
        RegionSampler {
            m_samp,
            num_regions,
            counts: vec![0; num_regions],
            served: 0,
            sigma_fracs: Vec::new(),
        }
    }

    // Region ids are bounded by the sampler geometry fixed at construction.
    fn on_served(&mut self, region: usize) {
        self.counts[region] += 1;
        self.served += 1;
        if self.served >= self.m_samp {
            let n = self.num_regions as f64;
            let mean = self.counts.iter().sum::<u64>() as f64 / n;
            if mean > 0.0 {
                let var = self
                    .counts
                    .iter()
                    .map(|&c| (c as f64 - mean).powi(2))
                    .sum::<f64>()
                    / n;
                self.sigma_fracs.push(var.sqrt() / mean);
            }
            self.counts.iter_mut().for_each(|c| *c = 0);
            self.served = 0;
        }
    }
}

struct System {
    cfg: SystemConfig,
    geom: Geometry,
    policy_kind: PolicyKind,
    channels: Vec<ChannelSim>,
    stcs: Vec<Stc>,
    st: SwapTable,
    alloc: FrameAllocator,
    page_tables: Vec<FlatPageTable>,
    cores: Vec<CoreSim>,
    names: Vec<String>,
    factories: Vec<ProgramFactory>,
    restarts: Vec<u32>,
    first_done: Vec<Option<(u64, u64, f64)>>, // (instructions, core_cycles, ipc)
    policy: Box<dyn MigrationPolicy>,
    // Whether `policy.next_poll()` can ever return `Some`: among the
    // builtins only MemPod polls, and a custom policy is assumed to.
    // Caching the answer keeps the per-step poll check branch-only.
    policy_polls: bool,
    region_map: RegionMap,
    meta: TokenRing<Origin>,
    // Requests waiting on an in-flight ST fetch, one slab-backed FIFO
    // per group; `pending_buf` is the drain scratch reused across
    // completions so serving waiters never allocates.
    pending_st: SlabQueues<PendingData>,
    pending_buf: Vec<PendingData>,
    // Eviction-record scratch reused across STC evictions.
    evict_buf: Vec<EvictRecord>,
    // Cached next-event times; `dirty` marks entries whose component was
    // mutated since the cache was filled and must be recomputed.
    ch_next: Vec<Cycle>,
    ch_dirty: Vec<bool>,
    core_next: Vec<Cycle>,
    core_dirty: Vec<bool>,
    core_stats: Vec<CoreStats>,
    // Shadow RSM used only for sampling diagnostics (runs under any
    // policy so Table 4 can be produced with the baseline too).
    sampler_rsm: Option<crate::policies::rsm::Rsm>,
    region_samplers: Vec<RegionSampler>,
    clock: Cycle,
    max_cycles: u64,
    truncated: bool,
    limits: RunLimits,
    retired: u64,
    // Preemption: the snapshot triggers.
    snapshot_at: Option<u64>,
    snapshot_on_cancel: bool,
    // Event tracing (off by default). `tracing` mirrors
    // `tracer.is_on()` so hot paths branch on a plain bool; `trace_rsm`
    // is a shadow RSM run only when tracing under a policy without its
    // own RSM, so every traced run yields rsm_epoch events.
    tracing: bool,
    trace_cfg: TraceConfig,
    tracer: Tracer,
    trace_rsm: Option<crate::policies::rsm::Rsm>,
    served_since_sample: u64,
    policy_trace_buf: Vec<TraceEvent>,
}

impl System {
    fn new(b: SystemBuilder) -> Self {
        let cfg = b.cfg;
        let geom = cfg.org.clone();
        let n_prog = b.programs.len();
        let custom_private = b.custom_policy.as_ref().map(|&(_, p)| p);
        let region_map = if custom_private.unwrap_or_else(|| b.policy.uses_private_regions()) {
            RegionMap::with_private_regions(geom.num_regions, n_prog as u32)
        } else {
            RegionMap::all_shared(geom.num_regions)
        };
        let alloc = FrameAllocator::new(&geom, region_map.clone(), cfg.seed);
        let lines_per_block = geom.lines_per_block();
        let mut channels: Vec<ChannelSim> = (0..geom.num_channels)
            .map(|_| {
                ChannelSim::new(
                    cfg.mem.clone(),
                    cfg.energy,
                    cfg.org.banks_per_module as usize,
                    lines_per_block,
                )
            })
            .collect();
        let stcs: Vec<Stc> = (0..geom.num_channels)
            .map(|_| Stc::new(cfg.stc.entries, cfg.stc.ways))
            .collect();
        let k = cfg.mem.pom_k(lines_per_block);
        let custom = b.custom_policy.map(|(p, _)| p);
        let mut policy: Box<dyn MigrationPolicy> = if let Some(p) = custom {
            p
        } else {
            match b.policy {
                PolicyKind::Static => Box::new(StaticPolicy::new()),
                PolicyKind::Cameo => Box::new(CameoPolicy::new(cfg.cameo)),
                PolicyKind::Pom => Box::new(PomPolicy::new(cfg.pom.clone(), k)),
                PolicyKind::MemPod => {
                    Box::new(MemPodPolicy::new(cfg.mempod, cfg.mem.clock.ns_per_cycle))
                }
                PolicyKind::Mdm => Box::new(MdmPolicy::new(cfg.mdm, n_prog)),
                PolicyKind::Profess => Box::new(ProfessPolicy::new(cfg.mdm, cfg.rsm, n_prog)),
                PolicyKind::ProfessNoCase3 => {
                    let mut p = ProfessPolicy::new(cfg.mdm, cfg.rsm, n_prog);
                    p.disable_case3();
                    Box::new(p)
                }
                PolicyKind::SilcFm => Box::new(crate::policies::silcfm::SilcFmPolicy::new(
                    Default::default(),
                )),
                PolicyKind::RsmPom => Box::new(crate::policies::rsm_guided::RsmGuided::new(
                    Box::new(PomPolicy::new(cfg.pom.clone(), k)),
                    cfg.rsm,
                    n_prog,
                    "RSM+PoM",
                )),
            }
        };
        let policy_polls = custom_private.is_some() || policy.next_poll().is_some();
        let mut names = Vec::new();
        let mut factories: Vec<ProgramFactory> = Vec::new();
        for (name, f) in b.programs {
            names.push(name);
            factories.push(f);
        }
        let mut cores: Vec<CoreSim> = factories
            .iter()
            .map(|f| CoreSim::new(&cfg.cpu, &cfg.mem.clock, f(0)))
            .collect();
        let trace_cfg = b.trace;
        let tracing = trace_cfg.enabled;
        let trace_rsm = if tracing {
            policy.set_tracing(true);
            channels.iter_mut().for_each(ChannelSim::enable_obs);
            cores.iter_mut().for_each(CoreSim::enable_obs);
            // Policies with private regions run their own RSM and report
            // epochs via drain_trace; a shadow RSM covers the rest.
            if custom_private.unwrap_or_else(|| b.policy.uses_private_regions()) {
                None
            } else {
                Some(crate::policies::rsm::Rsm::new(cfg.rsm, n_prog))
            }
        } else {
            None
        };
        let sampler_rsm = if b.sample_regions {
            let mut r = crate::policies::rsm::Rsm::new(cfg.rsm, n_prog);
            r.keep_samples(true);
            Some(r)
        } else {
            None
        };
        let region_samplers = if b.sample_regions {
            (0..n_prog)
                .map(|_| RegionSampler::new(cfg.rsm.m_samp, geom.num_regions as usize))
                .collect()
        } else {
            Vec::new()
        };
        let n_ch = channels.len();
        System {
            policy_kind: b.policy,
            st: SwapTable::new(geom.num_groups()),
            page_tables: vec![FlatPageTable::with_capacity(geom.total_pages() as usize); n_prog],
            restarts: vec![0; n_prog],
            first_done: vec![None; n_prog],
            meta: TokenRing::new(),
            pending_st: SlabQueues::new(geom.num_groups() as usize),
            pending_buf: Vec::new(),
            evict_buf: Vec::new(),
            ch_next: vec![Cycle::ZERO; n_ch],
            ch_dirty: vec![true; n_ch],
            core_next: vec![Cycle::ZERO; n_prog],
            core_dirty: vec![true; n_prog],
            core_stats: vec![CoreStats::default(); n_prog],
            sampler_rsm,
            region_samplers,
            clock: Cycle::ZERO,
            max_cycles: b.max_cycles,
            truncated: false,
            limits: b.limits,
            retired: 0,
            snapshot_at: b.snapshot_at,
            snapshot_on_cancel: b.snapshot_on_cancel,
            tracing,
            trace_cfg,
            tracer: Tracer::new(&trace_cfg),
            trace_rsm,
            served_since_sample: 0,
            policy_trace_buf: Vec::new(),
            cfg,
            geom,
            channels,
            stcs,
            alloc,
            cores,
            names,
            factories,
            policy,
            policy_polls,
            region_map,
        }
    }

    fn token(&mut self, origin: Origin) -> u64 {
        self.meta.insert(origin)
    }

    /// Enqueues `req` on channel `ch` at the current clock and marks the
    /// channel's cached next-event time stale.
    // Core and channel ids are bounded by the geometry fixed at construction;
    // every per-core and per-channel vec is sized from it.
    fn push_channel(&mut self, ch: usize, req: PhysRequest) {
        let now = self.clock;
        self.ch_dirty[ch] = true;
        self.channels[ch].push(req, now);
    }

    fn block_index(&self, group: GroupId, slot: SlotIdx) -> u64 {
        u64::from(slot.0) * self.geom.num_groups() + group.0
    }

    fn owner(&self, group: GroupId, slot: SlotIdx) -> Option<ProgramId> {
        if u32::from(slot.0) >= self.geom.slots_per_group() {
            return None;
        }
        self.alloc.owner_of_block(self.block_index(group, slot))
    }

    /// Translates and enqueues a data request whose group is resident in
    /// the STC (or just fetched).
    fn issue_data(&mut self, p: PendingData, group: GroupId) {
        let entry = self.st.entry(group);
        let actual = entry.actual_of(p.orig_slot);
        let loc = self.geom.slot_loc(group, actual);
        let ch = self.geom.channel_of(group).index();
        let token = self.token(Origin::Data {
            core: p.core,
            seq: p.seq,
            is_write: p.is_write,
            group,
            orig_slot: p.orig_slot,
            from_m1: actual.is_m1(),
        });
        let kind = if p.is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.push_channel(
            ch,
            PhysRequest {
                id: token,
                kind,
                loc,
            },
        );
    }

    /// Routes one core request. A page fault with no free frame left is
    /// a configuration error: the footprints do not fit the memory.
    fn handle_core_request(&mut self, core: usize, r: CoreRequest) -> Result<(), SimError> {
        let lines_per_page = self.geom.page_bytes / self.geom.line_bytes;
        let vpage = r.line / lines_per_page;
        let program = ProgramId(core as u8);
        let frame = match self.page_tables[core].get(vpage) {
            Some(f) => f,
            None => {
                let Some(f) = self.alloc.allocate(program, &self.geom) else {
                    return Err(SimError::Config {
                        what: format!("out of physical memory for program {core}"),
                    });
                };
                self.page_tables[core].insert(vpage, f);
                f
            }
        };
        let line_in_page = r.line % lines_per_page;
        let block_in_page = line_in_page / self.geom.lines_per_block();
        let orig_block = frame * self.geom.blocks_per_page() + block_in_page;
        let (group, orig_slot) = self.geom.block_to_group_slot(orig_block);
        let ch = self.geom.channel_of(group).index();
        let pending = PendingData {
            core,
            seq: r.id,
            is_write: r.kind == MemOpKind::Store,
            orig_slot,
        };
        if self.stcs[ch].lookup(group).is_some() {
            self.issue_data(pending, group);
        } else {
            let first_miss = !self.pending_st.has(group.0 as usize);
            self.pending_st.push(group.0 as usize, pending);
            if first_miss {
                let loc = self.geom.st_entry_loc(group);
                let token = self.token(Origin::StFetch { channel: ch, group });
                self.push_channel(
                    ch,
                    PhysRequest {
                        id: token,
                        kind: AccessKind::Read,
                        loc,
                    },
                );
            }
        }
        Ok(())
    }

    /// Processes an evicted STC entry: QAC write-back, MDM statistics, and
    /// the ST write to M1.
    fn finish_eviction(&mut self, victim: CachedEntry, channel: usize) {
        let mut records = std::mem::take(&mut self.evict_buf);
        records.clear();
        let mut qac_changed = false;
        for slot in SlotIdx::up_to(self.geom.slots_per_group()) {
            let count = victim.ac[slot.index()];
            if count == 0 {
                continue;
            }
            let Some(owner) = self.owner(victim.group, slot) else {
                continue;
            };
            let q_e = qac::quantize(count);
            let entry = self.st.entry_mut(victim.group);
            if entry.qac[slot.index()] != q_e {
                qac_changed = true;
            }
            entry.qac[slot.index()] = q_e;
            records.push(EvictRecord {
                orig_slot: slot,
                owner,
                count,
                q_i: victim.q_i[slot.index()],
            });
        }
        if !records.is_empty() {
            self.policy.on_stc_evict(&records);
        }
        self.evict_buf = records;
        if victim.dirty || qac_changed {
            // Read-modify-write of the 8 B entry: the write back to M1.
            let loc = self.geom.st_entry_loc(victim.group);
            let token = self.token(Origin::StWrite);
            self.push_channel(
                channel,
                PhysRequest {
                    id: token,
                    kind: AccessKind::Write,
                    loc,
                },
            );
        }
    }

    /// Performs a swap promoting `orig_slot` of `group` into M1.
    fn do_swap(&mut self, group: GroupId, orig_slot: SlotIdx, mark_dirty: bool) {
        let ch = self.geom.channel_of(group).index();
        let (actual, m1_res) = {
            let e = self.st.entry(group);
            (e.actual_of(orig_slot), e.resident_of(SlotIdx::M1))
        };
        debug_assert!(actual.is_m2());
        let m1_loc = self.geom.slot_loc(group, SlotIdx::M1);
        let m2_loc = self.geom.slot_loc(group, actual);
        let now = self.clock;
        self.ch_dirty[ch] = true;
        let done = self.channels[ch].begin_swap(now, m1_loc, m2_loc);
        #[expect(
            clippy::expect_used,
            reason = "allocator invariant: a swap is only begun for a resident block"
        )]
        let promoted_owner = self
            .owner(group, orig_slot)
            .expect("accessed block must be allocated");
        let demoted_owner = self.owner(group, m1_res);
        // The swap is atomic in this model (the channel blocks until
        // `done`), so the completion event is emitted alongside the begin,
        // pre-stamped with the completion cycle.
        self.tracer.emit_with(|| TraceEvent::SwapBegin {
            at: now.raw(),
            channel: ch as u16,
            group: group.0,
            slot: orig_slot.0,
            promoted: promoted_owner.0,
            demoted: demoted_owner.map(|p| p.0),
            done: done.raw(),
        });
        self.tracer.emit_with(|| TraceEvent::SwapComplete {
            at: done.raw(),
            channel: ch as u16,
            group: group.0,
        });
        {
            let e = self.st.entry_mut(group);
            e.swap(orig_slot, m1_res);
            e.m1_owner = Some(promoted_owner);
        }
        if mark_dirty {
            if let Some(e) = self.stcs[ch].peek(group) {
                e.dirty = true;
            }
        }
        let group_is_private = self
            .region_map
            .owner_of_region(self.geom.region_of(group))
            .is_some();
        if let Some(rsm) = &mut self.trace_rsm {
            if !group_is_private {
                rsm.on_swap(promoted_owner, demoted_owner);
            }
        }
        self.policy
            .on_swap(promoted_owner, demoted_owner, group_is_private);
    }

    fn handle_served(&mut self, s: Served) {
        #[expect(
            clippy::expect_used,
            reason = "channel invariant: every completion token was issued by us"
        )]
        let origin = self
            .meta
            .remove(s.id)
            .expect("completion for unknown token");
        match origin {
            Origin::StWrite => {}
            Origin::StFetch { channel, group } => {
                let q_i = self.st.entry(group).qac;
                if let Some(victim) = self.stcs[channel].insert(group, q_i) {
                    self.finish_eviction(victim, channel);
                }
                let mut waiters = std::mem::take(&mut self.pending_buf);
                self.pending_st.drain_into(group.0 as usize, &mut waiters);
                for p in waiters.drain(..) {
                    self.issue_data(p, group);
                }
                self.pending_buf = waiters;
            }
            Origin::Data {
                core,
                seq,
                is_write,
                group,
                orig_slot,
                from_m1,
            } => {
                let program = ProgramId(core as u8);
                self.retired += 1;
                {
                    let st = &mut self.core_stats[core];
                    st.served += 1;
                    if from_m1 {
                        st.from_m1 += 1;
                    }
                    if !is_write {
                        st.reads += 1;
                        st.read_lat_sum += s.latency();
                    }
                }
                self.core_dirty[core] = true;
                self.cores[core].complete(seq, s.done);
                let class = self.region_map.classify(&self.geom, program, group);
                self.policy.on_served(program, class, from_m1);
                if let Some(rsm) = &mut self.sampler_rsm {
                    rsm.on_served(program, class, from_m1);
                }
                if self.tracing {
                    self.on_served_trace(program, class, from_m1);
                }
                if !self.region_samplers.is_empty() {
                    let region = self.geom.region_of(group).index();
                    self.region_samplers[core].on_served(region);
                }
                // Access counting and migration decision require the ST
                // entry to be STC-resident (paper §3.2.1's temporal
                // filter); it can have been evicted since issue.
                let ch = self.geom.channel_of(group).index();
                let w = if is_write {
                    self.policy.write_weight()
                } else {
                    1
                };
                let ac_max = self.cfg.mdm.ac_max;
                let Some(entry) = self.stcs[ch].peek(group) else {
                    return;
                };
                entry.bump(orig_slot, w, ac_max);
                // Downgraded to a shared borrow: the policy sees the entry
                // read-only while mutating the ST entry, and the disjoint
                // field borrows make the old per-access clone unnecessary.
                let entry_snapshot: &CachedEntry = entry;
                let st_entry = self.st.entry_mut(group);
                let actual_slot = st_entry.actual_of(orig_slot);
                let m1_resident = st_entry.resident_of(SlotIdx::M1);
                let m1_owner_slot_block =
                    u64::from(m1_resident.0) * self.geom.num_groups() + group.0;
                let m1_owner = self.alloc.owner_of_block(m1_owner_slot_block);
                let mut ctx = AccessCtx {
                    group,
                    orig_slot,
                    actual_slot,
                    program,
                    is_write,
                    now: self.clock,
                    entry: entry_snapshot,
                    st_entry,
                    m1_resident,
                    m1_owner,
                    want_trace: self.tracing,
                    trace: None,
                };
                let decision = self.policy.on_access(&mut ctx);
                let trace = ctx.trace.take();
                let promote = decision == Decision::Promote && actual_slot.is_m2();
                if let Some(t) = trace {
                    self.tracer.push(TraceEvent::MdmDecision {
                        at: self.clock.raw(),
                        program: program.0,
                        group: group.0,
                        case: t.case,
                        verdict: t.verdict,
                        rem_m2: t.rem_m2,
                        rem_m1: t.rem_m1,
                        promote,
                    });
                }
                if promote {
                    let mark_dirty = self.policy_kind != PolicyKind::MemPod;
                    self.do_swap(group, orig_slot, mark_dirty);
                }
            }
        }
    }

    /// Tracing-only bookkeeping for a served data request: feeds the
    /// shadow RSM (policies without an internal one), drains any
    /// policy-side trace events, and takes periodic queue-occupancy
    /// samples. Kept out of line so the `self.tracing` branch in
    /// `handle_served` stays a single predictable jump when off.
    #[inline(never)]
    fn on_served_trace(
        &mut self,
        program: ProgramId,
        class: crate::regions::RegionClass,
        from_m1: bool,
    ) {
        let at = self.clock.raw();
        if let Some(rsm) = &mut self.trace_rsm {
            if let Some(e) = rsm.on_served(program, class, from_m1) {
                self.tracer.push(TraceEvent::RsmEpoch {
                    at,
                    program: e.program.0,
                    period: e.period,
                    raw_sf_a: e.raw_sf_a,
                    sf_a: e.sf_a,
                    sf_b: e.sf_b,
                });
            }
        }
        self.policy
            .drain_trace(self.clock, &mut self.policy_trace_buf);
        for e in self.policy_trace_buf.drain(..) {
            self.tracer.push(e);
        }
        self.served_since_sample += 1;
        if self.served_since_sample >= self.trace_cfg.sample_every {
            self.served_since_sample = 0;
            for (i, ch) in self.channels.iter().enumerate() {
                let (read_q, write_q, inflight) = ch.queue_state();
                self.tracer.push(TraceEvent::QueueSample {
                    at,
                    channel: i as u16,
                    read_q,
                    write_q,
                    inflight,
                });
            }
        }
    }

    /// MemPod interval migrations.
    fn run_poll(&mut self) {
        if !self.policy_polls || self.policy.next_poll().is_none() {
            return;
        }
        let now = self.clock;
        let migrations = self.policy.poll(now);
        for (group, orig_slot) in migrations {
            let still_m2 = self.st.entry(group).actual_of(orig_slot).is_m2();
            if still_m2 && self.owner(group, orig_slot).is_some() {
                // MemPod's ST-update overhead is ignored (paper §4.1).
                self.do_swap(group, orig_slot, false);
            } else {
                self.tracer.emit_with(|| TraceEvent::SwapAbort {
                    at: now.raw(),
                    group: group.0,
                    slot: orig_slot.0,
                    reason: if still_m2 {
                        "unallocated"
                    } else {
                        "already_promoted"
                    },
                });
            }
        }
    }

    fn all_first_done(&self) -> bool {
        self.first_done.iter().all(|d| d.is_some())
    }

    /// The fingerprint of everything that shapes simulation behaviour
    /// and is not part of the snapshotted state itself: the full config
    /// (seeds, timing, policy parameters), the policy, the program list,
    /// and the safety cap. Two builders agreeing on it produce
    /// interchangeable systems for snapshot purposes. None of its inputs
    /// changes after construction, so it is computed only when a
    /// snapshot is saved or restored.
    fn config_fp(&self) -> u64 {
        crate::work::count_config_fingerprint();
        fnv64(
            format!(
                "{:?}|policy={}|programs={:?}|max_cycles={}",
                self.cfg,
                self.policy.name(),
                self.names,
                self.max_cycles
            )
            .as_bytes(),
        )
    }

    /// Captures the complete simulation state at the current clock
    /// boundary. Observability (tracer, shadow RSM, histograms) is
    /// deliberately excluded: the snapshot bytes are identical whether or
    /// not the run is traced.
    fn snapshot(&mut self) -> Result<SystemSnapshot, SimError> {
        self.check_snapshottable()?;
        // Only the policy can decline to save.
        let payload = StateCodec::save(self).map_err(|e| SimError::SnapshotUnsupported {
            what: format!("{e} (policy {})", self.policy.name()),
        })?;
        debug_assert!(
            matches!(&payload, Json::Obj(pairs)
                if pairs.iter().map(|(k, _)| k.as_str()).eq(snapshot::PAYLOAD_FIELDS.iter().copied())),
            "payload fields must match snapshot::PAYLOAD_FIELDS"
        );
        Ok(SystemSnapshot::new(self.config_fp(), payload))
    }

    /// Loads a snapshot into this freshly built system. Fails with a
    /// typed [`SimError`] on configuration mismatch or malformed state;
    /// it never panics on hostile payloads.
    fn restore_from_snapshot(&mut self, snap: &SystemSnapshot) -> Result<(), SimError> {
        self.check_snapshottable()?;
        let expected = self.config_fp();
        if snap.config_fingerprint() != expected {
            return Err(SimError::SnapshotConfigMismatch {
                found: snap.config_fingerprint(),
                expected,
            });
        }
        StateCodec::load(self, snap.payload())
            .map_err(|detail| SimError::SnapshotCorrupt { detail })
    }

    fn check_snapshottable(&self) -> Result<(), SimError> {
        match self.sampler_rsm {
            Some(_) => Err(SimError::SnapshotUnsupported {
                what: "region-sampling runs (sample_regions)".to_string(),
            }),
            None => Ok(()),
        }
    }

    fn run(mut self) -> Result<SystemReport, SimError> {
        let mut served_buf: Vec<Served> = Vec::new();
        let mut out_reqs: Vec<CoreRequest> = Vec::new();
        loop {
            // 0. Supervision, observed at step granularity (the step
            // itself does orders of magnitude more work). The top of the
            // loop is the snapshot consistency boundary: no request is
            // half-routed, `served_buf`/`out_reqs` are empty, and the
            // cached next-event times are exactly what a restored run
            // needs to resume byte-identically.
            if let Some(at) = self.snapshot_at {
                if at <= self.clock.raw() {
                    return Err(self.preempt());
                }
            }
            if let Some(token) = &self.limits.cancel {
                if token.is_cancelled() {
                    if self.snapshot_on_cancel {
                        return Err(self.preempt());
                    }
                    return Err(SimError::Cancelled {
                        cycle: self.clock.raw(),
                    });
                }
            }
            // 1. Due or mutated channels catch up; completions collected.
            // Skipped channels are exactly those for which advance would
            // be a no-op (`next_event` contract), so the served stream is
            // identical to advancing every channel every step.
            let mut contributors = 0u32;
            for i in 0..self.channels.len() {
                if self.ch_dirty[i] || self.ch_next[i] <= self.clock {
                    let before = served_buf.len();
                    self.channels[i].advance(self.clock, &mut served_buf);
                    self.ch_dirty[i] = true;
                    contributors += u32::from(served_buf.len() > before);
                }
            }
            if contributors > 1 && served_buf.len() > 1 {
                // Each channel appended its completions already sorted,
                // so the merge sort is only needed when more than one
                // channel contributed this step.
                // (done, id) is unique, so unstable == stable here.
                served_buf.sort_unstable_by_key(|s| (s.done, s.id));
            }
            for s in served_buf.drain(..) {
                self.handle_served(s);
            }
            if let Some(max) = self.limits.budget.max_retired {
                if self.retired > max {
                    return Err(SimError::BudgetExceeded {
                        resource: BudgetResource::RetiredEvents,
                        limit: max,
                        at_cycle: self.clock.raw(),
                    });
                }
            }
            // 2. Interval-based policies.
            self.run_poll();
            // 3. Due or completed-into cores execute; new requests routed.
            for i in 0..self.cores.len() {
                if self.core_dirty[i] || self.core_next[i] <= self.clock {
                    debug_assert!(out_reqs.is_empty());
                    let now = self.clock;
                    self.cores[i].advance(now, &mut out_reqs);
                    self.core_dirty[i] = true;
                    for r in out_reqs.drain(..) {
                        self.handle_core_request(i, r)?;
                    }
                }
            }
            // 4. Completions / restarts.
            for i in 0..self.cores.len() {
                if self.cores[i].is_finished() {
                    if self.first_done[i].is_none() {
                        self.first_done[i] = Some((
                            self.cores[i].instructions(),
                            self.cores[i].instance_core_cycles(),
                            self.cores[i].ipc(),
                        ));
                    }
                    if !self.all_first_done() {
                        self.restarts[i] += 1;
                        let source = (self.factories[i])(self.restarts[i]);
                        self.core_dirty[i] = true;
                        self.cores[i].restart(source);
                    }
                }
            }
            if self.all_first_done() {
                break;
            }
            // 5. Next event: refresh stale cache entries, pop the minimum.
            let mut t = Cycle::NEVER;
            for i in 0..self.channels.len() {
                if self.ch_dirty[i] {
                    self.ch_next[i] = self.channels[i].next_event(self.clock);
                    self.ch_dirty[i] = false;
                }
                t = t.min(self.ch_next[i]);
            }
            for i in 0..self.cores.len() {
                if self.core_dirty[i] {
                    self.core_next[i] = self.cores[i].next_event(self.clock);
                    self.core_dirty[i] = false;
                }
                t = t.min(self.core_next[i]);
            }
            if self.policy_polls {
                if let Some(p) = self.policy.next_poll() {
                    t = t.min(p.max(self.clock + 1));
                }
            }
            if t >= Cycle::NEVER {
                return Err(SimError::Deadlock {
                    cycle: self.clock.raw(),
                    pending_st: self.pending_st.non_empty(),
                    tokens: self.meta.len(),
                });
            }
            self.clock = t;
            if let Some(max) = self.limits.budget.max_cycles {
                if self.clock.raw() > max {
                    return Err(SimError::BudgetExceeded {
                        resource: BudgetResource::Cycles,
                        limit: max,
                        at_cycle: self.clock.raw(),
                    });
                }
            }
            if self.clock.raw() > self.max_cycles {
                self.truncated = true;
                eprintln!(
                    "[profess-core] truncated at cycle {}: pending_st={} tokens={} \
                     queues={:?} core_waits={:?}",
                    self.clock,
                    self.pending_st.non_empty(),
                    self.meta.len(),
                    self.channels
                        .iter()
                        .map(|c| c.queue_len())
                        .collect::<Vec<_>>(),
                    self.cores
                        .iter()
                        .map(|c| c.wait_state())
                        .collect::<Vec<_>>()
                );
                for ch in &self.channels {
                    eprintln!("  queue: {:?}", ch.debug_queue(self.clock));
                    eprintln!(
                        "  m1 banks: {:?}",
                        ch.debug_banks(profess_types::geometry::Module::M1)
                    );
                }
                break;
            }
        }
        if !self.truncated {
            // Channels idle near the end were never advanced to the final
            // clock; apply their deferred refreshes so refresh counts and
            // energy match an eagerly advanced run exactly.
            for ch in &mut self.channels {
                ch.catch_up_refresh(self.clock);
            }
        }
        Ok(self.report())
    }

    /// The error a preempted run returns: the snapshot to resume from,
    /// or the reason the run cannot be snapshotted.
    fn preempt(&mut self) -> SimError {
        match self.snapshot() {
            Ok(s) => SimError::Preempted {
                snapshot: Box::new(s),
            },
            Err(e) => e,
        }
    }

    fn report(mut self) -> SystemReport {
        let elapsed = self.clock;
        let mut programs = Vec::new();
        for i in 0..self.cores.len() {
            let (instructions, core_cycles, ipc) = self.first_done[i].unwrap_or((
                self.cores[i].instructions(),
                self.cores[i].instance_core_cycles(),
                self.cores[i].ipc(),
            ));
            let st = &self.core_stats[i];
            programs.push(ProgramReport {
                name: self.names[i].clone(),
                instructions,
                core_cycles,
                ipc,
                served: st.served,
                served_from_m1: st.from_m1,
                read_latency_avg: if st.reads == 0 {
                    0.0
                } else {
                    st.read_lat_sum as f64 / st.reads as f64
                },
                restarts: self.restarts[i],
            });
        }
        let total_served: u64 = self.core_stats.iter().map(|s| s.served).sum();
        let mut swaps = 0;
        let mut energy = 0.0;
        let mut lookups = 0;
        let mut hits = 0;
        let mut reads = 0;
        let mut lat_sum = 0;
        let mut row_hits = 0;
        let mut channel_served = 0;
        for (ch, stc) in self.channels.iter().zip(&self.stcs) {
            swaps += ch.stats().swaps;
            energy += ch.energy_joules(elapsed);
            lookups += stc.stats().lookups;
            hits += stc.stats().hits;
            reads += ch.stats().reads_served;
            lat_sum += ch.stats().read_latency_sum;
            row_hits += ch.stats().row_hits;
            channel_served += ch.stats().total_served();
        }
        let trace = if self.tracing {
            // Final flush: policy-side buffers may hold epoch reports
            // from periods that closed after the last trace drain.
            self.policy
                .drain_trace(self.clock, &mut self.policy_trace_buf);
            for e in self.policy_trace_buf.drain(..) {
                self.tracer.push(e);
            }
            let tracer = std::mem::replace(&mut self.tracer, Tracer::off());
            tracer.into_log().map(|mut log| {
                let mut read_lat = Log2Histogram::new();
                let mut queue_depth = Log2Histogram::new();
                for ch in &mut self.channels {
                    if let Some(obs) = ch.take_obs() {
                        read_lat.merge(&obs.read_latency);
                        queue_depth.merge(&obs.queue_depth);
                    }
                }
                let mut rob = Log2Histogram::new();
                for core in &mut self.cores {
                    if let Some(obs) = core.take_obs() {
                        rob.merge(&obs.rob_occupancy);
                    }
                }
                log.hist("channel_read_latency", read_lat);
                log.hist("channel_queue_depth", queue_depth);
                log.hist("core_rob_occupancy", rob);
                log.counter("total_served", total_served);
                log.counter("swaps", swaps);
                Box::new(log)
            })
        } else {
            None
        };
        let sampling: Vec<Option<SamplingReport>> = if let Some(rsm) = &self.sampler_rsm {
            (0..self.cores.len())
                .map(|i| {
                    let samples = rsm.samples(ProgramId(i as u8));
                    if samples.is_empty() {
                        return None;
                    }
                    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
                    let std = |xs: &[f64]| {
                        let m = mean(xs);
                        (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
                    };
                    let raw: Vec<f64> = samples.iter().map(|s| s.raw_sf_a).collect();
                    let avg: Vec<f64> = samples.iter().map(|s| s.avg_sf_a).collect();
                    let sr = &self.region_samplers[i];
                    Some(SamplingReport {
                        mean_sigma_req: if sr.sigma_fracs.is_empty() {
                            0.0
                        } else {
                            mean(&sr.sigma_fracs)
                        },
                        sigma_raw_sfa: std(&raw),
                        sigma_avg_sfa: std(&avg),
                        mean_raw_sfa: mean(&raw),
                        periods: samples.len(),
                    })
                })
                .collect()
        } else {
            vec![None; self.cores.len()]
        };
        SystemReport {
            policy: self.policy.name().to_string(),
            programs,
            elapsed_cycles: elapsed.raw(),
            total_served,
            swaps,
            stc_hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            energy_joules: energy,
            requests_per_joule: if energy > 0.0 {
                total_served as f64 / energy
            } else {
                0.0
            },
            avg_read_latency_cycles: if reads == 0 {
                0.0
            } else {
                lat_sum as f64 / reads as f64
            },
            row_hit_rate: if channel_served == 0 {
                0.0
            } else {
                row_hits as f64 / channel_served as f64
            },
            truncated: self.truncated,
            sampling,
            diag: self.policy.diagnostics(),
            trace,
        }
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("clock", &self.clock)
            .field("cores", &self.cores.len())
            .field("policy", &self.policy.name())
            .finish_non_exhaustive()
    }
}

/// The snapshot payload, field by field in [`snapshot::PAYLOAD_FIELDS`]
/// order. Per-program and per-channel vectors load in place, so their
/// lengths must match this system's; every index a later step uses to
/// index system state is bounds-checked on load.
impl State for System {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        let (n_cores, n_channels) = (self.cores.len(), self.channels.len());
        let groups = self.geom.num_groups();
        c.field("clock", &mut self.clock)?;
        c.field("retired", &mut self.retired)?;
        // Restart counts come before the cores: regenerating each core's
        // op source needs the restart index of the instance that was
        // running.
        c.field("restarts", self.restarts.as_mut_slice())?;
        c.field("first_done", self.first_done.as_mut_slice())?;
        c.field("core_stats", self.core_stats.as_mut_slice())?;
        if c.is_load() {
            for (i, core) in self.cores.iter_mut().enumerate() {
                core.set_source((self.factories[i])(self.restarts[i]));
            }
        }
        c.field("cores", self.cores.as_mut_slice())?;
        c.field("channels", self.channels.as_mut_slice())?;
        c.field("stcs", self.stcs.as_mut_slice())?;
        if c.is_load() {
            for (i, stc) in self.stcs.iter().enumerate() {
                if let Some(e) = stc.iter().find(|e| e.group.0 >= groups) {
                    return Err(format!("stcs: [{i}]: group {} out of range", e.group.0));
                }
            }
        }
        c.field("st", &mut self.st)?;
        c.field("alloc", &mut self.alloc)?;
        c.field("page_tables", self.page_tables.as_mut_slice())?;
        if c.is_load() {
            let total = self.alloc.total_frames();
            for (p, table) in self.page_tables.iter().enumerate() {
                if let Some(f) = table.frames().find(|&f| f >= total) {
                    return Err(format!("page_tables: [{p}]: frame {f} out of range"));
                }
            }
        }
        c.field("meta", &mut self.meta)?;
        if c.is_load() {
            let in_range = |o: &Origin| match *o {
                Origin::Data { core, group, .. } => core < n_cores && group.0 < groups,
                Origin::StFetch { channel, group } => channel < n_channels && group.0 < groups,
                Origin::StWrite => true,
            };
            if let Some(o) = self.meta.values().find(|o| !in_range(o)) {
                return Err(format!("meta: origin {o:?} out of range"));
            }
        }
        c.field("pending_st", &mut self.pending_st)?;
        if c.is_load() {
            for q in self.pending_st.non_empty_queues() {
                if let Some(p) = self.pending_st.queue_iter(q).find(|p| p.core >= n_cores) {
                    return Err(format!("pending_st: waiter {p:?} out of range"));
                }
            }
        }
        // The cached next-event times were valid (not dirty) at the
        // snapshot boundary; restoring them verbatim with the dirty flags
        // clear reproduces the uninterrupted loop's scheduling decisions
        // exactly.
        c.field("ch_next", self.ch_next.as_mut_slice())?;
        c.field("core_next", self.core_next.as_mut_slice())?;
        if c.is_load() {
            self.ch_dirty.fill(false);
            self.core_dirty.fill(false);
        }
        c.object("policy", |c| self.policy.state(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profess_cpu::MemOp;

    fn tiny_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::scaled_single();
        cfg.rsm.m_samp = 256;
        cfg.pom.epoch_requests = 512;
        cfg
    }

    fn scripted_stream(n: u64, stride: u64, gap: u32) -> impl Fn(u32) -> Box<dyn OpSource> {
        scripted(n, stride, gap, false)
    }

    fn scripted(
        n: u64,
        stride: u64,
        gap: u32,
        dependent: bool,
    ) -> impl Fn(u32) -> Box<dyn OpSource> {
        move |_restart| {
            let mut i = 0u64;
            Box::new(move || {
                if i >= n {
                    return None;
                }
                let line = (i * stride) % 4096;
                i += 1;
                Some(MemOp {
                    gap,
                    kind: MemOpKind::Load,
                    line,
                    dependent,
                })
            })
        }
    }

    /// A dependent pointer chase over a small hot set (4096 lines = 128
    /// blocks), scrambled so consecutive accesses miss the row buffer:
    /// the access pattern where residency in M1 matters most.
    fn scripted_chase(n: u64, gap: u32) -> impl Fn(u32) -> Box<dyn OpSource> {
        move |_restart| {
            let mut i = 0u64;
            let mut x = 0x2545_F491u64;
            Box::new(move || {
                if i >= n {
                    return None;
                }
                i += 1;
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Some(MemOp {
                    gap,
                    kind: MemOpKind::Load,
                    line: (x >> 33) % 4096,
                    dependent: true,
                })
            })
        }
    }

    #[test]
    fn static_policy_runs_to_completion() {
        let report = SystemBuilder::new(tiny_cfg())
            .policy(PolicyKind::Static)
            .program("stream", scripted_stream(2000, 1, 30))
            .try_run()
            .unwrap();
        assert!(!report.truncated);
        assert_eq!(report.swaps, 0, "static policy must never swap");
        assert_eq!(report.programs.len(), 1);
        let p = &report.programs[0];
        assert!(p.ipc > 0.0 && p.ipc <= 4.0);
        assert!(p.served >= 2000);
        assert!(report.energy_joules > 0.0);
    }

    #[test]
    fn cameo_swaps_aggressively() {
        let report = SystemBuilder::new(tiny_cfg())
            .policy(PolicyKind::Cameo)
            .program("stream", scripted_stream(2000, 1, 30))
            .try_run()
            .unwrap();
        assert!(report.swaps > 0, "CAMEO must swap on M2 touches");
    }

    #[test]
    fn migration_improves_m1_fraction_for_hot_stream() {
        // A small, heavily reused working set of dependent loads (latency
        // fully exposed): migration should raise the fraction of requests
        // served from M1 well above the static ~1/9 and improve IPC.
        let static_run = SystemBuilder::new(tiny_cfg())
            .policy(PolicyKind::Static)
            .program("hot", scripted_chase(20_000, 10))
            .try_run()
            .unwrap();
        let mdm_run = SystemBuilder::new(tiny_cfg())
            .policy(PolicyKind::Mdm)
            .program("hot", scripted_chase(20_000, 10))
            .try_run()
            .unwrap();
        let f_static = static_run.programs[0].m1_fraction();
        let f_mdm = mdm_run.programs[0].m1_fraction();
        assert!(
            f_mdm > f_static + 0.2,
            "MDM must serve more from M1: {f_mdm} vs {f_static}"
        );
        assert!(
            mdm_run.programs[0].ipc > static_run.programs[0].ipc,
            "MDM must beat no-migration on a hot stream: {} vs {}",
            mdm_run.programs[0].ipc,
            static_run.programs[0].ipc
        );
    }

    #[test]
    fn multiprogram_restarts_faster_programs() {
        let mut cfg = SystemConfig::scaled_quad();
        cfg.rsm.m_samp = 256;
        let report = SystemBuilder::new(cfg)
            .policy(PolicyKind::Pom)
            .program("short", scripted_stream(500, 1, 10))
            .program("long", scripted_stream(20_000, 3, 10))
            .try_run()
            .unwrap();
        assert!(!report.truncated);
        assert!(
            report.programs[0].restarts > 0,
            "short program should restart while the long one runs"
        );
        assert_eq!(report.programs[1].restarts, 0);
    }

    #[test]
    fn profess_uses_private_regions() {
        let mut cfg = SystemConfig::scaled_quad();
        cfg.rsm.m_samp = 128;
        let report = SystemBuilder::new(cfg)
            .policy(PolicyKind::Profess)
            .program("a", scripted_stream(3000, 1, 20))
            .program("b", scripted_stream(3000, 7, 20))
            .try_run()
            .unwrap();
        assert!(!report.truncated);
        assert_eq!(report.programs.len(), 2);
        assert!(report.total_served > 6000);
    }

    #[test]
    fn mempod_polls_and_migrates() {
        let report = SystemBuilder::new(tiny_cfg())
            .policy(PolicyKind::MemPod)
            .program("hot", scripted_stream(20_000, 1, 10))
            .try_run()
            .unwrap();
        assert!(report.swaps > 0, "MemPod should migrate hot blocks");
    }

    #[test]
    fn sampling_report_available_when_enabled() {
        let mut cfg = tiny_cfg();
        cfg.rsm.m_samp = 128;
        let report = SystemBuilder::new(cfg)
            .policy(PolicyKind::Pom)
            .sample_regions(true)
            .program("stream", scripted_stream(5000, 1, 20))
            .try_run()
            .unwrap();
        let s = report.sampling[0].as_ref().expect("sampling enabled");
        assert!(s.periods > 1);
        assert!(s.mean_sigma_req >= 0.0);
    }

    #[test]
    fn spec_program_runs_end_to_end() {
        let mut cfg = SystemConfig::scaled_single();
        cfg.rsm.m_samp = 512;
        let report = SystemBuilder::new(cfg)
            .policy(PolicyKind::Profess)
            .spec_program(SpecProgram::Libquantum, 50_000)
            .try_run()
            .unwrap();
        assert!(!report.truncated);
        assert!(report.programs[0].instructions >= 50_000);
        assert!(report.stc_hit_rate > 0.0);
    }

    #[test]
    fn untraced_report_carries_no_trace() {
        let report = SystemBuilder::new(tiny_cfg())
            .policy(PolicyKind::Mdm)
            .trace(TraceConfig::off())
            .program("stream", scripted_stream(2000, 1, 30))
            .try_run()
            .unwrap();
        assert!(report.trace.is_none());
    }

    #[test]
    fn traced_profess_run_emits_lifecycle_events() {
        let mut cfg = SystemConfig::scaled_quad();
        cfg.rsm.m_samp = 128;
        let report = SystemBuilder::new(cfg)
            .policy(PolicyKind::Profess)
            .trace(TraceConfig::on())
            .program("a", scripted_chase(6000, 10))
            .program("b", scripted_stream(6000, 7, 20))
            .try_run()
            .unwrap();
        let log = report.trace.as_ref().expect("tracing was on");
        assert!(log.count_kind("swap_begin") >= 1, "no swaps traced");
        assert_eq!(
            log.count_kind("swap_complete"),
            log.count_kind("swap_begin"),
            "every begin must pair with a complete"
        );
        assert!(log.count_kind("mdm_decision") >= 1);
        assert!(
            log.count_kind("rsm_epoch") >= 1,
            "ProFess's internal RSM must surface epoch reports"
        );
        assert!(log.count_kind("queue_sample") >= 1);
        // Histograms are folded in at end of run.
        let lat = log
            .hists
            .iter()
            .find(|(n, _)| *n == "channel_read_latency")
            .map(|(_, h)| h)
            .expect("read-latency histogram present");
        assert!(lat.count() > 0);
        // Counters mirror the report.
        let swaps = log
            .counters
            .iter()
            .find(|(n, _)| *n == "swaps")
            .map(|(_, v)| *v);
        assert_eq!(swaps, Some(report.swaps));
        // Every JSONL line parses.
        for line in log.to_jsonl().lines() {
            profess_metrics::emit::Json::parse(line).expect("JSONL line must parse");
        }
    }

    #[test]
    fn traced_mdm_run_uses_shadow_rsm_for_epochs() {
        // MDM has no internal RSM and no private regions; epoch reports
        // must come from the system's shadow monitor.
        let mut cfg = SystemConfig::scaled_quad();
        cfg.rsm.m_samp = 128;
        let report = SystemBuilder::new(cfg)
            .policy(PolicyKind::Mdm)
            .trace(TraceConfig::on())
            .program("a", scripted_chase(6000, 10))
            .program("b", scripted_stream(6000, 7, 20))
            .try_run()
            .unwrap();
        let log = report.trace.as_ref().expect("tracing was on");
        assert!(log.count_kind("rsm_epoch") >= 1, "shadow RSM must report");
        assert!(log.count_kind("mdm_decision") >= 1);
        let verdicts = log.events.iter().filter_map(|e| match e {
            profess_obs::TraceEvent::MdmDecision { verdict, .. } => Some(*verdict),
            _ => None,
        });
        for v in verdicts {
            assert!(
                matches!(
                    v,
                    "no_benefit"
                        | "vacant_m1"
                        | "idle_m1"
                        | "exhausted_m1"
                        | "net_benefit"
                        | "keep_m1"
                ),
                "unexpected verdict {v}"
            );
        }
    }

    #[test]
    fn cycle_budget_exceeded_is_typed() {
        let err = SystemBuilder::new(tiny_cfg())
            .policy(PolicyKind::Static)
            .budget(SimBudget::unlimited().with_max_cycles(500))
            .program("stream", scripted_stream(20_000, 1, 30))
            .try_run()
            .expect_err("500 cycles cannot finish 20k ops");
        match err {
            SimError::BudgetExceeded {
                resource: BudgetResource::Cycles,
                limit: 500,
                at_cycle,
            } => assert!(at_cycle > 500),
            e => panic!("expected cycle budget error, got {e:?}"),
        }
    }

    #[test]
    fn retired_budget_exceeded_is_typed() {
        let err = SystemBuilder::new(tiny_cfg())
            .policy(PolicyKind::Static)
            .budget(SimBudget::unlimited().with_max_retired(100))
            .program("stream", scripted_stream(20_000, 1, 30))
            .try_run()
            .expect_err("100 retired requests cannot finish 20k ops");
        assert!(
            matches!(
                err,
                SimError::BudgetExceeded {
                    resource: BudgetResource::RetiredEvents,
                    limit: 100,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn pre_fired_cancel_token_stops_immediately() {
        let token = profess_par::CancelToken::new();
        token.cancel();
        let err = SystemBuilder::new(tiny_cfg())
            .policy(PolicyKind::Static)
            .cancel_token(token)
            .program("stream", scripted_stream(20_000, 1, 30))
            .try_run()
            .expect_err("cancelled before the first step");
        assert_eq!(err, SimError::Cancelled { cycle: 0 });
    }

    #[test]
    fn unbudgeted_run_is_unaffected_by_generous_budget() {
        // A budget above the run's needs must not perturb the result.
        let free = SystemBuilder::new(tiny_cfg())
            .policy(PolicyKind::Pom)
            .program("stream", scripted_stream(2000, 1, 30))
            .try_run()
            .unwrap();
        let budgeted = SystemBuilder::new(tiny_cfg())
            .policy(PolicyKind::Pom)
            .budget(
                SimBudget::unlimited()
                    .with_max_cycles(u64::MAX)
                    .with_max_retired(u64::MAX),
            )
            .program("stream", scripted_stream(2000, 1, 30))
            .try_run()
            .expect("completes");
        assert_eq!(free.elapsed_cycles, budgeted.elapsed_cycles);
        assert_eq!(free.total_served, budgeted.total_served);
        assert_eq!(free.swaps, budgeted.swaps);
    }

    fn mdm_chase(cfg: SystemConfig) -> SystemBuilder {
        SystemBuilder::new(cfg)
            .policy(PolicyKind::Mdm)
            .program("hot", scripted_chase(6000, 10))
    }

    /// Runs `b`, which must be preempted, and returns its snapshot.
    fn preempted(b: SystemBuilder) -> Box<SystemSnapshot> {
        match b.try_run() {
            Err(SimError::Preempted { snapshot }) => snapshot,
            other => panic!("expected a preemption, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let straight = mdm_chase(tiny_cfg()).try_run().unwrap();
        let snap = preempted(mdm_chase(tiny_cfg()).snapshot_at(straight.elapsed_cycles / 2));
        assert!(snap.clock() >= straight.elapsed_cycles / 2);
        assert!(snap.clock() < straight.elapsed_cycles);
        // Full wire round trip before resuming.
        let text = snap.to_json().to_string();
        let back = SystemSnapshot::parse(&text).expect("parses");
        let resumed = mdm_chase(tiny_cfg())
            .restore(&back)
            .try_run()
            .expect("resumes to completion");
        assert_eq!(resumed.elapsed_cycles, straight.elapsed_cycles);
        assert_eq!(resumed.total_served, straight.total_served);
        assert_eq!(resumed.swaps, straight.swaps);
        assert_eq!(
            resumed.programs[0].ipc.to_bits(),
            straight.programs[0].ipc.to_bits()
        );
        assert_eq!(
            resumed.energy_joules.to_bits(),
            straight.energy_joules.to_bits()
        );
        assert_eq!(
            resumed.avg_read_latency_cycles.to_bits(),
            straight.avg_read_latency_cycles.to_bits()
        );
        assert_eq!(
            resumed.stc_hit_rate.to_bits(),
            straight.stc_hit_rate.to_bits()
        );
        assert_eq!(
            resumed.row_hit_rate.to_bits(),
            straight.row_hit_rate.to_bits()
        );
    }

    #[test]
    fn snapshot_at_zero_preempts_before_any_work() {
        let snap = preempted(mdm_chase(tiny_cfg()).snapshot_at(0));
        assert_eq!(snap.clock(), 0);
        let resumed = mdm_chase(tiny_cfg())
            .restore(&snap)
            .try_run()
            .expect("resumes");
        let straight = mdm_chase(tiny_cfg()).try_run().unwrap();
        assert_eq!(resumed.elapsed_cycles, straight.elapsed_cycles);
        assert_eq!(resumed.total_served, straight.total_served);
        assert_eq!(resumed.swaps, straight.swaps);
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let snap = preempted(mdm_chase(tiny_cfg()).snapshot_at(0));
        // Different policy → different configuration fingerprint.
        let err = SystemBuilder::new(tiny_cfg())
            .policy(PolicyKind::Pom)
            .program("hot", scripted_chase(6000, 10))
            .restore(&snap)
            .try_run()
            .expect_err("mismatched config must be rejected");
        assert!(
            matches!(err, SimError::SnapshotConfigMismatch { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn restore_rejects_malformed_payload() {
        let snap = preempted(mdm_chase(tiny_cfg()).snapshot_at(0));
        // A payload with the right fingerprint but missing state must be
        // a typed error, not a panic.
        let bogus = SystemSnapshot::new(
            snap.config_fingerprint(),
            Json::obj([("clock", Json::UInt(0))]),
        );
        let err = mdm_chase(tiny_cfg())
            .restore(&bogus)
            .try_run()
            .expect_err("malformed payload must be rejected");
        assert!(matches!(err, SimError::SnapshotCorrupt { .. }), "{err:?}");
    }

    /// Restores `mdm_chase`'s halfway snapshot with `edit` applied to its
    /// payload. `SystemSnapshot::new` recomputes the integrity
    /// fingerprint, so the edited state reaches the decoder.
    fn restore_edited_halfway(edit: impl FnOnce(&mut Json)) -> SimError {
        let straight = mdm_chase(tiny_cfg()).try_run().unwrap();
        let snap = preempted(mdm_chase(tiny_cfg()).snapshot_at(straight.elapsed_cycles / 2));
        let mut payload = snap.payload().clone();
        edit(&mut payload);
        let edited = SystemSnapshot::new(snap.config_fingerprint(), payload);
        mdm_chase(tiny_cfg())
            .restore(&edited)
            .try_run()
            .expect_err("out-of-range state must be rejected")
    }

    fn field<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
        match j {
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn item(j: &mut Json, i: usize) -> &mut Json {
        match j {
            Json::Arr(items) => &mut items[i],
            other => panic!("not an array: {other:?}"),
        }
    }

    fn assert_corrupt(err: SimError, want: &str) {
        match err {
            SimError::SnapshotCorrupt { detail } => assert!(detail.contains(want), "{detail}"),
            other => panic!("expected SnapshotCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_a_page_table_frame_beyond_the_allocator() {
        let err = restore_edited_halfway(|p| {
            let Json::Arr(frames) = item(field(p, "page_tables"), 0) else {
                panic!("page table is not an array")
            };
            let mapped = frames.iter_mut().find(|f| **f != Json::UInt(u64::MAX));
            *mapped.expect("a mapped page at halfway") = Json::UInt(1 << 40);
        });
        assert_corrupt(err, "page_tables: [0]: frame 1099511627776 out of range");
    }

    #[test]
    fn restore_rejects_a_cached_stc_group_beyond_the_group_count() {
        let err = restore_edited_halfway(|p| {
            let Json::Arr(sets) = field(item(field(p, "stcs"), 0), "sets") else {
                panic!("STC sets are not an array")
            };
            let Some(Json::Arr(entries)) = sets.iter_mut().find(|s| s.as_arr() != Some(&[])) else {
                panic!("a cached STC entry at halfway")
            };
            *field(&mut entries[0], "group") = Json::UInt(1 << 40);
        });
        assert_corrupt(err, "stcs: [0]: group 1099511627776 out of range");
    }

    #[test]
    fn cancel_with_snapshot_on_cancel_preempts() {
        let token = profess_par::CancelToken::new();
        token.cancel();
        let snap = preempted(
            mdm_chase(tiny_cfg())
                .cancel_token(token)
                .snapshot_on_cancel(true),
        );
        assert_eq!(snap.clock(), 0, "pre-fired token preempts immediately");
    }

    #[test]
    fn sample_regions_runs_cannot_snapshot() {
        let err = mdm_chase(tiny_cfg())
            .sample_regions(true)
            .snapshot_at(0)
            .try_run()
            .expect_err("sampling diagnostics are not snapshottable");
        assert!(
            matches!(err, SimError::SnapshotUnsupported { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn policy_without_state_cannot_snapshot() {
        #[derive(Debug)]
        struct Never;
        impl MigrationPolicy for Never {
            fn name(&self) -> &'static str {
                "Never"
            }
            fn on_access(&mut self, _ctx: &mut AccessCtx<'_>) -> Decision {
                Decision::Stay
            }
        }
        let err = SystemBuilder::new(tiny_cfg())
            .custom_policy(Box::new(Never), false)
            .program("hot", scripted_chase(6000, 10))
            .snapshot_at(0)
            .try_run()
            .expect_err("the default `MigrationPolicy::state` declines");
        assert!(
            matches!(err, SimError::SnapshotUnsupported { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("policy Never"), "{err}");
    }

    #[test]
    fn preempted_try_run_is_a_typed_error() {
        let err = mdm_chase(tiny_cfg())
            .snapshot_at(0)
            .try_run()
            .expect_err("a preempted run returns its snapshot as an error");
        assert_eq!(err.label(), "preempted");
        assert_eq!(err.to_string(), "preempted into snapshot at cycle 0");
        assert!(matches!(err, SimError::Preempted { .. }), "{err:?}");
    }

    #[test]
    fn multiprogram_snapshot_restores_restart_counts() {
        let build = || {
            let mut cfg = SystemConfig::scaled_quad();
            cfg.rsm.m_samp = 256;
            SystemBuilder::new(cfg)
                .policy(PolicyKind::Pom)
                .program("short", scripted_stream(500, 1, 10))
                .program("long", scripted_stream(20_000, 3, 10))
        };
        let straight = build().try_run().unwrap();
        assert!(straight.programs[0].restarts > 0, "test needs a restart");
        // Snapshot late enough that the short program restarted at least
        // once, so the restore path exercises non-zero restart indices.
        let snap = preempted(build().snapshot_at(straight.elapsed_cycles * 3 / 4));
        let resumed = build().restore(&snap).try_run().expect("resumes");
        assert_eq!(resumed.elapsed_cycles, straight.elapsed_cycles);
        assert_eq!(resumed.total_served, straight.total_served);
        assert_eq!(resumed.swaps, straight.swaps);
        for (r, s) in resumed.programs.iter().zip(&straight.programs) {
            assert_eq!(r.restarts, s.restarts);
            assert_eq!(r.ipc.to_bits(), s.ipc.to_bits());
            assert_eq!(r.served, s.served);
        }
    }

    #[test]
    fn empty_builder_is_a_config_error() {
        let err = SystemBuilder::new(tiny_cfg()).try_run().unwrap_err();
        assert_eq!(err.label(), "config");
        assert!(err.to_string().contains("no programs"), "{err}");
    }

    #[test]
    fn too_many_programs_is_a_config_error() {
        let err = SystemBuilder::new(tiny_cfg())
            .program("a", scripted_stream(10, 1, 1))
            .program("b", scripted_stream(10, 1, 1))
            .try_run()
            .unwrap_err();
        assert_eq!(err.label(), "config");
        assert!(
            err.to_string().contains("more programs than cores"),
            "{err}"
        );
    }

    #[test]
    fn unscaled_footprint_exhausting_frames_is_a_config_error() {
        // bwaves at full footprint needs more pages than the ÷32 single
        // system has frames.
        let mut cfg = SystemConfig::scaled_single();
        cfg.footprint_div = 1;
        let err = SystemBuilder::new(cfg)
            .policy(PolicyKind::Pom)
            .spec_program(
                SpecProgram::Bwaves,
                SpecProgram::Bwaves.budget_for_misses(60_000),
            )
            .try_run()
            .unwrap_err();
        assert_eq!(err.label(), "config");
        assert!(
            err.to_string()
                .contains("out of physical memory for program 0"),
            "{err}"
        );
    }
}
