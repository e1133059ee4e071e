//! The experiment harness that regenerates the paper's tables and
//! figures.
//!
//! Every experiment is a record of the [`experiments`] registry: its
//! cells as data ([`Cell`]: configuration × policy × program, workload
//! or surface point), and the reducer that folds the finished cells
//! into its printed table. One driver, `profess-run <experiment>`, runs
//! any record's cells on the one cell engine here ([`run_cells`]:
//! supervision, checkpoint journal, mid-run snapshots, tracing), so
//! every knob applies to every experiment. `DESIGN.md` §3 indexes the
//! experiments.

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

pub mod checkpoint;
pub mod exit;
pub mod experiments;
pub mod harness;
pub mod surface;

use std::collections::{BTreeMap, BTreeSet};

use profess_core::system::{PolicyKind, SystemBuilder, SystemReport};
use profess_core::{SimError, SystemSnapshot};
use profess_metrics::{unfairness, weighted_speedup, Json};
use profess_trace::{SpecProgram, Workload};
use profess_types::SystemConfig;

pub use checkpoint::{Journal, MultiCell, SoloRun};
pub use profess_par::{FaultPlan, Pool, SuperviseConfig, Supervised, TaskOutcome};

use surface::SurfacePoint;

/// Default memory operations per program for single-program experiments.
pub const SOLO_TARGET_MISSES: u64 = 120_000;

/// Default memory operations per program for multiprogram experiments.
pub const MULTI_TARGET_MISSES: u64 = 60_000;

/// Env var enabling snapshot-on-cancel in supervised sweeps: unset,
/// empty, or `0` leaves preempted (timed-out) cells cold; `1` makes the
/// watchdog preempt them into a journaled snapshot instead, so the
/// retry resumes mid-run.
pub const SNAPSHOT_ENV: &str = "PROFESS_SNAPSHOT";

/// Env var deterministically preempting every cell's *first* attempt at
/// the given clock (cycles): the cell snapshots itself, the snapshot is
/// journaled, and the retry warm-starts from it. Used by CI to prove
/// that a preempted-and-resumed sweep emits byte-identical rows.
pub const SNAPSHOT_AT_ENV: &str = "PROFESS_SNAPSHOT_AT";

/// How a supervised sweep uses mid-run snapshots (see
/// [`profess_core::SystemSnapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotMode {
    /// Preempt cancelled (watchdog-timed-out) cells into a snapshot
    /// instead of a cancellation error, journaling the partial run.
    pub on_cancel: bool,
    /// Deterministically preempt each cell's first attempt at this
    /// clock, journaling the snapshot; the retry resumes from it.
    pub at: Option<u64>,
}

impl SnapshotMode {
    /// Snapshots off: cells run cold, preemption is a plain failure.
    pub fn disabled() -> SnapshotMode {
        SnapshotMode::default()
    }

    /// Is any snapshot behaviour active?
    pub fn is_enabled(&self) -> bool {
        self.on_cancel || self.at.is_some()
    }

    /// Reads the mode from [`SNAPSHOT_ENV`] and [`SNAPSHOT_AT_ENV`].
    /// Invalid values are an error, not a silent default: a typo'd
    /// preemption cycle must not quietly run an uninterrupted sweep.
    pub fn from_env() -> Result<SnapshotMode, String> {
        let mut mode = SnapshotMode::disabled();
        if let Ok(v) = std::env::var(SNAPSHOT_ENV) {
            mode.on_cancel = match v.as_str() {
                "" | "0" => false,
                "1" => true,
                _ => return Err(format!("{SNAPSHOT_ENV}={v}: expected 0 or 1")),
            };
        }
        if let Ok(v) = std::env::var(SNAPSHOT_AT_ENV) {
            if !v.is_empty() {
                let at = v
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("{SNAPSHOT_AT_ENV}={v}: expected a clock cycle count"))?;
                mode.at = Some(at);
            }
        }
        Ok(mode)
    }
}

/// The journal key holding cell `key`'s mid-run snapshot. Namespaced so
/// snapshot entries can never shadow a completed cell's result.
pub fn snapshot_key(cell_key: &str) -> String {
    format!("snapshot|{cell_key}")
}

/// Summary statistics of a normalized series (`measured / baseline`).
#[derive(Debug, Clone, Copy)]
pub struct NormSummary {
    /// Geometric mean of the ratios.
    pub geomean: f64,
    /// Best ratio (max for >1-is-better metrics, reported as-is).
    pub best: f64,
    /// Worst ratio.
    pub worst: f64,
}

/// Summarizes a series of ratios: `None` when the series is empty or
/// holds a ratio that is not positive, where no geometric mean exists.
pub fn summarize(ratios: &[f64]) -> Option<NormSummary> {
    if ratios.is_empty() || ratios.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    Some(NormSummary {
        geomean: profess_metrics::geomean(ratios),
        best: ratios.iter().copied().fold(f64::MIN, f64::max),
        worst: ratios.iter().copied().fold(f64::MAX, f64::min),
    })
}

/// The geometric mean of `xs`, or NaN where [`summarize`] finds none.
pub(crate) fn geomean_or_nan(xs: &[f64]) -> f64 {
    summarize(xs).map_or(f64::NAN, |s| s.geomean)
}

/// Runs one program alone (on whatever system `cfg` describes).
pub fn run_solo(
    cfg: &SystemConfig,
    policy: PolicyKind,
    prog: SpecProgram,
    target_misses: u64,
) -> Result<SystemReport, SimError> {
    SystemBuilder::new(cfg.clone())
        .policy(policy)
        .spec_program(prog, prog.budget_for_misses(target_misses))
        .try_run()
}

/// Results of a multiprogram run reduced to the paper's figures of merit.
#[derive(Debug, Clone)]
pub struct WorkloadMetrics {
    /// Workload id.
    pub id: String,
    /// Per-program slowdowns (eq. 1), in core order.
    pub slowdowns: Vec<f64>,
    /// Weighted speedup.
    pub weighted_speedup: f64,
    /// Max slowdown.
    pub unfairness: f64,
    /// Served requests per joule.
    pub energy_efficiency: f64,
    /// Mean read latency, cycles.
    pub read_latency: f64,
    /// Fraction of swaps among served requests.
    pub swap_fraction: f64,
}

/// Computes a workload's metrics given the multiprogram report and the
/// matching solo (uncontended) IPCs per program, measured under the same
/// policy (eq. 1).
pub fn workload_metrics(id: &str, multi: &SystemReport, solo_ipcs: &[f64]) -> WorkloadMetrics {
    workload_metrics_cell(id, &MultiCell::from_report(multi), solo_ipcs)
}

/// [`workload_metrics`] computed from a journaled [`MultiCell`] instead
/// of a live report.
///
/// Experiments route *both* freshly-simulated and journal-restored
/// cells through this function, so the floating-point arithmetic — and
/// therefore the printed tables and emitted rows — is identical whether
/// a cell ran this process or was replayed from a checkpoint.
pub fn workload_metrics_cell(id: &str, cell: &MultiCell, solo_ipcs: &[f64]) -> WorkloadMetrics {
    assert_eq!(cell.ipcs.len(), solo_ipcs.len());
    let slowdowns: Vec<f64> = cell
        .ipcs
        .iter()
        .zip(solo_ipcs)
        .map(|(&ipc, &sp)| profess_metrics::slowdown(sp, ipc))
        .collect();
    WorkloadMetrics {
        id: id.to_string(),
        weighted_speedup: weighted_speedup(&slowdowns),
        unfairness: unfairness(&slowdowns),
        energy_efficiency: cell.requests_per_joule,
        read_latency: cell.avg_read_latency,
        swap_fraction: cell.swap_fraction(),
        slowdowns,
    }
}

/// One row of a normalized multiprogram sweep: `policy` metrics over the
/// PoM baseline for the same workload.
#[derive(Debug, Clone)]
pub struct NormalizedRow {
    /// Workload id.
    pub id: String,
    /// Max-slowdown ratio (policy / PoM; < 1 = fairness improved).
    pub unfairness: f64,
    /// Weighted-speedup ratio (> 1 = performance improved).
    pub weighted_speedup: f64,
    /// Energy-efficiency ratio (> 1 = improved).
    pub energy_efficiency: f64,
    /// Read-latency ratio (< 1 = improved).
    pub read_latency: f64,
    /// Swap-fraction ratio (< 1 = fewer swaps per request).
    pub swap_fraction: f64,
}

/// A system configuration at a memory-operation target, fingerprinted
/// once: the part of a cell's journal key that is not the cell itself.
#[derive(Debug, Clone)]
pub struct Setting {
    cfg: SystemConfig,
    target: u64,
    fp: String,
}

impl Setting {
    /// `cfg` with `target` memory operations per program (per load
    /// generator for a surface cell).
    pub fn new(cfg: SystemConfig, target: u64) -> Setting {
        let fp = checkpoint::config_fingerprint(&cfg, target);
        Setting { cfg, target, fp }
    }

    /// One cell on this setting, traced unless it is a slowdown
    /// reference ([`Sim::SoloIpc`]).
    pub fn cell(&self, policy: PolicyKind, sim: Sim, label: impl Into<String>) -> Cell {
        Cell {
            at: self.clone(),
            policy,
            sim,
            key: self.key(policy, sim),
            label: label.into(),
            traced: !matches!(sim, Sim::SoloIpc(_)),
        }
    }

    /// The journal key of the cell `(policy, sim)` on this setting.
    fn key(&self, policy: PolicyKind, sim: Sim) -> String {
        let (pk, fp) = (policy.name(), &self.fp);
        match sim {
            Sim::SoloIpc(p) => format!("solo|{pk}|{}|{fp}", p.name()),
            Sim::Solo(p) => format!("run|{pk}|{}|{fp}", p.name()),
            Sim::Sampled(p) => format!("sampled|{pk}|{}|{fp}", p.name()),
            Sim::Multi(w) => format!("multi|{pk}|{}|{fp}", w.id),
            Sim::Surface(rf, it) => surface::surface_cell_key(policy, rf, it, fp),
        }
    }
}

/// What one cell simulates, and what it keeps of the run: its journal
/// payload and [`Value`].
#[derive(Debug, Clone, Copy)]
pub enum Sim {
    /// One program alone, kept as its IPC: a slowdown reference.
    SoloIpc(SpecProgram),
    /// One program alone, kept as a [`SoloRun`].
    Solo(SpecProgram),
    /// One program alone with Table 4 region sampling on, kept as a
    /// [`SoloRun`] carrying its RSM sampling statistics.
    Sampled(SpecProgram),
    /// A workload, one program per core, kept as a [`MultiCell`].
    Multi(Workload),
    /// Four surface load generators at (read fraction, intensity), kept
    /// as a [`SurfacePoint`].
    Surface(f64, f64),
}

/// A finished cell's value, decoded from its journal payload.
#[derive(Debug, Clone)]
pub enum Value {
    /// A [`Sim::SoloIpc`] cell.
    Ipc(f64),
    /// A [`Sim::Solo`] or [`Sim::Sampled`] cell.
    Run(SoloRun),
    /// A [`Sim::Multi`] cell.
    Multi(MultiCell),
    /// A [`Sim::Surface`] cell.
    Point(SurfacePoint),
}

/// One simulation of an experiment: policy × [`Sim`] on a [`Setting`].
#[derive(Debug, Clone)]
pub struct Cell {
    at: Setting,
    policy: PolicyKind,
    sim: Sim,
    key: String,
    label: String,
    traced: bool,
}

impl Cell {
    /// The cell's checkpoint-journal key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Display label (`w03:ProFess`, `solo:PoM:mcf`), also the label of
    /// the cell's run in the trace artifact.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// This cell with tracing off: its run stays out of the trace
    /// artifact.
    pub fn untraced(mut self) -> Cell {
        self.traced = false;
        self
    }

    /// Builds the cell's simulation (nothing run yet), traced when
    /// `trace` is set and the cell is traced.
    fn build(&self, trace: bool) -> SystemBuilder {
        let (cfg, pk, target) = (&self.at.cfg, self.policy, self.at.target);
        let b = match self.sim {
            Sim::SoloIpc(p) | Sim::Solo(p) => SystemBuilder::new(cfg.clone())
                .policy(pk)
                .spec_program(p, p.budget_for_misses(target)),
            // RSM's private regions need the ProFess OS support; Table 4
            // measures RSM while it is active.
            Sim::Sampled(p) => SystemBuilder::new(cfg.clone())
                .policy(pk)
                .sample_regions(true)
                .spec_program(p, p.budget_for_misses(target)),
            Sim::Multi(w) => SystemBuilder::new(cfg.clone())
                .policy(pk)
                .workload(&w, target),
            Sim::Surface(rf, it) => surface::surface_cell_builder(cfg, pk, rf, it, target),
        };
        if trace && self.traced {
            b.trace(profess_obs::TraceConfig::on())
        } else {
            b
        }
    }

    /// Reduces a finished run to its journal payload.
    fn reduce(&self, report: &SystemReport) -> Json {
        match self.sim {
            Sim::SoloIpc(_) => Json::obj([("ipc", Json::Num(report.programs[0].ipc))]),
            Sim::Solo(_) | Sim::Sampled(_) => SoloRun::from_report(report).to_json(),
            Sim::Multi(_) => MultiCell::from_report(report).to_json(),
            Sim::Surface(rf, it) => {
                SurfacePoint::from_report(self.policy, rf, it, report).to_json()
            }
        }
    }

    /// Decodes a journal payload (`None` on any shape mismatch — the
    /// cell then reruns).
    fn decode(&self, payload: &Json) -> Option<Value> {
        Some(match self.sim {
            Sim::SoloIpc(_) => Value::Ipc(checkpoint::solo_ipc_from_json(payload)?),
            Sim::Solo(_) | Sim::Sampled(_) => Value::Run(SoloRun::from_json(payload)?),
            Sim::Multi(_) => Value::Multi(MultiCell::from_json(payload)?),
            Sim::Surface(..) => Value::Point(SurfacePoint::from_json(payload)?),
        })
    }
}

/// Drops every cell whose key an earlier cell already has, keeping the
/// first occurrence in place: a cell runs once however many of an
/// experiment's tables read it.
pub fn distinct(cells: Vec<Cell>) -> Vec<Cell> {
    let mut seen = BTreeSet::new();
    cells
        .into_iter()
        .filter(|c| seen.insert(c.key.clone()))
        .collect()
}

/// The finished cells of a run, looked up by what they simulated.
#[derive(Debug, Default)]
pub struct Results {
    values: BTreeMap<String, Value>,
}

impl Results {
    /// The values of `cells`, aligned with `values` (`None` where a
    /// cell failed).
    pub(crate) fn new(cells: &[Cell], values: Vec<Option<Value>>) -> Results {
        let mut r = Results::default();
        r.extend(cells, values);
        r
    }

    /// Adds more finished cells.
    pub(crate) fn extend(&mut self, cells: &[Cell], values: Vec<Option<Value>>) {
        for (c, v) in cells.iter().zip(values) {
            if let Some(v) = v {
                self.values.insert(c.key.clone(), v);
            }
        }
    }

    /// The value of cell `(policy, sim)` on `at`, if it succeeded.
    pub fn get(&self, at: &Setting, policy: PolicyKind, sim: Sim) -> Option<&Value> {
        self.values.get(&at.key(policy, sim))
    }

    /// A [`Sim::SoloIpc`] reference.
    pub fn ipc(&self, at: &Setting, policy: PolicyKind, p: SpecProgram) -> Option<f64> {
        match self.get(at, policy, Sim::SoloIpc(p))? {
            Value::Ipc(ipc) => Some(*ipc),
            _ => None,
        }
    }

    /// A [`Sim::Solo`] or [`Sim::Sampled`] run.
    pub fn run(&self, at: &Setting, policy: PolicyKind, sim: Sim) -> Option<&SoloRun> {
        match self.get(at, policy, sim)? {
            Value::Run(r) => Some(r),
            _ => None,
        }
    }

    /// A [`Sim::Multi`] run.
    pub fn multi(&self, at: &Setting, policy: PolicyKind, w: &Workload) -> Option<&MultiCell> {
        match self.get(at, policy, Sim::Multi(*w))? {
            Value::Multi(m) => Some(m),
            _ => None,
        }
    }

    /// Workload `w`'s metrics under `policy`: its [`Sim::Multi`] cell
    /// against the [`Sim::SoloIpc`] references of its programs under the
    /// same policy ([`slowdown_cells`]).
    pub fn metrics(
        &self,
        at: &Setting,
        policy: PolicyKind,
        w: &Workload,
    ) -> Option<WorkloadMetrics> {
        let solo: Vec<f64> = w
            .programs
            .iter()
            .map(|&p| self.ipc(at, policy, p))
            .collect::<Option<_>>()?;
        Some(workload_metrics_cell(
            w.id,
            self.multi(at, policy, w)?,
            &solo,
        ))
    }
}

/// The cells [`Results::metrics`] reads: a solo reference per program
/// of `w` (label `solo:<policy>:<program>`), then `w` itself under
/// `policy` (label `<workload>:<policy>`).
pub(crate) fn slowdown_cells(at: &Setting, policy: PolicyKind, w: &Workload) -> Vec<Cell> {
    let pk = policy.name();
    let mut cells: Vec<Cell> = w
        .programs
        .iter()
        .map(|&p| at.cell(policy, Sim::SoloIpc(p), format!("solo:{pk}:{}", p.name())))
        .collect();
    cells.push(at.cell(policy, Sim::Multi(*w), format!("{}:{pk}", w.id)));
    cells
}

/// What [`run_cells`] produced, in cell order.
#[derive(Debug)]
pub(crate) struct CellRun {
    /// Each cell's value; `None` where the cell failed.
    pub(crate) values: Vec<Option<Value>>,
    /// Each cell's execution record.
    pub(crate) cells: Vec<CellRecord>,
    /// Cells found in the journal instead of running: replayed from its
    /// file, or recorded earlier in this process.
    pub(crate) resumed: usize,
}

/// The one cell engine every experiment runs on.
///
/// `cells` must be [`distinct`]. Cells already in `journal` with a
/// decodable payload are restored instead of re-run. The rest — the
/// *pending* cells, kept in cell order, so fault-plan indices are
/// positions in that list — run under [`Pool::try_run_supervised`] with
/// `sup`'s retry / timeout / fault-injection settings, each attempt on
/// one of `pool`'s threads. A completed cell is reduced to its payload,
/// journaled the moment it completes, and decoded back into its value,
/// so fresh and restored cells reach the caller through the same decode
/// and a resumed run is byte-identical to an uninterrupted one. The
/// journal's lines land in completion order, which only a one-thread
/// pool fixes. When `traces` is enabled, the traced cells are built
/// traced and their traces go to `traces` in cell order.
///
/// With `snap` enabled, a preempted cell (watchdog cancel under
/// `snap.on_cancel`, or the deterministic `snap.at` clock on first
/// attempts) journals a mid-run [`SystemSnapshot`] under
/// [`snapshot_key`] and fails the attempt; the retry restores the
/// snapshot and runs only the remaining cycles. Snapshot-restored
/// completions are byte-identical to straight-through runs.
pub(crate) fn run_cells(
    cells: &[Cell],
    pool: &Pool,
    sup: &SuperviseConfig,
    journal: &Journal,
    snap: &SnapshotMode,
    traces: &mut harness::TraceCollector,
) -> CellRun {
    let mut values: Vec<Option<Value>> = cells
        .iter()
        .map(|c| journal.lookup(&c.key).and_then(|p| c.decode(&p)))
        .collect();
    let pending: Vec<usize> = (0..cells.len()).filter(|&i| values[i].is_none()).collect();
    let trace = traces.is_enabled();
    let outs = pool.try_run_supervised(&pending, sup, |ctx, &i| {
        let cell = &cells[i];
        let report = run_cell(
            cell.build(trace),
            snap,
            journal,
            &snapshot_key(&cell.key),
            &ctx,
        )?;
        let payload = cell.reduce(&report);
        let value = cell
            .decode(&payload)
            .ok_or_else(|| format!("cell `{}` reduced to an undecodable payload", cell.key))?;
        // A cancel after the record would retry a journaled cell.
        if !ctx.cancel.settle() {
            return Err(profess_par::TIMED_OUT.to_string());
        }
        journal.record(&cell.key, payload);
        Ok((value, trace.then_some(report)))
    });
    let mut records: Vec<CellRecord> = cells
        .iter()
        .map(|c| CellRecord::restored(&c.key, &c.label, journal.replayed(&c.key)))
        .collect();
    for (&i, out) in pending.iter().zip(outs) {
        records[i] = CellRecord::new(&cells[i].key, &cells[i].label, &out);
        if let TaskOutcome::Ok((value, report)) = out.outcome {
            values[i] = Some(value);
            if let Some(r) = report {
                traces.record(&cells[i].label, &r);
            }
        }
    }
    CellRun {
        values,
        cells: records,
        resumed: cells.len() - pending.len(),
    }
}

/// One sweep cell's execution record, kept for the harness artifact.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// The cell's checkpoint-journal key.
    pub key: String,
    /// Display label (`w03:profess`, `solo:pom:mcf`).
    pub label: String,
    /// `cached` (replayed from the journal file), `reused` (recorded
    /// earlier in this process, by an earlier pass of the same
    /// experiment), or the supervised outcome's label: `ok`, `failed`
    /// (panicked or returned an error with no retry budget),
    /// `timed_out`, or `exhausted`.
    pub status: &'static str,
    /// Attempts made (0 for `cached` and `reused` cells).
    pub attempts: u32,
    /// One line per failed attempt, in attempt order.
    pub history: Vec<String>,
    /// Terminal failure description, if the cell failed.
    pub error: Option<String>,
}

impl CellRecord {
    /// The record of cell `key` from its supervised execution `run`.
    pub fn new<R>(key: &str, label: &str, run: &Supervised<R>) -> CellRecord {
        CellRecord {
            key: key.to_string(),
            label: label.to_string(),
            status: run.outcome.label(),
            attempts: run.attempts,
            history: run.history.clone(),
            error: run.outcome.error(),
        }
    }

    /// The record of cell `key`, which did not run: it was replayed from
    /// the journal file (`from_file`) or recorded earlier in this
    /// process.
    fn restored(key: &str, label: &str, from_file: bool) -> CellRecord {
        CellRecord {
            key: key.to_string(),
            label: label.to_string(),
            status: if from_file { "cached" } else { "reused" },
            attempts: 0,
            history: Vec::new(),
            error: None,
        }
    }
}

/// Everything a supervised sweep produced.
#[derive(Debug)]
pub struct SweepRun {
    /// Normalized rows for every workload whose cells all succeeded, in
    /// workload order.
    pub rows: Vec<NormalizedRow>,
    /// Per-cell execution records, in deterministic cell order (solo
    /// references first, then per-workload multiprogram cells).
    pub cells: Vec<CellRecord>,
    /// Workload ids missing from `rows` because a required cell failed.
    pub skipped: Vec<String>,
    /// Cells restored from the checkpoint journal instead of running.
    pub resumed: usize,
    /// Malformed journal lines silently dropped at load time (each one
    /// cost a cell rerun). Surfaced here — and in the `BENCH_*.json`
    /// artifact — so a decaying journal is visible, not silent.
    pub skipped_malformed: usize,
}

impl SweepRun {
    /// Did every workload produce a row?
    pub fn all_ok(&self) -> bool {
        self.skipped.is_empty()
    }

    /// The cells with a terminal failure.
    pub fn failed_cells(&self) -> Vec<&CellRecord> {
        self.cells.iter().filter(|c| c.error.is_some()).collect()
    }

    /// Cells that actually ran this process (not journal-restored).
    pub fn executed(&self) -> usize {
        self.cells.len() - self.resumed
    }
}

/// Prints a supervised run's resume and failure summary and returns
/// whether every cell succeeded. Only cells replayed from the journal
/// file count as restored; cells an earlier pass recorded in this
/// process (`reused`) are neither restored nor executed. The driver
/// exits with [`exit::SWEEP_FAILURE`] when this is false — after writing
/// its artifacts, so the per-cell outcomes are still inspectable.
pub fn report_sweep_health(cells: &[CellRecord]) -> bool {
    let count = |status: &str| cells.iter().filter(|c| c.status == status).count();
    let (restored, reused) = (count("cached"), count("reused"));
    if restored > 0 {
        println!(
            "checkpoint: {restored} cell(s) restored from journal, {} executed",
            cells.len() - restored - reused
        );
    }
    let mut ok = true;
    for c in cells.iter().filter(|c| c.error.is_some()) {
        ok = false;
        eprintln!(
            "cell failed: {} [{}] after {} attempt(s): {}",
            c.label,
            c.status,
            c.attempts,
            c.error.as_deref().unwrap_or("unknown")
        );
        for h in &c.history {
            eprintln!("  {h}");
        }
    }
    ok
}

/// Runs one cell under a cancel token, with the snapshot mode applied.
/// A simulator error (budget, deadlock, cancellation) is an `Err`, which
/// the supervisor counts as a failed attempt. A preempted run journals
/// its snapshot under [`snapshot_key`] and returns an `Err` too: the
/// retry finds the snapshot and warm-starts from it.
fn run_cell(
    b: SystemBuilder,
    snap: &SnapshotMode,
    journal: &Journal,
    snap_key: &str,
    ctx: &profess_par::TaskCtx<'_>,
) -> Result<SystemReport, String> {
    let mut b = b
        .cancel_token(ctx.cancel.clone())
        .snapshot_on_cancel(snap.on_cancel);
    // A journaled snapshot (from a previously preempted attempt) wins
    // over cold-start preemption; a snapshot that no longer decodes
    // falls back to a cold run (the tolerant-journal philosophy: a bad
    // entry costs a rerun, never a wrong result).
    let restored = snap
        .is_enabled()
        .then(|| journal.lookup(snap_key))
        .flatten()
        .and_then(|p| SystemSnapshot::from_json(&p).ok());
    match &restored {
        Some(s) => b = b.restore(s),
        None => {
            if ctx.attempt == 1 {
                if let Some(at) = snap.at {
                    b = b.snapshot_at(at);
                }
            }
        }
    }
    b.try_run().map_err(|e| {
        if let SimError::Preempted { snapshot } = &e {
            journal.record(snap_key, snapshot.to_json());
        }
        e.to_string()
    })
}

/// The cells of a normalized sweep of `policy` against the PoM
/// baseline: solo references first (policy-major, first-seen program
/// order), then two multiprogram cells per workload, PoM before
/// `policy`. Solo references record no trace.
pub(crate) fn normalized_cells(
    at: &Setting,
    policy: PolicyKind,
    workloads: &[Workload],
) -> Vec<Cell> {
    let policies = [PolicyKind::Pom, policy];
    let mut cells = Vec::new();
    for pk in policies {
        for w in workloads {
            let mut refs = slowdown_cells(at, pk, w);
            refs.pop();
            cells.extend(refs);
        }
    }
    for w in workloads {
        for pk in policies {
            cells.push(at.cell(pk, Sim::Multi(*w), format!("{}:{}", w.id, pk.name())));
        }
    }
    distinct(cells)
}

/// The rows of a normalized sweep (see [`normalized_cells`]) and the
/// ids of the workloads left without one because a cell failed.
///
/// Rows come from the cell values alone, which fresh and restored cells
/// reach through the same decode, so a resumed or warm-started sweep's
/// rows are byte-identical to an uninterrupted run's.
pub(crate) fn normalized_rows(
    r: &Results,
    at: &Setting,
    policy: PolicyKind,
    workloads: &[Workload],
) -> (Vec<NormalizedRow>, Vec<String>) {
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for w in workloads {
        let row = (|| {
            let base = r.metrics(at, PolicyKind::Pom, w)?;
            let m = r.metrics(at, policy, w)?;
            Some(NormalizedRow {
                id: w.id.to_string(),
                unfairness: m.unfairness / base.unfairness,
                weighted_speedup: m.weighted_speedup / base.weighted_speedup,
                energy_efficiency: m.energy_efficiency / base.energy_efficiency,
                read_latency: m.read_latency / base.read_latency,
                swap_fraction: m.swap_fraction / base.swap_fraction.max(1e-12),
            })
        })();
        match row {
            Some(row) => rows.push(row),
            None => skipped.push(w.id.to_string()),
        }
    }
    (rows, skipped)
}

/// The supervised, checkpointable normalized sweep of `policy` against
/// the PoM baseline: [`normalized_cells`], run by [`run_cells`]
/// (journal replay, supervision, snapshots, traces), then reduced by
/// [`normalized_rows`].
#[expect(
    clippy::too_many_arguments,
    reason = "public signature that examples/perf calls; kept as is"
)]
pub fn normalized_sweep_supervised(
    pool: &Pool,
    cfg: &SystemConfig,
    policy: PolicyKind,
    target_misses: u64,
    workloads: &[Workload],
    sup: &SuperviseConfig,
    journal: &Journal,
    snap: &SnapshotMode,
    traces: &mut harness::TraceCollector,
) -> SweepRun {
    let at = Setting::new(cfg.clone(), target_misses);
    let cells = normalized_cells(&at, policy, workloads);
    let run = run_cells(&cells, pool, sup, journal, snap, traces);
    let (rows, skipped) =
        normalized_rows(&Results::new(&cells, run.values), &at, policy, workloads);
    SweepRun {
        rows,
        cells: run.cells,
        skipped,
        resumed: run.resumed,
        skipped_malformed: journal.rejected(),
    }
}

/// Serializes sweep rows to a canonical JSON string (used to assert that
/// parallel and serial sweeps are byte-identical).
pub fn rows_to_json(rows: &[NormalizedRow]) -> String {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("id", Json::Str(r.id.clone())),
                    ("unfairness", Json::Num(r.unfairness)),
                    ("weighted_speedup", Json::Num(r.weighted_speedup)),
                    ("energy_efficiency", Json::Num(r.energy_efficiency)),
                    ("read_latency", Json::Num(r.read_latency)),
                    ("swap_fraction", Json::Num(r.swap_fraction)),
                ])
            })
            .collect(),
    )
    .to_string()
}

/// Writes a sweep's rows as `ROWS_<name>.json` into
/// [`harness::results_dir`] (the [`rows_to_json`] canonical rendering),
/// so CI can byte-compare a preempted-and-resumed sweep's rows against
/// an uninterrupted golden run with `profess-validate diff`. An I/O
/// failure is a warning — a missing artifact must not fail the sweep
/// that produced real results.
pub fn write_rows_artifact(name: &str, rows: &[NormalizedRow]) {
    let dir = harness::results_dir();
    let path = dir.join(format!("ROWS_{name}.json"));
    let io = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rows_to_json(rows)));
    match io {
        Ok(()) => println!("rows artifact: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Prints a normalized sweep as the three paper figures' series plus a
/// summary line, and returns (unfairness, weighted-speedup, efficiency)
/// geomeans.
pub fn print_sweep(title: &str, rows: &[NormalizedRow]) -> (f64, f64, f64) {
    use profess_metrics::table::TextTable;
    println!("{title}\n");
    let mut t = TextTable::new(vec![
        "workload",
        "max-slowdown",
        "weighted-speedup",
        "energy-eff",
        "read-lat",
        "swap-frac",
    ]);
    for r in rows {
        t.row(vec![
            r.id.clone(),
            format!("{:.3}", r.unfairness),
            format!("{:.3}", r.weighted_speedup),
            format!("{:.3}", r.energy_efficiency),
            format!("{:.3}", r.read_latency),
            format!("{:.3}", r.swap_fraction),
        ]);
    }
    println!("{t}");
    let g = |f: fn(&NormalizedRow) -> f64| geomean_or_nan(&rows.iter().map(f).collect::<Vec<_>>());
    let (unf, ws, eff) = (
        g(|r| r.unfairness),
        g(|r| r.weighted_speedup),
        g(|r| r.energy_efficiency),
    );
    println!(
        "geomeans: max-slowdown {:+.1}%  weighted-speedup {:+.1}%  energy-eff {:+.1}%  read-lat {:+.1}%  swap-frac {:+.1}%",
        (unf - 1.0) * 100.0,
        (ws - 1.0) * 100.0,
        (eff - 1.0) * 100.0,
        (g(|r| r.read_latency) - 1.0) * 100.0,
        (g(|r| r.swap_fraction) - 1.0) * 100.0,
    );
    (unf, ws, eff)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report(ipcs: &[f64]) -> SystemReport {
        SystemReport {
            policy: "X".into(),
            programs: ipcs
                .iter()
                .map(|&ipc| profess_core::system::ProgramReport {
                    name: "p".into(),
                    instructions: 1000,
                    core_cycles: 1000,
                    ipc,
                    served: 100,
                    served_from_m1: 50,
                    read_latency_avg: 10.0,
                    restarts: 0,
                })
                .collect(),
            elapsed_cycles: 1,
            total_served: 400,
            swaps: 40,
            stc_hit_rate: 0.9,
            energy_joules: 1.0,
            requests_per_joule: 400.0,
            avg_read_latency_cycles: 10.0,
            row_hit_rate: 0.5,
            truncated: false,
            sampling: vec![],
            diag: Default::default(),
            trace: None,
        }
    }

    #[test]
    fn metrics_from_report() {
        let multi = fake_report(&[1.0, 2.0]);
        let m = workload_metrics("w01", &multi, &[2.0, 2.0]);
        assert_eq!(m.slowdowns, vec![2.0, 1.0]);
        assert!((m.unfairness - 2.0).abs() < 1e-12);
        assert!((m.weighted_speedup - 1.5).abs() < 1e-12);
        assert!((m.swap_fraction - 0.1).abs() < 1e-12);
    }

    #[test]
    fn summarize_has_no_mean_of_an_empty_or_non_positive_series() {
        assert!(summarize(&[]).is_none());
        assert!(summarize(&[1.0, 0.0]).is_none());
        assert!(geomean_or_nan(&[]).is_nan());
        let s = summarize(&[1.0, 4.0]).map(|s| (s.geomean, s.best, s.worst));
        assert_eq!(s, Some((2.0, 4.0, 1.0)));
    }

    #[test]
    fn repeated_cells_run_once_in_first_seen_order() {
        let at = Setting::new(SystemConfig::scaled_quad(), 300);
        let ws = profess_trace::workloads();
        let cells = normalized_cells(&at, PolicyKind::Mdm, &ws[..2]);
        let keys: BTreeSet<&str> = cells.iter().map(Cell::key).collect();
        assert_eq!(keys.len(), cells.len());
        assert!(cells[0].key().starts_with("solo|PoM|"));
        assert_eq!(cells[cells.len() - 4].label(), format!("{}:PoM", ws[0].id));
    }
}
