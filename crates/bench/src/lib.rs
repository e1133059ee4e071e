//! Shared harness code for the benchmark binaries that regenerate the
//! paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure (see
//! `DESIGN.md` for the experiment index). This library provides the run
//! orchestration they share: solo and multiprogram runs, slowdown
//! computation against per-policy solo references, and normalized-series
//! printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod exit;
pub mod harness;
pub mod shard;
pub mod surface;

use profess_core::system::{PolicyKind, SystemBuilder, SystemReport};
use profess_core::{SimError, SystemSnapshot};
use profess_metrics::{unfairness, weighted_speedup, Json};
use profess_trace::{SpecProgram, Workload};
use profess_types::SystemConfig;

pub use checkpoint::{Journal, MultiCell};
pub use profess_par::{FaultPlan, Pool, SuperviseConfig, Supervised, TaskOutcome};

/// Default memory operations per program for single-program experiments.
pub const SOLO_TARGET_MISSES: u64 = 120_000;

/// Default memory operations per program for multiprogram experiments.
pub const MULTI_TARGET_MISSES: u64 = 60_000;

/// Terminates the current bench binary with a usage error (exit
/// status 2, the conventional Unix code for bad invocations).
///
/// The figure/table binaries share one argument shape — `[--trace]
/// [<target-misses>] [<workload-id>...]` — so malformed input gets one
/// diagnostic and a usage line instead of a panic backtrace per binary.
pub fn usage_error(msg: &str) -> ! {
    let bin = bin_name();
    eprintln!("{bin}: error: {msg}");
    eprintln!("usage: {bin} [--trace] [<target-misses>] [<workload-id>...]");
    std::process::exit(exit::USAGE)
}

/// The running binary's file name, for diagnostics.
fn bin_name() -> String {
    let arg0 = std::env::args().next().unwrap_or_default();
    arg0.rsplit('/').next().unwrap_or("bench").to_string()
}

/// Reads the per-program memory-operation target: first non-flag CLI
/// argument (flags like `--trace` are skipped), then the
/// `PROFESS_TARGET` environment variable, then `default`. A present but
/// non-numeric value is a usage error, not a silent fallback.
pub fn target_from_args(default: u64) -> u64 {
    let (source, value) = match std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        Some(v) => ("argument", v),
        None => match std::env::var("PROFESS_TARGET") {
            Ok(v) => ("PROFESS_TARGET", v),
            Err(_) => return default,
        },
    };
    match value.parse() {
        Ok(t) => t,
        Err(_) => usage_error(&format!(
            "memory-operation target {source} `{value}` is not an unsigned integer"
        )),
    }
}

/// Looks a workload id up, exiting with a usage error naming the known
/// ids when it does not exist. Bench binaries should prefer this to
/// unwrapping [`workload_by_id`](profess_trace::workload::workload_by_id);
/// the typed [`profess_trace::UnknownWorkload`] error already lists
/// every valid id, so the usage path surfaces it verbatim.
pub fn workload_or_usage(id: &str) -> Workload {
    profess_trace::workload::workload_by_id(id).unwrap_or_else(|e| usage_error(&e.to_string()))
}

/// Reads the supervision config (`PROFESS_RETRIES`,
/// `PROFESS_TASK_TIMEOUT_MS`, `PROFESS_FAULT`) from the environment,
/// reporting invalid values as usage errors (exit 2) instead of a
/// panic backtrace.
pub fn supervise_from_env() -> SuperviseConfig {
    SuperviseConfig::from_env().unwrap_or_else(|e| usage_error(&e))
}

/// Env var enabling snapshot-on-cancel in the sweep binaries: unset,
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

/// Reads the snapshot mode (`PROFESS_SNAPSHOT`, `PROFESS_SNAPSHOT_AT`)
/// from the environment, reporting invalid values as usage errors.
pub fn snapshot_mode_from_env() -> SnapshotMode {
    SnapshotMode::from_env().unwrap_or_else(|e| usage_error(&e))
}

/// The journal key holding cell `key`'s mid-run snapshot. Namespaced so
/// snapshot entries can never shadow a completed cell's result.
pub fn snapshot_key(cell_key: &str) -> String {
    format!("snapshot|{cell_key}")
}

/// Opens the checkpoint journal selected by `PROFESS_CHECKPOINT` for
/// sweep artifact `name`: unset, empty, or `0` yields a disabled
/// journal; `1` journals to `CHECKPOINT_<name>.jsonl` in
/// [`harness::results_dir`]; any other value names the journal
/// directory. An unopenable journal is a usage error — silently
/// running without the checkpointing the caller asked for would make
/// a later kill unrecoverable.
pub fn journal_from_env(name: &str) -> Journal {
    let dir = match std::env::var(checkpoint::CHECKPOINT_ENV) {
        Err(_) => return Journal::disabled(),
        Ok(v) if v.is_empty() || v == "0" => return Journal::disabled(),
        Ok(v) if v == "1" => harness::results_dir(),
        Ok(v) => std::path::PathBuf::from(v),
    };
    let path = dir.join(format!("CHECKPOINT_{name}.jsonl"));
    match Journal::load(&path) {
        Ok(j) => {
            println!(
                "checkpoint journal: {} ({} cells replayed, {} lines dropped)",
                path.display(),
                j.loaded(),
                j.rejected()
            );
            j
        }
        Err(e) => usage_error(&format!(
            "cannot open checkpoint journal {}: {e}",
            path.display()
        )),
    }
}

/// Parses the sweep binaries' shared CLI shape — `[--trace] [<target>]
/// [<workload-id>...]` — into the memory-operation target and the
/// workload subset (see [`sweep_args_from`]).
pub fn sweep_args(default_target: u64) -> (u64, Vec<Workload>) {
    let rest: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    sweep_args_from(&rest, default_target)
}

/// [`sweep_args`] over already-extracted positional arguments: a
/// numeric first argument is the target (else `PROFESS_TARGET`, else
/// `default_target`); the remaining arguments select workloads
/// (default: all Table 10 workloads). Unknown ids are usage errors.
pub fn sweep_args_from(rest: &[String], default_target: u64) -> (u64, Vec<Workload>) {
    // The target override is config echoed into the checkpoint fingerprint,
    // so resumed runs see identical values.
    let env_target = || match std::env::var("PROFESS_TARGET") {
        Ok(v) => match v.parse() {
            Ok(t) => t,
            Err(_) => usage_error(&format!(
                "memory-operation target PROFESS_TARGET `{v}` is not an unsigned integer"
            )),
        },
        Err(_) => default_target,
    };
    let (target, ids) = match rest.split_first() {
        Some((first, tail)) => match first.parse::<u64>() {
            Ok(t) => (t, tail),
            Err(_) => (env_target(), rest),
        },
        None => (env_target(), rest),
    };
    let workloads = if ids.is_empty() {
        profess_trace::workloads().to_vec()
    } else {
        ids.iter().map(|id| workload_or_usage(id)).collect()
    };
    (target, workloads)
}

/// Handles the figure binaries' `--trace` flag: when present, sets
/// `PROFESS_TRACE=1` so every [`SystemBuilder`] constructed afterwards
/// (they default to [`profess_obs::TraceConfig::from_env`]) records a
/// trace. Returns whether tracing is active (flag or pre-set
/// environment). Call this before the first simulation.
pub fn init_trace_flag() -> bool {
    if std::env::args().skip(1).any(|a| a == "--trace") {
        std::env::set_var(profess_obs::TRACE_ENV, "1");
    }
    profess_obs::TraceConfig::from_env().enabled
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

/// Summarizes a series of ratios.
///
/// # Panics
///
/// Panics on an empty series.
pub fn summarize(ratios: &[f64]) -> NormSummary {
    NormSummary {
        geomean: profess_metrics::geomean(ratios),
        best: ratios.iter().copied().fold(f64::MIN, f64::max),
        worst: ratios.iter().copied().fold(f64::MAX, f64::min),
    }
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

/// Runs a Table 10 workload on the quad-core system.
pub fn run_workload(
    cfg: &SystemConfig,
    policy: PolicyKind,
    w: &Workload,
    target_misses: u64,
) -> Result<SystemReport, SimError> {
    SystemBuilder::new(cfg.clone())
        .policy(policy)
        .workload(w, target_misses)
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
    assert_eq!(multi.programs.len(), solo_ipcs.len());
    let slowdowns: Vec<f64> = multi
        .programs
        .iter()
        .zip(solo_ipcs)
        .map(|(p, &sp)| profess_metrics::slowdown(sp, p.ipc))
        .collect();
    WorkloadMetrics {
        id: id.to_string(),
        weighted_speedup: weighted_speedup(&slowdowns),
        unfairness: unfairness(&slowdowns),
        energy_efficiency: multi.requests_per_joule,
        read_latency: multi.avg_read_latency_cycles,
        swap_fraction: multi.swap_fraction(),
        slowdowns,
    }
}

/// [`workload_metrics`] computed from a journaled [`MultiCell`] instead
/// of a live report.
///
/// The supervised sweep routes *both* freshly-simulated and
/// journal-restored cells through this function, so the floating-point
/// arithmetic — and therefore the emitted rows — is identical whether a
/// cell ran this process or was replayed from a checkpoint.
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

/// Caches solo IPC references per (policy, program) so workload sweeps do
/// not repeat identical solo runs.
#[derive(Debug, Default)]
pub struct SoloCache {
    entries: std::collections::HashMap<(&'static str, SpecProgram), f64>,
}

impl SoloCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the solo IPC of `prog` under `policy` on the quad system,
    /// running it if not cached.
    pub fn solo_ipc(
        &mut self,
        cfg: &SystemConfig,
        policy: PolicyKind,
        prog: SpecProgram,
        target_misses: u64,
    ) -> Result<f64, SimError> {
        let key = (policy.name(), prog);
        if let Some(&ipc) = self.entries.get(&key) {
            return Ok(ipc);
        }
        let ipc = run_solo(cfg, policy, prog, target_misses)?.programs[0].ipc;
        self.entries.insert(key, ipc);
        Ok(ipc)
    }

    /// Solo IPCs for every program of a workload.
    pub fn solo_ipcs(
        &mut self,
        cfg: &SystemConfig,
        policy: PolicyKind,
        w: &Workload,
        target_misses: u64,
    ) -> Result<Vec<f64>, SimError> {
        w.programs
            .iter()
            .map(|&p| self.solo_ipc(cfg, policy, p, target_misses))
            .collect()
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

/// One sweep cell's identity: its checkpoint-journal key, its display
/// label, and what to run.
#[derive(Debug)]
pub(crate) struct CellSpec<K> {
    /// The cell's checkpoint-journal key.
    pub key: String,
    /// Display label (`w03:profess`, `solo:pom:mcf`).
    pub label: String,
    /// What the sweep runs for this cell.
    pub kind: K,
}

/// The sweep-specific half of [`run_cells`]: what a sweep's cells are,
/// and how one is built and reduced to its journaled value. The
/// normalized and surface sweeps differ only here.
pub(crate) trait CellSweep: Sync {
    /// What one cell runs.
    type Kind: Sync;
    /// A completed cell's value.
    type Value: Send;
    /// Every cell, in canonical spec order: the serial journal's append
    /// order, and the order a sharded run rewrites its journal into.
    fn specs(&self) -> Vec<CellSpec<Self::Kind>>;
    /// Decodes a journal payload (`None` on any shape mismatch — the
    /// cell then reruns).
    fn decode(&self, kind: &Self::Kind, payload: &Json) -> Option<Self::Value>;
    /// Builds the cell's simulation (nothing run yet).
    fn build(&self, kind: &Self::Kind) -> SystemBuilder;
    /// Reduces a finished run to its journal payload.
    fn reduce(&self, kind: &Self::Kind, report: &SystemReport) -> Json;
}

/// Where [`run_cells`] runs each attempt. Crate-private: only
/// [`shard::ShardSweep::run_on`] picks child processes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Executor<'a> {
    /// On the pool's own threads.
    Threads,
    /// In a child process per attempt: the current executable with
    /// these arguments plus `--worker <cell key>` (see
    /// [`shard::child_attempt`]). Children take no snapshots.
    Processes(&'a [String]),
}

/// What [`run_cells`] produced, in spec order.
pub(crate) struct CellRun<V> {
    /// Each cell's value; `None` where the cell failed.
    pub(crate) values: Vec<Option<V>>,
    /// Each cell's execution record.
    pub(crate) cells: Vec<CellRecord>,
    /// Cells restored from the journal instead of running.
    pub(crate) resumed: usize,
}

/// The one cell engine every sweep runs on.
///
/// Cells already in `journal` with a decodable payload are restored
/// instead of re-run. The rest — the *pending* cells, kept in spec
/// order, so fault-plan indices are positions in that list — run under
/// [`Pool::try_run_supervised`] with `sup`'s retry / timeout /
/// fault-injection settings, each attempt on `exec`. A completed cell
/// is reduced to its payload, journaled the moment it completes, and
/// decoded back into its value, so fresh and restored cells reach the
/// caller through the same decode and a resumed sweep is
/// byte-identical to an uninterrupted one. Reports of cells that ran on
/// this process's threads go to `traces` in cell order.
///
/// With `snap` enabled, a preempted cell (watchdog cancel under
/// `snap.on_cancel`, or the deterministic `snap.at` clock on first
/// attempts) journals a mid-run [`SystemSnapshot`] under
/// [`snapshot_key`] and fails the attempt; the retry restores the
/// snapshot and runs only the remaining cycles. Snapshot-restored
/// completions are byte-identical to straight-through runs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cells<S: CellSweep>(
    sweep: &S,
    specs: &[CellSpec<S::Kind>],
    pool: &Pool,
    sup: &SuperviseConfig,
    journal: &Journal,
    snap: &SnapshotMode,
    exec: Executor<'_>,
    traces: &mut harness::TraceCollector,
) -> CellRun<S::Value> {
    let mut values: Vec<Option<S::Value>> = specs
        .iter()
        .map(|s| {
            journal
                .lookup(&s.key)
                .and_then(|p| sweep.decode(&s.kind, &p))
        })
        .collect();
    let pending: Vec<usize> = (0..specs.len()).filter(|&i| values[i].is_none()).collect();
    let keep_reports = traces.is_enabled();
    let outs = pool.try_run_supervised(&pending, sup, |ctx, &i| {
        let spec = &specs[i];
        let (payload, report) = match exec {
            Executor::Processes(args) => (
                shard::child_attempt(args, &spec.key, &ctx, &sup.faults)?,
                None,
            ),
            Executor::Threads => {
                let b = sweep.build(&spec.kind);
                let report = run_cell(b, snap, journal, &snapshot_key(&spec.key), &ctx)?;
                (sweep.reduce(&spec.kind, &report), Some(report))
            }
        };
        let value = sweep
            .decode(&spec.kind, &payload)
            .ok_or_else(|| format!("cell `{}` reduced to an undecodable payload", spec.key))?;
        // A cancel after the record would retry a journaled cell.
        if !ctx.cancel.settle() {
            return Err(profess_par::TIMED_OUT.to_string());
        }
        journal.record(&spec.key, payload);
        Ok((value, report.filter(|_| keep_reports)))
    });
    let mut cells: Vec<CellRecord> = specs
        .iter()
        .map(|s| CellRecord::new::<()>(&s.key, &s.label, None))
        .collect();
    for (&i, out) in pending.iter().zip(outs) {
        cells[i] = CellRecord::new(&specs[i].key, &specs[i].label, Some(&out));
        if let TaskOutcome::Ok((value, report)) = out.outcome {
            values[i] = Some(value);
            if let Some(r) = report {
                traces.record(&specs[i].label, &r);
            }
        }
    }
    CellRun {
        values,
        cells,
        resumed: specs.len() - pending.len(),
    }
}

/// One cell of a normalized sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CellKind {
    /// A solo (uncontended) reference run of one program.
    Solo(PolicyKind, SpecProgram),
    /// A multiprogram run of workload `workloads[i]`.
    Multi(usize, PolicyKind),
}

/// A completed normalized-sweep cell's value.
#[derive(Debug)]
pub(crate) enum CellValue {
    Solo(f64),
    Multi(MultiCell),
}

/// The cells of a normalized sweep of `policy` against the PoM baseline.
#[derive(Debug)]
pub(crate) struct NormalizedCells<'a> {
    pub(crate) cfg: &'a SystemConfig,
    pub(crate) policy: PolicyKind,
    pub(crate) target_misses: u64,
    pub(crate) workloads: &'a [Workload],
}

impl CellSweep for NormalizedCells<'_> {
    type Kind = CellKind;
    type Value = CellValue;

    /// Deduplicated solo references first (policy-major, first-seen
    /// program order), then two multiprogram cells per workload, PoM
    /// before `policy`.
    fn specs(&self) -> Vec<CellSpec<CellKind>> {
        let cfgfp = checkpoint::config_fingerprint(self.cfg, self.target_misses);
        let policies = [PolicyKind::Pom, self.policy];
        let mut specs: Vec<CellSpec<CellKind>> = Vec::new();
        let mut seen: Vec<(&'static str, SpecProgram)> = Vec::new();
        for &pk in &policies {
            for w in self.workloads {
                for &p in w.programs.iter() {
                    if !seen.contains(&(pk.name(), p)) {
                        seen.push((pk.name(), p));
                        specs.push(CellSpec {
                            key: format!("solo|{}|{}|{}", pk.name(), p.name(), cfgfp),
                            label: format!("solo:{}:{}", pk.name(), p.name()),
                            kind: CellKind::Solo(pk, p),
                        });
                    }
                }
            }
        }
        for (wi, w) in self.workloads.iter().enumerate() {
            for &pk in &policies {
                specs.push(CellSpec {
                    key: format!("multi|{}|{}|{}", pk.name(), w.id, cfgfp),
                    label: format!("{}:{}", w.id, pk.name()),
                    kind: CellKind::Multi(wi, pk),
                });
            }
        }
        specs
    }

    fn decode(&self, kind: &CellKind, payload: &Json) -> Option<CellValue> {
        match kind {
            CellKind::Solo(..) => Some(CellValue::Solo(checkpoint::solo_ipc_from_json(payload)?)),
            CellKind::Multi(..) => Some(CellValue::Multi(MultiCell::from_json(payload)?)),
        }
    }

    /// Solo references record no trace: a sweep's trace artifact holds
    /// its multiprogram runs only.
    fn build(&self, kind: &CellKind) -> SystemBuilder {
        let b = SystemBuilder::new(self.cfg.clone());
        match *kind {
            CellKind::Solo(pk, p) => b
                .policy(pk)
                .trace(profess_obs::TraceConfig::off())
                .spec_program(p, p.budget_for_misses(self.target_misses)),
            CellKind::Multi(wi, pk) => b
                .policy(pk)
                .workload(&self.workloads[wi], self.target_misses),
        }
    }

    fn reduce(&self, kind: &CellKind, report: &SystemReport) -> Json {
        match kind {
            CellKind::Solo(..) => Json::obj([("ipc", Json::Num(report.programs[0].ipc))]),
            CellKind::Multi(..) => MultiCell::from_report(report).to_json(),
        }
    }
}

/// One sweep cell's execution record, kept for the harness artifact.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// The cell's checkpoint-journal key.
    pub key: String,
    /// Display label (`w03:profess`, `solo:pom:mcf`).
    pub label: String,
    /// `cached` (restored from the journal), or the supervised outcome's
    /// label: `ok`, `failed` (panicked or returned an error with no
    /// retry budget), `timed_out`, or `exhausted`.
    pub status: &'static str,
    /// Attempts made (0 for journal-restored cells).
    pub attempts: u32,
    /// One line per failed attempt, in attempt order.
    pub history: Vec<String>,
    /// Terminal failure description, if the cell failed.
    pub error: Option<String>,
}

impl CellRecord {
    /// The record of cell `key`: `run` is its supervised execution, or
    /// `None` when it was restored from the journal.
    pub fn new<R>(key: &str, label: &str, run: Option<&Supervised<R>>) -> CellRecord {
        let (status, attempts, history, error) = match run {
            None => ("cached", 0, Vec::new(), None),
            Some(s) => (
                s.outcome.label(),
                s.attempts,
                s.history.clone(),
                s.outcome.error(),
            ),
        };
        CellRecord {
            key: key.to_string(),
            label: label.to_string(),
            status,
            attempts,
            history,
            error,
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

/// Prints a supervised sweep's resume and failure summary and returns
/// whether every cell succeeded. `skipped` lists the outputs (`what`:
/// workloads, cells) left without results. The sweep binaries exit
/// with [`exit::SWEEP_FAILURE`] when this is false — after writing
/// their artifacts, so the per-cell outcomes are still inspectable.
pub fn report_sweep_health(cells: &[CellRecord], what: &str, skipped: &[String]) -> bool {
    let resumed = cells.iter().filter(|c| c.status == "cached").count();
    if resumed > 0 {
        println!(
            "checkpoint: {resumed} cell(s) restored from journal, {} executed",
            cells.len() - resumed
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
    if !skipped.is_empty() {
        eprintln!("{what} without results: {}", skipped.join(" "));
    }
    ok && skipped.is_empty()
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

/// The supervised, checkpointable normalized sweep of `policy` against
/// the PoM baseline: a normalized sweep's cells, run by
/// [`run_cells`] (journal replay, supervision, snapshots, traces), then
/// reduced to rows.
///
/// Rows are assembled only for workloads whose four cell kinds all
/// succeeded; the rest are listed in [`SweepRun::skipped`]. Both fresh
/// and restored cells flow through [`workload_metrics_cell`], so a
/// resumed or warm-started sweep's rows are byte-identical to an
/// uninterrupted run's.
#[allow(clippy::too_many_arguments)]
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
    NormalizedCells {
        cfg,
        policy,
        target_misses,
        workloads,
    }
    .run_on(pool, sup, journal, snap, Executor::Threads, traces)
}

impl NormalizedCells<'_> {
    /// [`normalized_sweep_supervised`] with every attempt on `exec`.
    pub(crate) fn run_on(
        &self,
        pool: &Pool,
        sup: &SuperviseConfig,
        journal: &Journal,
        snap: &SnapshotMode,
        exec: Executor<'_>,
        traces: &mut harness::TraceCollector,
    ) -> SweepRun {
        let specs = self.specs();
        let run = run_cells(self, &specs, pool, sup, journal, snap, exec, traces);

        // Row assembly from the cell values alone.
        let mut solo_map: std::collections::BTreeMap<(&'static str, SpecProgram), f64> =
            std::collections::BTreeMap::new();
        let mut multi_map: std::collections::BTreeMap<(usize, &'static str), &MultiCell> =
            std::collections::BTreeMap::new();
        for (s, v) in specs.iter().zip(&run.values) {
            match (s.kind, v) {
                (CellKind::Solo(pk, p), Some(CellValue::Solo(ipc))) => {
                    solo_map.insert((pk.name(), p), *ipc);
                }
                (CellKind::Multi(wi, pk), Some(CellValue::Multi(cell))) => {
                    multi_map.insert((wi, pk.name()), cell);
                }
                _ => {}
            }
        }
        let mut rows = Vec::new();
        let mut skipped = Vec::new();
        for (wi, w) in self.workloads.iter().enumerate() {
            let row = (|| {
                let base_cell = multi_map.get(&(wi, PolicyKind::Pom.name()))?;
                let m_cell = multi_map.get(&(wi, self.policy.name()))?;
                let base_solo: Vec<f64> = w
                    .programs
                    .iter()
                    .map(|p| solo_map.get(&(PolicyKind::Pom.name(), *p)).copied())
                    .collect::<Option<_>>()?;
                let solo: Vec<f64> = w
                    .programs
                    .iter()
                    .map(|p| solo_map.get(&(self.policy.name(), *p)).copied())
                    .collect::<Option<_>>()?;
                let base = workload_metrics_cell(w.id, base_cell, &base_solo);
                let m = workload_metrics_cell(w.id, m_cell, &solo);
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
                Some(r) => rows.push(r),
                None => skipped.push(w.id.to_string()),
            }
        }
        SweepRun {
            rows,
            cells: run.cells,
            skipped,
            resumed: run.resumed,
            skipped_malformed: journal.rejected(),
        }
    }
}

/// Serializes sweep rows to a canonical JSON string (used to assert that
/// parallel and serial sweeps are byte-identical).
pub fn rows_to_json(rows: &[NormalizedRow]) -> String {
    use profess_metrics::Json;
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
    println!(
        "{title}
"
    );
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
    let g = |f: fn(&NormalizedRow) -> f64| {
        profess_metrics::geomean(&rows.iter().map(f).collect::<Vec<_>>())
    };
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
}
