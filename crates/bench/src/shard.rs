//! The sharded sweeps behind `profess-shard`: the ordinary [`crate::run_cells`]
//! engine, with every attempt run in a child process.
//!
//! A process is an attempt. With `--workers N` the sweep runs on
//! `Pool::new(N)` and each attempt re-execs the current executable for
//! one cell key ([`child_attempt`], on [`profess_par::run_child`]). The
//! child runs that cell once and prints its journal line
//! ([`crate::checkpoint::encode_line`]); the parent decodes it with the
//! fingerprint-checking [`crate::checkpoint::decode_line`] and journals
//! it like any in-process result. Retries, the deadline and fault
//! indices are the one supervisor's ([`crate::Pool::try_run_supervised`]):
//! a child that dies, exits non-zero, or prints garbage fails its
//! attempt, and the watchdog's cancel kills a hung child. Only the
//! parent journals, so there is one journal and nothing to merge.

use profess_core::system::PolicyKind;
use profess_metrics::Json;
use profess_par::{panic_failure, run_child, ChildExit, FaultPlan, TaskCtx, TIMED_OUT};
use profess_trace::Workload;
use profess_types::SystemConfig;

use crate::checkpoint::{decode_line, encode_line, Journal};
use crate::harness::{BenchJson, TraceCollector};
use crate::surface::{
    policy_cli_name, surface_to_json, write_surface_artifact, SurfaceCells, SurfaceSpec,
};
use crate::{
    exit, report_sweep_health, usage_error, write_rows_artifact, CellRecord, CellSweep, Executor,
    NormalizedCells, Pool, SnapshotMode, SuperviseConfig,
};

/// How an attempt's error text starts when its child process was lost:
/// killed, crashed, or unreadable.
const LOST: &str = "worker process lost";

/// The sweep `profess-shard` runs. Parent and children derive it
/// identically from the same arguments and environment, so both sides
/// agree on every key.
#[derive(Debug, Clone)]
pub enum ShardSweep {
    /// The cells of [`crate::normalized_sweep_supervised`] for `policy`.
    Normalized {
        /// The policy normalized against PoM.
        policy: PolicyKind,
        /// Memory operations per program.
        target_misses: u64,
        /// The workloads swept.
        workloads: Vec<Workload>,
    },
    /// The cells of [`crate::surface::surface_sweep`].
    Surface(SurfaceSpec),
}

impl ShardSweep {
    /// The artifact name, which also names the journal.
    pub fn name(&self) -> &'static str {
        match self {
            ShardSweep::Normalized { .. } => "fig10_12",
            ShardSweep::Surface(_) => "surface",
        }
    }

    /// Every cell key, in canonical spec order: the line order of the
    /// journal a finished run rewrites.
    pub fn cell_keys(&self, cfg: &SystemConfig) -> Vec<String> {
        fn keys<S: CellSweep>(sweep: S) -> Vec<String> {
            sweep.specs().into_iter().map(|s| s.key).collect()
        }
        match self.cells(cfg) {
            Cells::Normalized(c) => keys(c),
            Cells::Surface(c) => keys(c),
        }
    }

    /// A child attempt's whole job: runs the cell keyed `key` once and
    /// renders its journal line. `Err` carries the simulator's error,
    /// or names a key that is not one of the sweep's cells — a child
    /// must never silently accept a cell it cannot map back to the spec.
    pub fn cell_line(&self, cfg: &SystemConfig, key: &str) -> Result<String, String> {
        match self.cells(cfg) {
            Cells::Normalized(c) => cell_line(&c, key),
            Cells::Surface(c) => cell_line(&c, key),
        }
    }

    /// Runs the sweep and writes its artifacts (rows or surface into
    /// `bench`'s results directory, per-cell records into `bench`).
    /// With `workers == 0` attempts run on [`Pool::from_env`]'s
    /// threads; otherwise on `Pool::new(workers)`, each in a child
    /// process. Returns every cell's record and whether all succeeded.
    pub fn run_on(
        &self,
        cfg: &SystemConfig,
        workers: usize,
        sup: &SuperviseConfig,
        journal: &Journal,
        bench: &mut BenchJson,
        traces: &mut TraceCollector,
    ) -> (Vec<CellRecord>, bool) {
        let args = self.child_args();
        let (pool, exec) = match workers {
            0 => (Pool::from_env(), Executor::Threads),
            n => (Pool::new(n), Executor::Processes(&args)),
        };
        let snap = SnapshotMode::disabled();
        let name = self.name();
        let (executed, cells, ok) = match self.cells(cfg) {
            Cells::Normalized(c) => {
                let run = c.run_on(&pool, sup, journal, &snap, exec, traces);
                write_rows_artifact(name, &run.rows);
                let ok = report_sweep_health(&run.cells, "workloads", &run.skipped);
                (run.executed(), run.cells, ok)
            }
            Cells::Surface(c) => {
                let run = c.run_on(&pool, sup, journal, &snap, exec, traces);
                write_surface_artifact(name, &surface_to_json(name, c.spec, &run.points));
                let ok = report_sweep_health(&run.cells, "cells", &run.skipped);
                (run.executed(), run.cells, ok)
            }
        };
        bench.add_sim_ops(executed as u64);
        bench.push_cells(&cells);
        bench.set_skipped_malformed(journal.rejected() as u64);
        (cells, ok)
    }

    fn cells<'a>(&'a self, cfg: &'a SystemConfig) -> Cells<'a> {
        match self {
            ShardSweep::Normalized {
                policy,
                target_misses,
                workloads,
            } => Cells::Normalized(NormalizedCells {
                cfg,
                policy: *policy,
                target_misses: *target_misses,
                workloads,
            }),
            ShardSweep::Surface(spec) => Cells::Surface(SurfaceCells { cfg, spec }),
        }
    }

    /// The arguments a child needs to re-derive this sweep (the
    /// resolved target first, so `PROFESS_TARGET` cannot disagree).
    fn child_args(&self) -> Vec<String> {
        match self {
            ShardSweep::Normalized {
                target_misses,
                workloads,
                ..
            } => std::iter::once(target_misses.to_string())
                .chain(workloads.iter().map(|w| w.id.to_string()))
                .collect(),
            ShardSweep::Surface(spec) => ["--surface".to_string(), spec.target_ops.to_string()]
                .into_iter()
                .chain(spec.policies.iter().map(|&pk| {
                    policy_cli_name(pk)
                        .unwrap_or_else(|| usage_error(&format!("policy {pk:?} has no CLI name")))
                        .to_string()
                }))
                .collect(),
        }
    }
}

/// [`ShardSweep::cell_line`] for one sweep's cells.
fn cell_line<S: CellSweep>(sweep: &S, key: &str) -> Result<String, String> {
    let Some(spec) = sweep.specs().into_iter().find(|s| s.key == key) else {
        return Err(format!("unknown cell key `{key}`"));
    };
    let report = sweep
        .build(&spec.kind)
        .try_run()
        .map_err(|e| e.to_string())?;
    Ok(encode_line(key, &sweep.reduce(&spec.kind, &report)))
}

/// A [`ShardSweep`]'s cells on one configuration.
#[derive(Debug)]
enum Cells<'a> {
    Normalized(NormalizedCells<'a>),
    Surface(SurfaceCells<'a>),
}

/// Runs one attempt of cell `key` in a child process: the current
/// executable with `args` plus `--worker <key>`, suffering whatever
/// `worker_*` fault `faults` schedules for this attempt. The attempt's
/// result is [`classify`]'s reading of how the child ended; a child
/// that cannot even be started is a lost child too.
pub(crate) fn child_attempt(
    args: &[String],
    key: &str,
    ctx: &TaskCtx<'_>,
    faults: &FaultPlan,
) -> Result<Json, String> {
    let mut argv = args.to_vec();
    argv.extend(["--worker".to_string(), key.to_string()]);
    let fault = faults.worker_action(ctx.index, ctx.attempt);
    let exit = run_child(&argv, fault, ctx.cancel).map_err(|e| format!("{LOST}: {e}"))?;
    classify(key, exit)
}

/// A child attempt's result for cell `key`. The child must exit 0 with
/// the cell's journal line, or exit [`exit::SWEEP_FAILURE`] with the
/// cell's own error (a simulator error, or `panicked: <msg>` from
/// [`report_panics_as_cell_errors`]) — the same text the attempt fails
/// with in-process. Anything else (a signal, another code, garbage, a
/// kill at the deadline) is a lost child: its error starts with
/// `worker process lost`.
fn classify(key: &str, exit: ChildExit) -> Result<Json, String> {
    match exit {
        ChildExit::Exited { code: 0, stdout } => match decode_line(stdout.trim_end()) {
            Some((k, payload)) if k == key => Ok(payload),
            _ => Err(format!("{LOST}: unreadable output `{}`", stdout.trim_end())),
        },
        ChildExit::Exited {
            code: exit::SWEEP_FAILURE,
            stdout,
        } => Err(stdout.trim_end().to_string()),
        ChildExit::Exited { code, .. } => Err(format!("{LOST}: exited with code {code}")),
        ChildExit::Killed => Err(format!("{LOST}: killed by a signal")),
    }
}

/// Installed first in a child attempt: a panic in the cell prints its
/// [`panic_failure`] text on stdout and exits [`exit::SWEEP_FAILURE`], so it
/// fails the attempt exactly as an in-process panic does (an ordinary
/// cell failure, not a lost child). The default hook still reports the
/// panic on stderr.
pub fn report_panics_as_cell_errors() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default(info);
        println!("{}", panic_failure(info.payload()));
        std::process::exit(exit::SWEEP_FAILURE);
    }));
}

/// The first cell whose final attempt lost its child process — killed,
/// crashed, unreadable, or timed out (a timed-out child is killed) —
/// in a run with `workers > 0`, where every attempt is a child. Such a
/// run exits [`exit::WORKER_LOST`].
pub fn lost_cell(cells: &[CellRecord]) -> Option<&CellRecord> {
    cells.iter().find(|c| {
        c.error.is_some()
            && c.history
                .last()
                .is_some_and(|h| h.contains(LOST) || h.ends_with(TIMED_OUT))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(history: &[&str], error: Option<&str>) -> CellRecord {
        CellRecord {
            key: "k".to_string(),
            label: "l".to_string(),
            status: if error.is_some() { "failed" } else { "ok" },
            attempts: history.len() as u32 + u32::from(error.is_none()),
            history: history.iter().map(|h| h.to_string()).collect(),
            error: error.map(str::to_string),
        }
    }

    #[test]
    fn a_cell_is_lost_when_its_final_attempt_lost_the_child() {
        let killed = format!("attempt 1: {LOST}: killed by a signal");
        let recovered = record(&[&killed], None);
        let lost = record(&[&killed], Some("x"));
        let timed_out = format!("attempt 1: {TIMED_OUT}");
        let hung = record(&[&timed_out], Some(TIMED_OUT));
        let failed = record(&[&killed, "attempt 2: budget exceeded"], Some("x"));
        assert!(lost_cell(std::slice::from_ref(&recovered)).is_none());
        assert!(
            lost_cell(std::slice::from_ref(&failed)).is_none(),
            "a cell error is not a lost child"
        );
        assert!(lost_cell(&[recovered.clone(), lost]).is_some());
        assert!(lost_cell(&[recovered, failed, hung]).is_some());
    }

    /// Not a test of its own: the child side of
    /// `a_panicking_child_fails_like_an_in_process_panic`.
    #[test]
    #[ignore]
    fn panicking_child() {
        report_panics_as_cell_errors();
        panic!("boom");
    }

    #[test]
    fn a_panicking_child_fails_like_an_in_process_panic() {
        let args: Vec<String> = [
            "--exact",
            "shard::tests::panicking_child",
            "--ignored",
            "--nocapture",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let exit = run_child(&args, None, &profess_par::CancelToken::new()).expect("spawn");
        assert!(
            matches!(
                &exit,
                ChildExit::Exited {
                    code: exit::SWEEP_FAILURE,
                    ..
                }
            ),
            "{exit:?}"
        );
        // The test harness prints its own lines around the child's.
        let err = classify("k", exit).unwrap_err();
        assert!(err.lines().any(|l| l == "panicked: boom"), "{err}");
        assert!(!err.contains(LOST), "{err}");
    }

    #[test]
    fn child_exits_classify_as_cell_results_or_lost_children() {
        let line = encode_line("k", &Json::UInt(7));
        let exited = |code: i32, stdout: &str| ChildExit::Exited {
            code,
            stdout: stdout.to_string(),
        };
        assert_eq!(classify("k", exited(0, &line)), Ok(Json::UInt(7)));
        assert_eq!(
            classify("k", exited(exit::SWEEP_FAILURE, "panicked: boom\n")),
            Err("panicked: boom".to_string())
        );
        for lost in [
            exited(0, "garbage"),
            exited(0, &encode_line("other", &Json::UInt(7))),
            exited(101, ""),
            ChildExit::Killed,
        ] {
            assert!(classify("k", lost).unwrap_err().starts_with(LOST));
        }
    }

    #[test]
    fn child_args_rederive_the_same_sweep() {
        let spec = SurfaceSpec::new(vec![PolicyKind::Pom, PolicyKind::Mdm]);
        let args = ShardSweep::Surface(spec.clone()).child_args();
        assert_eq!(args[0], "--surface");
        assert_eq!(args[1], spec.target_ops.to_string());
        assert_eq!(&args[2..], ["pom", "mdm"]);
        let w = profess_trace::workloads()[0];
        let sweep = ShardSweep::Normalized {
            policy: PolicyKind::Mdm,
            target_misses: 300,
            workloads: vec![w],
        };
        assert_eq!(sweep.child_args(), ["300".to_string(), w.id.to_string()]);
    }
}
