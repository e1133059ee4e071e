//! **profess-run** — runs one experiment of the registry
//! (`profess_bench::experiments`):
//!
//! ```text
//! profess-run <experiment> [--trace] [--workers N] [<target>] [<id>...]
//! ```
//!
//! `<target>` is the memory operations per program (per load generator
//! for `surface`); the ids select the workloads of `fig10_12` and
//! `fig13_15`, or the policies of `surface`. The supervision knobs
//! (`PROFESS_THREADS`, `_RETRIES`, `_TASK_TIMEOUT_MS`, `_FAULT`,
//! `_SNAPSHOT`, `_SNAPSHOT_AT`) apply to every experiment.
//!
//! The journal rule: `PROFESS_CHECKPOINT` names the directory of
//! `CHECKPOINT_<experiment>.jsonl` (`1`: the results directory), and a
//! run resumes from the cells it holds; unset, empty or `0` journals
//! nothing, except that a `--workers` run always journals (into the
//! results directory by default) and, once finished, rewrites the
//! journal in cell order. The journal's path goes to stderr: stdout is
//! the experiment's output, the same however its cells ran.
//!
//! `--workers N` runs every attempt in a child process, up to N at
//! once, which re-execs this binary with the same arguments plus
//! `--worker <cell key>`. Child attempts take no snapshots and return no
//! trace, so `--workers` with `PROFESS_SNAPSHOT`, `PROFESS_SNAPSHOT_AT`
//! or `--trace` is a usage error. Exit codes follow
//! [`profess_bench::exit`].

use std::path::PathBuf;

use profess_bench::experiments::{self, Experiment, Ids, Setup, EXPERIMENTS};
use profess_bench::harness::results_dir;
use profess_bench::shard::{child_main, lost_cell};
use profess_bench::surface::{
    axis_from_env, parse_policy, SurfaceSpec, DEFAULT_INTENSITIES, DEFAULT_POLICIES,
    DEFAULT_READ_FRACS, INTENSITIES_ENV, POLICY_NAMES, RATIOS_ENV,
};
use profess_bench::{checkpoint, distinct, exit, Journal, SnapshotMode, SuperviseConfig};
use profess_core::SimError;

const USAGE: &str = "usage: profess-run <experiment> [--trace] [--workers N] [<target>] [<id>...]";

/// Exits with a usage error; the message lists the experiments.
fn usage_error(msg: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("profess-run: error: {msg}");
    eprintln!("{USAGE}");
    eprintln!("experiments: {}", names.join(" "));
    std::process::exit(exit::USAGE)
}

/// The parsed command line.
#[derive(Debug)]
struct Args {
    exp: &'static Experiment,
    trace: bool,
    workers: Option<usize>,
    /// A child attempt's cell key (internal: set by a `--workers` run).
    worker: Option<String>,
    target: Option<u64>,
    ids: Vec<String>,
}

fn parse_args(argv: &[String]) -> Args {
    let (mut trace, mut workers, mut worker) = (false, None, None);
    let mut positional = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--trace" => trace = true,
            "--workers" => {
                let v = value("--workers");
                let n = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("bad --workers `{v}`")));
                workers = Some(n);
            }
            "--worker" => worker = Some(value("--worker").clone()),
            s if s.starts_with('-') => usage_error(&format!("unknown flag `{s}`")),
            s => positional.push(s),
        }
    }
    let mut positional = positional.into_iter();
    let name = positional
        .next()
        .unwrap_or_else(|| usage_error("no experiment"));
    let exp = experiments::find(name)
        .unwrap_or_else(|| usage_error(&format!("unknown experiment `{name}`")));
    // A numeric first argument after the name is the target; the rest
    // are ids.
    let mut rest: Vec<&str> = positional.collect();
    let target = rest.first().and_then(|t| t.parse().ok());
    if target.is_some() {
        rest.remove(0);
    }
    Args {
        exp,
        trace,
        workers,
        worker,
        target,
        ids: rest.into_iter().map(String::from).collect(),
    }
}

/// The experiment's setup: the target and what its ids select.
fn setup(args: &Args) -> Setup {
    let target = args.target.unwrap_or(args.exp.default_target);
    let mut setup = Setup {
        target,
        workloads: profess_trace::workloads().to_vec(),
        surface: SurfaceSpec::new(DEFAULT_POLICIES.to_vec()),
    };
    match args.exp.ids {
        Ids::None => {
            if let Some(id) = args.ids.first() {
                usage_error(&format!(
                    "`{id}` is not a memory-operation target ({} takes no ids)",
                    args.exp.name
                ));
            }
        }
        Ids::Workloads if !args.ids.is_empty() => {
            setup.workloads = args
                .ids
                .iter()
                .map(|id| {
                    profess_trace::workload::workload_by_id(id)
                        .unwrap_or_else(|e| usage_error(&e.to_string()))
                })
                .collect();
        }
        Ids::Workloads => {}
        Ids::Policies => {
            let spec = &mut setup.surface;
            if !args.ids.is_empty() {
                let known: Vec<&str> = POLICY_NAMES.iter().map(|(n, _)| *n).collect();
                let policy = |n: &String| {
                    parse_policy(n).unwrap_or_else(|| {
                        usage_error(&format!(
                            "unknown policy `{n}` (known: {})",
                            known.join(" ")
                        ))
                    })
                };
                spec.policies = args.ids.iter().map(policy).collect();
            }
            spec.target_ops = target;
            spec.read_fracs =
                axis_from_env(RATIOS_ENV, &DEFAULT_READ_FRACS).unwrap_or_else(|e| usage_error(&e));
            spec.intensities = axis_from_env(INTENSITIES_ENV, &DEFAULT_INTENSITIES)
                .unwrap_or_else(|e| usage_error(&e));
            if let Err(e) = spec.validate() {
                usage_error(&e);
            }
        }
    }
    setup
}

/// The one journal rule (see the module docs).
fn journal_path(name: &str, workers: Option<usize>) -> Option<PathBuf> {
    let dir = match std::env::var(checkpoint::CHECKPOINT_ENV) {
        Ok(v) if v == "1" => results_dir(),
        Ok(v) if !v.is_empty() && v != "0" => PathBuf::from(v),
        _ if workers.is_some() => results_dir(),
        _ => return None,
    };
    Some(dir.join(format!("CHECKPOINT_{name}.jsonl")))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    if args.trace {
        std::env::set_var(profess_obs::TRACE_ENV, "1");
    }
    let setup = setup(&args);
    let exp = args.exp;
    let sup = SuperviseConfig::from_env().unwrap_or_else(|e| usage_error(&e));
    if let Some(key) = &args.worker {
        child_main(&(exp.cells)(&setup).concat(), key, &sup.faults);
    }
    let snap = SnapshotMode::from_env().unwrap_or_else(|e| usage_error(&e));
    let workers = args.workers.unwrap_or(0);
    if workers > 0 && snap.is_enabled() {
        usage_error("child attempts take no snapshots: --workers excludes PROFESS_SNAPSHOT and PROFESS_SNAPSHOT_AT");
    }
    if workers > 0 && args.trace {
        usage_error("child attempts return no trace: --workers excludes --trace");
    }
    let path = journal_path(exp.name, args.workers);
    let journal = match &path {
        None => Journal::disabled(),
        Some(p) => {
            let j = Journal::load(p).unwrap_or_else(|e| {
                usage_error(&format!(
                    "cannot open checkpoint journal {}: {e}",
                    p.display()
                ))
            });
            let fleet = args
                .workers
                .map(|n| format!("; {n} worker process(es)"))
                .unwrap_or_default();
            eprintln!(
                "checkpoint journal: {} ({} cells replayed, {} lines dropped){fleet}",
                p.display(),
                j.loaded(),
                j.rejected()
            );
            j
        }
    };
    let outcome = experiments::run(exp, &setup, &sup, &snap, &journal, workers, &argv);
    drop(journal);
    if let (Some(p), Some(_)) = (&path, args.workers) {
        // Cells journal as they complete; cell order pins the journal
        // byte-identical to a serial run.
        let keys: Vec<String> = distinct((exp.cells)(&setup).concat())
            .iter()
            .map(|c| c.key().to_string())
            .collect();
        if let Err(e) = checkpoint::rewrite_in_order(p, &keys) {
            eprintln!("profess-run: {e}");
            std::process::exit(exit::VALIDATION_FAIL);
        }
    }
    if let Some(c) = lost_cell(&outcome.records).filter(|_| workers > 0) {
        let e = SimError::WorkerLost {
            cell: c.key.clone(),
            attempts: c.attempts,
        };
        eprintln!("profess-run: {e}");
        std::process::exit(exit::WORKER_LOST);
    }
    if !outcome.ok {
        std::process::exit(exit::SWEEP_FAILURE);
    }
}
