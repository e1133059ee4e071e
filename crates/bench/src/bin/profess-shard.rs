//! **profess-shard** — sharded multi-process sweep supervisor.
//!
//! Runs the `fig10_12` sweep (or, with `--surface`, the surface
//! characterization) on the ordinary supervised cell engine, with every
//! attempt in a child process: `--workers N` runs up to N children at
//! once, each a re-exec of this binary for one cell key, which prints
//! the cell's journal line and exits. A child that aborts, hangs past
//! `PROFESS_TASK_TIMEOUT_MS`, exits non-zero or prints garbage fails
//! its attempt, which is retried within `PROFESS_RETRIES` exactly like
//! an in-process one. Only this process journals
//! (`CHECKPOINT_<name>.jsonl`); once the sweep ends it rewrites the
//! journal into spec order and emits the ordinary
//! `ROWS_`/`SURFACE_`/`BENCH_` artifacts, all byte-identical to a
//! single-process run.
//!
//! ```text
//! profess-shard [--trace] [--surface] [--workers N] [<target>] [<workload-id>|<policy>...]
//! ```
//!
//! The surface axes come from `PROFESS_SURFACE_RATIOS` /
//! `PROFESS_SURFACE_INTENSITIES`. `--workers 0` runs every attempt on
//! this process's threads — the golden generator sharded runs are
//! diffed against. `PROFESS_FAULT` indices mean the same at every
//! worker count (pending cell, first attempts); the worker kinds
//! `worker_kill@i[*n]` / `worker_hang@i[*n]` fire in the attempt's
//! child, the task kinds `panic`/`stall`/`exit` in this process.
//!
//! Exit codes follow the shared [`profess_bench::exit`] taxonomy; a
//! cell whose final attempt lost its child exits
//! [`profess_bench::exit::WORKER_LOST`].
//!
//! The internal child mode (`--worker <cell key>`, spawned by the
//! supervisor, never by hand) writes one line on stdout: the cell's
//! journal line (exit 0), or its simulator error or `panicked: <msg>`
//! (exit [`profess_bench::exit::SWEEP_FAILURE`]).

use std::path::PathBuf;

use profess_bench::harness::{results_dir, BenchJson, TraceCollector};
use profess_bench::shard::{lost_cell, report_panics_as_cell_errors, ShardSweep};
use profess_bench::surface::surface_spec_from_args;
use profess_bench::{
    checkpoint, exit, init_trace_flag, supervise_from_env, sweep_args_from, usage_error, Journal,
    MULTI_TARGET_MISSES,
};
use profess_core::errors::SimError;
use profess_core::system::PolicyKind;
use profess_par::fire_worker_fault;
use profess_types::SystemConfig;

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    surface: bool,
    workers: Option<usize>,
    worker: Option<String>,
    positional: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--surface" => args.surface = true,
            "--trace" => {}
            "--workers" => {
                let v = value(&mut it, "--workers");
                args.workers = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage_error(&format!("bad --workers `{v}`"))),
                );
            }
            "--worker" => args.worker = Some(value(&mut it, "--worker")),
            s if s.starts_with('-') => usage_error(&format!("unknown flag `{s}`")),
            s => args.positional.push(s.to_string()),
        }
    }
    args
}

/// Which sweep is being sharded: the `fig10_12` normalized sweep (MDM
/// vs PoM), or the surface characterization with `--surface`.
fn sweep_from(args: &Args) -> ShardSweep {
    if args.surface {
        ShardSweep::Surface(surface_spec_from_args(&args.positional))
    } else {
        let (target_misses, workloads) = sweep_args_from(&args.positional, MULTI_TARGET_MISSES);
        ShardSweep::Normalized {
            policy: PolicyKind::Mdm,
            target_misses,
            workloads,
        }
    }
}

/// The journal directory: an explicit `PROFESS_CHECKPOINT` path wins,
/// anything else (unset, `0`, `1`) means the results directory —
/// sharded runs always journal; the journal *is* the product.
fn journal_dir_from_env() -> PathBuf {
    match std::env::var(checkpoint::CHECKPOINT_ENV) {
        Ok(v) if !v.is_empty() && v != "0" && v != "1" => PathBuf::from(v),
        _ => results_dir(),
    }
}

/// A child attempt: suffer the worker fault the supervisor scheduled
/// for it, if any, then run cell `key` once and report on stdout.
fn child_main(sweep: &ShardSweep, cfg: &SystemConfig, key: &str) -> ! {
    report_panics_as_cell_errors();
    fire_worker_fault(&supervise_from_env().faults);
    match sweep.cell_line(cfg, key) {
        Ok(line) => {
            print!("{line}");
            std::process::exit(exit::OK);
        }
        Err(e) => {
            println!("{e}");
            std::process::exit(exit::SWEEP_FAILURE);
        }
    }
}

fn main() {
    init_trace_flag();
    let args = parse_args();
    let sweep = sweep_from(&args);
    let cfg = SystemConfig::scaled_quad();
    if let Some(key) = &args.worker {
        child_main(&sweep, &cfg, key);
    }
    let name = sweep.name();
    let sup = supervise_from_env();
    let path = journal_dir_from_env().join(format!("CHECKPOINT_{name}.jsonl"));
    let workers = args.workers.unwrap_or_else(profess_par::default_threads);
    let journal = match Journal::load(&path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("profess-shard: {}: {e}", path.display());
            std::process::exit(exit::VALIDATION_FAIL);
        }
    };
    println!(
        "checkpoint journal: {} ({} cells replayed, {} lines dropped); {workers} worker process(es)",
        path.display(),
        journal.loaded(),
        journal.rejected()
    );
    let mut bench = BenchJson::start(name);
    let mut traces = TraceCollector::from_env(name);
    let (cells, ok) = sweep.run_on(&cfg, workers, &sup, &journal, &mut bench, &mut traces);
    traces.finish();
    bench.finish();
    drop(journal);

    // Cells journal as they complete; spec order pins the journal
    // byte-identical to a serial run.
    if let Err(e) = checkpoint::rewrite_in_order(&path, &sweep.cell_keys(&cfg)) {
        eprintln!("profess-shard: {e}");
        std::process::exit(exit::VALIDATION_FAIL);
    }
    if let Some(c) = lost_cell(&cells).filter(|_| workers > 0) {
        let e = SimError::WorkerLost {
            cell: c.key.clone(),
            attempts: c.attempts,
        };
        eprintln!("profess-shard: {e}");
        std::process::exit(exit::WORKER_LOST);
    }
    if !ok {
        std::process::exit(exit::SWEEP_FAILURE);
    }
}
