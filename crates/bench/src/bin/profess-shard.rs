//! **profess-shard** — sharded multi-process sweep supervisor.
//!
//! Re-execs this binary as N worker *processes* and deals checkpoint
//! cells to them over line-delimited JSON on stdin/stdout; each worker
//! journals finished cells into its own shard journal
//! (`CHECKPOINT_<name>.shard<k>.jsonl`). The supervisor watches
//! per-worker deadlines, classifies deaths (abort, signal, timeout,
//! protocol garbage), re-deals the in-flight cells of dead workers to
//! survivors within the `PROFESS_RETRIES` budget, then merges the
//! shard journals into the canonical `CHECKPOINT_<name>.jsonl` and
//! finishes with an in-process sweep over the merged journal — which
//! replays every completed cell, executes anything left over (the
//! graceful-degradation path when workers die or cannot spawn), and
//! emits the ordinary `ROWS_`/`SURFACE_`/`BENCH_` artifacts. The
//! deterministic artifacts are byte-identical to a single-process run.
//!
//! ```text
//! profess-shard [--trace] [--surface] [--workers N] [<target>] [<workload-id>|<policy>...]
//! ```
//!
//! Without `--surface` the sweep is the `fig10_12` normalized sweep
//! (MDM vs PoM on the scaled quad-core config); with it, the `surface`
//! characterization (axes from `PROFESS_SURFACE_RATIOS` /
//! `PROFESS_SURFACE_INTENSITIES`). `--workers 0` skips the worker
//! phase entirely — a fully in-process run, useful for generating
//! golden artifacts to diff sharded runs against. `PROFESS_FAULT`
//! accepts the worker kinds `worker_kill@k[*n]` / `worker_hang@k[*n]`
//! (fire when worker `k` starts its `n`-th dealt cell) alongside the
//! task kinds `panic`/`stall`/`exit`; workers inherit the variable
//! unchanged. In a worker, each dealt cell is its own single-slot
//! supervision batch, so task-fault entries only fire at index `@0`.
//!
//! Exit codes follow the shared [`profess_bench::exit`] taxonomy;
//! losing a cell past its re-deal budget exits
//! [`profess_bench::exit::WORKER_LOST`].
//!
//! The internal worker mode (`--worker <k> --dir <dir>`, spawned by
//! the supervisor, never by hand) speaks the protocol on stdout
//! exclusively; diagnostics go to stderr.

use std::io::BufRead;
use std::path::PathBuf;

use profess_bench::harness::{results_dir, BenchJson, TraceCollector};
use profess_bench::shard::{
    main_journal_path, merge_shards, run_sharded, shard_journal_path, Frame, ShardPlan, ShardSweep,
};
use profess_bench::surface::{
    policy_cli_name, surface_spec_from_args, surface_sweep, surface_to_json, write_surface_artifact,
};
use profess_bench::{
    checkpoint, exit, init_trace_flag, normalized_sweep_supervised, report_sweep_health,
    supervise_from_env, sweep_args_from, usage_error, write_rows_artifact, Journal, Pool,
    SnapshotMode, MULTI_TARGET_MISSES,
};
use profess_core::errors::SimError;
use profess_core::system::PolicyKind;
use profess_par::worker_fault;
use profess_types::SystemConfig;

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    surface: bool,
    workers: Option<usize>,
    worker: Option<usize>,
    dir: Option<PathBuf>,
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
            "--worker" => {
                let v = value(&mut it, "--worker");
                args.worker = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage_error(&format!("bad --worker `{v}`"))),
                );
            }
            "--dir" => args.dir = Some(PathBuf::from(value(&mut it, "--dir"))),
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

/// The artifact name — also names the journals.
fn sweep_name(sweep: &ShardSweep) -> &'static str {
    match sweep {
        ShardSweep::Normalized { .. } => "fig10_12",
        ShardSweep::Surface(_) => "surface",
    }
}

/// The positional spec a worker needs to re-derive `sweep` (resolved
/// target first, so `PROFESS_TARGET` ambiguity is gone).
fn worker_positionals(sweep: &ShardSweep) -> Vec<String> {
    match sweep {
        ShardSweep::Normalized {
            target_misses,
            workloads,
            ..
        } => std::iter::once(target_misses.to_string())
            .chain(workloads.iter().map(|w| w.id.to_string()))
            .collect(),
        ShardSweep::Surface(spec) => std::iter::once(spec.target_ops.to_string())
            .chain(spec.policies.iter().map(|&pk| {
                policy_cli_name(pk)
                    .unwrap_or_else(|| usage_error(&format!("policy {pk:?} has no CLI name")))
                    .to_string()
            }))
            .collect(),
    }
}

/// The journal directory: an explicit `PROFESS_CHECKPOINT` path wins,
/// anything else (unset, `0`, `1`) means the results directory —
/// sharded runs always journal; the merged journal *is* the product.
fn journal_dir_from_env() -> PathBuf {
    match std::env::var(checkpoint::CHECKPOINT_ENV) {
        Ok(v) if !v.is_empty() && v != "0" && v != "1" => PathBuf::from(v),
        _ => results_dir(),
    }
}

/// The worker loop: handshake, then run each dealt cell and answer
/// with `start`/`done` frames. Stdout carries frames exclusively. EOF
/// on stdin means "no more cells" — exit 0.
fn worker_main(args: &Args, k: usize) -> ! {
    let Some(dir) = &args.dir else {
        usage_error("--worker requires --dir");
    };
    let sweep = sweep_from(args);
    let cfg = SystemConfig::scaled_quad();
    let path = shard_journal_path(dir, sweep_name(&sweep), k);
    let journal = match Journal::load(&path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("profess-shard worker {k}: {}: {e}", path.display());
            std::process::exit(exit::VALIDATION_FAIL);
        }
    };
    // PROFESS_FAULT is inherited from the supervisor: its task entries
    // drive this worker's supervision, its worker_* entries fire here.
    let sup = supervise_from_env();
    println!("{}", Frame::Hello { worker: k }.to_line());
    let stdin = std::io::stdin();
    let mut nth: u32 = 0;
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("profess-shard worker {k}: stdin: {e}");
                std::process::exit(exit::VALIDATION_FAIL);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let key = match Frame::parse(&line) {
            Ok(Frame::Cell { key }) => key,
            Ok(other) => {
                eprintln!("profess-shard worker {k}: unexpected frame {other:?}");
                std::process::exit(exit::VALIDATION_FAIL);
            }
            Err(e) => {
                eprintln!("profess-shard worker {k}: {e}");
                std::process::exit(exit::VALIDATION_FAIL);
            }
        };
        nth += 1;
        println!("{}", Frame::Start { key: key.clone() }.to_line());
        if let Some(kind) = sup.faults.worker_action(k, nth) {
            eprintln!("profess-shard worker {k}: injected fault on cell {nth}");
            worker_fault(kind);
        }
        let (ok, error) = match sweep.run_cell(&cfg, &sup, &journal, &key) {
            Ok(()) => (true, None),
            Err(e) => (false, Some(e)),
        };
        println!("{}", Frame::Done { key, ok, error }.to_line());
    }
    std::process::exit(exit::OK);
}

fn main() {
    init_trace_flag();
    let args = parse_args();
    if let Some(k) = args.worker {
        worker_main(&args, k);
    }
    let sweep = sweep_from(&args);
    let name = sweep_name(&sweep);
    let sup = supervise_from_env();
    let cfg = SystemConfig::scaled_quad();
    let keys = sweep.cell_keys(&cfg);
    let dir = args.dir.clone().unwrap_or_else(journal_dir_from_env);
    let main_path = main_journal_path(&dir, name);
    let workers = args.workers.unwrap_or_else(profess_par::default_threads);

    // Only cells absent from the merged journal get dealt.
    let pending: Vec<String> = match Journal::load(&main_path) {
        Ok(j) => keys
            .iter()
            .filter(|k| j.lookup(k).is_none())
            .cloned()
            .collect(),
        Err(e) => {
            eprintln!("profess-shard: {}: {e}", main_path.display());
            std::process::exit(exit::VALIDATION_FAIL);
        }
    };

    let mut lost: Option<(String, u32)> = None;
    if workers > 0 && !pending.is_empty() {
        let mut worker_args: Vec<String> = Vec::new();
        if args.surface {
            worker_args.push("--surface".to_string());
        }
        worker_args.push("--dir".to_string());
        worker_args.push(dir.display().to_string());
        worker_args.extend(worker_positionals(&sweep));
        let plan = ShardPlan {
            workers,
            worker_args,
            deal_budget: sup.retries + 1,
            // Workers enforce the per-attempt timeout themselves; the
            // supervisor's watchdog is the outer ring, so give it 2x.
            deadline: sup.timeout.map(|t| t * 2),
        };
        println!(
            "sharding {} pending cell(s) across {} worker(s) into {}",
            pending.len(),
            plan.workers,
            dir.display()
        );
        let outcome = run_sharded(&plan, &pending);
        for (w, x) in &outcome.exits {
            if !x.is_ok() {
                eprintln!("profess-shard: worker {w} exited: {}", x.label());
            }
        }
        for (key, err) in &outcome.failed {
            eprintln!("profess-shard: cell `{key}` failed in a worker: {err}");
        }
        println!(
            "worker phase: {} completed, {} failed, {} leftover",
            outcome.finished.len(),
            outcome.failed.len(),
            outcome.leftover.len()
        );
        lost = outcome.lost;
    }

    // Merge before anything else — even a lost run keeps the cells its
    // workers did finish, so a rerun resumes instead of restarting.
    let shard_paths: Vec<PathBuf> = (0..workers)
        .map(|k| shard_journal_path(&dir, name, k))
        .collect();
    match merge_shards(&main_path, &shard_paths, &keys) {
        Ok(stats) => println!(
            "merged journal: {} ({} cell(s), {} duplicate(s), {} foreign, {} dropped)",
            main_path.display(),
            stats.cells,
            stats.duplicates,
            stats.foreign,
            stats.dropped
        ),
        Err(e) => {
            eprintln!("profess-shard: merge: {e}");
            std::process::exit(exit::VALIDATION_FAIL);
        }
    }
    if let Some((cell, deals)) = lost {
        let e = SimError::WorkerLost { cell, deals };
        eprintln!("profess-shard: {e}");
        std::process::exit(exit::WORKER_LOST);
    }

    // In-process finish over the merged journal: replays completed
    // cells, executes any leftovers (graceful degradation), and emits
    // the ordinary artifacts.
    let journal = match Journal::load(&main_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("profess-shard: {}: {e}", main_path.display());
            std::process::exit(exit::VALIDATION_FAIL);
        }
    };
    println!(
        "checkpoint journal: {} ({} cells replayed, {} lines dropped)",
        main_path.display(),
        journal.loaded(),
        journal.rejected()
    );
    let mut bench = BenchJson::start(name);
    let mut traces = TraceCollector::from_env(name);
    let ok = match &sweep {
        ShardSweep::Normalized {
            policy,
            target_misses,
            workloads,
        } => {
            let run = normalized_sweep_supervised(
                &Pool::from_env(),
                &cfg,
                *policy,
                *target_misses,
                workloads,
                &sup,
                &journal,
                &SnapshotMode::disabled(),
                &mut traces,
            );
            bench.add_sim_ops(run.executed() as u64);
            bench.push_cells(&run.cells);
            bench.set_skipped_malformed(run.skipped_malformed as u64);
            write_rows_artifact(name, &run.rows);
            report_sweep_health(&run.cells, "workloads", &run.skipped)
        }
        ShardSweep::Surface(spec) => {
            let run = surface_sweep(
                &Pool::from_env(),
                &cfg,
                spec,
                &sup,
                &journal,
                &SnapshotMode::disabled(),
                &mut traces,
            );
            bench.add_sim_ops(run.executed() as u64);
            bench.push_cells(&run.cells);
            bench.set_skipped_malformed(run.skipped_malformed as u64);
            write_surface_artifact(name, &surface_to_json(name, spec, &run.points));
            report_sweep_health(&run.cells, "cells", &run.skipped)
        }
    };
    traces.finish();
    bench.finish();
    drop(journal);

    // The finish phase appended any freshly executed cells at the end
    // of the merged file; re-merge (no shards) to restore spec order —
    // this is what pins the journal byte-identical to a serial run.
    if let Err(e) = merge_shards(&main_path, &[], &keys) {
        eprintln!("profess-shard: merge: {e}");
        std::process::exit(exit::VALIDATION_FAIL);
    }
    if !ok {
        std::process::exit(exit::SWEEP_FAILURE);
    }
}
