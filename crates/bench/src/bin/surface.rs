//! **surface** — bandwidth–latency surface characterization.
//!
//! Sweeps read/write ratio × arrival intensity per policy (four
//! identical closed-loop load generators on the quad-core system per
//! grid cell) and writes the surface as `SURFACE_<name>.json`. Each
//! point carries delivered bandwidth, read latency and the RSM
//! max-slowdown spread, so fairness under load is a first-class axis
//! of the characterization, not a separate experiment.
//!
//! ```text
//! surface [--trace] [<target-ops>] [<policy>...]
//! ```
//!
//! Policies default to pom, mdm, profess and rsmpom. The axes come
//! from `PROFESS_SURFACE_RATIOS` and `PROFESS_SURFACE_INTENSITIES`
//! (comma-separated, strictly ascending), defaulting to the module's
//! grid. The sweep runs supervised: `PROFESS_CHECKPOINT` journals
//! completed cells for kill-and-resume, `PROFESS_RETRIES` /
//! `PROFESS_TASK_TIMEOUT_MS` bound recovery, `PROFESS_FAULT` injects
//! deterministic failures, and `PROFESS_SNAPSHOT` /
//! `PROFESS_SNAPSHOT_AT` preempt cells into journaled mid-run
//! snapshots. The emitted artifact is byte-identical across thread
//! counts and across a kill-and-resume (verified by `profess-validate
//! diff`).

use profess_bench::harness::{BenchJson, TraceCollector};
use profess_bench::surface::{
    surface_spec_from_args, surface_sweep, surface_to_json, write_surface_artifact,
};
use profess_bench::{
    exit, init_trace_flag, journal_from_env, report_sweep_health, snapshot_mode_from_env,
    supervise_from_env, Pool,
};
use profess_metrics::table::TextTable;
use profess_obs::Log2Histogram;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let rest: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let spec = surface_spec_from_args(&rest);
    let cfg = SystemConfig::scaled_quad();
    let sup = supervise_from_env();
    let journal = journal_from_env("surface");
    let snap = snapshot_mode_from_env();
    let mut bench = BenchJson::start("surface");
    let mut traces = TraceCollector::from_env("surface");
    let run = surface_sweep(
        &Pool::from_env(),
        &cfg,
        &spec,
        &sup,
        &journal,
        &snap,
        &mut traces,
    );
    bench.add_sim_ops(run.executed() as u64);
    bench.push_cells(&run.cells);
    bench.set_skipped_malformed(run.skipped_malformed as u64);
    write_surface_artifact("surface", &surface_to_json("surface", &spec, &run.points));

    if !run.points.is_empty() {
        println!(
            "Bandwidth-latency surface: {} point(s) over {} polic{}, target {} ops/generator\n",
            run.points.len(),
            spec.policies.len(),
            if spec.policies.len() == 1 { "y" } else { "ies" },
            spec.target_ops
        );
        let mut t = TextTable::new(vec![
            "policy",
            "read-frac",
            "intensity",
            "ipc",
            "bandwidth",
            "read-lat",
            "spread",
        ]);
        for p in &run.points {
            t.row(vec![
                p.policy.clone(),
                format!("{:.2}", p.read_frac),
                format!("{:.1}", p.intensity),
                format!("{:.3}", p.ipc),
                format!("{:.2}", p.bandwidth),
                format!("{:.1}", p.read_latency),
                format!("{:.3}", p.slowdown_spread),
            ]);
        }
        println!("{t}");
        // Per-policy latency distribution across the grid (log2
        // histogram of per-point mean latencies): a policy whose p99
        // runs far from its p50 degrades sharply somewhere on the
        // surface.
        for &pk in &spec.policies {
            let mut h = Log2Histogram::new();
            for p in run.points.iter().filter(|p| p.policy == pk.name()) {
                h.record(p.read_latency.round() as u64);
            }
            if !h.is_empty() {
                println!(
                    "latency across grid {:>10}: mean {:.1}  p50 {}  p95 {}  p99 {}",
                    pk.name(),
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99()
                );
            }
        }
    }
    let ok = report_sweep_health(&run.cells, "cells", &run.skipped);
    traces.finish();
    bench.finish();
    if !ok {
        std::process::exit(exit::SWEEP_FAILURE);
    }
}
