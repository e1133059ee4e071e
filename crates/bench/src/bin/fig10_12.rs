//! **Figures 10, 11 and 12** — Multi-program evaluation of MDM vs PoM
//! (paper §5.3): max slowdown (Figure 10), weighted-speedup performance
//! (Figure 11) and memory-system energy efficiency (Figure 12) for the 19
//! Table 10 workloads, normalized to PoM.
//!
//! Paper reference: MDM reduces the max slowdown by 6% on average (up to
//! 19% for w12) purely by speeding programs up, improves weighted speedup
//! by 7% (up to 16% for w12), and energy efficiency by 7% (up to 26% for
//! w18); w04/w05/w10/w15/w18 can be *less* fair than PoM since MDM
//! ignores slowdowns, just like PoM.
//!
//! The sweep runs supervised: `PROFESS_CHECKPOINT` journals completed
//! cells for kill-and-resume, `PROFESS_RETRIES` / `PROFESS_TASK_TIMEOUT_MS`
//! bound recovery, `PROFESS_FAULT` injects deterministic failures, and
//! `PROFESS_SNAPSHOT` / `PROFESS_SNAPSHOT_AT` preempt cells into
//! journaled mid-run snapshots that retries warm-start from.
//! Trailing workload-id arguments restrict the sweep to a subset.

use profess_bench::harness::{BenchJson, TraceCollector};
use profess_bench::{
    exit, init_trace_flag, journal_from_env, normalized_sweep_supervised, print_sweep,
    report_sweep_health, snapshot_mode_from_env, supervise_from_env, sweep_args,
    write_rows_artifact, Pool, MULTI_TARGET_MISSES,
};
use profess_core::system::PolicyKind;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let (target, workloads) = sweep_args(MULTI_TARGET_MISSES);
    let cfg = SystemConfig::scaled_quad();
    let sup = supervise_from_env();
    let journal = journal_from_env("fig10_12");
    let snap = snapshot_mode_from_env();
    let mut bench = BenchJson::start("fig10_12");
    let mut traces = TraceCollector::from_env("fig10_12");
    let run = normalized_sweep_supervised(
        &Pool::from_env(),
        &cfg,
        PolicyKind::Mdm,
        target,
        &workloads,
        &sup,
        &journal,
        &snap,
        &mut traces,
    );
    bench.add_sim_ops(run.executed() as u64);
    bench.push_cells(&run.cells);
    bench.set_skipped_malformed(run.skipped_malformed as u64);
    write_rows_artifact("fig10_12", &run.rows);
    if !run.rows.is_empty() {
        let (unf, ws, eff) = print_sweep(
            &format!(
                "Figures 10-12: MDM normalized to PoM over {} workload(s)",
                run.rows.len()
            ),
            &run.rows,
        );
        println!();
        println!(
            "Paper: max slowdown -6% avg (ours {:+.1}%), weighted speedup +7% avg (ours {:+.1}%), energy efficiency +7% avg (ours {:+.1}%).",
            (unf - 1.0) * 100.0,
            (ws - 1.0) * 100.0,
            (eff - 1.0) * 100.0
        );
        let mixed_fairness = run.rows.iter().any(|r| r.unfairness > 1.0);
        println!(
            "Some workloads less fair than PoM (expected, MDM ignores slowdowns): {}",
            if mixed_fairness {
                "yes, as in the paper"
            } else {
                "no"
            }
        );
    }
    let ok = report_sweep_health(&run.cells, "workloads", &run.skipped);
    traces.finish();
    bench.finish();
    if !ok {
        std::process::exit(exit::SWEEP_FAILURE);
    }
}
