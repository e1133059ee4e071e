//! **Figures 13, 14 and 15** — Multi-program evaluation of ProFess
//! (MDM + RSM) vs PoM (paper §5.4): max slowdown (Figure 13), weighted
//! speedup (Figure 14) and energy efficiency (Figure 15) for the 19
//! Table 10 workloads, normalized to PoM.
//!
//! Paper reference: ProFess improves fairness by 15% on average (up to
//! 29% for w12), eliminating MDM's fairness regressions; outperforms PoM
//! by 12% (up to 29% for w19); improves energy efficiency by 11% (up to
//! 30% for w19); reduces the average read latency by 9% and the fraction
//! of swaps among served requests by 24% (up to 54% for w19).
//!
//! The key *mechanism* check — printed at the end — compares ProFess
//! against plain MDM: RSM guidance should improve fairness, weighted
//! speedup and swap fraction relative to MDM on most workloads.
//!
//! Both sweeps run supervised and share one checkpoint journal
//! (`PROFESS_CHECKPOINT`); see `fig10_12` for the resilience knobs.
//! Trailing workload-id arguments restrict the sweeps to a subset.

use profess_bench::harness::{BenchJson, TraceCollector};
use profess_bench::{
    exit, init_trace_flag, journal_from_env, normalized_sweep_supervised, print_sweep,
    report_sweep_health, snapshot_mode_from_env, supervise_from_env, sweep_args,
    write_rows_artifact, Pool, MULTI_TARGET_MISSES,
};
use profess_core::system::PolicyKind;
use profess_metrics::geomean;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let (target, workloads) = sweep_args(MULTI_TARGET_MISSES);
    let cfg = SystemConfig::scaled_quad();
    let sup = supervise_from_env();
    let journal = journal_from_env("fig13_15");
    let snap = snapshot_mode_from_env();
    let pool = Pool::from_env();
    let mut bench = BenchJson::start("fig13_15");
    let mut traces = TraceCollector::from_env("fig13_15");
    let run = normalized_sweep_supervised(
        &pool,
        &cfg,
        PolicyKind::Profess,
        target,
        &workloads,
        &sup,
        &journal,
        &snap,
        &mut traces,
    );
    bench.add_sim_ops(run.executed() as u64);
    write_rows_artifact("fig13_15", &run.rows);
    let profess = &run.rows;
    if !profess.is_empty() {
        let (unf, ws, eff) = print_sweep(
            &format!(
                "Figures 13-15: ProFess normalized to PoM over {} workload(s)",
                profess.len()
            ),
            profess,
        );
        println!();
        println!(
            "Paper: fairness +15% avg (ours {:+.1}%), performance +12% avg (ours {:+.1}%), energy efficiency +11% avg (ours {:+.1}%).",
            (1.0 - unf) * 100.0,
            (ws - 1.0) * 100.0,
            (eff - 1.0) * 100.0
        );
    }
    // Mechanism check vs plain MDM, through the same journal (the keys
    // differ by policy, so the two sweeps never collide). Untraced, as
    // before supervision: the figure's trace artifact covers the
    // ProFess sweep only.
    let mut no_traces = TraceCollector::disabled();
    let mdm_run = normalized_sweep_supervised(
        &pool,
        &cfg,
        PolicyKind::Mdm,
        target,
        &workloads,
        &sup,
        &journal,
        &snap,
        &mut no_traces,
    );
    bench.add_sim_ops(mdm_run.executed() as u64);
    let mut cells = run.cells.clone();
    cells.extend(mdm_run.cells.iter().cloned());
    bench.push_cells(&cells);
    bench.set_skipped_malformed(run.skipped_malformed.max(mdm_run.skipped_malformed) as u64);
    let mdm = &mdm_run.rows;
    if run.all_ok() && mdm_run.all_ok() {
        let rel = |a: &[f64], b: &[f64]| geomean(a) / geomean(b);
        let unf_vs_mdm = rel(
            &profess.iter().map(|r| r.unfairness).collect::<Vec<_>>(),
            &mdm.iter().map(|r| r.unfairness).collect::<Vec<_>>(),
        );
        let ws_vs_mdm = rel(
            &profess
                .iter()
                .map(|r| r.weighted_speedup)
                .collect::<Vec<_>>(),
            &mdm.iter().map(|r| r.weighted_speedup).collect::<Vec<_>>(),
        );
        let swap_vs_mdm = rel(
            &profess.iter().map(|r| r.swap_fraction).collect::<Vec<_>>(),
            &mdm.iter().map(|r| r.swap_fraction).collect::<Vec<_>>(),
        );
        println!();
        println!("RSM mechanism (ProFess vs plain MDM, geomeans over workloads):");
        println!(
            "  max slowdown {:+.1}%  weighted speedup {:+.1}%  swap fraction {:+.1}%",
            (unf_vs_mdm - 1.0) * 100.0,
            (ws_vs_mdm - 1.0) * 100.0,
            (swap_vs_mdm - 1.0) * 100.0
        );
        println!(
            "  expected: slowdown and swaps down, speedup up -> {}",
            if unf_vs_mdm < 1.0 && ws_vs_mdm > 1.0 && swap_vs_mdm < 1.0 {
                "shape holds"
            } else {
                "shape PARTIALLY holds (see EXPERIMENTS.md)"
            }
        );
    } else {
        eprintln!("mechanism check skipped: sweep incomplete");
    }
    let ok = report_sweep_health(&run.cells, "workloads", &run.skipped)
        & report_sweep_health(&mdm_run.cells, "workloads", &mdm_run.skipped);
    traces.finish();
    bench.finish();
    if !ok {
        std::process::exit(exit::SWEEP_FAILURE);
    }
}
