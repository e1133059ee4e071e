//! **§2.5 MemPod vs PoM** — average main-memory access time (AMMAT, the
//! metric preferred by MemPod's authors) under MemPod relative to PoM.
//!
//! Paper reference: in this technology setting (DRAM + NVM rather than
//! MemPod's original on-/off-chip DRAM), MemPod's average access time is
//! *longer* than PoM's by 19% (single-program) and 18% (multi-program),
//! because it lacks cost-benefit analysis; this motivates PoM as the
//! paper's baseline.
//!
//! Runs supervised (`PROFESS_RETRIES`, `PROFESS_TASK_TIMEOUT_MS`,
//! `PROFESS_FAULT`): a failed simulation drops its comparison pair and
//! the binary exits non-zero, instead of one panic killing the batch.
//! This comparison is not checkpointed — it is short; the resumable
//! sweeps are the `fig10_12`/`fig13_15` normalized sweeps.

use profess_bench::harness::{BenchJson, TraceCollector};
use profess_bench::{
    exit, init_trace_flag, report_sweep_health, run_solo, run_workload, summarize,
    supervise_from_env, target_from_args, CellRecord, Pool, MULTI_TARGET_MISSES,
};
use profess_core::system::{PolicyKind, SystemReport};
use profess_metrics::table::TextTable;
use profess_trace::{workloads, SpecProgram, Workload};
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let target = target_from_args(MULTI_TARGET_MISSES);
    let pool = Pool::from_env();
    let sup = supervise_from_env();
    let mut bench = BenchJson::start("mempod_vs_pom");
    let mut traces = TraceCollector::from_env("mempod_vs_pom");
    let mut cells: Vec<CellRecord> = Vec::new();
    println!("MemPod vs PoM: average read latency (AMMAT proxy)\n");
    // Single-program. Jobs flatten to (program, policy) so fault-plan
    // indices address individual simulations.
    let cfg1 = SystemConfig::scaled_single();
    let solo_jobs: Vec<(SpecProgram, PolicyKind)> = SpecProgram::ALL
        .into_iter()
        .flat_map(|p| [(p, PolicyKind::Pom), (p, PolicyKind::MemPod)])
        .collect();
    let solo_out = pool.try_run_supervised(&solo_jobs, &sup, |_, &(prog, pk)| {
        run_solo(&cfg1, pk, prog, target).map_err(|e| e.to_string())
    });
    record_cells(&mut cells, &solo_jobs, &solo_out, |(p, pk)| {
        format!("{}:{}", p.name(), pk.name())
    });
    bench.add_sim_ops(solo_out.len() as u64);
    for ((prog, pk), out) in solo_jobs.iter().zip(&solo_out) {
        if let Some(report) = out.outcome.ok_ref() {
            traces.record(&format!("{}:{}", prog.name(), pk.name()), report);
        }
    }
    let mut t = TextTable::new(vec!["program", "PoM lat", "MemPod lat", "ratio"]);
    let mut solo_ratios = Vec::new();
    for (pair, prog) in solo_out.chunks(2).zip(SpecProgram::ALL) {
        let (Some(pom), Some(pod)) = (pair[0].outcome.ok_ref(), pair[1].outcome.ok_ref()) else {
            continue;
        };
        let r = pod.avg_read_latency_cycles / pom.avg_read_latency_cycles;
        solo_ratios.push(r);
        t.row(vec![
            prog.name().to_string(),
            format!("{:.1}", pom.avg_read_latency_cycles),
            format!("{:.1}", pod.avg_read_latency_cycles),
            format!("{r:.3}"),
        ]);
    }
    println!("{t}");
    let solo_geomean = if solo_ratios.is_empty() {
        f64::NAN
    } else {
        let s = summarize(&solo_ratios);
        println!(
            "single-program geomean: {:+.1}% (paper: +19%)\n",
            (s.geomean - 1.0) * 100.0
        );
        s.geomean
    };
    // Multi-program over a subset of workloads (every fourth, for time).
    let cfg4 = SystemConfig::scaled_quad();
    let multi_jobs: Vec<(Workload, PolicyKind)> = workloads()
        .iter()
        .step_by(4)
        .flat_map(|&w| [(w, PolicyKind::Pom), (w, PolicyKind::MemPod)])
        .collect();
    let multi_out = pool.try_run_supervised(&multi_jobs, &sup, |_, (w, pk)| {
        run_workload(&cfg4, *pk, w, target).map_err(|e| e.to_string())
    });
    record_cells(&mut cells, &multi_jobs, &multi_out, |(w, pk)| {
        format!("{}:{}", w.id, pk.name())
    });
    bench.add_sim_ops(multi_out.len() as u64);
    for ((w, pk), out) in multi_jobs.iter().zip(&multi_out) {
        if let Some(report) = out.outcome.ok_ref() {
            traces.record(&format!("{}:{}", w.id, pk.name()), report);
        }
    }
    let mut multi_ratios = Vec::new();
    for pair in multi_out.chunks(2) {
        let (Some(pom), Some(pod)) = (pair[0].outcome.ok_ref(), pair[1].outcome.ok_ref()) else {
            continue;
        };
        multi_ratios.push(pod.avg_read_latency_cycles / pom.avg_read_latency_cycles);
    }
    if !multi_ratios.is_empty() {
        let m = summarize(&multi_ratios);
        println!(
            "multi-program geomean ({} workloads): {:+.1}% (paper: +18%)",
            multi_ratios.len(),
            (m.geomean - 1.0) * 100.0
        );
        println!(
            "shape {}",
            if solo_geomean > 1.0 && m.geomean > 1.0 {
                "holds: MemPod's access time is longer than PoM's"
            } else {
                "DEVIATES: MemPod did not lose to PoM here"
            }
        );
    }
    let ok = report_sweep_health(&cells, "cells", &[]);
    bench.push_cells(&cells);
    traces.finish();
    bench.finish();
    if !ok {
        std::process::exit(exit::SWEEP_FAILURE);
    }
}

/// Folds one supervised batch into the artifact's cell records.
fn record_cells<T>(
    cells: &mut Vec<CellRecord>,
    jobs: &[T],
    outs: &[profess_par::Supervised<SystemReport>],
    label: impl Fn(&T) -> String,
) {
    for (job, out) in jobs.iter().zip(outs) {
        let label = label(job);
        cells.push(CellRecord::new(&label, &label, Some(out)));
    }
}
