//! **Ablation studies** of the design choices DESIGN.md calls out (not a
//! paper figure; supports the paper's §3.3 design discussion):
//!
//! 1. *Case 3 product rule*: ProFess with Case 3 disabled vs full ProFess
//!    on the three Figure 16 workloads. The paper argues Case 3 is needed
//!    to avoid disproportionately large SF_B — expect full ProFess to be
//!    at least as fair.
//! 2. *min_benefit (K) sweep*: MDM solo with min_benefit ∈ {2, 8, 32}.
//!    K = 8 derives from the swap/latency arithmetic (§4.1); far smaller
//!    values over-swap, far larger values under-swap.

use profess_bench::harness::TraceCollector;
use profess_bench::{
    exit, init_trace_flag, run_solo, run_workload, summarize, target_from_args, workload_metrics,
    workload_or_usage, SoloCache, MULTI_TARGET_MISSES,
};
use profess_core::system::PolicyKind;
use profess_metrics::table::TextTable;
use profess_trace::SpecProgram;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let target = target_from_args(MULTI_TARGET_MISSES);
    let mut traces = TraceCollector::from_env("ablation");
    let cfg = SystemConfig::scaled_quad();
    println!("Ablation 1: ProFess Case 3 product rule\n");
    let mut cache = SoloCache::new();
    let mut t = TextTable::new(vec![
        "workload",
        "unfair full",
        "unfair noC3",
        "wspeed full",
        "wspeed noC3",
    ]);
    for id in ["w09", "w16", "w19"] {
        let w = workload_or_usage(id);
        let mut vals = Vec::new();
        for pk in [PolicyKind::Profess, PolicyKind::ProfessNoCase3] {
            let solo = exit::ok_or_exit(cache.solo_ipcs(&cfg, pk, &w, target));
            let multi = exit::ok_or_exit(run_workload(&cfg, pk, &w, target));
            traces.record(&format!("{id}:{}", pk.name()), &multi);
            vals.push(workload_metrics(id, &multi, &solo));
        }
        t.row(vec![
            id.to_string(),
            format!("{:.2}", vals[0].unfairness),
            format!("{:.2}", vals[1].unfairness),
            format!("{:.3}", vals[0].weighted_speedup),
            format!("{:.3}", vals[1].weighted_speedup),
        ]);
    }
    println!("{t}");

    println!("Ablation 2: MDM min_benefit (K) sweep, solo\n");
    let mut t = TextTable::new(vec!["min_benefit", "geomean IPC vs K=8", "swaps vs K=8"]);
    let progs = [
        SpecProgram::Bwaves,
        SpecProgram::Mcf,
        SpecProgram::Omnetpp,
        SpecProgram::Zeusmp,
    ];
    let base: Vec<_> = progs
        .iter()
        .map(|&p| {
            let mut c = SystemConfig::scaled_single();
            c.mdm.min_benefit = 8;
            exit::ok_or_exit(run_solo(&c, PolicyKind::Mdm, p, target))
        })
        .collect();
    for k in [2u32, 8, 32] {
        let mut ipc_ratios = Vec::new();
        let mut swap_ratios = Vec::new();
        for (i, &p) in progs.iter().enumerate() {
            let mut c = SystemConfig::scaled_single();
            c.mdm.min_benefit = k;
            let r = exit::ok_or_exit(run_solo(&c, PolicyKind::Mdm, p, target));
            ipc_ratios.push(r.programs[0].ipc / base[i].programs[0].ipc);
            swap_ratios.push((r.swaps.max(1)) as f64 / (base[i].swaps.max(1)) as f64);
        }
        t.row(vec![
            format!("{k}"),
            format!("{:+.1}%", (summarize(&ipc_ratios).geomean - 1.0) * 100.0),
            format!("{:.2}x", summarize(&swap_ratios).geomean),
        ]);
    }
    println!("{t}");
    println!("Expected: K = 2 swaps much more for little gain; K = 32");
    println!("forgoes profitable promotions.");
    traces.finish();
}
