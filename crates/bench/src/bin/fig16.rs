//! **Figure 16** — Per-program slowdowns under PoM, MDM and ProFess for
//! workloads w09, w16 and w19 (paper §5.4).
//!
//! Paper reference: MDM reduces the max slowdown solely by speeding
//! programs (e.g. soplex in w09); ProFess further improves fairness by
//! penalizing lightly loaded programs to help the most-suffering ones
//! (in w09 it slows lbm and GemsFDTD to speed mcf and soplex). w16 is
//! special: ProFess finds no fairness opportunity beyond MDM's.

use profess_bench::harness::TraceCollector;
use profess_bench::{
    exit, init_trace_flag, run_workload, target_from_args, workload_metrics, workload_or_usage,
    SoloCache,
};
use profess_core::system::PolicyKind;
use profess_metrics::table::TextTable;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let target = target_from_args(profess_bench::MULTI_TARGET_MISSES);
    let cfg = SystemConfig::scaled_quad();
    let mut cache = SoloCache::new();
    let mut traces = TraceCollector::from_env("fig16");
    println!("Figure 16: per-program slowdowns under the evaluated schemes\n");
    for id in ["w09", "w16", "w19"] {
        let w = workload_or_usage(id);
        let mut t = TextTable::new(vec!["program", "PoM", "MDM", "ProFess"]);
        let mut per_policy = Vec::new();
        for pk in [PolicyKind::Pom, PolicyKind::Mdm, PolicyKind::Profess] {
            let solo = exit::ok_or_exit(cache.solo_ipcs(&cfg, pk, &w, target));
            let multi = exit::ok_or_exit(run_workload(&cfg, pk, &w, target));
            traces.record(&format!("{id}:{}", pk.name()), &multi);
            per_policy.push(workload_metrics(id, &multi, &solo));
        }
        for (i, prog) in w.programs.iter().enumerate() {
            t.row(vec![
                prog.name().to_string(),
                format!("{:.2}", per_policy[0].slowdowns[i]),
                format!("{:.2}", per_policy[1].slowdowns[i]),
                format!("{:.2}", per_policy[2].slowdowns[i]),
            ]);
        }
        t.row(vec![
            "max".to_string(),
            format!("{:.2}", per_policy[0].unfairness),
            format!("{:.2}", per_policy[1].unfairness),
            format!("{:.2}", per_policy[2].unfairness),
        ]);
        println!("{id}:\n{t}");
    }
    println!("Paper: ProFess helps the most-suffering programs at the cost");
    println!("of lightly loaded ones (w09); w16 offers no opportunity.");
    traces.finish();
}
