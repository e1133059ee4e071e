//! **Figure 2** — Slowdowns under PoM management (paper §2.4).
//!
//! Per-program slowdowns (eq. 1) for workloads w09, w16 and w19 under the
//! PoM baseline, illustrating the fairness problem: some programs suffer
//! excessive slowdowns while their co-runners get off lightly.
//!
//! Paper reference (Figure 2): in w09 soplex reaches ~3.7 while lbm and
//! GemsFDTD stay near 2.2; zeusmp suffers in w16 and leslie3d in w19.
//! The reproduction's expected shape: a clearly uneven slowdown profile
//! per workload, with the irregular / hot-set-heavy programs suffering
//! the most from the competition for M1.

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
    let mut traces = TraceCollector::from_env("fig02");
    println!("Figure 2: slowdowns under PoM management\n");
    let mut t = TextTable::new(vec!["workload", "program", "slowdown"]);
    for id in ["w09", "w16", "w19"] {
        let w = workload_or_usage(id);
        let solo = exit::ok_or_exit(cache.solo_ipcs(&cfg, PolicyKind::Pom, &w, target));
        let multi = exit::ok_or_exit(run_workload(&cfg, PolicyKind::Pom, &w, target));
        traces.record(&format!("{id}:PoM"), &multi);
        let m = workload_metrics(id, &multi, &solo);
        for (prog, sdn) in w.programs.iter().zip(&m.slowdowns) {
            t.row(vec![
                id.to_string(),
                prog.name().to_string(),
                format!("{sdn:.2}"),
            ]);
        }
        let spread = m.unfairness / m.slowdowns.iter().cloned().fold(f64::MAX, f64::min);
        t.row(vec![
            id.to_string(),
            "(max/min spread)".to_string(),
            format!("{spread:.2}x"),
        ]);
    }
    println!("{t}");
    println!("Paper: w09 soplex 3.7 vs lbm/GemsFDTD ~2.2 (spread ~1.7x);");
    println!("uneven slowdowns in every workload motivate RSM.");
    traces.finish();
}
