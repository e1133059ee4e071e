//! **Figures 8 and 9** — Sensitivity of MDM to STC size (paper §5.2).
//!
//! Figure 8: per-program IPC under MDM with a half-size and a double-size
//! STC, normalized to the default. Figure 9: the corresponding STC hit
//! rates.
//!
//! Paper reference: programs are generally insensitive; mcf and omnetpp
//! lose ~8% IPC with the half-size STC (hit-rate drops add noise to the
//! MDM statistics), and a larger STC does not necessarily help (omnetpp
//! and soplex lose ~2% with the double-size STC because fewer evictions
//! mean fewer MDM counter updates).

use profess_bench::harness::TraceCollector;
use profess_bench::{exit, init_trace_flag, run_solo, target_from_args, SOLO_TARGET_MISSES};
use profess_core::system::PolicyKind;
use profess_metrics::table::TextTable;
use profess_trace::SpecProgram;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let target = target_from_args(SOLO_TARGET_MISSES);
    let mut traces = TraceCollector::from_env("fig08_09");
    println!("Figures 8-9: sensitivity to STC size (MDM, solo)\n");
    let mut t = TextTable::new(vec![
        "program",
        "IPC 0.5x",
        "IPC 1x",
        "IPC 2x",
        "norm 0.5x",
        "norm 2x",
        "hit% 0.5x",
        "hit% 1x",
        "hit% 2x",
    ]);
    let base_entries = SystemConfig::scaled_single().stc.entries;
    for prog in SpecProgram::ALL {
        let mut ipcs = Vec::new();
        let mut hits = Vec::new();
        for mult in [0.5f64, 1.0, 2.0] {
            let mut cfg = SystemConfig::scaled_single();
            cfg.stc.entries = ((base_entries as f64) * mult) as usize;
            let r = exit::ok_or_exit(run_solo(&cfg, PolicyKind::Mdm, prog, target));
            traces.record(&format!("{}:MDM:stc{mult}", prog.name()), &r);
            ipcs.push(r.programs[0].ipc);
            hits.push(r.stc_hit_rate);
        }
        t.row(vec![
            prog.name().to_string(),
            format!("{:.3}", ipcs[0]),
            format!("{:.3}", ipcs[1]),
            format!("{:.3}", ipcs[2]),
            format!("{:.3}", ipcs[0] / ipcs[1]),
            format!("{:.3}", ipcs[2] / ipcs[1]),
            format!("{:.1}", 100.0 * hits[0]),
            format!("{:.1}", 100.0 * hits[1]),
            format!("{:.1}", 100.0 * hits[2]),
        ]);
    }
    println!("{t}");
    println!("Paper (Fig 8): mostly insensitive; mcf/omnetpp lose ~8% at");
    println!("half size; omnetpp/soplex lose ~2% at double size.");
    println!("Paper (Fig 9): hit rates rise with STC size; mcf 75%->85%.");
    traces.finish();
}
