//! **Figure 6** — Single-program fractions of accesses served from M1,
//! MDM normalized to PoM (paper §5.1).
//!
//! Paper reference: higher M1 fractions generally track the higher
//! performance of Figure 5, with two instructive exceptions — for mcf MDM
//! serves *fewer* accesses from M1 yet performs better (it identifies
//! blocks not worth swapping and swaps less), and for omnetpp MDM serves
//! slightly more (~+2.5%) while performing marginally worse (noisy MDM
//! statistics at its low STC hit rate).

use profess_bench::harness::TraceCollector;
use profess_bench::{exit, init_trace_flag, run_solo, target_from_args, SOLO_TARGET_MISSES};
use profess_core::system::PolicyKind;
use profess_metrics::table::TextTable;
use profess_trace::SpecProgram;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let target = target_from_args(SOLO_TARGET_MISSES);
    let mut traces = TraceCollector::from_env("fig06");
    let cfg = SystemConfig::scaled_single();
    println!("Figure 6: M1 access fraction of MDM normalized to PoM\n");
    let mut t = TextTable::new(vec![
        "program",
        "PoM m1frac",
        "MDM m1frac",
        "MDM/PoM",
        "PoM swaps",
        "MDM swaps",
    ]);
    for prog in SpecProgram::ALL {
        if prog == SpecProgram::Libquantum {
            continue;
        }
        let pom = exit::ok_or_exit(run_solo(&cfg, PolicyKind::Pom, prog, target));
        let mdm = exit::ok_or_exit(run_solo(&cfg, PolicyKind::Mdm, prog, target));
        traces.record(&format!("{}:PoM", prog.name()), &pom);
        traces.record(&format!("{}:MDM", prog.name()), &mdm);
        let (fp, fm) = (pom.programs[0].m1_fraction(), mdm.programs[0].m1_fraction());
        t.row(vec![
            prog.name().to_string(),
            format!("{fp:.3}"),
            format!("{fm:.3}"),
            format!("{:.3}", fm / fp),
            format!("{}", pom.swaps),
            format!("{}", mdm.swaps),
        ]);
    }
    println!("{t}");
    println!("Paper: M1 fraction tracks performance except mcf (MDM serves");
    println!("fewer accesses from M1 but swaps less and wins) and omnetpp.");
    traces.finish();
}
