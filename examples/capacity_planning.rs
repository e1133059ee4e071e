//! Capacity planning: sweep the M1:M2 capacity ratio for a workload and
//! report how performance, fairness and energy efficiency respond — the
//! kind of what-if study a hybrid-memory adopter would run with this
//! library (and the paper's own §5.4 capacity-ratio observation:
//! more relative M1 lowers competition and shrinks the policy gaps;
//! less M1 raises both).
//!
//! ```bash
//! cargo run --release --example capacity_planning
//! ```

use profess::core::SimError;
use profess::metrics::table::TextTable;
use profess::prelude::*;

fn main() -> Result<(), SimError> {
    let workload = workloads()[11]; // w12: milc - GemsFDTD - soplex - lbm
    let target_ops = 30_000;
    println!(
        "capacity planning for {}: {:?}\n",
        workload.id, workload.programs
    );
    let mut t = TextTable::new(vec![
        "M1:M2",
        "policy",
        "weighted speedup",
        "unfairness",
        "Mreq/J",
    ]);
    for ratio in [4u32, 8, 16] {
        let cfg = SystemConfig::scaled_quad().with_capacity_ratio(ratio);
        for policy in [PolicyKind::Pom, PolicyKind::Profess] {
            let mut solo_ipcs = Vec::new();
            for prog in workload.programs {
                let r = SystemBuilder::new(cfg.clone())
                    .policy(policy)
                    .spec_program(prog, prog.budget_for_misses(target_ops))
                    .try_run()?;
                solo_ipcs.push(r.programs[0].ipc);
            }
            let multi = SystemBuilder::new(cfg.clone())
                .policy(policy)
                .workload(&workload, target_ops)
                .try_run()?;
            let slowdowns: Vec<f64> = multi
                .programs
                .iter()
                .zip(&solo_ipcs)
                .map(|(p, &s)| slowdown(s, p.ipc))
                .collect();
            t.row(vec![
                format!("1:{ratio}"),
                multi.policy.clone(),
                format!("{:.3}", weighted_speedup(&slowdowns)),
                format!("{:.2}", unfairness(&slowdowns)),
                format!("{:.1}", multi.requests_per_joule / 1e6),
            ]);
        }
    }
    println!("{t}");
    println!("Reading: a 1:4 system has twice the relative M1 of 1:8 —");
    println!("competition falls and the ProFess-over-PoM gap narrows; at");
    println!("1:16 competition intensifies and the gap widens (paper §5.4).");
    Ok(())
}
