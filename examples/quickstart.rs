//! Quickstart: run one multiprogrammed workload under the PoM baseline
//! and under ProFess, and compare the paper's figures of merit.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use profess::core::SimError;
use profess::prelude::*;

fn main() -> Result<(), SimError> {
    // The default evaluation configuration: the paper's quad-core,
    // two-channel system (Table 8) with capacities scaled by 1/32.
    let cfg = SystemConfig::scaled_quad();

    // Table 10's w09: mcf - soplex - lbm - GemsFDTD, one of the workloads
    // the paper uses to illustrate the fairness problem (Figure 2).
    let workload = workloads()[8];
    println!("workload {}: {:?}\n", workload.id, workload.programs);

    let target_ops = 60_000; // memory operations per program

    for policy in [PolicyKind::Mdm, PolicyKind::Profess] {
        // Uncontended references (eq. 1 needs each program's stand-alone
        // IPC under the same scheme).
        let mut solo_ipcs = Vec::new();
        for prog in workload.programs {
            let solo = SystemBuilder::new(cfg.clone())
                .policy(policy)
                .spec_program(prog, prog.budget_for_misses(target_ops))
                .try_run()?;
            solo_ipcs.push(solo.programs[0].ipc);
        }

        // The contended run: all four programs together; early finishers
        // restart so competition persists (paper §4.2).
        let multi = SystemBuilder::new(cfg.clone())
            .policy(policy)
            .workload(&workload, target_ops)
            .try_run()?;

        let slowdowns: Vec<f64> = multi
            .programs
            .iter()
            .zip(&solo_ipcs)
            .map(|(p, &sp)| slowdown(sp, p.ipc))
            .collect();

        println!("== {} ==", multi.policy);
        for (p, sdn) in multi.programs.iter().zip(&slowdowns) {
            println!(
                "  {:>10}: IPC {:.3} (solo {:.3})  slowdown {:.2}  M1 fraction {:.2}",
                p.name,
                p.ipc,
                solo_ipcs[multi
                    .programs
                    .iter()
                    .position(|q| q.name == p.name)
                    .unwrap_or(0)],
                sdn,
                p.m1_fraction()
            );
        }
        println!(
            "  weighted speedup {:.3} | unfairness (max slowdown) {:.2} | swaps {} ({:.2}% of requests) | {:.1} Mreq/J",
            weighted_speedup(&slowdowns),
            unfairness(&slowdowns),
            multi.swaps,
            100.0 * multi.swap_fraction(),
            multi.requests_per_joule / 1e6,
        );
        println!();
    }
    println!("Expected: relative to plain MDM, ProFess's RSM guidance");
    println!("lowers the max slowdown and the swap fraction while raising");
    println!("the weighted speedup — the paper's §5.4 mechanism in");
    println!("miniature (run the fig13_15 bench for the full PoM-");
    println!("normalized sweep).");
    Ok(())
}
