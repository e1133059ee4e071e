//! Fairness study: a constructed hog-vs-victim scenario showing how RSM's
//! slowdown factors identify the suffering program and how ProFess's
//! Table 7 guidance converts that indication into protection.
//!
//! The "hog" floods memory with scans that constantly promote blocks; the
//! "victim" has a modest hot set that the hog keeps demoting. Under plain
//! MDM the victim's hot set is collateral damage; under ProFess, RSM's
//! SF_A/SF_B flag the victim and Cases 1-3 defend (or force) its blocks.
//!
//! ```bash
//! cargo run --release --example fairness_study
//! ```

use profess::core::SimError;
use profess::prelude::*;
use profess::trace::patterns::{seeded_rng, Hotspot, Mix, MultiStream, Pattern};
use profess::trace::ProgramParams;

fn hog(restart: u32) -> Box<dyn OpSource> {
    // A 16 MB scan/hot mix that floods memory and keeps promoting blocks.
    let lines = 16 << 20 >> 6;
    let mut rng = seeded_rng(1000 + u64::from(restart));
    let pattern: Box<dyn Pattern + Send> = Box::new(Mix::new(
        Box::new(MultiStream::new(lines, 24, &mut rng)),
        Box::new(Hotspot::new(lines, 0.8, 0, false, &mut rng)),
        0.5,
    ));
    Box::new(ProgramGen::new(
        ProgramParams {
            mpki: 45.0,
            lines,
            write_frac: 0.3,
            instructions: 1_500_000,
        },
        pattern,
        2000 + u64::from(restart),
    ))
}

fn victim(restart: u32) -> Box<dyn OpSource> {
    // A modest, strongly reused hot set (2 MB) of dependent accesses: its
    // performance hinges on keeping that hot set in M1.
    let lines = 2 << 20 >> 6;
    let mut rng = seeded_rng(3000 + u64::from(restart));
    let pattern: Box<dyn Pattern + Send> = Box::new(Hotspot::new(lines, 0.9, 0, true, &mut rng));
    Box::new(ProgramGen::new(
        ProgramParams {
            mpki: 20.0,
            lines,
            write_frac: 0.1,
            instructions: 2_500_000,
        },
        pattern,
        4000 + u64::from(restart),
    ))
}

fn run(policy: PolicyKind) -> Result<(SystemReport, Vec<f64>), SimError> {
    let mut cfg = SystemConfig::scaled_quad();
    cfg.rsm.m_samp = 4096;
    // Solo references.
    let mut solos = Vec::new();
    for factory in [true, false] {
        let mut b = SystemBuilder::new(cfg.clone()).policy(policy);
        b = if factory {
            b.program("hog", hog)
        } else {
            b.program("victim", victim)
        };
        solos.push(b.try_run()?.programs[0].ipc);
    }
    let multi = SystemBuilder::new(cfg)
        .policy(policy)
        .program("hog", hog)
        .program("victim", victim)
        .try_run()?;
    Ok((multi, solos))
}

fn main() -> Result<(), SimError> {
    for policy in [PolicyKind::Mdm, PolicyKind::Profess] {
        let (multi, solos) = run(policy)?;
        println!("== {} ==", multi.policy);
        let mut slowdowns = Vec::new();
        for (p, &solo) in multi.programs.iter().zip(&solos) {
            let sdn = slowdown(solo, p.ipc);
            slowdowns.push(sdn);
            println!(
                "  {:>7}: solo IPC {:.3} -> multi IPC {:.3}, slowdown {:.2}, M1 fraction {:.2}",
                p.name,
                solo,
                p.ipc,
                sdn,
                p.m1_fraction()
            );
        }
        println!(
            "  unfairness {:.2}, weighted speedup {:.3}, swaps {}",
            unfairness(&slowdowns),
            weighted_speedup(&slowdowns),
            multi.swaps
        );
        if let Some(g) = multi.diag.guidance {
            println!(
                "  RSM guidance: help-M2 {} | protect-M1 {} | product-rule {} | default {}",
                g.help_m2, g.protect_m1, g.protect_m1_product, g.default_mdm
            );
            for (i, (a, b)) in multi.diag.sfs.iter().enumerate() {
                println!(
                    "  SF of {}: SF_A {:.2} SF_B {:.2}",
                    multi.programs[i].name, a, b
                );
            }
        }
        println!();
    }
    println!("Reading: RSM's SF values rank the victim as the bigger");
    println!("sufferer and Table 7's cases fire (counts above); when the");
    println!("victim's hot set is the contested resource, its slowdown");
    println!("falls under ProFess relative to plain MDM.");
    Ok(())
}
