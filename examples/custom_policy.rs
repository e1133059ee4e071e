//! Custom policy: implement your own migration algorithm against the
//! library's `MigrationPolicy` trait and run it in the full system.
//!
//! The example policy is "FirstTouchPin": promote an M2 block on its
//! first access and never displace an M1 block that has been promoted
//! during the current STC residency — a deliberately naive design whose
//! results you can compare against the built-ins.
//!
//! ```bash
//! cargo run --release --example custom_policy
//! ```

use profess::core::policies::AccessCtx;
use profess::core::SimError;
use profess::prelude::*;

/// Promote on first touch unless the current M1 occupant looks active.
#[derive(Debug, Default)]
struct FirstTouchPin {
    promotions: u64,
}

impl MigrationPolicy for FirstTouchPin {
    fn name(&self) -> &'static str {
        "FirstTouchPin"
    }

    fn on_access(&mut self, ctx: &mut AccessCtx<'_>) -> Decision {
        if ctx.actual_slot.is_m2()
            && ctx.entry.ac[ctx.orig_slot.index()] >= 1
            && ctx.entry.ac[ctx.m1_resident.index()] == 0
        {
            self.promotions += 1;
            Decision::Promote
        } else {
            Decision::Stay
        }
    }
}

fn main() -> Result<(), SimError> {
    let mut cfg = SystemConfig::scaled_single();
    cfg.rsm.m_samp = 2048;
    let prog = SpecProgram::Zeusmp;
    let budget = prog.budget_for_misses(60_000);

    let custom = SystemBuilder::new(cfg.clone())
        .custom_policy(Box::new(FirstTouchPin::default()), false)
        .spec_program(prog, budget)
        .try_run()?;
    println!(
        "{:>14}: IPC {:.3}, M1 fraction {:.2}, swaps {}",
        custom.policy,
        custom.programs[0].ipc,
        custom.programs[0].m1_fraction(),
        custom.swaps
    );

    for pk in [PolicyKind::Pom, PolicyKind::Mdm] {
        let r = SystemBuilder::new(cfg.clone())
            .policy(pk)
            .spec_program(prog, budget)
            .try_run()?;
        println!(
            "{:>14}: IPC {:.3}, M1 fraction {:.2}, swaps {}",
            r.policy,
            r.programs[0].ipc,
            r.programs[0].m1_fraction(),
            r.swaps
        );
    }
    println!("\nThe trait gives custom policies the same observability the");
    println!("built-ins use: STC access counters, QAC classes, ownership,");
    println!("region classes, swap and eviction callbacks.");
    Ok(())
}
