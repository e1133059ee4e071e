//! The event loop is gated by the work it does, not the time it takes
//! (DESIGN.md §7.2, §12): one seeded quad ProFess run costs an exact
//! number of steps, channel and core advances, the core advances that
//! issue no request, completion checks, responses delivered to cores
//! and the wake-ups among them, scheduler picks, and served data
//! requests that had to search the STC for their entry. The counters are per-thread and exist in debug
//! builds only; the same-step finish test runs in every build.

mod common;

use common::report_string;
use profess::core::SimError;
use profess::cpu::{MemOp, MemOpKind, OpSource};
use profess::metrics::fnv64;
use profess::prelude::*;

/// The work counters exist in debug builds only.
#[cfg(debug_assertions)]
#[test]
fn quad_profess_run_costs_exact_loop_and_scheduler_work() {
    use common::{multi_builder, PINNED};
    use profess::core::work::{
        channel_advances, completion_checks, core_advances, stc_searches, steps,
    };
    use profess::cpu::work::{advances, completions, idle_advances, wakes};
    use profess::mem::work::{pick_entries, picks};

    let count = || {
        [
            steps(),
            channel_advances(),
            core_advances(),
            completion_checks(),
            picks(),
            pick_entries(),
            advances(),
            idle_advances(),
            completions(),
            wakes(),
            stc_searches(),
        ]
    };
    let before = count();
    let report = multi_builder(PolicyKind::Profess).try_run().expect("runs");
    let after = count();
    let [steps, ch_adv, core_adv, checks, picks, entries, cpu_adv, idle, delivered, woke, searches] =
        std::array::from_fn(|i| after[i] - before[i]);
    assert_eq!(
        fnv64(report_string(&report).as_bytes()),
        PINNED[5].2,
        "the pinned ProFess quad run"
    );
    // A core advances only when its next memory op can issue or a
    // response it waits for arrives (`CoreSim::complete`), so most core
    // advances issue a request; the rest are blocked advances at
    // responses that do not yet unblock the op, and program ends.
    assert_eq!((steps, ch_adv, core_adv), (97_077, 80_827, 37_898));
    assert_eq!(idle, 11_100);
    // Only a core that advanced can have finished.
    assert_eq!(checks, core_adv);
    // The loop is the core model's only caller.
    assert_eq!(cpu_adv, core_adv);
    assert_eq!((delivered, woke), (32_306, 10_390));
    assert_eq!((picks, entries), (129_610, 800_874));
    // A served data request finds its STC entry through the way slot its
    // issue (or its ST fetch's insert) found; it searches the set only
    // when an insert moved or evicted the entry in between.
    assert_eq!(searches, 470);
}

/// One load of `gap` non-memory instructions on `line`, per instance.
fn one_load(gap: u32, line: u64) -> impl Fn(u32) -> Box<dyn OpSource> {
    move |_| {
        let mut op = Some(MemOp {
            gap,
            kind: MemOpKind::Load,
            line,
            dependent: false,
        });
        Box::new(move || op.take())
    }
}

/// Two programs whose first instances end in the same step: the same
/// load, on lines 0 and 32, which land in different blocks of a page and
/// so on different channels. The restart pass visits cores in index
/// order, and each core's decision sees only the first finishes recorded
/// before it: core 0 still restarts, core 1 ends the run.
#[test]
fn first_instances_ending_in_one_step_restart_only_the_lower_core() {
    let mut cfg = SystemConfig::scaled_quad();
    cfg.seed = 3;
    let report = SystemBuilder::new(cfg)
        .policy(PolicyKind::Profess)
        .program("a", one_load(400, 0))
        .program("b", one_load(400, 32))
        .try_run()
        .expect("runs");
    let cycles: Vec<u64> = report.programs.iter().map(|p| p.core_cycles).collect();
    assert_eq!(cycles[0], cycles[1], "both first instances end together");
    let restarts: Vec<u32> = report.programs.iter().map(|p| p.restarts).collect();
    assert_eq!(restarts, [1, 0]);
    assert_eq!(report.elapsed_cycles, 179);
    assert_eq!(
        fnv64(report_string(&report).as_bytes()),
        0xeba5_eb97_2125_644e
    );
}

/// The loop's step-local sets are 64-bit masks: a system with more cores
/// or channels is a configuration error, not a panic.
#[test]
fn more_than_64_cores_or_channels_is_a_config_error() {
    let is_config = |b: SystemBuilder| match b.try_run() {
        Err(SimError::Config { what }) => what,
        other => panic!(
            "expected a config error, got {:?}",
            other.map(|r| r.elapsed_cycles)
        ),
    };
    let mut cfg = SystemConfig::scaled_quad();
    cfg.cpu.num_cores = 65;
    let mut b = SystemBuilder::new(cfg.clone());
    for i in 0..65 {
        b = b.program(format!("p{i}"), one_load(4, 0));
    }
    assert!(is_config(b).starts_with("65 programs"));
    cfg.org.num_channels = 65;
    let b = SystemBuilder::new(cfg).program("p", one_load(4, 0));
    assert!(is_config(b).contains("65 channels"));
}
