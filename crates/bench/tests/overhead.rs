//! The zero-cost-when-off contract, tested from the outside.
//!
//! The fingerprint suite (`tests/fingerprints.rs` at the workspace root)
//! already proves instrumented-but-off runs are *byte-identical* to the
//! pinned golden reports. These tests bound the *cost* of the dormant
//! instrumentation:
//!
//! * observation-only: a traced run's report serializes byte-identically
//!   to an untraced run of the same configuration (the trace rides in a
//!   side-channel field that is deliberately not serialized);
//! * the off-path primitive is genuinely inert: millions of
//!   [`Tracer::emit_with`] calls on an off tracer complete in a time
//!   only explainable by the closure never running;
//! * a full untraced simulation is not slower than the same simulation
//!   with tracing on (a regression that made the off path pay tracing
//!   costs shows up here as the untraced run losing its advantage).
//!
//! Timing bounds are deliberately generous — they guard against
//! order-of-magnitude regressions, not nanosecond drift, and must stay
//! robust on loaded CI machines.

use std::time::{Duration, Instant};

use profess_core::system::{PolicyKind, SystemBuilder, SystemReport};
use profess_obs::{TraceConfig, TraceEvent, Tracer};
use profess_trace::{workloads, Workload};
use profess_types::SystemConfig;

fn run(traced: bool) -> SystemReport {
    let mut cfg = SystemConfig::scaled_quad();
    cfg.seed = 17;
    cfg.rsm.m_samp = 512;
    let w: Workload = workloads()[3];
    let mut b = SystemBuilder::new(cfg)
        .policy(PolicyKind::Profess)
        .trace(if traced {
            TraceConfig::on()
        } else {
            TraceConfig::off()
        });
    for p in w.programs {
        b = b.spec_program(p, p.budget_for_misses(2_000));
    }
    b.try_run().unwrap()
}

#[test]
fn tracing_is_observation_only_at_the_report_level() {
    let off = run(false);
    let on = run(true);
    assert!(off.trace.is_none(), "off run must carry no trace");
    assert!(on.trace.is_some(), "traced run must carry a trace");
    // Everything the figures consume must not depend on whether the run
    // was observed; floats are compared bitwise, not within tolerance.
    assert_eq!(off.elapsed_cycles, on.elapsed_cycles);
    assert_eq!(off.total_served, on.total_served);
    assert_eq!(off.swaps, on.swaps);
    assert_eq!(off.energy_joules.to_bits(), on.energy_joules.to_bits());
    assert_eq!(
        off.avg_read_latency_cycles.to_bits(),
        on.avg_read_latency_cycles.to_bits()
    );
    assert_eq!(off.programs.len(), on.programs.len());
    for (a, b) in off.programs.iter().zip(&on.programs) {
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(
            a.ipc.to_bits(),
            b.ipc.to_bits(),
            "ipc diverged for {}",
            a.name
        );
    }
}

#[test]
fn off_tracer_emit_is_inert() {
    const CALLS: u64 = 2_000_000;
    let mut tracer = Tracer::off();
    let mut built = 0u64;
    let start = Instant::now();
    for i in 0..CALLS {
        tracer.emit_with(|| {
            // Must never run when the tracer is off.
            built += 1;
            TraceEvent::SwapAbort {
                at: i,
                group: 0,
                slot: 0,
                reason: "bench",
            }
        });
    }
    let elapsed = start.elapsed();
    std::hint::black_box(&tracer);
    assert_eq!(built, 0, "off tracer constructed {built} events");
    assert!(tracer.into_log().is_none(), "off tracer produced a log");
    // 2M no-op calls take single-digit milliseconds even unoptimized;
    // a multi-second result means the off path is doing real work.
    assert!(
        elapsed < Duration::from_secs(5),
        "2M off-mode emit_with calls took {elapsed:?}"
    );
}

#[test]
fn untraced_run_is_not_slower_than_traced_run() {
    // Warm both paths once (page-cache, allocator, branch predictors).
    run(false);
    run(true);
    let time = |traced: bool| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(run(traced));
                start.elapsed()
            })
            .min()
            .unwrap()
    };
    let t_off = time(false);
    let t_on = time(true);
    // The traced run does strictly more work (event construction, ring
    // writes, histogram folds), so the untraced run must not lose by
    // more than scheduling noise. The 1.5x headroom keeps the assertion
    // robust on loaded machines while still catching an off path that
    // started paying per-event costs plus real tracing work elsewhere.
    assert!(
        t_off <= t_on.mul_f64(1.5) + Duration::from_millis(50),
        "untraced run ({t_off:?}) slower than traced run ({t_on:?})"
    );
}
