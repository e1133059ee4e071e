//! Property tests of the core model: instruction accounting, IPC bounds,
//! liveness under random op streams served by a random-latency memory,
//! equivalence of event-driven and every-cycle advancing (requests, IPC
//! and the ROB-occupancy histogram), and of precise wake-ups and waking
//! on every completion.

use profess_check::strategy::{any_bool, tuple2, tuple4, u32_range, u8_range, vec_of};
use profess_check::{check_with, prop_assert, prop_assert_eq, Config, Strategy};
use profess_cpu::{CoreObs, CoreSim, MemOp, MemOpKind, OpSource, WaitState};
use profess_types::clock::ClockSpec;
use profess_types::config::CpuConfig;
use profess_types::Cycle;

fn cfg() -> CpuConfig {
    CpuConfig {
        num_cores: 1,
        rob: 64,
        width: 4,
        mshrs: 8,
        write_buffer: 16,
    }
}

#[derive(Debug, Clone)]
struct OpSpec {
    gap: u32,
    store: bool,
    dependent: bool,
    latency: u8,
}

impl OpSpec {
    fn from_tuple(&(gap, store, dependent, latency): &(u8, bool, bool, u8)) -> OpSpec {
        OpSpec {
            gap: u32::from(gap),
            store,
            dependent,
            latency,
        }
    }
}

/// Raw op streams; tuples are mapped to [`OpSpec`] inside the properties
/// so shrinking stays in the generator's own domain.
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, bool, bool, u8)>> {
    vec_of(
        tuple4(u8_range(0..40), any_bool(), any_bool(), u8_range(1..200)),
        1..80,
    )
}

fn cases64() -> Config {
    Config {
        cases: 64,
        ..Config::default()
    }
}

fn specs_of(raw: &[(u8, bool, bool, u8)]) -> Vec<OpSpec> {
    raw.iter().map(OpSpec::from_tuple).collect()
}

struct Scripted {
    ops: Vec<MemOp>,
    i: usize,
}

impl OpSource for Scripted {
    fn next_op(&mut self) -> Option<MemOp> {
        let op = self.ops.get(self.i).copied();
        self.i += 1;
        op
    }
}

/// What one run produced: the `(request id, issue cycle)` log and the
/// core's final counters.
#[derive(Debug, PartialEq)]
struct Outcome {
    log: Vec<(u64, Cycle)>,
    instructions: u64,
    core_cycles: u64,
    ipc_bits: u64,
    finish: Cycle,
}

/// The op stream of `specs`: op `i` touches line `i`, so a request's line
/// names the spec that sets its latency.
fn ops_of(specs: &[OpSpec]) -> Vec<MemOp> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| MemOp {
            gap: s.gap,
            kind: if s.store {
                MemOpKind::Store
            } else {
                MemOpKind::Load
            },
            line: i as u64,
            dependent: s.dependent && !s.store,
        })
        .collect()
}

/// Runs the core against per-request latencies, advancing either at every
/// memory cycle or only at the earlier of the core's next event and the
/// next completion.
fn run(specs: &[OpSpec], every_cycle: bool) -> Outcome {
    run_observed(specs, every_cycle).0
}

/// [`run`] with the core's profiling histograms enabled; returns them
/// beside the outcome.
fn run_observed(specs: &[OpSpec], every_cycle: bool) -> (Outcome, Box<CoreObs>) {
    let ops = ops_of(specs);
    let clock = ClockSpec::paper();
    let mut core = CoreSim::new(&cfg(), &clock, Box::new(Scripted { ops, i: 0 }));
    core.enable_obs();
    let mut pending: Vec<(Cycle, u64)> = Vec::new();
    let mut log = Vec::new();
    let mut now = Cycle(0);
    let mut guard = 0;
    loop {
        guard += 1;
        assert!(guard < 2_000_000, "core stuck");
        let mut out = Vec::new();
        core.advance(now, &mut out);
        for r in out {
            // Latency keyed by the op order (line encodes the index).
            let lat = u64::from(specs[r.line as usize].latency);
            pending.push((now + lat, r.id));
            log.push((r.id, now));
        }
        if core.is_finished() {
            break;
        }
        let mut next = core.next_event(now);
        for &(d, _) in &pending {
            next = next.min(d);
        }
        assert!(
            next < Cycle::NEVER,
            "deadlock: core waits but no memory pending (state {:?})",
            core.wait_state()
        );
        now = if every_cycle {
            now + 1
        } else {
            next.max(now + 1)
        };
        let mut i = 0;
        while i < pending.len() {
            if pending[i].0 <= now {
                let (at, id) = pending.swap_remove(i);
                core.complete(id, at);
            } else {
                i += 1;
            }
        }
    }
    let outcome = Outcome {
        log,
        instructions: core.instructions(),
        core_cycles: core.instance_core_cycles(),
        ipc_bits: core.ipc().to_bits(),
        finish: now,
    };
    (outcome, core.take_obs().expect("obs enabled"))
}

#[test]
fn instruction_accounting_and_liveness() {
    check_with(
        &cases64(),
        &[],
        "instruction_accounting_and_liveness",
        ops_strategy(),
        |raw| {
            let specs = specs_of(raw);
            let o = run(&specs, false);
            let expected: u64 = specs.iter().map(|s| u64::from(s.gap) + 1).sum();
            prop_assert_eq!(o.instructions, expected);
            prop_assert_eq!(o.log.len(), specs.len());
            prop_assert!(o.finish > Cycle::ZERO);
            Ok(())
        },
    );
}

#[test]
fn ipc_never_exceeds_width() {
    check_with(
        &cases64(),
        &[],
        "ipc_never_exceeds_width",
        ops_strategy(),
        |raw| {
            let specs = specs_of(raw);
            let ops: Vec<MemOp> = specs
                .iter()
                .enumerate()
                .map(|(i, s)| MemOp {
                    gap: s.gap,
                    kind: if s.store {
                        MemOpKind::Store
                    } else {
                        MemOpKind::Load
                    },
                    line: i as u64,
                    dependent: false,
                })
                .collect();
            let clock = ClockSpec::paper();
            let mut core = CoreSim::new(&cfg(), &clock, Box::new(Scripted { ops, i: 0 }));
            // Instant memory: complete every request immediately.
            let mut now = Cycle(0);
            let mut guard = 0;
            while !core.is_finished() {
                guard += 1;
                prop_assert!(guard < 1_000_000);
                let mut out = Vec::new();
                core.advance(now, &mut out);
                for r in out {
                    core.complete(r.id, now);
                }
                if matches!(core.wait_state(), WaitState::Finished) {
                    break;
                }
                now = core.next_event(now).max(now + 1).min(now + 1_000);
            }
            prop_assert!(core.ipc() <= 4.0 + 1e-9, "ipc {}", core.ipc());
            prop_assert!(core.ipc() > 0.0);
            Ok(())
        },
    );
}

#[test]
fn slower_memory_never_finishes_earlier() {
    check_with(
        &cases64(),
        &[],
        "slower_memory_never_finishes_earlier",
        ops_strategy(),
        |raw| {
            let specs = specs_of(raw);
            let fast: Vec<OpSpec> = specs
                .iter()
                .cloned()
                .map(|mut s| {
                    s.latency = 1;
                    s
                })
                .collect();
            let slow: Vec<OpSpec> = specs
                .iter()
                .cloned()
                .map(|mut s| {
                    s.latency = 200;
                    s
                })
                .collect();
            let t_fast = run(&fast, false).finish;
            let t_slow = run(&slow, false).finish;
            prop_assert!(t_slow >= t_fast, "slow {} < fast {}", t_slow, t_fast);
            Ok(())
        },
    );
}

/// Sleeping through a non-memory gap is exact: a core advanced only at
/// its reported next events issues every request at the same cycle, and
/// ends with the same instruction count, cycles and IPC, as one advanced
/// at every memory cycle. Gaps run up to several times the 64-entry ROB,
/// so the ROB fills mid-gap behind outstanding loads.
#[test]
fn event_driven_matches_every_cycle() {
    check_with(
        &cases64(),
        &[],
        "event_driven_matches_every_cycle",
        vec_of(
            tuple4(u32_range(0..360), any_bool(), any_bool(), u8_range(1..200)),
            1..60,
        ),
        |raw| {
            let specs: Vec<OpSpec> = raw
                .iter()
                .map(|&(gap, store, dependent, latency)| OpSpec {
                    gap,
                    store,
                    dependent,
                    latency,
                })
                .collect();
            let events = run(&specs, false);
            prop_assert_eq!(events.log.len(), specs.len());
            prop_assert_eq!(events, run(&specs, true));
            Ok(())
        },
    );
}

/// The ROB-occupancy histogram is a function of the simulated timeline:
/// one sample per issued op, identical whether the core is advanced at
/// its own events or at every memory cycle.
#[test]
fn rob_occupancy_does_not_depend_on_when_the_core_advances() {
    check_with(
        &cases64(),
        &[],
        "rob_occupancy_does_not_depend_on_when_the_core_advances",
        vec_of(
            tuple4(u32_range(0..360), any_bool(), any_bool(), u8_range(1..200)),
            1..60,
        ),
        |raw| {
            let specs: Vec<OpSpec> = raw
                .iter()
                .map(|&(gap, store, dependent, latency)| OpSpec {
                    gap,
                    store,
                    dependent,
                    latency,
                })
                .collect();
            let (_, events) = run_observed(&specs, false);
            let (_, every) = run_observed(&specs, true);
            prop_assert_eq!(events.rob_occupancy.count(), specs.len() as u64);
            prop_assert_eq!(events, every);
            Ok(())
        },
    );
}

/// Precise wake-ups are exact. Two cores run the same op stream against
/// the same memory: one advances whenever its next event is due or a
/// response reaches it, the other only when its next event is due or
/// `complete` reports that the response unblocks it. At every cycle both
/// issue the same requests. At every cycle where the precise core
/// advances, both agree on wait state, next event and instruction
/// count, and both end at the same cycle with the same instruction count
/// and IPC. Between its advances the precise core's instruction count
/// may lag: it runs a non-memory gap only at the slot where the gap ends
/// or at the response that lets it continue. About half the cases cut
/// each gap to at most 2 instructions, so runs of loads exhaust the 8
/// MSHRs and runs of stores the 16-entry write buffer, beside the
/// ROB-full and dependent-load stalls of long gaps.
#[test]
fn precise_wakeups_match_waking_on_every_completion() {
    check_with(
        &Config {
            cases: 256,
            ..Config::default()
        },
        &[],
        "precise_wakeups_match_waking_on_every_completion",
        tuple2(
            any_bool(),
            vec_of(
                tuple4(u32_range(0..360), any_bool(), any_bool(), u8_range(1..200)),
                1..80,
            ),
        ),
        |(short_gaps, raw)| {
            let specs: Vec<OpSpec> = raw
                .iter()
                .map(|&(gap, store, dependent, latency)| OpSpec {
                    gap: if *short_gaps { gap % 3 } else { gap },
                    store,
                    dependent,
                    latency,
                })
                .collect();
            let clock = ClockSpec::paper();
            let core = || {
                let ops = ops_of(&specs);
                CoreSim::new(&cfg(), &clock, Box::new(Scripted { ops, i: 0 }))
            };
            let (mut every, mut precise) = (core(), core());
            let (mut every_due, mut precise_due) = (true, true);
            let mut pending: Vec<(Cycle, u64)> = Vec::new();
            let mut now = Cycle(0);
            for _ in 0..2_000_000 {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                if every_due {
                    every.advance(now, &mut a);
                }
                if precise_due {
                    precise.advance(now, &mut b);
                    let seen = |c: &CoreSim| (c.wait_state(), c.next_event(now), c.instructions());
                    prop_assert_eq!((now, seen(&every)), (now, seen(&precise)));
                }
                prop_assert_eq!((now, &a), (now, &b));
                for r in a {
                    let lat = u64::from(specs[r.line as usize].latency);
                    pending.push((now + lat, r.id));
                }
                if every.is_finished() {
                    prop_assert!(precise.is_finished());
                    prop_assert_eq!(every.finish_slot(), precise.finish_slot());
                    prop_assert_eq!(every.instructions(), precise.instructions());
                    prop_assert_eq!(every.ipc().to_bits(), precise.ipc().to_bits());
                    return Ok(());
                }
                let mut next = every.next_event(now);
                for &(d, _) in &pending {
                    next = next.min(d);
                }
                prop_assert!(next < Cycle::NEVER, "deadlock at {:?}", now);
                let prev = now;
                now = next.max(now + 1);
                every_due = every.next_event(prev) <= now;
                precise_due = precise.next_event(prev) <= now;
                // Responses due now, in the (done, id) order a channel
                // delivers them.
                pending.sort_unstable();
                let due = pending.iter().take_while(|&&(d, _)| d <= now).count();
                for (at, id) in pending.drain(..due) {
                    every.complete(id, at);
                    every_due = true;
                    precise_due |= precise.complete(id, at);
                }
            }
            Err("core stuck".to_string())
        },
    );
}
