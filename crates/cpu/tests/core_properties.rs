//! Property tests of the core model: instruction accounting, IPC bounds,
//! liveness under random op streams served by a random-latency memory,
//! and equivalence of event-driven and every-cycle advancing.

use profess_check::strategy::{any_bool, tuple4, u32_range, u8_range, vec_of};
use profess_check::{check_with, prop_assert, prop_assert_eq, Config, Strategy};
use profess_cpu::{CoreSim, MemOp, MemOpKind, OpSource, WaitState};
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

/// Runs the core against per-request latencies, advancing either at every
/// memory cycle or only at the earlier of the core's next event and the
/// next completion.
fn run(specs: &[OpSpec], every_cycle: bool) -> Outcome {
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
            dependent: s.dependent && !s.store,
        })
        .collect();
    let clock = ClockSpec::paper();
    let mut core = CoreSim::new(&cfg(), &clock, Box::new(Scripted { ops, i: 0 }));
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
    Outcome {
        log,
        instructions: core.instructions(),
        core_cycles: core.instance_core_cycles(),
        ipc_bits: core.ipc().to_bits(),
        finish: now,
    }
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
