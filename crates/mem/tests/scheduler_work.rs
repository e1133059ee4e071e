//! The FR-FCFS-Cap scheduler is gated by the work it does, not the time
//! it takes (DESIGN.md §7.2): one fixed, seeded request stream through
//! one channel costs an exact number of picks, scanned queue entries,
//! bank schedules and starvation-test visits. The counters are
//! per-thread and exist in debug builds only.

#![cfg(debug_assertions)]

use profess_check::Rng;
use profess_mem::work::{cap_test_visits, pick_entries, picks, plans};
use profess_mem::{AccessKind, ChannelSim, PhysRequest};
use profess_types::config::{EnergyConfig, MemTimingConfig};
use profess_types::geometry::{MemLoc, Module};
use profess_types::Cycle;

/// Pushes `n` requests from `seed` into a paper-timed 16-bank channel,
/// with a block swap every 500 requests, and runs it to idle the way the
/// event-driven system does. Returns the number of requests served.
fn drive(n: u64, seed: u64) -> u64 {
    let mut ch = ChannelSim::new(
        MemTimingConfig::paper(),
        EnergyConfig::default_values(),
        16,
        32,
    );
    let mut rng = Rng::seed_from_u64(seed);
    let mut served = Vec::new();
    let mut now = Cycle(0);
    for id in 0..n {
        now += rng.gen_range(0..40u64);
        ch.advance(now, &mut served);
        if id % 500 == 499 {
            let mut loc = |module, row| MemLoc {
                module,
                bank: rng.gen_range(0..16u32),
                row,
            };
            let (m1, m2) = (loc(Module::M1, 1), loc(Module::M2, 2));
            ch.begin_swap(now, m1, m2);
        }
        let kind = if rng.gen_bool(0.3) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let loc = MemLoc {
            module: if rng.gen_bool(0.25) {
                Module::M2
            } else {
                Module::M1
            },
            bank: rng.gen_range(0..8u32),
            row: rng.gen_range(0..2u64),
        };
        ch.push(PhysRequest { id, kind, loc }, now);
    }
    while !ch.is_idle() {
        now = ch.next_event(now);
        ch.advance(now, &mut served);
    }
    served.len() as u64
}

#[test]
fn one_stream_costs_exact_scheduler_work() {
    let (p, e, s, v) = (picks(), pick_entries(), plans(), cap_test_visits());
    let served = drive(4000, 0x5C4E_D001);
    assert_eq!(served, 4000);
    let work = (
        picks() - p,
        pick_entries() - e,
        plans() - s,
        cap_test_visits() - v,
    );
    // (picks, queue entries scanned, bank schedules, starvation-test
    // visits): one schedule per issued request, and a starvation scan
    // only for a startable capped hit, over the entries older than it.
    assert_eq!(work, (9_278, 217_500, served, 54));
}
