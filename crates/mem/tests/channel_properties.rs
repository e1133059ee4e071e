//! Property tests of the channel timing model: conservation (every pushed
//! request is served exactly once), causality (no service before arrival,
//! minimum service latency respected), monotonic event-driven progress
//! under random request streams, and equivalence of the cached scheduling
//! refusal with a channel that re-derives it on every call.

use profess_check::strategy::{any_bool, tuple2, tuple5, u32_range, u64_range, u8_range, vec_of};
use profess_check::{check_with, prop_assert, prop_assert_eq, Config, Strategy};
use profess_mem::{AccessKind, ChannelSim, PhysRequest, Served};
use profess_metrics::StateCodec;
use profess_types::config::{EnergyConfig, MemTimingConfig};
use profess_types::geometry::{MemLoc, Module};
use profess_types::Cycle;

#[derive(Debug, Clone)]
struct Req {
    gap: u8,
    bank: u8,
    row: u8,
    m2: bool,
    write: bool,
}

impl Req {
    fn from_tuple(&(gap, bank, row, m2, write): &(u8, u8, u8, bool, bool)) -> Req {
        Req {
            gap,
            bank,
            row,
            m2,
            write,
        }
    }
}

/// Raw request streams; tuples are mapped to [`Req`] inside the
/// properties so shrinking stays in the generator's own domain.
fn req_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8, bool, bool)>> {
    vec_of(
        tuple5(
            u8_range(0..20),
            u8_range(0..16),
            u8_range(0..8),
            any_bool(),
            any_bool(),
        ),
        1..120,
    )
}

fn cases64() -> Config {
    Config {
        cases: 64,
        ..Config::default()
    }
}

fn drive(reqs: &[Req]) -> (Vec<(u64, Cycle)>, Vec<Served>) {
    let mut ch = ChannelSim::new(
        MemTimingConfig::paper(),
        EnergyConfig::default_values(),
        16,
        32,
    );
    let mut served = Vec::new();
    let mut pushed = Vec::new();
    let mut now = Cycle(0);
    for (i, r) in reqs.iter().enumerate() {
        now += u64::from(r.gap);
        ch.advance(now, &mut served);
        ch.push(
            PhysRequest {
                id: i as u64,
                kind: if r.write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                loc: MemLoc {
                    module: if r.m2 { Module::M2 } else { Module::M1 },
                    bank: u32::from(r.bank),
                    row: u64::from(r.row),
                },
            },
            now,
        );
        pushed.push((i as u64, now));
    }
    let mut guard = 0;
    while !ch.is_idle() {
        let t = ch.next_event(now);
        assert!(t < Cycle::NEVER, "channel stuck with work pending");
        assert!(t > now, "no forward progress");
        now = t;
        ch.advance(now, &mut served);
        guard += 1;
        assert!(guard < 1_000_000, "runaway event loop");
    }
    (pushed, served)
}

#[test]
fn conservation_and_causality() {
    check_with(
        &cases64(),
        &[],
        "conservation_and_causality",
        req_strategy(),
        |raw| {
            let reqs: Vec<Req> = raw.iter().map(Req::from_tuple).collect();
            let (pushed, served) = drive(&reqs);
            // Every request served exactly once.
            prop_assert_eq!(served.len(), pushed.len());
            let mut ids: Vec<u64> = served.iter().map(|s| s.id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), pushed.len());
            // Causality and minimum latency: data cannot complete before
            // enqueue + CL + burst (row hit on an open bank is the floor).
            let t = MemTimingConfig::paper();
            for s in &served {
                let (_, enq) = pushed[s.id as usize];
                prop_assert_eq!(s.enqueued, enq);
                let min_lat = t.m1.t_cl + t.m1.t_burst;
                prop_assert!(
                    s.done.raw() >= enq.raw() + min_lat,
                    "id {} done {} < enq {} + {}",
                    s.id,
                    s.done,
                    enq,
                    min_lat
                );
            }
            Ok(())
        },
    );
}

#[test]
fn m2_first_access_slower_than_m1() {
    check_with(
        &cases64(),
        &[],
        "m2_first_access_slower_than_m1",
        tuple2(u32_range(0..16), u64_range(0..8)),
        |&(bank, row)| {
            let mk = |module| {
                let mut ch = ChannelSim::new(
                    MemTimingConfig::paper(),
                    EnergyConfig::default_values(),
                    16,
                    32,
                );
                let mut served = Vec::new();
                ch.push(
                    PhysRequest {
                        id: 0,
                        kind: AccessKind::Read,
                        loc: MemLoc { module, bank, row },
                    },
                    Cycle(0),
                );
                let mut now = Cycle(0);
                ch.advance(now, &mut served);
                while !ch.is_idle() {
                    now = ch.next_event(now);
                    ch.advance(now, &mut served);
                }
                served[0].done
            };
            prop_assert!(mk(Module::M2) > mk(Module::M1));
            Ok(())
        },
    );
}

#[test]
fn energy_counts_match_traffic() {
    check_with(
        &cases64(),
        &[],
        "energy_counts_match_traffic",
        req_strategy(),
        |raw| {
            let reqs: Vec<Req> = raw.iter().map(Req::from_tuple).collect();
            let mut ch = ChannelSim::new(
                MemTimingConfig::paper(),
                EnergyConfig::default_values(),
                16,
                32,
            );
            let mut served = Vec::new();
            let mut now = Cycle(0);
            let mut reads = 0u64;
            let mut writes = 0u64;
            for (i, r) in reqs.iter().enumerate() {
                if r.write {
                    writes += 1
                } else {
                    reads += 1
                }
                ch.push(
                    PhysRequest {
                        id: i as u64,
                        kind: if r.write {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                        loc: MemLoc {
                            module: if r.m2 { Module::M2 } else { Module::M1 },
                            bank: u32::from(r.bank),
                            row: u64::from(r.row),
                        },
                    },
                    now,
                );
            }
            ch.advance(now, &mut served);
            while !ch.is_idle() {
                now = ch.next_event(now);
                ch.advance(now, &mut served);
            }
            let e = ch.energy();
            prop_assert_eq!(e.m1_reads + e.m2_reads, reads);
            prop_assert_eq!(e.m1_writes + e.m2_writes, writes);
            // Activations cannot exceed accesses.
            prop_assert!(e.m1_acts + e.m2_acts <= reads + writes);
            Ok(())
        },
    );
}

fn paper_channel() -> ChannelSim {
    ChannelSim::new(
        MemTimingConfig::paper(),
        EnergyConfig::default_values(),
        16,
        32,
    )
}

/// A channel driven in lockstep with a hint-free reference copy: before
/// every call the reference is saved and reloaded through its `State`
/// impl, which drops its cached scheduling refusal, so it
/// re-derives every decision from bank, bus and queue state.
struct Lockstep {
    hinted: ChannelSim,
    reference: ChannelSim,
    served: Vec<Served>,
    reference_served: Vec<Served>,
}

impl Lockstep {
    fn reset_reference(&mut self) {
        let snap = StateCodec::save(&mut self.reference).expect("save");
        StateCodec::load(&mut self.reference, &snap).expect("restore own snapshot");
    }

    fn advance(&mut self, now: Cycle) -> Result<(), String> {
        self.reset_reference();
        self.hinted.advance(now, &mut self.served);
        self.reference.advance(now, &mut self.reference_served);
        prop_assert!(
            self.served == self.reference_served,
            "served streams diverge at {now}"
        );
        self.check_next_event(now)
    }

    fn push(&mut self, req: PhysRequest, now: Cycle) -> Result<(), String> {
        self.reset_reference();
        self.hinted.push(req, now);
        self.reference.push(req, now);
        self.check_next_event(now)
    }

    fn swap(&mut self, now: Cycle, m1: MemLoc, m2: MemLoc) -> Result<(), String> {
        self.reset_reference();
        let (t, r) = (
            self.hinted.begin_swap(now, m1, m2),
            self.reference.begin_swap(now, m1, m2),
        );
        prop_assert!(t == r, "swap at {now}: hinted ends {t}, reference {r}");
        self.check_next_event(now)
    }

    fn check_next_event(&mut self, now: Cycle) -> Result<(), String> {
        self.reset_reference();
        let (t, r) = (self.hinted.next_event(now), self.reference.next_event(now));
        prop_assert!(t == r, "next_event at {now}: hinted {t}, reference {r}");
        Ok(())
    }
}

/// The cached FR-FCFS-Cap refusal is exact at every later cycle: a
/// channel that keeps it across calls must schedule, complete, swap and
/// report next events exactly like one that recomputes it on every call. Few banks and
/// rows make hits, conflicts and the hit cap collide; gap 0 repeats a
/// cycle. Each step is an M1 or M2 read or write, or (one in 20) a block
/// swap between M1 and M2, and happens either before or after the
/// channel advances to its cycle. Streams start shortly before the first
/// M1 refresh, so refreshes fire among queued requests. Like
/// `System::run`, the driver advances the channel at every event up to a
/// step's cycle before that step's calls. `PROFESS_CHECK_CASES` raises
/// the case count.
#[test]
fn standing_refusal_matches_hint_free_reference() {
    check_with(
        &Config::with_cases(64),
        &[],
        "standing_refusal_matches_hint_free_reference",
        tuple2(
            u64_range(0..2_000),
            vec_of(
                tuple5(
                    u8_range(0..24),
                    u8_range(0..4),
                    u8_range(0..3),
                    u8_range(0..20),
                    any_bool(),
                ),
                1..120,
            ),
        ),
        |(lead, raw)| {
            let mut l = Lockstep {
                hinted: paper_channel(),
                reference: paper_channel(),
                served: Vec::new(),
                reference_served: Vec::new(),
            };
            let refi = MemTimingConfig::paper().m1.t_refi.expect("M1 refreshes");
            let mut now = Cycle(refi.saturating_sub(*lead));
            let mut requests = 0;
            for (i, &(gap, bank, row, op, act_first)) in raw.iter().enumerate() {
                let at = now + u64::from(gap);
                loop {
                    let t = l.hinted.next_event(now);
                    if t > at {
                        break;
                    }
                    now = t;
                    l.advance(now)?;
                }
                now = at;
                let loc = |module| MemLoc {
                    module,
                    bank: u32::from(bank),
                    row: u64::from(row),
                };
                let (kind, module) = match op {
                    0..=8 => (AccessKind::Read, Module::M1),
                    9..=14 => (AccessKind::Write, Module::M1),
                    15..=16 => (AccessKind::Read, Module::M2),
                    17..=18 => (AccessKind::Write, Module::M2),
                    _ => {
                        if !act_first {
                            l.advance(now)?;
                        }
                        l.swap(now, loc(Module::M1), loc(Module::M2))?;
                        if act_first {
                            l.advance(now)?;
                        }
                        continue;
                    }
                };
                requests += 1;
                let req = PhysRequest {
                    id: i as u64,
                    kind,
                    loc: loc(module),
                };
                if act_first {
                    l.push(req, now)?;
                    l.advance(now)?;
                } else {
                    l.advance(now)?;
                    l.push(req, now)?;
                }
            }
            while !l.hinted.is_idle() {
                now = l.hinted.next_event(now);
                prop_assert!(now < Cycle::NEVER, "channel stuck with work pending");
                l.advance(now)?;
            }
            prop_assert!(l.reference.is_idle());
            prop_assert_eq!(l.served.len(), requests);
            prop_assert_eq!(l.hinted.stats(), l.reference.stats());
            Ok(())
        },
    );
}
