//! The mem, cpu and STC layers driven on their own at operating points
//! taken from the in-situ run. Inside `System::run` these layers are not
//! wrapped, so their host cost is attributed from these runs.
//!
//! Inputs are generated before the clock starts, so each figure is the
//! layer's cost alone.

use std::collections::VecDeque;
use std::time::Instant;

use profess::core::Stc;
use profess::cpu::{CoreSim, MemOp, OpSource};
use profess::mem::{AccessKind, ChannelSim, PhysRequest};
use profess::prelude::*;
use profess::rng::Rng;
use profess::types::ids::SlotIdx;
use profess::types::GroupId;

/// The in-situ operating point a standalone channel is held at.
#[derive(Debug, Clone, Copy)]
pub struct ChannelPoint {
    /// Queued requests kept in the channel.
    pub depth: usize,
    /// Share of data requests that are reads.
    pub read_frac: f64,
    /// Share of data requests served from M1.
    pub m1_share: f64,
    /// Chance a request reuses the previous request's row.
    pub row_reuse: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct ChannelRun {
    pub ns_per_req: f64,
    pub row_hit_rate: f64,
}

/// The row reuse at which a standalone channel reproduces the in-situ
/// row-hit rate `row_hit`, bisected on short runs (the standalone rate
/// rises with reuse).
pub fn calibrate(
    cfg: &SystemConfig,
    mut point: ChannelPoint,
    row_hit: f64,
    seed: u64,
) -> ChannelPoint {
    let (mut lo, mut hi) = (0.0, 0.99);
    for _ in 0..8 {
        point.row_reuse = (lo + hi) / 2.0;
        if channel(cfg, point, 25_000, seed).row_hit_rate < row_hit {
            lo = point.row_reuse;
        } else {
            hi = point.row_reuse;
        }
    }
    point
}

/// One channel fed `requests` data requests, refilled to `point.depth`
/// after every event.
pub fn channel(cfg: &SystemConfig, point: ChannelPoint, requests: usize, seed: u64) -> ChannelRun {
    let geom = &cfg.org;
    let mut rng = Rng::seed_from_u64(seed);
    let mut loc = geom.slot_loc(GroupId(0), SlotIdx::M1);
    let stream: Vec<PhysRequest> = (0..requests as u64)
        .map(|id| {
            if !rng.gen_bool(point.row_reuse) {
                let group = GroupId(rng.bounded_u64(geom.num_groups()));
                let slot = if rng.gen_bool(point.m1_share) {
                    SlotIdx::M1
                } else {
                    SlotIdx(1 + rng.bounded_u64(u64::from(geom.slots_per_group()) - 1) as u8)
                };
                loc = geom.slot_loc(group, slot);
            }
            let kind = if rng.gen_bool(point.read_frac) {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            PhysRequest { id, kind, loc }
        })
        .collect();
    let mut ch = ChannelSim::new(
        cfg.mem.clone(),
        cfg.energy,
        geom.banks_per_module as usize,
        geom.lines_per_block(),
    );
    let mut next = stream.into_iter();
    let mut served = Vec::new();
    let mut done = 0;
    let mut now = Cycle::ZERO;
    let t = Instant::now();
    while done < requests {
        while ch.queue_len() < point.depth {
            match next.next() {
                Some(req) => ch.push(req, now),
                None => break,
            }
        }
        ch.advance(now, &mut served);
        done += served.len();
        served.clear();
        now = ch.next_event(now);
    }
    let ns = t.elapsed().as_nanos() as f64;
    let stats = ch.stats();
    ChannelRun {
        ns_per_req: ns / done as f64,
        row_hit_rate: stats.row_hits as f64 / stats.total_served() as f64,
    }
}

/// One core running `ops` with every request answered `latency` memory
/// cycles after it issues. Returns host ns per op.
pub fn core(cfg: &SystemConfig, ops: Vec<MemOp>, latency: u64) -> f64 {
    let n = ops.len();
    let mut it = ops.into_iter();
    let source: Box<dyn OpSource> = Box::new(move || it.next());
    let mut core = CoreSim::new(&cfg.cpu, &cfg.mem.clock, source);
    let mut inflight: VecDeque<(Cycle, u64)> = VecDeque::new();
    let mut out = Vec::new();
    let mut now = Cycle::ZERO;
    let t = Instant::now();
    loop {
        while let Some(&(at, id)) = inflight.front() {
            if at > now {
                break;
            }
            core.complete(id, at);
            inflight.pop_front();
        }
        core.advance(now, &mut out);
        inflight.extend(out.drain(..).map(|r| (now + latency, r.id)));
        if core.is_finished() {
            break;
        }
        let due = inflight.front().map_or(Cycle::NEVER, |&(at, _)| at);
        now = core.next_event(now).min(due);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

#[derive(Debug, Clone, Copy)]
pub struct StcRun {
    pub ns_per_lookup: f64,
    pub hit_rate: f64,
}

/// Per-channel STCs replaying a group stream: a lookup per access and an
/// insert on each miss.
pub fn stc(cfg: &SystemConfig, groups: &[GroupId]) -> StcRun {
    let geom = &cfg.org;
    let mut stcs: Vec<Stc> = (0..geom.num_channels)
        .map(|_| Stc::new(cfg.stc.entries, cfg.stc.ways))
        .collect();
    let t = Instant::now();
    for &g in groups {
        let stc = &mut stcs[geom.channel_of(g).index()];
        if stc.lookup(g).is_none() {
            stc.insert(g, [0; SlotIdx::MAX]);
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    let (lookups, hits) = stcs.iter().fold((0, 0), |(l, h), s| {
        (l + s.stats().lookups, h + s.stats().hits)
    });
    StcRun {
        ns_per_lookup: ns / lookups.max(1) as f64,
        hit_rate: hits as f64 / lookups.max(1) as f64,
    }
}
