//! The MemPod migration algorithm (paper Table 2, row 4): the Majority
//! Element Algorithm (MEA) identifies hot blocks per interval; up to 64 of
//! them are migrated every 50 µs. Writes count as one access and the ST
//! update overhead of its swaps is ignored, both per the paper's §4.1
//! (optimistic MemPod configuration).

use profess_metrics::{State, StateCodec};
use profess_types::config::MemPodParams;
use profess_types::ids::SlotIdx;
use profess_types::{Cycle, GroupId};

use super::{AccessCtx, Decision, MigrationPolicy};

#[derive(Debug, Clone, Copy, Default)]
struct MeaSlot {
    group: GroupId,
    orig_slot: SlotIdx,
    count: u32,
}

/// The MemPod policy.
#[derive(Debug)]
pub struct MemPodPolicy {
    params: MemPodParams,
    interval_cycles: u64,
    next_poll: Cycle,
    mea: Vec<MeaSlot>,
    intervals: u64,
}

impl MemPodPolicy {
    /// Creates the policy; `ns_per_cycle` converts the 50 µs MEA interval
    /// into channel cycles.
    pub fn new(params: MemPodParams, ns_per_cycle: f64) -> Self {
        let interval_cycles = (params.interval_ns as f64 / ns_per_cycle).round() as u64;
        MemPodPolicy {
            interval_cycles,
            next_poll: Cycle(interval_cycles),
            mea: Vec::with_capacity(params.counters),
            intervals: 0,
            params,
        }
    }

    /// Completed MEA intervals.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    fn mea_touch(&mut self, group: GroupId, orig_slot: SlotIdx) {
        if let Some(s) = self
            .mea
            .iter_mut()
            .find(|s| s.group == group && s.orig_slot == orig_slot)
        {
            s.count += 1;
            return;
        }
        if self.mea.len() < self.params.counters {
            self.mea.push(MeaSlot {
                group,
                orig_slot,
                count: 1,
            });
            return;
        }
        // Classic MEA: decrement everyone; drop exhausted counters.
        for s in &mut self.mea {
            s.count -= 1;
        }
        self.mea.retain(|s| s.count > 0);
    }
}

impl MigrationPolicy for MemPodPolicy {
    fn name(&self) -> &'static str {
        "MemPod"
    }

    fn write_weight(&self) -> u32 {
        self.params.write_weight
    }

    fn on_access(&mut self, ctx: &mut AccessCtx<'_>) -> Decision {
        if ctx.actual_slot.is_m2() {
            self.mea_touch(ctx.group, ctx.orig_slot);
        }
        Decision::Stay
    }

    fn poll(&mut self, now: Cycle) -> Vec<(GroupId, SlotIdx)> {
        if now < self.next_poll {
            return Vec::new();
        }
        while self.next_poll <= now {
            self.next_poll += self.interval_cycles;
        }
        self.intervals += 1;
        let mut tracked = std::mem::take(&mut self.mea);
        tracked.sort_by_key(|s| std::cmp::Reverse(s.count));
        tracked
            .into_iter()
            .take(self.params.max_migrations)
            .map(|s| (s.group, s.orig_slot))
            .collect()
    }

    fn next_poll(&self) -> Option<Cycle> {
        Some(self.next_poll)
    }

    /// MEA slot order is load-bearing: `poll` sorts stably by count, so
    /// ties resolve in first-touch order. The slots travel verbatim.
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("next_poll", &mut self.next_poll)?;
        c.field("mea", &mut self.mea)?;
        if self.mea.len() > self.params.counters {
            return Err(format!(
                "mea: {} slots tracked but the policy has {} counters",
                self.mea.len(),
                self.params.counters
            ));
        }
        c.field("intervals", &mut self.intervals)
    }
}

/// A `[group, slot, count]` triple.
impl State for MeaSlot {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        (&mut self.group, &mut self.orig_slot, &mut self.count).state(c)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use profess_types::ids::ProgramId;

    fn policy(counters: usize, max_migrations: usize) -> MemPodPolicy {
        MemPodPolicy::new(
            MemPodParams {
                interval_ns: 50_000,
                counters,
                max_migrations,
                write_weight: 1,
            },
            1.25,
        )
    }

    #[test]
    fn interval_is_40k_cycles() {
        let p = policy(128, 64);
        assert_eq!(p.interval_cycles, 40_000);
        assert_eq!(p.next_poll(), Some(Cycle(40_000)));
    }

    #[test]
    fn hot_blocks_survive_mea_and_migrate() {
        let mut p = policy(4, 4);
        let (mut entry, mut st) = testutil::entry_pair();
        // Touch slot 3 heavily; slots 1,2,4..8 once each (more distinct
        // blocks than counters).
        for _ in 0..20 {
            entry.bump(SlotIdx(3), 1, 63);
            testutil::access(
                &mut p,
                &entry,
                &mut st,
                SlotIdx(3),
                ProgramId(0),
                false,
                None,
            );
        }
        for s in [1u8, 2, 4, 5, 6, 7, 8] {
            entry.bump(SlotIdx(s), 1, 63);
            testutil::access(
                &mut p,
                &entry,
                &mut st,
                SlotIdx(s),
                ProgramId(0),
                false,
                None,
            );
        }
        let migrations = p.poll(Cycle(40_000));
        assert!(!migrations.is_empty());
        assert_eq!(migrations[0].1, SlotIdx(3), "hottest block first");
        assert!(migrations.len() <= 4);
    }

    #[test]
    fn poll_before_interval_is_empty() {
        let mut p = policy(128, 64);
        assert!(p.poll(Cycle(10)).is_empty());
        assert_eq!(p.intervals(), 0);
    }

    #[test]
    fn counters_reset_each_interval() {
        let mut p = policy(8, 8);
        let (mut entry, mut st) = testutil::entry_pair();
        entry.bump(SlotIdx(2), 1, 63);
        testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx(2),
            ProgramId(0),
            false,
            None,
        );
        let first = p.poll(Cycle(40_000));
        assert_eq!(first.len(), 1);
        // Next interval with no accesses: nothing tracked.
        let second = p.poll(Cycle(80_000));
        assert!(second.is_empty());
        assert_eq!(p.intervals(), 2);
    }

    #[test]
    fn migration_cap_enforced() {
        let mut p = policy(8, 2);
        let (mut entry, mut st) = testutil::entry_pair();
        for s in 1..=8u8 {
            entry.bump(SlotIdx(s), 1, 63);
            testutil::access(
                &mut p,
                &entry,
                &mut st,
                SlotIdx(s),
                ProgramId(0),
                false,
                None,
            );
        }
        let m = p.poll(Cycle(40_000));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn m1_accesses_not_tracked() {
        let mut p = policy(8, 8);
        let (mut entry, mut st) = testutil::entry_pair();
        entry.bump(SlotIdx::M1, 1, 63);
        testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx::M1,
            ProgramId(0),
            false,
            Some(ProgramId(0)),
        );
        assert!(p.poll(Cycle(40_000)).is_empty());
    }
}
