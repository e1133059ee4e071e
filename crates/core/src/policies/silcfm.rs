//! The SILC-FM migration algorithm (paper Table 2, row 3): a global
//! threshold of one access, plus *locking*: a block whose aging access
//! counter exceeds 50 is locked into M1 and cannot be displaced.
//!
//! SILC-FM proper uses a set-associative M1–M2 mapping with sub-block
//! interleaving and slow swaps; as with the other baselines, the paper's
//! §2.3 methodology evaluates migration *algorithms* under the common PoM
//! organization, which is what this implementation does: the defining
//! behaviours retained are swap-on-first-touch and lock-above-threshold
//! with periodically aged counters.
//!
//! The paper lists SILC-FM in Tables 1–2 but excludes it from the
//! evaluation (its organization differs); this implementation completes
//! the Table 2 catalogue and is exercised by tests and the `ablation`
//! tooling rather than by a paper figure.

use profess_metrics::StateCodec;
use profess_types::ids::ProgramId;
use profess_types::{Cycle, GroupId};

use super::{AccessCtx, Decision, MigrationPolicy};
use crate::flat::FlatCounters;
use crate::regions::RegionClass;

/// Parameters of the SILC-FM-style policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SilcFmParams {
    /// Accesses before an M2 block is promoted (1 in Table 2).
    pub threshold: u32,
    /// Aging counter value above which an M1-resident block is locked
    /// (50 in Table 2).
    pub lock_threshold: u32,
    /// Served requests between aging events (counters halve).
    pub aging_period: u64,
}

impl Default for SilcFmParams {
    fn default() -> Self {
        SilcFmParams {
            threshold: 1,
            lock_threshold: 50,
            aging_period: 8192,
        }
    }
}

/// The SILC-FM-style policy.
#[derive(Debug)]
pub struct SilcFmPolicy {
    params: SilcFmParams,
    /// Aging access counters of M1-resident blocks, keyed by group (the
    /// M1 slot's current resident is the tracked block). Dense-indexed
    /// by group; a present zero (set on promotion) is distinct from
    /// absence, as it was in the map this replaced.
    aging: FlatCounters,
    served_since_age: u64,
    locks_held: u64,
}

impl SilcFmPolicy {
    /// Creates the policy.
    pub fn new(params: SilcFmParams) -> Self {
        SilcFmPolicy {
            params,
            aging: FlatCounters::new(),
            served_since_age: 0,
            locks_held: 0,
        }
    }

    /// Number of groups whose M1 block is currently locked.
    pub fn locked_groups(&self) -> u64 {
        self.aging
            .iter()
            .filter(|&(_, c)| c > self.params.lock_threshold)
            .count() as u64
    }

    fn age_all(&mut self) {
        self.aging.retain(|c| {
            *c /= 2;
            *c > 0
        });
    }
}

impl MigrationPolicy for SilcFmPolicy {
    fn name(&self) -> &'static str {
        "SILC-FM"
    }

    // Group ids are bounded by the geometry fixed at construction.
    fn on_access(&mut self, ctx: &mut AccessCtx<'_>) -> Decision {
        if ctx.actual_slot.is_m1() {
            // Feed the aging counter of the resident block.
            self.aging.add(ctx.group.0, 1);
            return Decision::Stay;
        }
        if ctx.entry.ac[ctx.orig_slot.index()] < self.params.threshold {
            return Decision::Stay;
        }
        // Locked M1 blocks are protected.
        let locked = self
            .aging
            .get(ctx.group.0)
            .is_some_and(|c| c > self.params.lock_threshold);
        if locked {
            self.locks_held += 1;
            Decision::Stay
        } else {
            // The incoming block replaces the tracked M1 resident; its
            // aging count restarts.
            let ok = self.aging.set(ctx.group.0, 0);
            // Hot-path keys are geometry-bounded, so the set cannot miss.
            assert!(ok, "SILC-FM aging key out of range");
            Decision::Promote
        }
    }

    fn on_served(&mut self, _program: ProgramId, _class: RegionClass, _from_m1: bool) {
        self.served_since_age += 1;
        if self.served_since_age >= self.params.aging_period {
            self.served_since_age = 0;
            self.age_all();
        }
    }

    fn poll(&mut self, _now: Cycle) -> Vec<(GroupId, profess_types::SlotIdx)> {
        Vec::new()
    }

    /// The aging counters travel sparse, as `[group, count]` pairs.
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        let mut aging: Vec<(u64, u32)> = self.aging.iter().collect();
        c.field("aging", &mut aging)?;
        if c.is_load() {
            self.aging = FlatCounters::new();
            for (g, n) in aging {
                if !self.aging.set(g, n) {
                    return Err(format!("aging: group {g} out of range"));
                }
            }
        }
        c.field("served_since_age", &mut self.served_since_age)?;
        c.field("locks_held", &mut self.locks_held)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use profess_types::ids::SlotIdx;

    fn policy() -> SilcFmPolicy {
        SilcFmPolicy::new(SilcFmParams::default())
    }

    #[test]
    fn promotes_on_first_touch() {
        let mut p = policy();
        let (mut entry, mut st) = testutil::entry_pair();
        entry.bump(SlotIdx(3), 1, 63);
        let d = testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx(3),
            ProgramId(0),
            false,
            None,
        );
        assert_eq!(d, Decision::Promote);
    }

    #[test]
    fn hot_m1_block_gets_locked() {
        let mut p = policy();
        let (mut entry, mut st) = testutil::entry_pair();
        // 60 M1 accesses exceed the lock threshold of 50.
        for _ in 0..60 {
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
        }
        assert_eq!(p.locked_groups(), 1);
        // A first-touch M2 access can no longer displace it.
        entry.bump(SlotIdx(5), 1, 63);
        let d = testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx(5),
            ProgramId(0),
            false,
            None,
        );
        assert_eq!(d, Decision::Stay);
    }

    #[test]
    fn aging_unlocks_blocks() {
        let mut p = SilcFmPolicy::new(SilcFmParams {
            aging_period: 10,
            ..SilcFmParams::default()
        });
        let (mut entry, mut st) = testutil::entry_pair();
        for _ in 0..60 {
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
        }
        assert_eq!(p.locked_groups(), 1);
        // Two aging events halve 60 -> 30 -> 15: below the threshold.
        for _ in 0..20 {
            p.on_served(ProgramId(0), RegionClass::Shared, true);
        }
        assert_eq!(p.locked_groups(), 0);
        entry.bump(SlotIdx(5), 1, 63);
        let d = testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx(5),
            ProgramId(0),
            false,
            None,
        );
        assert_eq!(d, Decision::Promote);
    }

    #[test]
    fn promotion_resets_tracking() {
        let mut p = policy();
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
        entry.bump(SlotIdx(2), 1, 63);
        let d = testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx(2),
            ProgramId(0),
            false,
            None,
        );
        assert_eq!(d, Decision::Promote);
        assert_eq!(p.aging.get(0), Some(0), "tracking restarted");
    }
}
