//! RSM guiding an arbitrary migration algorithm (paper §6, Related Work:
//! "The proposed RSM can be integrated with other migration algorithms
//! instead of MDM, since it merely guides migration decisions").
//!
//! [`RsmGuided`] wraps any inner [`MigrationPolicy`] and applies the
//! run's Table 7 verdict ([`AccessCtx::guidance`]) on cross-program
//! conflicts:
//!
//! * **Case 1** (the accessing program suffers more): the inner policy
//!   decides. Case 1 asks for the decision the algorithm would take with
//!   the M1 occupant ignored; how to ignore it is algorithm-specific, and
//!   threshold-style baselines already decide without looking at the M1
//!   block, so for them Case 1 is the inner decision;
//! * **Case 2 / Case 3** (the M1 program suffers more): prohibit the
//!   swap, protecting the victim — this is where the fairness benefit of
//!   the wrapper comes from for PoM/CAMEO-style inner policies.
//!
//! The inner policy sees every access, vetoed or not, so its counters
//! keep evolving. Conflicts the verdict leaves to the inner policy
//! (`Default`) count as no applied case.
//!
//! The paper did not evaluate this combination; it is provided (and
//! tested) as the library-level extension the paper proposes.

use profess_metrics::StateCodec;
use profess_obs::TraceEvent;
use profess_types::config::RsmParams;
use profess_types::ids::{ProgramId, SlotIdx};
use profess_types::{Cycle, GroupId};

use super::rsm::GuidanceCase;
use super::{AccessCtx, Decision, EvictRecord, MigrationPolicy};
use crate::regions::RegionClass;

/// Any migration policy, steered by RSM's Table 7 cases.
pub struct RsmGuided {
    inner: Box<dyn MigrationPolicy>,
    name: &'static str,
}

impl std::fmt::Debug for RsmGuided {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsmGuided")
            .field("inner", &self.inner.name())
            .finish_non_exhaustive()
    }
}

impl RsmGuided {
    /// Wraps `inner` with RSM guidance. `name` labels the combination in
    /// reports (it must be `'static`; e.g. `"RSM+PoM"`). The run's
    /// monitor is built by the system from its own `SystemConfig::rsm`
    /// and program count; `_params` and `_num_programs` are not read.
    pub fn new(
        inner: Box<dyn MigrationPolicy>,
        _params: RsmParams,
        _num_programs: usize,
        name: &'static str,
    ) -> Self {
        RsmGuided { inner, name }
    }
}

impl MigrationPolicy for RsmGuided {
    fn name(&self) -> &'static str {
        self.name
    }

    fn write_weight(&self) -> u32 {
        self.inner.write_weight()
    }

    fn on_access(&mut self, ctx: &mut AccessCtx<'_>) -> Decision {
        let inner = self.inner.on_access(ctx);
        ctx.applied = ctx.guidance.filter(|&c| c != GuidanceCase::Default);
        match ctx.applied {
            Some(GuidanceCase::ProtectM1 | GuidanceCase::ProtectM1Product) => Decision::Stay,
            _ => inner,
        }
    }

    fn on_served(&mut self, program: ProgramId, class: RegionClass, from_m1: bool) {
        self.inner.on_served(program, class, from_m1);
    }

    fn on_swap(&mut self, promoted: ProgramId, demoted: Option<ProgramId>, group_is_private: bool) {
        self.inner.on_swap(promoted, demoted, group_is_private);
    }

    fn on_stc_evict(&mut self, records: &[EvictRecord]) {
        self.inner.on_stc_evict(records);
    }

    fn poll(&mut self, now: Cycle) -> Vec<(GroupId, SlotIdx)> {
        self.inner.poll(now)
    }

    fn next_poll(&self) -> Option<Cycle> {
        self.inner.next_poll()
    }

    fn set_tracing(&mut self, on: bool) {
        self.inner.set_tracing(on);
    }

    fn drain_trace(&mut self, now: Cycle, out: &mut Vec<TraceEvent>) {
        self.inner.drain_trace(now, out);
    }

    /// The inner policy's state; the system appends the run's `rsm` and
    /// guidance `stats` to this object.
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.object("inner", |c| self.inner.state(c))
    }
}

#[cfg(test)]
mod tests {
    use super::super::cameo::CameoPolicy;
    use super::super::testutil;
    use super::*;
    use profess_types::config::CameoParams;

    fn guided() -> RsmGuided {
        RsmGuided::new(
            Box::new(CameoPolicy::new(CameoParams { threshold: 1 })),
            RsmParams::paper(),
            2,
            "RSM+CAMEO",
        )
    }

    /// Program 1's first touch of slot 4 over program 0's M1 block, which
    /// CAMEO alone promotes.
    fn access(guidance: Option<GuidanceCase>) -> (Decision, Option<GuidanceCase>) {
        let (mut entry, mut st) = testutil::entry_pair();
        entry.bump(SlotIdx(4), 1, 63);
        testutil::guided(
            &mut guided(),
            &entry,
            &mut st,
            SlotIdx(4),
            ProgramId(1),
            Some(ProgramId(0)),
            guidance,
        )
    }

    #[test]
    fn protects_suffering_m1_owner_from_cameo() {
        for case in [GuidanceCase::ProtectM1, GuidanceCase::ProtectM1Product] {
            assert_eq!(access(Some(case)), (Decision::Stay, Some(case)));
        }
    }

    #[test]
    fn case1_keeps_the_inner_decision() {
        assert_eq!(
            access(Some(GuidanceCase::HelpM2)),
            (Decision::Promote, Some(GuidanceCase::HelpM2))
        );
    }

    #[test]
    fn passes_through_unguided_and_default_accesses() {
        assert_eq!(access(None), (Decision::Promote, None));
        assert_eq!(
            access(Some(GuidanceCase::Default)),
            (Decision::Promote, None),
            "ties leave the decision to the inner policy and count no case"
        );
    }
}
