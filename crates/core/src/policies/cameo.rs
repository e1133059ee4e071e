//! CAMEO-style policy (paper Table 2, row 1): a global threshold of one
//! access — every access to an M2-resident block triggers a promotion.
//!
//! CAMEO proper operates on 64 B blocks in a 1:3 organization; under the
//! PoM organization used for all policies here (paper §2.3), its defining
//! trait — swap on first touch, no cost-benefit analysis — is what is
//! modelled.

use profess_types::config::CameoParams;

use super::{AccessCtx, Decision, MigrationPolicy};

/// Promote any M2 block once its access count reaches the (tiny, global)
/// threshold — 1 by default.
#[derive(Debug, Clone, Copy)]
pub struct CameoPolicy {
    params: CameoParams,
}

impl CameoPolicy {
    /// Creates the policy.
    pub fn new(params: CameoParams) -> Self {
        CameoPolicy { params }
    }
}

impl MigrationPolicy for CameoPolicy {
    fn name(&self) -> &'static str {
        "CAMEO"
    }

    // The per-group state vec is sized from the config geometry at construction.
    fn on_access(&mut self, ctx: &mut AccessCtx<'_>) -> Decision {
        if ctx.actual_slot.is_m2() && ctx.entry.ac[ctx.orig_slot.index()] >= self.params.threshold {
            Decision::Promote
        } else {
            Decision::Stay
        }
    }

    /// Stateless: snapshottable, with nothing to save.
    fn state(&mut self, _c: &mut profess_metrics::StateCodec<'_>) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use profess_types::ids::{ProgramId, SlotIdx};

    #[test]
    fn promotes_on_first_access() {
        let mut p = CameoPolicy::new(CameoParams { threshold: 1 });
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
    fn ignores_m1_resident_blocks() {
        let mut p = CameoPolicy::new(CameoParams { threshold: 1 });
        let (mut entry, mut st) = testutil::entry_pair();
        entry.bump(SlotIdx::M1, 1, 63);
        let d = testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx::M1,
            ProgramId(0),
            false,
            Some(ProgramId(0)),
        );
        assert_eq!(d, Decision::Stay);
    }

    #[test]
    fn higher_threshold_waits() {
        let mut p = CameoPolicy::new(CameoParams { threshold: 3 });
        let (mut entry, mut st) = testutil::entry_pair();
        entry.bump(SlotIdx(2), 2, 63);
        assert_eq!(
            testutil::access(
                &mut p,
                &entry,
                &mut st,
                SlotIdx(2),
                ProgramId(0),
                false,
                None
            ),
            Decision::Stay
        );
        entry.bump(SlotIdx(2), 1, 63);
        assert_eq!(
            testutil::access(
                &mut p,
                &entry,
                &mut st,
                SlotIdx(2),
                ProgramId(0),
                false,
                None
            ),
            Decision::Promote
        );
    }
}
