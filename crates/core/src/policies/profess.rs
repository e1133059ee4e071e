//! ProFess: the integration of RSM and MDM (paper §3.3, Table 7).
//!
//! When the M1-resident block and the accessed M2 block belong to the same
//! program, plain MDM decides. Otherwise the run's RSM verdict
//! ([`Rsm::case`](super::rsm::Rsm::case), delivered through
//! [`AccessCtx::guidance`]) guides the decision with an *aggressive help
//! strategy*:
//!
//! * **Case 1** — the M2 program suffers more by both factors: force the
//!   swap as if M1 were vacant (but still consult MDM about the benefit);
//! * **Case 2** — the M1 program suffers more by both factors: prohibit
//!   the swap to protect its block;
//! * **Case 3** — SF_A says the M2 program suffers more but SF_B says the
//!   opposite: protect the M1 block while the SF_A·SF_B product says the
//!   M1 program suffers more;
//! * otherwise plain MDM decides.
//!
//! The system owns and feeds the monitor; ProFess is MDM acting on its
//! verdict ([`MdmCore::decide`]).

use profess_metrics::StateCodec;
use profess_types::config::{MdmParams, RsmParams};

use super::mdm::MdmCore;
use super::rsm::GuidanceCase;
use super::{AccessCtx, Decision, EvictRecord, MigrationPolicy};

/// The ProFess policy: MDM decisions steered by RSM (paper §3.3).
#[derive(Debug)]
pub struct ProfessPolicy {
    mdm: MdmCore,
    /// When `false`, Case 3's product rule is disabled (ablation).
    case3_enabled: bool,
}

impl ProfessPolicy {
    /// Creates the policy. The run's monitor is built by the system from
    /// its own `SystemConfig::rsm`; `_rsm` is not read.
    pub fn new(mdm: MdmParams, _rsm: RsmParams, num_programs: usize) -> Self {
        ProfessPolicy {
            mdm: MdmCore::new(mdm, num_programs),
            case3_enabled: true,
        }
    }

    /// Disables the Case 3 product rule (ablation study): such conflicts
    /// fall through to plain MDM.
    pub fn disable_case3(&mut self) {
        self.case3_enabled = false;
    }
}

impl MigrationPolicy for ProfessPolicy {
    fn name(&self) -> &'static str {
        if self.case3_enabled {
            "ProFess"
        } else {
            "ProFess-noC3"
        }
    }

    fn write_weight(&self) -> u32 {
        self.mdm.params().write_weight
    }

    fn on_access(&mut self, ctx: &mut AccessCtx<'_>) -> Decision {
        ctx.applied = ctx.guidance.map(|case| match case {
            GuidanceCase::ProtectM1Product if !self.case3_enabled => GuidanceCase::Default,
            case => case,
        });
        let case = ctx.applied.unwrap_or(GuidanceCase::SameProgram);
        self.mdm.decide(ctx, Some(case))
    }

    fn on_stc_evict(&mut self, records: &[EvictRecord]) {
        self.mdm.record_evictions(records);
    }

    /// The MDM counters; the system appends the run's `rsm` and guidance
    /// `stats` to this object. `case3_enabled` is configuration: the
    /// config fingerprint covers it through [`MigrationPolicy::name`].
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("mdm", &mut self.mdm)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use crate::org::qac;
    use profess_types::ids::{ProgramId, SlotIdx};

    fn policy() -> ProfessPolicy {
        ProfessPolicy::new(MdmParams::paper(), RsmParams::paper(), 4)
    }

    /// Runs an access by program 1 to slot 4 over program 0's M1 block
    /// under `guidance`.
    fn access(
        p: &mut ProfessPolicy,
        m1_hot: bool,
        guidance: Option<GuidanceCase>,
    ) -> (Decision, Option<GuidanceCase>) {
        let (mut entry, mut st) = testutil::entry_pair();
        entry.q_i[4] = qac::HIGH;
        entry.bump(SlotIdx(4), 1, 63);
        if m1_hot {
            entry.q_i[0] = qac::HIGH;
            entry.bump(SlotIdx::M1, 2, 63);
        } else {
            // A third block's activity satisfies MDM rule (b)'s "some
            // other block has been accessed" while the M1 block idles.
            entry.bump(SlotIdx(7), 2, 63);
        }
        testutil::guided(
            p,
            &entry,
            &mut st,
            SlotIdx(4),
            ProgramId(1),
            Some(ProgramId(0)),
            guidance,
        )
    }

    #[test]
    fn case1_forces_the_swap_over_a_hot_m1_block() {
        let mut p = policy();
        // Plain MDM keeps a freshly started hot M1 block (rule c.ii).
        assert_eq!(
            access(&mut p, true, Some(GuidanceCase::Default)),
            (Decision::Stay, Some(GuidanceCase::Default))
        );
        assert_eq!(
            access(&mut p, true, Some(GuidanceCase::HelpM2)),
            (Decision::Promote, Some(GuidanceCase::HelpM2)),
            "Case 1 must force the swap"
        );
    }

    #[test]
    fn cases_2_and_3_veto_what_mdm_would_promote() {
        let mut p = policy();
        // Plain MDM promotes over an idle M1 block (rule b).
        assert_eq!(access(&mut p, false, None).0, Decision::Promote);
        for case in [GuidanceCase::ProtectM1, GuidanceCase::ProtectM1Product] {
            assert_eq!(
                access(&mut p, false, Some(case)),
                (Decision::Stay, Some(case))
            );
        }
    }

    #[test]
    fn same_program_uses_plain_mdm_and_applies_no_case() {
        let mut p = policy();
        assert_eq!(access(&mut p, false, None), (Decision::Promote, None));
    }

    #[test]
    fn disabled_case3_falls_through_to_mdm() {
        let mut p = policy();
        p.disable_case3();
        assert_eq!(
            access(&mut p, false, Some(GuidanceCase::ProtectM1Product)),
            (Decision::Promote, Some(GuidanceCase::Default))
        );
        assert_eq!(
            access(&mut p, false, Some(GuidanceCase::ProtectM1)),
            (Decision::Stay, Some(GuidanceCase::ProtectM1))
        );
    }
}
