//! ProFess: the integration of RSM and MDM (paper §3.3, Table 7).
//!
//! When the M1-resident block and the accessed M2 block belong to the same
//! program, plain MDM decides. Otherwise RSM's slowdown factors guide the
//! decision with an *aggressive help strategy*:
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
//! Small thresholds (1/32 per factor, 1/16 for the product condition)
//! exclude near-ties (paper §3.3).

use profess_obs::TraceEvent;
use profess_types::config::{MdmParams, RsmParams};
use profess_types::ids::ProgramId;
use profess_types::Cycle;

use profess_metrics::{State, StateCodec};

use super::mdm::MdmCore;
use super::rsm::{EpochReport, Rsm};
use super::{AccessCtx, Decision, DecisionTrace, EvictRecord, MigrationPolicy, PolicyDiagnostics};
use crate::regions::RegionClass;

/// Which Table 7 rule resolved a cross-program decision (diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuidanceCase {
    /// Same-program access: plain MDM.
    SameProgram,
    /// Case 1: help the M2 program (treat M1 as vacant).
    HelpM2,
    /// Case 2: protect the M1 program (no swap).
    ProtectM1,
    /// Case 3: protect the M1 program via the product rule.
    ProtectM1Product,
    /// Default: plain MDM.
    Default,
}

impl GuidanceCase {
    /// Stable snake_case name used in trace artifacts.
    pub fn name(self) -> &'static str {
        match self {
            GuidanceCase::SameProgram => "same_program",
            GuidanceCase::HelpM2 => "help_m2",
            GuidanceCase::ProtectM1 => "protect_m1",
            GuidanceCase::ProtectM1Product => "protect_m1_product",
            GuidanceCase::Default => "default",
        }
    }
}

/// Counters of how often each guidance case fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuidanceStats {
    /// Case 1 activations.
    pub help_m2: u64,
    /// Case 2 activations.
    pub protect_m1: u64,
    /// Case 3 activations.
    pub protect_m1_product: u64,
    /// Cross-program accesses that fell through to plain MDM.
    pub default_mdm: u64,
}

/// The four counters as a positional array.
impl State for GuidanceStats {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        [
            &mut self.help_m2,
            &mut self.protect_m1,
            &mut self.protect_m1_product,
            &mut self.default_mdm,
        ]
        .state(c)
    }
}

/// The ProFess policy: MDM decisions steered by RSM (paper §3.3).
#[derive(Debug)]
pub struct ProfessPolicy {
    mdm: MdmCore,
    rsm: Rsm,
    rsm_params: RsmParams,
    stats: GuidanceStats,
    /// When `false`, Case 3's product rule is disabled (ablation).
    case3_enabled: bool,
    tracing: bool,
    pending_epochs: Vec<EpochReport>,
}

impl ProfessPolicy {
    /// Creates the policy.
    pub fn new(mdm: MdmParams, rsm: RsmParams, num_programs: usize) -> Self {
        ProfessPolicy {
            mdm: MdmCore::new(mdm, num_programs),
            rsm: Rsm::new(rsm, num_programs),
            rsm_params: rsm,
            stats: GuidanceStats::default(),
            case3_enabled: true,
            tracing: false,
            pending_epochs: Vec::new(),
        }
    }

    /// Disables the Case 3 product rule (ablation study).
    pub fn disable_case3(&mut self) {
        self.case3_enabled = false;
    }

    /// Access to the RSM (diagnostics, Table 4 study).
    pub fn rsm(&self) -> &Rsm {
        &self.rsm
    }

    /// Guidance-case counters.
    pub fn guidance_stats(&self) -> &GuidanceStats {
        &self.stats
    }

    /// Classifies a cross-program conflict per Table 7.
    fn classify(&self, p1: ProgramId, p2: ProgramId) -> GuidanceCase {
        let th = self.rsm_params.sf_threshold;
        let thp = self.rsm_params.sf_product_threshold;
        let (sa1, sb1) = self.rsm.sf(p1);
        let (sa2, sb2) = self.rsm.sf(p2);
        if sa1 * th < sa2 && sb1 * th < sb2 {
            GuidanceCase::HelpM2
        } else if sa1 > sa2 * th && sb1 > sb2 * th {
            GuidanceCase::ProtectM1
        } else if self.case3_enabled
            && sa1 * th < sa2
            && sb1 > sb2 * th
            && sa1 * sb1 > sa2 * sb2 * thp
        {
            GuidanceCase::ProtectM1Product
        } else {
            GuidanceCase::Default
        }
    }
}

impl MigrationPolicy for ProfessPolicy {
    fn name(&self) -> &'static str {
        "ProFess"
    }

    fn write_weight(&self) -> u32 {
        self.mdm.params().write_weight
    }

    // Group and core ids are bounded by the geometry fixed at construction.
    fn on_access(&mut self, ctx: &mut AccessCtx<'_>) -> Decision {
        if ctx.actual_slot.is_m1() {
            return Decision::Stay;
        }
        let case = match ctx.m1_owner {
            Some(p1) if p1 != ctx.program => self.classify(p1, ctx.program),
            _ => GuidanceCase::SameProgram,
        };
        // `None` assessment = the guidance case vetoed the swap before MDM
        // ran.
        let assessment = match case {
            GuidanceCase::SameProgram => Some(self.mdm.assess(ctx, false)),
            GuidanceCase::HelpM2 => {
                self.stats.help_m2 += 1;
                // Consider M1 vacant, but RSM is agnostic to M1/M2
                // characteristics: MDM still judges the benefit.
                Some(self.mdm.assess(ctx, true))
            }
            GuidanceCase::ProtectM1 => {
                self.stats.protect_m1 += 1;
                None
            }
            GuidanceCase::ProtectM1Product => {
                self.stats.protect_m1_product += 1;
                None
            }
            GuidanceCase::Default => {
                self.stats.default_mdm += 1;
                Some(self.mdm.assess(ctx, false))
            }
        };
        if ctx.want_trace {
            ctx.trace = Some(match assessment {
                Some(a) => DecisionTrace {
                    case: case.name(),
                    verdict: a.verdict.name(),
                    rem_m2: a.rem_m2,
                    rem_m1: a.rem_m1,
                },
                None => {
                    let cnt2 = ctx.entry.ac[ctx.orig_slot.index()];
                    let q2 = ctx.entry.q_i[ctx.orig_slot.index()];
                    DecisionTrace {
                        case: case.name(),
                        verdict: "vetoed",
                        rem_m2: self.mdm.remaining(ctx.program, q2, cnt2),
                        rem_m1: None,
                    }
                }
            });
        }
        match assessment {
            Some(a) if a.verdict.promotes() => Decision::Promote,
            _ => Decision::Stay,
        }
    }

    fn on_served(&mut self, program: ProgramId, class: RegionClass, from_m1: bool) {
        let epoch = self.rsm.on_served(program, class, from_m1);
        if self.tracing {
            if let Some(e) = epoch {
                self.pending_epochs.push(e);
            }
        }
    }

    fn on_swap(&mut self, promoted: ProgramId, demoted: Option<ProgramId>, group_is_private: bool) {
        // Swaps in private regions are not counted (paper §3.1.2).
        if !group_is_private {
            self.rsm.on_swap(promoted, demoted);
        }
    }

    fn on_stc_evict(&mut self, records: &[EvictRecord]) {
        self.mdm.record_evictions(records);
    }

    fn poll(&mut self, _now: Cycle) -> Vec<(profess_types::GroupId, profess_types::SlotIdx)> {
        Vec::new()
    }

    fn diagnostics(&self) -> PolicyDiagnostics {
        let n = self.rsm.num_programs();
        PolicyDiagnostics {
            guidance: Some(self.stats),
            sfs: (0..n).map(|i| self.rsm.sf(ProgramId(i as u8))).collect(),
        }
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.pending_epochs.clear();
        }
    }

    fn drain_trace(&mut self, now: Cycle, out: &mut Vec<TraceEvent>) {
        for e in self.pending_epochs.drain(..) {
            out.push(TraceEvent::RsmEpoch {
                at: now.raw(),
                program: e.program.0,
                period: e.period,
                raw_sf_a: e.raw_sf_a,
                sf_a: e.sf_a,
                sf_b: e.sf_b,
            });
        }
    }

    /// `tracing` and `pending_epochs` are observability state rebuilt by
    /// the restoring system; `case3_enabled` is configuration (covered by
    /// the config fingerprint).
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("mdm", &mut self.mdm)?;
        c.field("rsm", &mut self.rsm)?;
        c.field("stats", &mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use crate::org::qac;
    use profess_types::ids::SlotIdx;

    fn policy() -> ProfessPolicy {
        ProfessPolicy::new(MdmParams::paper(), RsmParams::paper(), 4)
    }

    /// Drives RSM so program `p` looks like it suffers (low M1 fraction in
    /// shared regions and many foreign swaps).
    fn make_suffering(policy: &mut ProfessPolicy, p: ProgramId, other: ProgramId) {
        let m_samp = policy.rsm_params.m_samp;
        for i in 0..m_samp {
            policy.on_swap(p, Some(other), false);
            let class = if i % 16 == 0 {
                RegionClass::PrivateOwn
            } else {
                RegionClass::Shared
            };
            // Private: always from M1. Shared: rarely.
            let from_m1 = class == RegionClass::PrivateOwn || i % 8 == 0;
            policy.on_served(p, class, from_m1);
        }
    }

    /// Drives RSM so program `p` looks unaffected (same behaviour in both
    /// region kinds, only self swaps).
    fn make_content(policy: &mut ProfessPolicy, p: ProgramId) {
        let m_samp = policy.rsm_params.m_samp;
        for i in 0..m_samp {
            policy.on_swap(p, Some(p), false);
            let class = if i % 16 == 0 {
                RegionClass::PrivateOwn
            } else {
                RegionClass::Shared
            };
            policy.on_served(p, class, true);
        }
    }

    #[test]
    fn case1_helps_suffering_m2_program() {
        let mut p = policy();
        let (suffering, content) = (ProgramId(1), ProgramId(0));
        make_content(&mut p, content);
        make_suffering(&mut p, suffering, content);
        assert_eq!(p.classify(content, suffering), GuidanceCase::HelpM2);
        // Access by the suffering program to its M2 block; M1 held by the
        // content program with a *hot* block that plain MDM would keep.
        let (mut entry, mut st) = testutil::entry_pair();
        entry.q_i[4] = qac::HIGH;
        entry.bump(SlotIdx(4), 1, 63);
        entry.q_i[0] = qac::HIGH;
        entry.bump(SlotIdx::M1, 2, 63);
        let d = testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx(4),
            suffering,
            false,
            Some(content),
        );
        assert_eq!(d, Decision::Promote, "Case 1 must force the swap");
        assert_eq!(p.guidance_stats().help_m2, 1);
    }

    #[test]
    fn case2_protects_suffering_m1_program() {
        let mut p = policy();
        let (suffering, content) = (ProgramId(0), ProgramId(1));
        make_content(&mut p, content);
        make_suffering(&mut p, suffering, content);
        assert_eq!(p.classify(suffering, content), GuidanceCase::ProtectM1);
        // The content program would promote over an idle M1 block under
        // plain MDM (rule b), but Case 2 prohibits it.
        let (mut entry, mut st) = testutil::entry_pair();
        entry.q_i[4] = qac::HIGH;
        entry.bump(SlotIdx(4), 1, 63);
        let d = testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx(4),
            content,
            false,
            Some(suffering),
        );
        assert_eq!(d, Decision::Stay);
        assert_eq!(p.guidance_stats().protect_m1, 1);
    }

    #[test]
    fn same_program_uses_plain_mdm() {
        let mut p = policy();
        let (mut entry, mut st) = testutil::entry_pair();
        entry.q_i[4] = qac::HIGH;
        entry.bump(SlotIdx(4), 1, 63);
        // A third block's activity satisfies MDM rule (b)'s "some other
        // block has been accessed" while the M1 block stays idle.
        entry.bump(SlotIdx(7), 2, 63);
        let d = testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx(4),
            ProgramId(2),
            false,
            Some(ProgramId(2)),
        );
        // MDM rule (b): promote over an idle M1 block.
        assert_eq!(d, Decision::Promote);
        let s = p.guidance_stats();
        assert_eq!(
            (s.help_m2, s.protect_m1, s.protect_m1_product, s.default_mdm),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn near_ties_fall_through_to_mdm() {
        let mut p = policy();
        // Fresh RSM: all SFs are 1.0 -> no case fires (thresholds exclude
        // ties).
        assert_eq!(
            p.classify(ProgramId(0), ProgramId(1)),
            GuidanceCase::Default
        );
        let (mut entry, mut st) = testutil::entry_pair();
        entry.q_i[4] = qac::HIGH;
        entry.bump(SlotIdx(4), 1, 63);
        entry.bump(SlotIdx(7), 2, 63); // rule (b)'s third active block
        let d = testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx(4),
            ProgramId(1),
            false,
            Some(ProgramId(0)),
        );
        assert_eq!(d, Decision::Promote);
        assert_eq!(p.guidance_stats().default_mdm, 1);
    }

    #[test]
    fn case3_product_rule_protects_m1() {
        let mut p = policy();
        // Construct SFs directly through sampled behaviour:
        // p0 (M1 owner): SF_A low (~1) but SF_B very high (many foreign
        // swaps). p1 (M2): SF_A high, SF_B ~1.
        let m_samp = p.rsm_params.m_samp;
        for i in 0..m_samp {
            // p0: fine on requests, suffers on swaps.
            p.on_swap(ProgramId(0), Some(ProgramId(2)), false);
            let class = if i % 16 == 0 {
                RegionClass::PrivateOwn
            } else {
                RegionClass::Shared
            };
            p.on_served(ProgramId(0), class, true);
        }
        for i in 0..m_samp {
            // p1: suffers on requests, fine on swaps.
            p.on_swap(ProgramId(1), Some(ProgramId(1)), false);
            let class = if i % 16 == 0 {
                RegionClass::PrivateOwn
            } else {
                RegionClass::Shared
            };
            let from_m1 = class == RegionClass::PrivateOwn || i % 4 == 0;
            p.on_served(ProgramId(1), class, from_m1);
        }
        let (sa0, sb0) = p.rsm().sf(ProgramId(0));
        let (sa1, sb1) = p.rsm().sf(ProgramId(1));
        assert!(sa0 < sa1 && sb0 > sb1, "setup: {sa0} {sb0} vs {sa1} {sb1}");
        if sa0 * sb0 > sa1 * sb1 * p.rsm_params.sf_product_threshold {
            assert_eq!(
                p.classify(ProgramId(0), ProgramId(1)),
                GuidanceCase::ProtectM1Product
            );
            // Ablation: disabling Case 3 falls through to Default.
            p.disable_case3();
            assert_eq!(
                p.classify(ProgramId(0), ProgramId(1)),
                GuidanceCase::Default
            );
        } else {
            panic!(
                "setup failed to trigger product rule: {} vs {}",
                sa0 * sb0,
                sa1 * sb1
            );
        }
    }

    #[test]
    fn private_region_swaps_not_counted() {
        let mut p = policy();
        p.on_swap(ProgramId(0), Some(ProgramId(1)), true);
        // Close a period.
        for _ in 0..p.rsm_params.m_samp {
            p.on_served(ProgramId(0), RegionClass::Shared, true);
        }
        let (_, sf_b) = p.rsm().sf(ProgramId(0));
        assert!((sf_b - 1.0).abs() < 1e-9, "private swap leaked into SF_B");
    }
}
