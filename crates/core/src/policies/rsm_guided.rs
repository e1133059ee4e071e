//! RSM guiding an arbitrary migration algorithm (paper §6, Related Work:
//! "The proposed RSM can be integrated with other migration algorithms
//! instead of MDM, since it merely guides migration decisions").
//!
//! [`RsmGuided`] wraps any inner [`MigrationPolicy`] and applies the
//! Table 7 aggressive-help strategy on cross-program conflicts:
//!
//! * **Case 1** (the accessing program suffers more): force the promotion
//!   if the inner policy would promote *with the M1 occupant ignored* —
//!   approximated here by honouring the inner policy's decision and, when
//!   it declines purely in deference to the M1 block, promoting anyway is
//!   algorithm-specific; for threshold-style baselines the inner decision
//!   already ignores the M1 block, so Case 1 reduces to the inner
//!   decision;
//! * **Case 2 / Case 3** (the M1 program suffers more): prohibit the
//!   swap, protecting the victim — this is where the fairness benefit of
//!   the wrapper comes from for PoM/CAMEO-style inner policies.
//!
//! The paper did not evaluate this combination; it is provided (and
//! tested) as the library-level extension the paper proposes.

use profess_metrics::StateCodec;
use profess_obs::TraceEvent;
use profess_types::config::RsmParams;
use profess_types::ids::{ProgramId, SlotIdx};
use profess_types::{Cycle, GroupId};

use super::profess::GuidanceStats;
use super::rsm::{EpochReport, Rsm};
use super::{AccessCtx, Decision, EvictRecord, MigrationPolicy, PolicyDiagnostics};
use crate::regions::RegionClass;

/// Any migration policy, steered by RSM's Table 7 cases.
pub struct RsmGuided {
    inner: Box<dyn MigrationPolicy>,
    rsm: Rsm,
    params: RsmParams,
    stats: GuidanceStats,
    name: &'static str,
    tracing: bool,
    pending_epochs: Vec<EpochReport>,
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
    /// reports (it must be `'static`; e.g. `"RSM+PoM"`).
    pub fn new(
        inner: Box<dyn MigrationPolicy>,
        params: RsmParams,
        num_programs: usize,
        name: &'static str,
    ) -> Self {
        RsmGuided {
            inner,
            rsm: Rsm::new(params, num_programs),
            params,
            stats: GuidanceStats::default(),
            name,
            tracing: false,
            pending_epochs: Vec::new(),
        }
    }

    /// Guidance-case counters.
    pub fn guidance_stats(&self) -> &GuidanceStats {
        &self.stats
    }

    fn case(&self, p1: ProgramId, p2: ProgramId) -> u8 {
        let th = self.params.sf_threshold;
        let thp = self.params.sf_product_threshold;
        let (sa1, sb1) = self.rsm.sf(p1);
        let (sa2, sb2) = self.rsm.sf(p2);
        if sa1 * th < sa2 && sb1 * th < sb2 {
            1
        } else if sa1 > sa2 * th && sb1 > sb2 * th {
            2
        } else if sa1 * th < sa2 && sb1 > sb2 * th && sa1 * sb1 > sa2 * sb2 * thp {
            3
        } else {
            0
        }
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
        let case = match ctx.m1_owner {
            Some(p1) if ctx.actual_slot.is_m2() && p1 != ctx.program => self.case(p1, ctx.program),
            _ => 0,
        };
        match case {
            2 => {
                self.stats.protect_m1 += 1;
                // Let the inner policy observe the access (counters must
                // keep evolving) but veto any promotion.
                let _ = self.inner.on_access(ctx);
                Decision::Stay
            }
            3 => {
                self.stats.protect_m1_product += 1;
                let _ = self.inner.on_access(ctx);
                Decision::Stay
            }
            1 => {
                self.stats.help_m2 += 1;
                self.inner.on_access(ctx)
            }
            _ => self.inner.on_access(ctx),
        }
    }

    fn on_served(&mut self, program: ProgramId, class: RegionClass, from_m1: bool) {
        let epoch = self.rsm.on_served(program, class, from_m1);
        if self.tracing {
            if let Some(e) = epoch {
                self.pending_epochs.push(e);
            }
        }
        self.inner.on_served(program, class, from_m1);
    }

    fn on_swap(&mut self, promoted: ProgramId, demoted: Option<ProgramId>, group_is_private: bool) {
        if !group_is_private {
            self.rsm.on_swap(promoted, demoted);
        }
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
        self.inner.set_tracing(on);
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
        self.inner.drain_trace(now, out);
    }

    /// Snapshottable only when both the inner policy and the RSM are.
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.object("inner", |c| self.inner.state(c))?;
        c.field("rsm", &mut self.rsm)?;
        c.field("stats", &mut self.stats)
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

    fn make_suffering(p: &mut RsmGuided, prog: ProgramId, other: ProgramId) {
        for i in 0..p.params.m_samp {
            p.on_swap(prog, Some(other), false);
            let class = if i % 16 == 0 {
                RegionClass::PrivateOwn
            } else {
                RegionClass::Shared
            };
            let from_m1 = class == RegionClass::PrivateOwn || i % 8 == 0;
            p.on_served(prog, class, from_m1);
        }
    }

    fn make_content(p: &mut RsmGuided, prog: ProgramId) {
        for i in 0..p.params.m_samp {
            p.on_swap(prog, Some(prog), false);
            let class = if i % 16 == 0 {
                RegionClass::PrivateOwn
            } else {
                RegionClass::Shared
            };
            p.on_served(prog, class, true);
        }
    }

    #[test]
    fn protects_suffering_m1_owner_from_cameo() {
        let mut p = guided();
        make_content(&mut p, ProgramId(1));
        make_suffering(&mut p, ProgramId(0), ProgramId(1));
        // CAMEO alone would promote on first touch; Case 2 vetoes.
        let (mut entry, mut st) = testutil::entry_pair();
        entry.bump(SlotIdx(4), 1, 63);
        let d = testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx(4),
            ProgramId(1),
            false,
            Some(ProgramId(0)),
        );
        assert_eq!(d, Decision::Stay);
        assert_eq!(p.guidance_stats().protect_m1, 1);
    }

    #[test]
    fn passes_through_when_balanced() {
        let mut p = guided();
        let (mut entry, mut st) = testutil::entry_pair();
        entry.bump(SlotIdx(4), 1, 63);
        let d = testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx(4),
            ProgramId(1),
            false,
            Some(ProgramId(0)),
        );
        assert_eq!(d, Decision::Promote, "fresh SFs are ties: inner decides");
    }

    #[test]
    fn same_program_bypasses_guidance() {
        let mut p = guided();
        make_suffering(&mut p, ProgramId(0), ProgramId(1));
        let (mut entry, mut st) = testutil::entry_pair();
        entry.bump(SlotIdx(4), 1, 63);
        let d = testutil::access(
            &mut p,
            &entry,
            &mut st,
            SlotIdx(4),
            ProgramId(0),
            false,
            Some(ProgramId(0)),
        );
        assert_eq!(d, Decision::Promote);
        let g = p.guidance_stats();
        assert_eq!((g.help_m2, g.protect_m1, g.protect_m1_product), (0, 0, 0));
    }

    #[test]
    fn diagnostics_expose_sfs() {
        let mut p = guided();
        make_suffering(&mut p, ProgramId(0), ProgramId(1));
        let d = p.diagnostics();
        assert!(d.guidance.is_some());
        assert_eq!(d.sfs.len(), 2);
        assert!(d.sfs[0].0 > d.sfs[1].0, "program 0 must look worse");
    }
}
