//! The probabilistic Migration-Decision Mechanism (MDM; paper §3.2).
//!
//! MDM predicts the *remaining* number of accesses to each block and
//! performs a swap only when the predicted benefit exceeds the swap cost
//! (`min_benefit`, the paper's K = 8). Blocks are classified per program
//! by their Quantized Access Counter value at STC insertion (`q_I`); the
//! per-program MDM counters of Table 6 provide Laplace-smoothed transition
//! probabilities (eq. 7) and average access counts per eviction-time class
//! (eq. 6), combined into an expected access count per class (eq. 5).

use profess_metrics::{State, StateCodec};
use profess_types::config::MdmParams;
use profess_types::ids::ProgramId;

use super::{AccessCtx, Decision, EvictRecord, MigrationPolicy};
use crate::org::qac;

/// Default `avg_cnt(q_E)` used before any statistics exist: the midpoints
/// of the Table 5 buckets (1–7, 8–31, 32+ with the 6-bit counter cap).
const DEFAULT_AVG: [f64; qac::NUM_Q] = [0.0, 4.0, 16.0, 48.0];

/// Phase of the MDM counter machinery (paper §3.2.2: an observation phase
/// with no `exp_cnt` updates, then an estimation phase recomputing every
/// `recompute_every` updates; counters reset at each observation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Observation,
    Estimation,
}

/// Per-program MDM state (Table 6 counters + registered expectations).
#[derive(Debug, Clone)]
pub struct MdmProgramState {
    accum_cnt: [u64; qac::NUM_Q],
    num_q_sum_i: [u64; qac::NUM_Q],
    num_q: [[u64; qac::NUM_Q]; qac::NUM_Q],
    num_q_sum_e: [u64; qac::NUM_Q],
    exp_cnt: [f64; qac::NUM_Q],
    phase: Phase,
    updates_in_phase: u64,
    since_recompute: u64,
    /// Total counter updates (diagnostics).
    pub total_updates: u64,
}

impl MdmProgramState {
    fn new() -> Self {
        let mut s = MdmProgramState {
            accum_cnt: [0; qac::NUM_Q],
            num_q_sum_i: [0; qac::NUM_Q],
            num_q: [[0; qac::NUM_Q]; qac::NUM_Q],
            num_q_sum_e: [0; qac::NUM_Q],
            exp_cnt: [0.0; qac::NUM_Q],
            phase: Phase::Observation,
            updates_in_phase: 0,
            since_recompute: 0,
            total_updates: 0,
        };
        s.recompute();
        s
    }

    /// Eq. 6: average access count per eviction-time class, with a bucket
    /// midpoint default before data exists.
    // Class indices are bounded by the geometry fixed at construction.
    fn avg_cnt(&self, q_e: usize) -> f64 {
        if self.num_q_sum_i[q_e] == 0 {
            DEFAULT_AVG[q_e]
        } else {
            self.accum_cnt[q_e] as f64 / self.num_q_sum_i[q_e] as f64
        }
    }

    /// Eq. 7: Laplace-smoothed transition probability.
    fn p(&self, q_e: usize, q_i: usize) -> f64 {
        (self.num_q[q_i][q_e] + 1) as f64 / (self.num_q_sum_e[q_i] + qac::NUM_QE as u64) as f64
    }

    /// Eq. 5: recompute the registered `exp_cnt(q_I)` values.
    fn recompute(&mut self) {
        for q_i in 0..qac::NUM_Q {
            let mut e = 0.0;
            for q_e in 1..qac::NUM_Q {
                e += self.avg_cnt(q_e) * self.p(q_e, q_i);
            }
            self.exp_cnt[q_i] = e;
        }
    }

    /// The registered expected access count for insertion class `q_i`.
    pub fn exp_cnt(&self, q_i: u8) -> f64 {
        self.exp_cnt[q_i as usize]
    }

    fn record(&mut self, params: &MdmParams, q_i: u8, q_e: u8, count: u32) {
        let (qi, qe) = (q_i as usize, q_e as usize);
        self.accum_cnt[qe] += u64::from(count);
        self.num_q_sum_i[qe] += 1;
        self.num_q[qi][qe] += 1;
        self.num_q_sum_e[qi] += 1;
        self.total_updates += 1;
        self.updates_in_phase += 1;
        match self.phase {
            Phase::Observation => {
                if self.updates_in_phase >= params.phase_updates {
                    self.recompute();
                    self.phase = Phase::Estimation;
                    self.updates_in_phase = 0;
                    self.since_recompute = 0;
                }
            }
            Phase::Estimation => {
                self.since_recompute += 1;
                if self.since_recompute >= params.recompute_every {
                    self.recompute();
                    self.since_recompute = 0;
                }
                if self.updates_in_phase >= params.phase_updates {
                    // Reset counters and start a new observation phase;
                    // the registered exp_cnt values persist.
                    self.accum_cnt = [0; qac::NUM_Q];
                    self.num_q_sum_i = [0; qac::NUM_Q];
                    self.num_q = [[0; qac::NUM_Q]; qac::NUM_Q];
                    self.num_q_sum_e = [0; qac::NUM_Q];
                    self.phase = Phase::Observation;
                    self.updates_in_phase = 0;
                }
            }
        }
    }
}

/// The decision core shared by the standalone MDM policy and ProFess.
#[derive(Debug)]
pub struct MdmCore {
    params: MdmParams,
    states: Vec<MdmProgramState>,
}

/// Outcome of the MDM cost-benefit analysis, annotated with which rule of
/// §3.2.3 fired (for diagnostics and ablation studies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdmVerdict {
    /// The M2 block's predicted remaining accesses fall short of
    /// `min_benefit`: no promotion.
    NoBenefit,
    /// Rule (a): the M1 location is vacant.
    VacantM1,
    /// Rule (b): the M1 block has not been accessed while another block in
    /// the group has.
    IdleM1,
    /// Rule (c.i): the M1 block's predicted remaining accesses are ≤ 0.
    ExhaustedM1,
    /// Rule (c.ii): the difference of remaining accesses justifies the
    /// swap cost.
    NetBenefit,
    /// Rule (c.ii) failed: keep the M1 block.
    KeepM1,
}

impl MdmVerdict {
    /// Whether this verdict promotes the M2 block.
    pub fn promotes(self) -> bool {
        matches!(
            self,
            MdmVerdict::VacantM1
                | MdmVerdict::IdleM1
                | MdmVerdict::ExhaustedM1
                | MdmVerdict::NetBenefit
        )
    }

    /// Stable snake_case name used in trace artifacts.
    pub fn name(self) -> &'static str {
        match self {
            MdmVerdict::NoBenefit => "no_benefit",
            MdmVerdict::VacantM1 => "vacant_m1",
            MdmVerdict::IdleM1 => "idle_m1",
            MdmVerdict::ExhaustedM1 => "exhausted_m1",
            MdmVerdict::NetBenefit => "net_benefit",
            MdmVerdict::KeepM1 => "keep_m1",
        }
    }
}

/// An [`MdmCore::assess`] result: the verdict plus the remaining-access
/// estimates that produced it (for trace events; `rem_m1` is present only
/// when the M1 occupant was actually consulted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdmAssessment {
    /// Which §3.2.3 rule fired.
    pub verdict: MdmVerdict,
    /// Predicted remaining accesses to the accessed M2 block (eq. 8).
    pub rem_m2: f64,
    /// Predicted remaining accesses to the M1 occupant, when consulted.
    pub rem_m1: Option<f64>,
}

impl MdmCore {
    /// Creates the core for `num_programs` programs.
    pub fn new(params: MdmParams, num_programs: usize) -> Self {
        MdmCore {
            params,
            states: (0..num_programs).map(|_| MdmProgramState::new()).collect(),
        }
    }

    /// The parameters in force.
    pub fn params(&self) -> &MdmParams {
        &self.params
    }

    /// Per-program state (read access, for diagnostics).
    // Program ids index the per-core vec built from config.
    pub fn program_state(&self, p: ProgramId) -> &MdmProgramState {
        &self.states[p.index()]
    }

    /// Predicted remaining accesses for a block of `program` with
    /// insertion class `q_i` and current count `cnt` (eq. 8).
    pub fn remaining(&self, program: ProgramId, q_i: u8, cnt: u32) -> f64 {
        self.states[program.index()].exp_cnt(q_i) - f64::from(cnt)
    }

    /// Full §3.2.3 analysis for an access context. `ignore_m1` implements
    /// ProFess Case 1 ("consider M1 vacant and use MDM").
    pub fn analyze(&self, ctx: &AccessCtx<'_>, ignore_m1: bool) -> MdmVerdict {
        self.assess(ctx, ignore_m1).verdict
    }

    /// [`MdmCore::analyze`] with the remaining-access estimates exposed
    /// (for trace events).
    pub fn assess(&self, ctx: &AccessCtx<'_>, ignore_m1: bool) -> MdmAssessment {
        debug_assert!(ctx.actual_slot.is_m2());
        let min_benefit = f64::from(self.params.min_benefit);
        let cnt2 = ctx.entry.ac[ctx.orig_slot.index()];
        let q2 = ctx.entry.q_i[ctx.orig_slot.index()];
        let rem2 = self.remaining(ctx.program, q2, cnt2);
        let done = |verdict, rem_m1| MdmAssessment {
            verdict,
            rem_m2: rem2,
            rem_m1,
        };
        if rem2 < min_benefit {
            return done(MdmVerdict::NoBenefit, None);
        }
        if ignore_m1 {
            return done(MdmVerdict::VacantM1, None);
        }
        let Some(p1) = ctx.m1_owner else {
            return done(MdmVerdict::VacantM1, None); // rule (a)
        };
        let cnt1 = ctx.entry.ac[ctx.m1_resident.index()];
        if cnt1 == 0 {
            // Rule (b): "M1 ... has not been accessed ... and some other
            // block in the same swap group has been accessed". Since the
            // requester's own access always exists, the condition is read
            // strictly: a block besides the requester and the M1 resident
            // must have been accessed during this residency (otherwise the
            // clause the paper wrote would be vacuous).
            let other_active = profess_types::SlotIdx::all()
                .any(|s| s != ctx.orig_slot && s != ctx.m1_resident && ctx.entry.ac[s.index()] > 0);
            if other_active {
                return done(MdmVerdict::IdleM1, None);
            }
            // Otherwise treat the M1 block as freshly observed: fall
            // through to the remaining-accesses comparison with its QAC
            // class and a zero count.
        }
        let q1 = ctx.entry.q_i[ctx.m1_resident.index()];
        let rem1 = self.remaining(p1, q1, cnt1);
        if rem1 <= 0.0 {
            done(MdmVerdict::ExhaustedM1, Some(rem1)) // rule (c.i)
        } else if rem2 - rem1 >= min_benefit {
            done(MdmVerdict::NetBenefit, Some(rem1)) // rule (c.ii)
        } else {
            done(MdmVerdict::KeepM1, Some(rem1))
        }
    }

    /// Feeds STC eviction records into the per-program counters.
    pub fn record_evictions(&mut self, records: &[EvictRecord]) {
        for r in records {
            debug_assert!(r.count > 0);
            let q_e = qac::quantize(r.count);
            let params = self.params;
            self.states[r.owner.index()].record(&params, r.q_i, q_e, r.count);
        }
    }
}

/// The per-program counter state; loading requires the same program
/// count.
impl State for MdmCore {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("states", self.states.as_mut_slice())
    }
}

/// `num_q` travels flattened row by row; `exp_cnt` as exact `f64` bit
/// patterns.
impl State for MdmProgramState {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("accum_cnt", &mut self.accum_cnt)?;
        c.field("num_q_sum_i", &mut self.num_q_sum_i)?;
        c.field("num_q", self.num_q.as_flattened_mut())?;
        c.field("num_q_sum_e", &mut self.num_q_sum_e)?;
        c.field("exp_cnt", &mut self.exp_cnt)?;
        let mut phase = u64::from(self.phase == Phase::Estimation);
        c.field("phase", &mut phase)?;
        self.phase = match phase {
            0 => Phase::Observation,
            1 => Phase::Estimation,
            p => return Err(format!("phase: unknown MDM phase {p}")),
        };
        c.field("updates_in_phase", &mut self.updates_in_phase)?;
        c.field("since_recompute", &mut self.since_recompute)?;
        c.field("total_updates", &mut self.total_updates)
    }
}

/// The standalone MDM policy (maximizes performance, ignores fairness;
/// paper §3.2 / §5.1–§5.3).
#[derive(Debug)]
pub struct MdmPolicy {
    core: MdmCore,
}

impl MdmPolicy {
    /// Creates the policy.
    pub fn new(params: MdmParams, num_programs: usize) -> Self {
        MdmPolicy {
            core: MdmCore::new(params, num_programs),
        }
    }

    /// Access to the decision core (diagnostics).
    pub fn core(&self) -> &MdmCore {
        &self.core
    }
}

impl MigrationPolicy for MdmPolicy {
    fn name(&self) -> &'static str {
        "MDM"
    }

    fn write_weight(&self) -> u32 {
        self.core.params.write_weight
    }

    fn on_access(&mut self, ctx: &mut AccessCtx<'_>) -> Decision {
        if ctx.actual_slot.is_m1() {
            return Decision::Stay;
        }
        let a = self.core.assess(ctx, false);
        if ctx.want_trace {
            ctx.trace = Some(super::DecisionTrace {
                case: "-",
                verdict: a.verdict.name(),
                rem_m2: a.rem_m2,
                rem_m1: a.rem_m1,
            });
        }
        if a.verdict.promotes() {
            Decision::Promote
        } else {
            Decision::Stay
        }
    }

    fn on_stc_evict(&mut self, records: &[EvictRecord]) {
        self.core.record_evictions(records);
    }

    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        self.core.state(c)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use profess_types::ids::SlotIdx;

    fn params() -> MdmParams {
        MdmParams::paper()
    }

    fn core_with_stats(hot_q: u8) -> MdmCore {
        // Train program 0 so that blocks inserted with q_i = hot_q are
        // expected to be very hot, and everything else cold.
        let mut core = MdmCore::new(
            MdmParams {
                phase_updates: 10,
                recompute_every: 1,
                ..params()
            },
            2,
        );
        let mut records = Vec::new();
        for _ in 0..40 {
            records.push(EvictRecord {
                orig_slot: SlotIdx(1),
                owner: ProgramId(0),
                count: 50, // q_e = HIGH
                q_i: hot_q,
            });
            records.push(EvictRecord {
                orig_slot: SlotIdx(2),
                owner: ProgramId(0),
                count: 1, // q_e = LOW
                q_i: 0,
            });
        }
        core.record_evictions(&records);
        core
    }

    #[test]
    fn default_expectation_is_bucket_average() {
        let s = MdmProgramState::new();
        // (4 + 16 + 48) / 3 with uniform Laplace prior.
        let e = s.exp_cnt(0);
        assert!((e - (4.0 + 16.0 + 48.0) / 3.0).abs() < 1e-9, "{e}");
    }

    #[test]
    fn training_shifts_expectations() {
        let core = core_with_stats(qac::HIGH);
        let hot = core.program_state(ProgramId(0)).exp_cnt(qac::HIGH);
        let cold = core.program_state(ProgramId(0)).exp_cnt(0);
        assert!(
            hot > 35.0,
            "blocks with high q_i should be expected hot: {hot}"
        );
        assert!(cold < 15.0, "unseen blocks should be expected cold: {cold}");
        // Program 1 never trained: still at defaults.
        let other = core.program_state(ProgramId(1)).exp_cnt(qac::HIGH);
        assert!((other - (4.0 + 16.0 + 48.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn laplace_smoothing_keeps_probabilities_positive() {
        let s = MdmProgramState::new();
        for qi in 0..qac::NUM_Q {
            let mut total = 0.0;
            for qe in 1..qac::NUM_Q {
                let p = s.p(qe, qi);
                assert!(p > 0.0 && p < 1.0);
                total += p;
            }
            assert!((total - 1.0).abs() < 1e-9, "probabilities sum to 1");
        }
    }

    #[test]
    fn verdict_no_benefit_for_predicted_cold_block() {
        let core = core_with_stats(qac::HIGH);
        let mut policy = MdmPolicy {
            core: core_with_stats(qac::HIGH),
        };
        let _ = core;
        let (mut entry, mut st) = testutil::entry_pair();
        // q_i = 0 (unseen) and already counted 12 accesses: remaining =
        // exp(0) - 12 < 8 under the trained stats.
        entry.q_i[4] = 0;
        entry.bump(SlotIdx(4), 12, 63);
        let d = testutil::access(
            &mut policy,
            &entry,
            &mut st,
            SlotIdx(4),
            ProgramId(0),
            false,
            None,
        );
        assert_eq!(d, Decision::Stay);
    }

    #[test]
    fn promotes_predicted_hot_block_on_first_access() {
        let mut policy = MdmPolicy {
            core: core_with_stats(qac::HIGH),
        };
        let (mut entry, mut st) = testutil::entry_pair();
        entry.q_i[4] = qac::HIGH;
        entry.bump(SlotIdx(4), 1, 63);
        let d = testutil::access(
            &mut policy,
            &entry,
            &mut st,
            SlotIdx(4),
            ProgramId(0),
            false,
            None,
        );
        assert_eq!(d, Decision::Promote, "rule (a): vacant M1");
    }

    #[test]
    fn rule_b_promotes_over_idle_m1_block() {
        let mut policy = MdmPolicy {
            core: core_with_stats(qac::HIGH),
        };
        let (mut entry, mut st) = testutil::entry_pair();
        entry.q_i[4] = qac::HIGH;
        entry.bump(SlotIdx(4), 1, 63);
        // M1 occupied (owner exists) but its AC is 0.
        let d = testutil::access(
            &mut policy,
            &entry,
            &mut st,
            SlotIdx(4),
            ProgramId(0),
            false,
            Some(ProgramId(1)),
        );
        assert_eq!(d, Decision::Promote);
    }

    #[test]
    fn rule_c_keeps_hot_m1_block() {
        let mut policy = MdmPolicy {
            core: core_with_stats(qac::HIGH),
        };
        let (mut entry, mut st) = testutil::entry_pair();
        // M2 block: expected hot but so is the M1 block, freshly started.
        entry.q_i[4] = qac::HIGH;
        entry.bump(SlotIdx(4), 1, 63);
        entry.q_i[0] = qac::HIGH;
        entry.bump(SlotIdx::M1, 2, 63);
        let d = testutil::access(
            &mut policy,
            &entry,
            &mut st,
            SlotIdx(4),
            ProgramId(0),
            false,
            Some(ProgramId(0)),
        );
        // rem2 ~ rem1 (difference ~1 < 8): keep.
        assert_eq!(d, Decision::Stay);
    }

    #[test]
    fn rule_ci_promotes_over_exhausted_m1_block() {
        let mut policy = MdmPolicy {
            core: core_with_stats(qac::HIGH),
        };
        let (mut entry, mut st) = testutil::entry_pair();
        entry.q_i[4] = qac::HIGH;
        entry.bump(SlotIdx(4), 1, 63);
        // M1 block predicted cold (q_i = 0) but has consumed 20 accesses:
        // remaining <= 0.
        entry.q_i[0] = 0;
        entry.bump(SlotIdx::M1, 20, 63);
        let d = testutil::access(
            &mut policy,
            &entry,
            &mut st,
            SlotIdx(4),
            ProgramId(0),
            false,
            Some(ProgramId(1)),
        );
        assert_eq!(d, Decision::Promote);
    }

    #[test]
    fn phase_machinery_resets_counters() {
        let params = MdmParams {
            phase_updates: 4,
            recompute_every: 2,
            ..MdmParams::paper()
        };
        let mut s = MdmProgramState::new();
        for _ in 0..4 {
            s.record(&params, 0, qac::HIGH, 40);
        }
        assert_eq!(s.phase, Phase::Estimation);
        assert!(s.exp_cnt(0) > 20.0, "observation phase trained upward");
        for _ in 0..4 {
            s.record(&params, 0, qac::LOW, 2);
        }
        assert_eq!(s.phase, Phase::Observation);
        assert_eq!(s.num_q_sum_e[0], 0, "counters reset at observation start");
        assert_eq!(s.total_updates, 8);
    }

    #[test]
    fn verdict_promotes_classification() {
        assert!(MdmVerdict::VacantM1.promotes());
        assert!(MdmVerdict::IdleM1.promotes());
        assert!(MdmVerdict::ExhaustedM1.promotes());
        assert!(MdmVerdict::NetBenefit.promotes());
        assert!(!MdmVerdict::NoBenefit.promotes());
        assert!(!MdmVerdict::KeepM1.promotes());
    }
}
