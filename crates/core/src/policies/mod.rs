//! Migration policies: the paper's contribution (MDM, RSM, ProFess) and
//! the baselines it compares against (PoM, CAMEO-style, MemPod/MEA, plus a
//! no-migration reference).
//!
//! All policies operate under the same PoM organization (paper §2.3 argues
//! this isolates the quality of migration decisions): on each served data
//! request the system consults the policy; the policy may request that the
//! accessed M2-resident block be promoted, swapping it with the group's
//! current M1 occupant. MemPod additionally migrates in batches on a fixed
//! interval via the [`MigrationPolicy::poll`] hook.

pub mod cameo;
pub mod mdm;
pub mod mempod;
pub mod pom;
pub mod profess;
pub mod rsm;
pub mod rsm_guided;
pub mod silcfm;
pub mod static_;

use profess_obs::TraceEvent;
use profess_types::ids::{ProgramId, SlotIdx};
use profess_types::{Cycle, GroupId};

use crate::org::StEntry;
use crate::regions::RegionClass;
use crate::stc::CachedEntry;
use rsm::{GuidanceCase, GuidanceStats};

/// A policy's account of one migration decision, filled into
/// [`AccessCtx::trace`] when the system requests it
/// ([`AccessCtx::want_trace`]); the system turns it into an
/// [`TraceEvent::MdmDecision`] event. Policies without a cost/benefit
/// model simply leave it empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTrace {
    /// RSM guidance case steering the decision (`"-"` outside ProFess).
    pub case: &'static str,
    /// The verdict name (an [`mdm::MdmVerdict`] name, or `"vetoed"` when
    /// guidance prohibited the swap before MDM ran).
    pub verdict: &'static str,
    /// Expected remaining accesses to the accessed M2 block.
    pub rem_m2: f64,
    /// Expected remaining accesses to the M1 occupant, when consulted.
    pub rem_m1: Option<f64>,
}

/// Context for a migration decision on a served data request.
///
/// `entry.ac` has already been bumped for this access (by the policy's
/// [`MigrationPolicy::write_weight`] for writes), matching the paper's
/// §3.2.3 ordering: "Upon an access to a block, the MC increments its
/// access counter in the STC", then assesses the benefit.
#[derive(Debug)]
pub struct AccessCtx<'a> {
    /// The accessed swap group.
    pub group: GroupId,
    /// Original slot (block identity) of the accessed block.
    pub orig_slot: SlotIdx,
    /// Actual slot the block currently occupies.
    pub actual_slot: SlotIdx,
    /// The accessing program (also the block's owner: programs only access
    /// their own pages).
    pub program: ProgramId,
    /// Whether this is a write.
    pub is_write: bool,
    /// Current cycle.
    pub now: Cycle,
    /// The group's cached STC entry (access counters, insertion QACs).
    pub entry: &'a CachedEntry,
    /// The group's architectural ST entry (PoM's competing counter lives
    /// here).
    pub st_entry: &'a mut StEntry,
    /// Original slot of the block currently resident in the M1 location.
    pub m1_resident: SlotIdx,
    /// Owner of the M1-resident block; `None` if that original block was
    /// never allocated (M1 location effectively vacant).
    pub m1_owner: Option<ProgramId>,
    /// The run's RSM verdict on this access ([`rsm::Rsm::case`]): set
    /// when the run is RSM-guided, the accessed block is M2-resident and
    /// the M1 occupant belongs to another program; `None` otherwise.
    pub guidance: Option<GuidanceCase>,
    /// The guidance case the policy applied (its response to
    /// `guidance`); the system counts it in the run's [`GuidanceStats`].
    pub applied: Option<GuidanceCase>,
    /// When true the system is tracing and asks the policy to fill
    /// [`AccessCtx::trace`]; policies must not pay for trace bookkeeping
    /// when this is false.
    pub want_trace: bool,
    /// The policy's decision account (response to `want_trace`).
    pub trace: Option<DecisionTrace>,
}

/// A policy's verdict for the accessed block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Leave the block where it is.
    Stay,
    /// Promote the accessed M2 block into the group's M1 location
    /// (swapping with the current occupant).
    Promote,
}

/// Per-block record handed to the policy when an ST entry is evicted from
/// the STC: only blocks with non-zero access counts are reported (zero
/// counts never update QAC or the MDM statistics; paper §3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictRecord {
    /// Block identity within the group.
    pub orig_slot: SlotIdx,
    /// The block's owner.
    pub owner: ProgramId,
    /// Access count accumulated during the residency.
    pub count: u32,
    /// The block's QAC value at insertion (`q_I`).
    pub q_i: u8,
}

/// End-of-run RSM diagnostics. An RSM-guided run reports its monitor's
/// final slowdown factors and the Table 7 cases its policy applied; any
/// other run reports what its policy's
/// [`MigrationPolicy::diagnostics`] returns (empty for the built-ins).
#[derive(Debug, Clone, Default)]
pub struct PolicyDiagnostics {
    /// Table 7 case counters, if the run is RSM-guided.
    pub guidance: Option<GuidanceStats>,
    /// Final (SF_A, SF_B) per program, if the run is RSM-guided.
    pub sfs: Vec<(f64, f64)>,
}

/// A hardware migration policy.
///
/// Object-safe: the system holds a `Box<dyn MigrationPolicy>`.
pub trait MigrationPolicy {
    /// Short policy name used in reports ("PoM", "MDM", "ProFess", ...).
    fn name(&self) -> &'static str;

    /// Weight of a write access when bumping block access counters
    /// (8 for PoM/MDM/ProFess, 1 for MemPod; paper §4.1).
    fn write_weight(&self) -> u32 {
        1
    }

    /// Called on every served data request (to M1- or M2-resident blocks).
    /// The returned decision is honoured only for M2-resident blocks.
    fn on_access(&mut self, ctx: &mut AccessCtx<'_>) -> Decision;

    /// Called once per served data request with the region class RSM
    /// counts it under (PoM and SILC-FM count served requests for their
    /// epochs; the system feeds the run's RSM itself).
    fn on_served(&mut self, _program: ProgramId, _class: RegionClass, _from_m1: bool) {}

    /// Called after a swap commits. `demoted` is the owner of the block
    /// pushed out of M1 (`None` if the M1 block was unallocated);
    /// `group_is_private` marks swaps inside a private region, which RSM
    /// does not count (paper §3.1.2). No built-in policy needs it.
    fn on_swap(
        &mut self,
        _promoted: ProgramId,
        _demoted: Option<ProgramId>,
        _group_is_private: bool,
    ) {
    }

    /// Called when an ST entry is evicted from the STC with one record per
    /// block that was accessed during the residency.
    fn on_stc_evict(&mut self, _records: &[EvictRecord]) {}

    /// Interval-based migrations (MemPod): returns blocks to promote now.
    fn poll(&mut self, _now: Cycle) -> Vec<(GroupId, SlotIdx)> {
        Vec::new()
    }

    /// Next cycle at which [`MigrationPolicy::poll`] wants to run.
    fn next_poll(&self) -> Option<Cycle> {
        None
    }

    /// End-of-run diagnostics of a run that is not RSM-guided (default:
    /// empty); a guided run reports its monitor's instead.
    fn diagnostics(&self) -> PolicyDiagnostics {
        PolicyDiagnostics::default()
    }

    /// Tells the policy whether the system is tracing. A policy with its
    /// own event source buffers events only while tracing is on; the
    /// default does nothing.
    fn set_tracing(&mut self, _on: bool) {}

    /// Drains events the policy buffered since the last call, stamping
    /// them with the current cycle. The default emits nothing (the
    /// system emits the RSM's `rsm_epoch` events itself).
    fn drain_trace(&mut self, _now: Cycle, _out: &mut Vec<TraceEvent>) {}

    /// Saves or loads the policy's mutable decision state for a mid-run
    /// snapshot (see [`profess_metrics::State`]). The default fails:
    /// the policy (as configured) cannot be snapshotted, and a run asked
    /// to preempt reports
    /// [`SnapshotUnsupported`](crate::errors::SimError::SnapshotUnsupported).
    /// Observability-only state (trace buffers) is excluded by contract:
    /// snapshot bytes must be identical with tracing on or off.
    fn state(&mut self, _c: &mut profess_metrics::StateCodec<'_>) -> Result<(), String> {
        Err("no snapshot support".to_string())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::stc::CachedEntry;

    /// Builds a cached entry + ST entry pair for decision tests.
    pub fn entry_pair() -> (CachedEntry, StEntry) {
        let mut stc = crate::stc::Stc::new(8, 8);
        stc.insert(GroupId(0), [0; SlotIdx::MAX]);
        let e = stc.peek(GroupId(0)).expect("cached").clone();
        (e, StEntry::default())
    }

    /// A read of `orig_slot` by `program` in an unguided run.
    fn ctx<'a>(
        entry: &'a CachedEntry,
        st: &'a mut StEntry,
        orig_slot: SlotIdx,
        program: ProgramId,
        m1_owner: Option<ProgramId>,
    ) -> AccessCtx<'a> {
        AccessCtx {
            group: GroupId(0),
            orig_slot,
            actual_slot: st.actual_of(orig_slot),
            program,
            is_write: false,
            now: Cycle(0),
            entry,
            m1_resident: st.m1_resident(),
            st_entry: st,
            m1_owner,
            guidance: None,
            applied: None,
            want_trace: false,
            trace: None,
        }
    }

    /// Runs `policy.on_access` for an access to `orig_slot` (already
    /// bumped into `entry`) by `program`, in a run that is not guided.
    pub fn access(
        policy: &mut dyn MigrationPolicy,
        entry: &CachedEntry,
        st: &mut StEntry,
        orig_slot: SlotIdx,
        program: ProgramId,
        is_write: bool,
        m1_owner: Option<ProgramId>,
    ) -> Decision {
        let mut c = ctx(entry, st, orig_slot, program, m1_owner);
        c.is_write = is_write;
        policy.on_access(&mut c)
    }

    /// Runs `policy.on_access` for a read of `orig_slot` by `program`
    /// under the RSM verdict `guidance`; returns the decision and the
    /// case the policy applied.
    pub fn guided(
        policy: &mut dyn MigrationPolicy,
        entry: &CachedEntry,
        st: &mut StEntry,
        orig_slot: SlotIdx,
        program: ProgramId,
        m1_owner: Option<ProgramId>,
        guidance: Option<GuidanceCase>,
    ) -> (Decision, Option<GuidanceCase>) {
        let mut c = ctx(entry, st, orig_slot, program, m1_owner);
        c.guidance = guidance;
        let d = policy.on_access(&mut c);
        (d, c.applied)
    }
}
