//! Shared fixtures for the report-pinning suites (`fingerprints`,
//! `snapshot`): the full policy grid, the pinned
//! golden table, and the builders that produce the pinned
//! configurations. Keeping these in one place guarantees the
//! snapshot-equivalence matrix exercises *exactly* the runs whose
//! bytes the fingerprint suite pins.
#![allow(dead_code)] // each test binary uses its own subset

use profess::prelude::*;
use profess::report::report_to_json;

/// `(policy name, single-program hash, quad-workload hash)` per
/// [`PolicyKind::ALL`] entry, in its order — harvested
/// from the pre-observability simulator; see `tests/fingerprints.rs`
/// module docs for re-pinning.
pub const PINNED: [(&str, u64, u64); 9] = [
    ("Static", 0xa53873a1883f77d1, 0x25a635d3cb1129e7),
    ("CAMEO", 0xeac170ceec3806f3, 0xfbabc8d0021a5d49),
    ("PoM", 0x3aad6ce50fb67823, 0xfecd8037d568b763),
    ("MemPod", 0x7dee4dc3f806bfdf, 0x9e03a6a2adbda9a1),
    ("MDM", 0xcdd1dc3568d3d9bd, 0xbf7552fb6d3d0757),
    ("ProFess", 0xdc551da36203c4ca, 0xc063fe854a19db8e),
    ("ProFess-noC3", 0xbde2cb39cb4c9684, 0x0889034a0c1796aa),
    ("SILC-FM", 0xa655ae7f97e122f9, 0x9f9ffdc5d44bd4e3),
    ("RSM+PoM", 0x08e1560f0e5d67bd, 0x8271fa4d89e1b972),
];

/// `(single-program hash, quad-workload hash)` of the halfway snapshot's
/// wire text (`SystemSnapshot::to_json().to_string()`) per
/// [`PolicyKind::ALL`] entry, in the same order as [`PINNED`]. Pins the
/// snapshot encoding itself: a change to the payload schema must come
/// with a `SNAPSHOT_VERSION` bump. The bytes also move, with the version
/// kept, when the configuration's `Debug` text changes (it is inside
/// `config_fp`, so an older snapshot is refused as a configuration
/// mismatch) or when the order of saved entries does. Re-pin with
/// `PROFESS_BLESS_FINGERPRINTS=1` (see `tests/snapshot.rs`).
pub const SNAPSHOT_PINNED: [(u64, u64); 9] = [
    (0x2ef7f17b7f7ca848, 0x0be39e6fe3ad1e7f), // Static
    (0xc627049c34a8bd04, 0x136e08275afed53d), // CAMEO
    (0x3813ea57e93a779a, 0x4ee0a2707a096e40), // PoM
    (0x1613a9e1893ce823, 0x487303e02f481b34), // MemPod
    (0x0d5fd652b883a877, 0xc6f8a54654078659), // MDM
    (0xef077ab470cc53f5, 0xab06e2827013026c), // ProFess
    (0x0e9f667ca4c83e77, 0x4244978aab23dd31), // ProFess-noC3
    (0x04dedba08acde4c5, 0xc0a2d1819f36e6d0), // SILC-FM
    (0xc3f022ce9f5a5725, 0x50da63d3234fe819), // RSM+PoM
];

/// The builder behind the pinned single-program (Milc) fingerprints.
pub fn single_builder(pk: PolicyKind) -> SystemBuilder {
    let mut cfg = SystemConfig::scaled_single();
    cfg.seed = 7;
    cfg.rsm.m_samp = 1024;
    SystemBuilder::new(cfg).policy(pk).spec_program(
        SpecProgram::Milc,
        SpecProgram::Milc.budget_for_misses(5_000),
    )
}

/// The builder behind the pinned quad-workload fingerprints.
pub fn multi_builder(pk: PolicyKind) -> SystemBuilder {
    let mut cfg = SystemConfig::scaled_quad();
    cfg.seed = 99;
    cfg.rsm.m_samp = 512;
    let w = workloads()[0];
    let mut b = SystemBuilder::new(cfg).policy(pk);
    for p in w.programs {
        b = b.spec_program(p, p.budget_for_misses(2_000));
    }
    b
}

/// The policy subset pinned per adversarial workload family (the
/// characterization policies of DESIGN.md §13; the full nine-policy
/// grid would triple the suite's runtime for no extra drift coverage).
pub const FAMILY_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Pom,
    PolicyKind::MemPod,
    PolicyKind::Mdm,
    PolicyKind::Profess,
];

/// `(family id, [hash per FAMILY_POLICIES entry])` — harvested via
/// `PROFESS_BLESS_FINGERPRINTS=1`; see `tests/fingerprints.rs`.
pub const FAMILY_PINNED: [(&str, [u64; 4]); 4] = [
    (
        "phase01",
        [
            0x28422fcd0b2b0535,
            0x176ba2c5e9678d09,
            0x94256f58a59ba355,
            0x0fde4005b077b740,
        ],
    ),
    (
        "burst01",
        [
            0x8acc20e9ea3a019f,
            0x142c7418d42f9358,
            0x5c0b0ff57e6e048f,
            0xc3bf3c123a11dbae,
        ],
    ),
    (
        "tenant01",
        [
            0xc38fe0baaba3f26e,
            0x35cc70ca56be9499,
            0x62c70b6b5578da67,
            0x543dbf3733292fc4,
        ],
    ),
    (
        "churn01",
        [
            0x13f23fac9d2a28c9,
            0x15b4d369d867dbd9,
            0x8590b0cf92c85f03,
            0xe16a650265a24154,
        ],
    ),
];

/// Per-program miss budget of the pinned family runs.
pub const FAMILY_MISSES: u64 = 2_000;

/// The configuration behind the pinned family fingerprints (shared
/// with `tests/fairness_attack.rs`, whose solo references must run
/// under exactly this config).
pub fn family_config() -> SystemConfig {
    let mut cfg = SystemConfig::scaled_quad();
    cfg.seed = 99;
    cfg.rsm.m_samp = 512;
    cfg
}

/// The builder behind a pinned family fingerprint: the quad system on
/// one adversarial workload family, same seed discipline as
/// [`multi_builder`].
pub fn family_builder(family: &Workload, pk: PolicyKind) -> SystemBuilder {
    let mut b = SystemBuilder::new(family_config()).policy(pk);
    for p in family.programs {
        b = b.spec_program(p, p.budget_for_misses(FAMILY_MISSES));
    }
    b
}

/// Runs `b`, which must be preempted, and returns its snapshot.
pub fn preempted(b: SystemBuilder) -> Box<SystemSnapshot> {
    match b.try_run() {
        Err(profess::core::SimError::Preempted { snapshot }) => snapshot,
        other => panic!("expected a preemption, got {other:?}"),
    }
}

/// The canonical report serialization the fingerprints pin.
pub fn report_string(r: &SystemReport) -> String {
    report_to_json(r).to_string()
}
