//! Set-up is gated by the work it does, not the time it takes (DESIGN.md
//! §12.4): the frame allocator's free lists are built once per geometry
//! and seed per process, and the configuration fingerprint is computed
//! only when a snapshot is saved or restored. The counters are
//! per-thread and exist in debug builds only; the report-identity test
//! runs in every build.
//!
//! This binary's tests use seeds no other test in it uses, so each
//! starts from a table that does not hold its key.

mod common;

use common::{multi_builder, report_string, PINNED};
use profess::metrics::fnv64;
use profess::prelude::*;

/// The work counters exist in debug builds only.
#[cfg(debug_assertions)]
mod counters {
    use super::common::preempted;
    use super::*;
    use profess::core::work::{config_fingerprints, free_list_builds};
    use profess::core::SimError;

    /// A short single-program run at `seed` under `pk`.
    fn short_run(seed: u64, pk: PolicyKind) -> SystemBuilder {
        let mut cfg = SystemConfig::scaled_quad();
        cfg.seed = seed;
        SystemBuilder::new(cfg)
            .policy(pk)
            .spec_program(SpecProgram::Milc, 3_000)
    }

    #[test]
    fn systems_share_one_free_list_build_and_fingerprint_only_for_snapshots() {
        let seed = 0x5E70_0001;
        let (builds, fps) = (free_list_builds(), config_fingerprints());
        let mut straight = Vec::new();
        for pk in [PolicyKind::Pom, PolicyKind::Mdm, PolicyKind::Profess] {
            straight.push(short_run(seed, pk).try_run().expect("runs"));
        }
        assert_eq!(free_list_builds() - builds, 1, "three systems, one key");
        assert_eq!(
            config_fingerprints() - fps,
            0,
            "no snapshot, no fingerprint"
        );

        // A snapshot and its restore compute one fingerprint each.
        let half = straight[1].elapsed_cycles / 2;
        let snap = preempted(short_run(seed, PolicyKind::Mdm).snapshot_at(half));
        assert_eq!(config_fingerprints() - fps, 1);
        let resumed = short_run(seed, PolicyKind::Mdm)
            .restore(&snap)
            .try_run()
            .expect("resumes");
        assert_eq!(config_fingerprints() - fps, 2);
        assert_eq!(report_string(&resumed), report_string(&straight[1]));

        // A restore under another policy still compares fingerprints, and
        // they differ.
        let err = short_run(seed, PolicyKind::Pom)
            .restore(&snap)
            .try_run()
            .expect_err("mismatched config must be rejected");
        assert!(
            matches!(err, SimError::SnapshotConfigMismatch { .. }),
            "{err:?}"
        );
        assert_eq!(config_fingerprints() - fps, 3);
        assert_eq!(free_list_builds() - builds, 1, "restores reuse the key");
    }
}

/// One multiprogram cell gives one report whether the template table
/// is cold, warm, or read by two threads at once: the pinned quad
/// fingerprint.
#[test]
fn cold_warm_and_concurrent_cells_give_the_pinned_report() {
    let pk = PolicyKind::Profess;
    let i = PolicyKind::ALL
        .iter()
        .position(|&p| p == pk)
        .expect("a pinned policy");
    let pinned = PINNED[i].2;
    let fp = |b: SystemBuilder| fnv64(report_string(&b.try_run().expect("runs")).as_bytes());

    #[cfg(debug_assertions)]
    let builds = profess::core::work::free_list_builds();
    let cold = fp(multi_builder(pk));
    #[cfg(debug_assertions)]
    assert_eq!(
        profess::core::work::free_list_builds() - builds,
        1,
        "the first run builds"
    );
    let warm = fp(multi_builder(pk));
    #[cfg(debug_assertions)]
    assert_eq!(
        profess::core::work::free_list_builds() - builds,
        1,
        "the second run reuses"
    );
    // Both threads leave the barrier together and reach the table at
    // about the same time.
    let start = std::sync::Barrier::new(2);
    let both: Vec<u64> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let b = multi_builder(pk);
                    start.wait();
                    fp(b)
                })
            })
            .collect();
        runs.into_iter()
            .map(|r| r.join().expect("a cell thread"))
            .collect()
    });
    assert_eq!([cold, warm, both[0], both[1]], [pinned; 4]);
}
