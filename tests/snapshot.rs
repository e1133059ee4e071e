//! Snapshot-equivalence suite (DESIGN.md §11): a run preempted into a
//! [`SystemSnapshot`] and resumed must be **byte-identical** to a
//! straight-through run.
//!
//! The matrix covers the exact (policy × workload × seed) grid whose
//! report bytes `tests/fingerprints.rs` pins (shared via
//! `tests/common`), so snapshot/restore is proven against the golden
//! fingerprints, not merely self-consistent. On top of the matrix:
//! warm-started supervised sweeps at 1 and 4 threads, tracing on/off
//! equivalence, and property tests over the wire format (byte
//! stability, single-byte corruption rejection, version gating) with a
//! replayed regression corpus (`tests/snapshot.proptest-regressions`).

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use common::{multi_builder, preempted, report_string, single_builder, PINNED, SNAPSHOT_PINNED};
use profess::metrics::fnv64;
use profess::obs::{TraceConfig, TraceEvent};
use profess::prelude::*;
use profess_bench::harness::TraceCollector;
use profess_bench::{
    checkpoint, normalized_sweep_supervised, rows_to_json, FaultPlan, Journal, Pool, SnapshotMode,
    SuperviseConfig,
};
use profess_check::strategy::{tuple2, u64_range};
use profess_check::{check_with, corpus_from_proptest_file, prop_assert, Config};
use profess_core::SimError;

/// Preempts `builder`'s run at `cycle`, round-trips the snapshot
/// through its textual wire form, resumes from the re-parsed snapshot,
/// and returns the resumed run's serialized report together with the
/// FNV-1a of the snapshot's wire text.
fn preempt_roundtrip_resume(
    preempt: SystemBuilder,
    resume: SystemBuilder,
    cycle: u64,
    label: &str,
) -> (String, u64) {
    let snap = match preempt.snapshot_at(cycle).try_run() {
        Err(SimError::Preempted { snapshot }) => snapshot,
        Ok(_) => panic!("{label}: run completed before cycle {cycle}"),
        Err(e) => panic!("{label}: preemptible run failed: {e}"),
    };
    assert!(snap.clock() >= cycle, "{label}: preempted too early");
    let text = snap.to_json().to_string();
    let reparsed = SystemSnapshot::parse(&text)
        .unwrap_or_else(|e| panic!("{label}: snapshot did not round-trip: {e}"));
    assert_eq!(
        reparsed.to_json().to_string(),
        text,
        "{label}: snapshot text not byte-stable"
    );
    let report = report_string(&resume.restore(&reparsed).try_run().unwrap());
    (report, fnv64(text.as_bytes()))
}

/// The acceptance matrix: for every policy in the pinned grid, single
/// and quad, a run preempted at its halfway clock and resumed from the
/// serialized snapshot emits the exact pinned golden bytes. The
/// halfway snapshot's wire text is pinned too (`SNAPSHOT_PINNED`), so
/// an encoding change made without a `SNAPSHOT_VERSION` bump fails
/// here. Re-pin with `PROFESS_BLESS_FINGERPRINTS=1` after a deliberate
/// format change (and a version bump).
#[test]
fn snapshot_restore_matches_pinned_fingerprints() {
    let bless = std::env::var("PROFESS_BLESS_FINGERPRINTS").is_ok();
    let mut table = String::new();
    let mut bad = Vec::new();
    for (i, pk) in PolicyKind::ALL.iter().enumerate() {
        let (name, pinned_single, pinned_multi) = PINNED[i];
        let mut snap_hashes = [0u64; 2];
        for (j, (kind, pinned, pinned_snap, build)) in [
            (
                "single",
                pinned_single,
                SNAPSHOT_PINNED[i].0,
                &single_builder as &dyn Fn(PolicyKind) -> SystemBuilder,
            ),
            ("multi", pinned_multi, SNAPSHOT_PINNED[i].1, &multi_builder),
        ]
        .into_iter()
        .enumerate()
        {
            let label = format!("{name}/{kind}");
            let r: SystemReport = build(*pk).try_run().unwrap();
            let straight = report_string(&r);
            assert_eq!(
                fnv64(straight.as_bytes()),
                pinned,
                "{label}: straight-through run drifted from the pinned fingerprint"
            );
            let mid = (r.elapsed_cycles / 2).max(1);
            let (resumed, snap_hash) =
                preempt_roundtrip_resume(build(*pk), build(*pk), mid, &label);
            assert_eq!(
                resumed, straight,
                "{label}: snapshot→restore→run diverged from the straight-through bytes"
            );
            snap_hashes[j] = snap_hash;
            if snap_hash != pinned_snap {
                bad.push(format!(
                    "{label}: snapshot text 0x{snap_hash:016x} (pinned 0x{pinned_snap:016x})"
                ));
            }
        }
        table.push_str(&format!(
            "    (0x{:016x}, 0x{:016x}), // {name}\n",
            snap_hashes[0], snap_hashes[1]
        ));
    }
    if bless {
        println!("const SNAPSHOT_PINNED: [(u64, u64); 9] = [\n{table}];");
        return;
    }
    assert!(
        bad.is_empty(),
        "snapshot wire text drifted from the pinned hashes (bump SNAPSHOT_VERSION \
         if the change is deliberate):\n{}\n\nfresh table:\n{table}",
        bad.join("\n")
    );
}

/// `try_run` is the only run method, so a preemption is its error value:
/// `SimError::Preempted` carries the snapshot itself, and resuming that
/// snapshot reproduces the straight-through report byte for byte.
#[test]
fn try_run_preemption_error_resumes_byte_identically() {
    let build = || multi_builder(PolicyKind::Profess);
    let r = build().try_run().unwrap();
    let err = build()
        .snapshot_at(r.elapsed_cycles / 3)
        .try_run()
        .expect_err("the run must stop at the snapshot clock");
    assert_eq!(err.label(), "preempted");
    let SimError::Preempted { snapshot } = err else {
        unreachable!("label checked above")
    };
    let resumed = build().restore(&snapshot).try_run().unwrap();
    assert_eq!(report_string(&resumed), report_string(&r));
}

/// Tracing is excluded from the format: a traced run preempts into the
/// same snapshot bytes as an untraced one, and resuming (traced or not)
/// reproduces the straight-through report.
#[test]
fn snapshot_is_identical_with_tracing_on_and_off() {
    let pk = PolicyKind::Profess;
    let r = single_builder(pk).try_run().unwrap();
    let straight = report_string(&r);
    let mid = (r.elapsed_cycles / 2).max(1);

    let snap_of = |trace: TraceConfig| {
        preempted(single_builder(pk).trace(trace).snapshot_at(mid))
            .to_json()
            .to_string()
    };
    let untraced = snap_of(TraceConfig::off());
    let traced = snap_of(TraceConfig::on());
    assert_eq!(
        traced, untraced,
        "tracing leaked into the snapshot wire bytes"
    );

    let snap = SystemSnapshot::parse(&untraced).expect("parse");
    for trace in [TraceConfig::off(), TraceConfig::on()] {
        let resumed = single_builder(pk)
            .trace(trace)
            .restore(&snap)
            .try_run()
            .unwrap();
        assert_eq!(
            report_string(&resumed),
            straight,
            "resume with tracing {:?} diverged",
            trace.enabled
        );
    }
}

/// The `rsm_epoch` and `mdm_decision` events of `r`'s trace stamped at
/// or after cycle `from`, in emission order.
fn guidance_events_from(r: &SystemReport, from: u64) -> Vec<TraceEvent> {
    let log = r.trace.as_ref().expect("tracing was on");
    log.events
        .iter()
        .filter(|e| match e {
            TraceEvent::RsmEpoch { at, .. } | TraceEvent::MdmDecision { at, .. } => *at >= from,
            _ => false,
        })
        .cloned()
        .collect()
}

/// A guided run's monitor travels in its snapshot, so a traced restore
/// of an untraced halfway snapshot continues it: the RSM periods and the
/// guided decisions after the snapshot clock equal the straight-through
/// traced run's. PoM is left out on purpose: its run is not guided, so
/// its monitor is only observed, stays out of the snapshot, and a
/// restored traced run starts it afresh.
#[test]
fn restored_traced_guided_run_continues_the_monitor() {
    // Large enough that no event after the snapshot clock is dropped.
    let trace = TraceConfig {
        capacity: 1 << 20,
        ..TraceConfig::on()
    };
    for pk in [
        PolicyKind::Profess,
        PolicyKind::ProfessNoCase3,
        PolicyKind::RsmPom,
    ] {
        let straight = multi_builder(pk).trace(trace).try_run().unwrap();
        let mid = (straight.elapsed_cycles / 2).max(1);
        let snap = preempted(multi_builder(pk).trace(TraceConfig::off()).snapshot_at(mid));
        let resumed = multi_builder(pk)
            .trace(trace)
            .restore(&snap)
            .try_run()
            .unwrap();
        let want = guidance_events_from(&straight, snap.clock());
        let got = guidance_events_from(&resumed, snap.clock());
        assert!(
            want.iter().any(|e| e.kind() == "rsm_epoch"),
            "{pk:?}: no RSM period closes after the snapshot"
        );
        assert_eq!(
            got.len(),
            want.len(),
            "{pk:?}: event counts after cycle {}",
            snap.clock()
        );
        assert!(got == want, "{pk:?}: the restored monitor diverged");
    }
}

/// A fresh journal path unique to this process and call site.
fn temp_journal(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "profess-snapshot-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

/// Warm-started sweeps: every cell's first attempt is preempted into a
/// journaled snapshot; the supervisor's retry resumes it. The resulting
/// rows must be byte-identical to an uninterrupted sweep at 1 and 4
/// threads, and the journaled snapshots must strict-decode (what
/// `profess-validate journal` enforces in CI).
#[test]
fn warm_started_sweep_is_byte_identical() {
    let ws = workloads();
    let subset = [ws[0]];
    let mut cfg = SystemConfig::scaled_quad();
    cfg.seed = 11;
    cfg.rsm.m_samp = 512;
    for threads in [1usize, 4] {
        let pool = Pool::new(threads);
        let sweep = |sup: &SuperviseConfig, journal: &Journal, snap: &SnapshotMode| {
            normalized_sweep_supervised(
                &pool,
                &cfg,
                PolicyKind::Mdm,
                2_000,
                &subset,
                sup,
                journal,
                snap,
                &mut TraceCollector::disabled(),
            )
        };
        let strict = SuperviseConfig {
            retries: 0,
            timeout: None,
            faults: FaultPlan::none(),
        };
        let baseline = sweep(&strict, &Journal::disabled(), &SnapshotMode::disabled());
        assert!(baseline.all_ok(), "baseline must be fault-free");
        let golden = rows_to_json(&baseline.rows);

        // Preempt every cell's first attempt almost immediately; one
        // retry resumes each from its journaled snapshot.
        let path = temp_journal(&format!("warm{threads}"));
        let journal = Journal::load(&path).expect("create journal");
        let retrying = SuperviseConfig {
            retries: 1,
            timeout: None,
            faults: FaultPlan::none(),
        };
        let snap = SnapshotMode {
            on_cancel: false,
            at: Some(1),
        };
        let run = sweep(&retrying, &journal, &snap);
        assert!(run.all_ok(), "warm-started sweep must complete");
        assert_eq!(run.skipped_malformed, 0);
        let preempted: Vec<_> = run
            .cells
            .iter()
            .filter(|c| c.history.iter().any(|h| h.contains("preempted")))
            .collect();
        assert_eq!(
            preempted.len(),
            run.cells.len(),
            "every cell's first attempt must have been preempted"
        );
        assert!(preempted.iter().all(|c| c.attempts == 2));
        // Preemption hands the snapshot back as a value, not a panic.
        for c in &run.cells {
            assert!(
                c.history[0].starts_with("attempt 1: preempted into snapshot at cycle "),
                "{}: {:?}",
                c.label,
                c.history
            );
            assert!(
                c.history.iter().all(|h| !h.contains("panicked")),
                "{}: {:?}",
                c.label,
                c.history
            );
        }
        assert_eq!(
            rows_to_json(&run.rows),
            golden,
            "warm-started sweep diverged from the uninterrupted sweep at {threads} thread(s)"
        );
        drop(journal);

        // The journal holds a strict-decodable snapshot per cell.
        let entries = checkpoint::entries_of_file(&path).expect("journal strict-decodes");
        let snaps: Vec<_> = entries
            .iter()
            .filter(|(k, _)| k.starts_with("snapshot|"))
            .collect();
        assert_eq!(snaps.len(), run.cells.len(), "one snapshot per cell");
        for (key, payload) in snaps {
            SystemSnapshot::from_json(payload)
                .unwrap_or_else(|e| panic!("journaled snapshot {key} invalid: {e}"));
        }
        std::fs::remove_file(&path).ok();
    }
}

/// A small preempted run's snapshot text, computed once for the
/// property tests below.
fn fixture_snapshot_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let small = || {
            let mut cfg = SystemConfig::scaled_single();
            cfg.seed = 7;
            cfg.rsm.m_samp = 1024;
            SystemBuilder::new(cfg)
                .policy(PolicyKind::Mdm)
                .spec_program(SpecProgram::Milc, SpecProgram::Milc.budget_for_misses(500))
        };
        let mid = (small().try_run().unwrap().elapsed_cycles / 2).max(1);
        preempted(small().snapshot_at(mid)).to_json().to_string()
    })
}

/// Property: the wire text is byte-stable under parse→render, and *any*
/// single-byte corruption is rejected with a typed error — never a
/// panic, never a silent acceptance. Historical failures recorded in
/// `tests/snapshot.proptest-regressions` are replayed first.
#[test]
fn snapshot_text_rejects_any_single_byte_corruption() {
    let corpus = corpus_from_proptest_file("tests/snapshot.proptest-regressions");
    assert!(!corpus.is_empty(), "regression corpus went missing");
    let text = fixture_snapshot_text();
    let reparsed = SystemSnapshot::parse(text).expect("fixture parses");
    assert_eq!(reparsed.to_json().to_string(), text, "not byte-stable");

    const CHARSET: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz{}[]\",:";
    check_with(
        &Config::default(),
        &corpus,
        "snapshot_text_rejects_any_single_byte_corruption",
        tuple2(u64_range(0..1 << 48), u64_range(0..CHARSET.len() as u64)),
        |&(pos, pick)| {
            let mut bytes = text.as_bytes().to_vec();
            let i = (pos % bytes.len() as u64) as usize;
            let mut c = CHARSET[pick as usize % CHARSET.len()];
            if c == bytes[i] {
                c = CHARSET[(pick as usize + 1) % CHARSET.len()];
            }
            prop_assert!(c != bytes[i], "replacement must differ");
            bytes[i] = c;
            let corrupted = String::from_utf8(bytes).map_err(|e| e.to_string())?;
            match SystemSnapshot::parse(&corrupted) {
                Ok(_) => Err(format!(
                    "corruption at byte {i} ({} -> {}) was silently accepted",
                    text.as_bytes()[i] as char,
                    c as char
                )),
                Err(e) => {
                    prop_assert!(!e.to_string().is_empty());
                    Ok(())
                }
            }
        },
    );
}

/// A future-versioned snapshot is refused with the typed version error
/// — checked before the fingerprint, so the message names the version
/// gap rather than calling the snapshot corrupt.
#[test]
fn future_version_is_rejected_with_typed_error() {
    let text = fixture_snapshot_text();
    let old = format!("\"version\":{SNAPSHOT_VERSION}");
    assert!(text.contains(&old), "fixture lost its version field");
    let bumped = text.replacen(&old, "\"version\":99", 1);
    match SystemSnapshot::parse(&bumped) {
        Err(SimError::SnapshotVersion { found, expected }) => {
            assert_eq!(found, 99);
            assert_eq!(expected, u64::from(SNAPSHOT_VERSION));
        }
        other => panic!("expected SnapshotVersion, got {other:?}"),
    }
}

/// Restoring into a differently configured system (another seed) is
/// refused with the typed config-mismatch error.
#[test]
fn config_mismatch_is_rejected_with_typed_error() {
    let snap = SystemSnapshot::parse(fixture_snapshot_text()).expect("fixture parses");
    let mut cfg = SystemConfig::scaled_single();
    cfg.seed = 8; // fixture used seed 7
    cfg.rsm.m_samp = 1024;
    let err = SystemBuilder::new(cfg)
        .policy(PolicyKind::Mdm)
        .spec_program(SpecProgram::Milc, SpecProgram::Milc.budget_for_misses(500))
        .restore(&snap)
        .try_run()
        .expect_err("restore across seeds must fail");
    assert!(
        matches!(err, SimError::SnapshotConfigMismatch { .. }),
        "expected SnapshotConfigMismatch, got {err:?}"
    );
}

/// ProFess-noC3 is another policy: a ProFess snapshot does not restore
/// into it, although the two differ only in a Case 3 switch.
#[test]
fn profess_snapshot_does_not_restore_into_the_ablation() {
    let snap = preempted(multi_builder(PolicyKind::Profess).snapshot_at(20_000));
    let err = multi_builder(PolicyKind::ProfessNoCase3)
        .restore(&snap)
        .try_run()
        .expect_err("restore across policies must fail");
    assert!(
        matches!(err, SimError::SnapshotConfigMismatch { .. }),
        "expected SnapshotConfigMismatch, got {err:?}"
    );
}
