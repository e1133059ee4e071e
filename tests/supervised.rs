//! Supervised sweep execution: kill-and-resume byte-identity, per-cell
//! fault surfacing, and property tests for the checkpoint journal and
//! the supervisor's determinism.
//!
//! The resilience contract (DESIGN.md §10) is that supervision and
//! checkpointing are *observationally inert*: a sweep interrupted by an
//! injected fault and resumed from its journal must emit rows
//! byte-identical to an uninterrupted run, at any thread count. Faults
//! are always injected via an explicit [`FaultPlan`] — never the
//! `PROFESS_FAULT` environment variable, which would race with other
//! tests in this process — and never use the `exit` kind, which would
//! kill the test runner (ci.sh exercises that path in a subprocess).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use profess::prelude::*;
use profess_bench::harness::TraceCollector;
use profess_bench::{
    checkpoint, normalized_sweep_supervised, rows_to_json, FaultPlan, Journal, Pool, SnapshotMode,
    SuperviseConfig,
};
use profess_check::strategy::{tuple2, tuple3, u64_range, vec_of};
use profess_check::{check, prop_assert, prop_assert_eq};
use profess_metrics::Json;

/// A fresh journal path unique to this process and call site.
fn temp_journal(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "profess-supervised-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

fn strict() -> SuperviseConfig {
    SuperviseConfig {
        retries: 0,
        timeout: None,
        faults: FaultPlan::none(),
    }
}

fn sweep_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::scaled_quad();
    cfg.seed = 11;
    cfg.rsm.m_samp = 512;
    cfg
}

/// The acceptance criterion: interrupt a `normalized_sweep` by failing
/// two cells, then resume from the journal; the resumed rows must be
/// byte-identical to an uninterrupted sweep's, serially and at four
/// threads.
#[test]
fn killed_and_resumed_sweep_is_byte_identical() {
    let ws = workloads();
    let subset = [ws[0], ws[7]];
    for threads in [1usize, 4] {
        let pool = Pool::new(threads);
        let cfg = sweep_cfg();
        let sweep = |sup: &SuperviseConfig, journal: &Journal| {
            normalized_sweep_supervised(
                &pool,
                &cfg,
                PolicyKind::Mdm,
                2_000,
                &subset,
                sup,
                journal,
                &SnapshotMode::disabled(),
                &mut TraceCollector::disabled(),
            )
        };

        let baseline_run = sweep(&strict(), &Journal::disabled());
        assert!(baseline_run.all_ok(), "baseline must be fault-free");
        let baseline = rows_to_json(&baseline_run.rows);
        assert!(baseline.contains("\"id\""), "no rows: {baseline}");
        let total = baseline_run.cells.len();

        // Pass 1: two cells panic terminally (retries 0); the journal
        // keeps everything else.
        let path = temp_journal(&format!("resume{threads}"));
        let journal = Journal::load(&path).expect("create journal");
        let faulty = SuperviseConfig {
            retries: 0,
            timeout: None,
            faults: FaultPlan::parse("panic@0,panic@3").expect("plan"),
        };
        let run1 = sweep(&faulty, &journal);
        assert!(!run1.all_ok());
        assert_eq!(run1.failed_cells().len(), 2, "exactly the injected two");
        assert_eq!(run1.resumed, 0);
        drop(journal);

        // Pass 2: reload the journal, run fault-free; only the two
        // failed cells execute.
        let journal = Journal::load(&path).expect("reload journal");
        assert_eq!(journal.loaded(), total - 2);
        assert_eq!(journal.rejected(), 0);
        let run2 = sweep(&strict(), &journal);
        assert!(run2.all_ok(), "resume must complete the sweep");
        assert_eq!(run2.resumed, total - 2);
        assert_eq!(run2.executed(), 2);
        assert_eq!(
            rows_to_json(&run2.rows),
            baseline,
            "resumed sweep diverged from the uninterrupted sweep at {threads} thread(s)"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// An injected panic must surface as that cell's outcome — with its
/// retry history — not abort the sweep; with a retry budget the cell
/// recovers and the history still records the failed attempt.
#[test]
fn injected_panic_surfaces_as_cell_outcome_with_history() {
    let ws = workloads();
    let subset = [ws[0]];
    let pool = Pool::new(1);
    let cfg = sweep_cfg();
    let sup = SuperviseConfig {
        retries: 1,
        timeout: None,
        // Cell 1 fails once then recovers; cell 2 exhausts its budget.
        faults: FaultPlan::parse("panic@1,panic@2*9").expect("plan"),
    };
    let run = normalized_sweep_supervised(
        &pool,
        &cfg,
        PolicyKind::Mdm,
        2_000,
        &subset,
        &sup,
        &Journal::disabled(),
        &SnapshotMode::disabled(),
        &mut TraceCollector::disabled(),
    );
    let recovered = &run.cells[1];
    assert_eq!(recovered.status, "ok");
    assert_eq!(recovered.attempts, 2);
    assert_eq!(recovered.history.len(), 1, "{:?}", recovered.history);
    assert!(recovered.history[0].contains("injected fault"));
    assert!(recovered.error.is_none());

    let exhausted = &run.cells[2];
    assert_eq!(exhausted.status, "exhausted");
    assert_eq!(exhausted.attempts, 2);
    assert_eq!(exhausted.history.len(), 2);
    assert!(exhausted
        .error
        .as_deref()
        .unwrap_or("")
        .contains("exhausted"));
    assert!(!run.all_ok());
    // Only the workload whose cells all succeeded gets a row.
    assert!(run.rows.is_empty() && run.skipped == vec!["w01".to_string()]);
}

/// A malformed journal line is dropped on load (the cell reruns), but
/// the drop is *surfaced*: `SweepRun::skipped_malformed` carries the
/// count into the perf artifact, where strict CI (`profess-validate
/// sweep` on `BENCH_*.json`) requires it to be zero.
#[test]
fn malformed_journal_lines_surface_in_sweep_run() {
    let ws = workloads();
    let subset = [ws[0]];
    let path = temp_journal("malformed");
    std::fs::write(&path, "{\"torn\":tr\n").expect("seed journal");
    let journal = Journal::load(&path).expect("tolerant load");
    assert_eq!(journal.rejected(), 1);
    let run = normalized_sweep_supervised(
        &Pool::new(1),
        &sweep_cfg(),
        PolicyKind::Mdm,
        2_000,
        &subset,
        &strict(),
        &journal,
        &SnapshotMode::disabled(),
        &mut TraceCollector::disabled(),
    );
    assert!(run.all_ok());
    assert_eq!(
        run.skipped_malformed, 1,
        "the dropped line must be reported, not silently swallowed"
    );
    std::fs::remove_file(&path).ok();
}

/// Property: the checkpoint journal round-trips every record exactly —
/// reload restores each key's payload byte-for-byte and the strict
/// validator counts them — while a corrupted tail line is dropped on
/// load (the cell reruns) but fails validation.
#[test]
fn checkpoint_journal_round_trips() {
    check(
        "checkpoint_journal_round_trips",
        vec_of(
            tuple2(u64_range(0..1_000_000), u64_range(0..1 << 52)),
            1..10,
        ),
        |entries| {
            let path = temp_journal("prop");
            let journal = Journal::load(&path).map_err(|e| e.to_string())?;
            let mut expect = Vec::new();
            for (i, &(k, v)) in entries.iter().enumerate() {
                let key = format!("cell|{k}|{i}");
                let payload = Json::obj([("v", Json::UInt(v)), ("f", Json::Num(v as f64 / 3.0))]);
                journal.record(&key, payload.clone());
                expect.push((key, payload.to_string()));
            }
            drop(journal);

            let reloaded = Journal::load(&path).map_err(|e| e.to_string())?;
            prop_assert_eq!(reloaded.loaded(), entries.len());
            prop_assert_eq!(reloaded.rejected(), 0);
            for (key, payload) in &expect {
                prop_assert_eq!(
                    reloaded.lookup(key).map(|j| j.to_string()),
                    Some(payload.clone())
                );
            }
            drop(reloaded);
            prop_assert_eq!(
                checkpoint::validate_file(&path).map_err(|e| e.to_string())?,
                entries.len()
            );

            // Corrupt the tail: tolerant load drops it, strict CI fails.
            let mut text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            text.push_str("{\"torn\":tr\n");
            std::fs::write(&path, text).map_err(|e| e.to_string())?;
            let tolerant = Journal::load(&path).map_err(|e| e.to_string())?;
            prop_assert_eq!(tolerant.loaded(), entries.len());
            prop_assert_eq!(tolerant.rejected(), 1);
            drop(tolerant);
            prop_assert!(checkpoint::validate_file(&path).is_err());
            std::fs::remove_file(&path).ok();
            Ok(())
        },
    );
}

/// Property: supervised outcomes are deterministic in the thread count.
/// For any fault plan and retry budget, every slot's outcome, attempt
/// count, and history are identical between the serial path and a
/// four-worker pool.
#[test]
fn task_outcomes_are_thread_count_invariant() {
    check(
        "task_outcomes_are_thread_count_invariant",
        tuple3(
            u64_range(1..12),                                        // task count
            vec_of(tuple2(u64_range(0..12), u64_range(1..3)), 0..5), // faults
            u64_range(0..3),                                         // retries
        ),
        |&(n, ref faults, retries)| {
            let spec = faults
                .iter()
                .map(|&(i, t)| format!("panic@{i}*{t}"))
                .collect::<Vec<_>>()
                .join(",");
            let sup = SuperviseConfig {
                retries: retries as u32,
                timeout: None,
                faults: FaultPlan::parse(&spec)?,
            };
            let items: Vec<u64> = (0..n).collect();
            let run =
                |threads: usize| Pool::new(threads).run_supervised(&items, &sup, |_, &x| x * 2 + 1);
            let serial = run(1);
            let parallel = run(4);
            prop_assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                prop_assert_eq!(a.outcome.label(), b.outcome.label());
                prop_assert_eq!(a.outcome.error(), b.outcome.error());
                prop_assert_eq!(a.attempts, b.attempts);
                prop_assert_eq!(&a.history, &b.history);
            }
            Ok(())
        },
    );
}
