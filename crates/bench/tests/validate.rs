//! End-to-end tests for `profess-validate`: one exit-code contract for
//! every kind (the shared `profess_bench::exit` taxonomy), and the
//! journal check's one-line-per-cell-key rule next to snapshot entries.

#![expect(
    clippy::disallowed_methods,
    reason = "these tests run the binaries they test as child processes"
)]

use std::path::PathBuf;
use std::process::Command;

use profess_bench::checkpoint::fingerprint;
use profess_bench::exit;
use profess_core::system::{PolicyKind, SystemBuilder};
use profess_core::SimError;
use profess_metrics::Json;
use profess_trace::SpecProgram;
use profess_types::SystemConfig;

fn validate(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_profess-validate"))
        .args(args)
        .env_remove("PROFESS_BENCH_BASELINE")
        .output()
        .expect("run profess-validate");
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("profess-validate-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

#[test]
fn every_kind_shares_one_exit_code_contract() {
    let missing = "/nonexistent/profess-validate/BENCH_gatecheck.json";
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/benchgate/baseline"
    );
    // (kind, a bad flag value, an invocation on an unreadable input)
    let table: &[(&str, &[&str], &[&str])] = &[
        ("trend", &["--baseline"], &["--baseline", baseline, missing]),
        ("journal", &["--min-snapshots", "x", "j.jsonl"], &[missing]),
        ("sweep", &["--min-snapshots", "1", "b.json"], &[missing]),
        ("surface", &["--mono-tol", "2", "s.json"], &[missing]),
        (
            "trace",
            &["--mono-tol", "0.1", "t.jsonl"],
            &[missing, "run"],
        ),
        ("diff", &["--baseline", "d", "a", "b"], &[missing, missing]),
    ];
    assert_eq!(validate(&[]).0, Some(exit::USAGE), "no kind");
    assert_eq!(
        validate(&["check", "x.json"]).0,
        Some(exit::USAGE),
        "unknown kind"
    );
    for &(kind, bad_flag, unreadable) in table {
        let (code, out) = validate(&[kind]);
        assert_eq!(code, Some(exit::USAGE), "{kind} with no arguments: {out}");
        assert!(out.contains("usage"), "{out}");
        let (code, out) = validate(&[&[kind], bad_flag].concat());
        assert_eq!(code, Some(exit::USAGE), "{kind} {bad_flag:?}: {out}");
        let (code, out) = validate(&[&[kind], unreadable].concat());
        assert_eq!(
            code,
            Some(exit::VALIDATION_FAIL),
            "{kind} {unreadable:?}: {out}"
        );
    }
}

/// One journal line in the `Journal::record` format.
fn line(key: &str, payload: &Json) -> String {
    let fp = fingerprint(&payload.to_string());
    let obj = Json::obj([
        ("key", Json::Str(key.to_string())),
        ("fp", Json::Str(fp)),
        ("payload", payload.clone()),
    ]);
    obj.to_string() + "\n"
}

#[test]
fn journal_rejects_a_repeated_cell_key_beside_a_valid_snapshot() {
    let mut cfg = SystemConfig::scaled_single();
    cfg.seed = 7;
    cfg.rsm.m_samp = 1024;
    let run = SystemBuilder::new(cfg)
        .policy(PolicyKind::Mdm)
        .spec_program(SpecProgram::Milc, SpecProgram::Milc.budget_for_misses(500))
        .snapshot_at(1_000)
        .try_run();
    let snapshot = match run {
        Err(SimError::Preempted { snapshot }) => snapshot,
        other => panic!("expected a preemption, got {other:?}"),
    };
    let cell = Json::obj([("ipc", Json::Num(1.5))]);
    let dir = scratch("journal");
    let valid = line("snapshot|multi|x", &snapshot.to_json()) + &line("multi|x", &cell);
    let once = dir.join("once.jsonl");
    std::fs::write(&once, &valid).expect("write journal");
    let once = once.display().to_string();
    let (code, out) = validate(&["journal", "--min-snapshots", "1", &once]);
    assert_eq!(code, Some(exit::OK), "{out}");

    let twice = dir.join("twice.jsonl");
    std::fs::write(&twice, valid + &line("multi|x", &cell)).expect("write journal");
    let (code, out) = validate(&["journal", &twice.display().to_string()]);
    assert_eq!(code, Some(exit::VALIDATION_FAIL), "{out}");
    assert!(out.contains("journaled twice"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_names_the_first_differing_byte() {
    let dir = scratch("diff");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    std::fs::write(&a, "{\"rows\":[1,2,3]}").expect("write");
    std::fs::write(&b, "{\"rows\":[1,2,4]}").expect("write");
    let (a, b) = (a.display().to_string(), b.display().to_string());
    assert_eq!(validate(&["diff", &a, &a]).0, Some(exit::OK));
    let (code, out) = validate(&["diff", &a, &b]);
    assert_eq!(code, Some(exit::VALIDATION_FAIL), "{out}");
    assert!(out.contains("first at byte 13"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_requires_every_named_kind() {
    let dir = scratch("trace");
    let t = dir.join("TRACE_t.jsonl");
    std::fs::write(
        &t,
        "{\"type\":\"run\"}\n{\"type\":\"swap_begin\",\"at\":1}\n",
    )
    .expect("write");
    let t = t.display().to_string();
    assert_eq!(
        validate(&["trace", &t, "run", "swap_begin"]).0,
        Some(exit::OK)
    );
    let (code, out) = validate(&["trace", &t, "run", "rsm_epoch"]);
    assert_eq!(code, Some(exit::VALIDATION_FAIL), "{out}");
    assert!(out.contains("rsm_epoch"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}
