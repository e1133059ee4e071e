//! End-to-end tests for the bench trend gate (`profess-validate trend`)
//! against the committed fixture artifacts — the same fixtures
//! `scripts/ci.sh` uses to prove the gate catches a synthetic regression
//! before trusting it with the real smoke artifacts.
//!
//! Exit-code contract (the shared `bench::exit` taxonomy): 0 = within
//! threshold, 1 = regression or I/O/parse error, 2 = usage error.

use std::path::PathBuf;
use std::process::Command;

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/benchgate")
}

fn run(args: &[&str], envs: &[(&str, &str)]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_profess-validate"))
        .arg("trend")
        .args(args)
        .env_remove("PROFESS_BENCH_BASELINE")
        .envs(envs.iter().map(|&(k, v)| (k, v)))
        .output()
        .expect("run profess-validate trend");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn fixture(dir: &str) -> String {
    fixtures()
        .join(dir)
        .join("BENCH_gatecheck.json")
        .display()
        .to_string()
}

fn baseline() -> String {
    fixtures().join("baseline").display().to_string()
}

#[test]
fn within_threshold_passes() {
    let (code, stdout, _) = run(&["--baseline", &baseline(), &fixture("fresh-ok")], &[]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("trend gate passed"), "{stdout}");
}

#[test]
fn synthetic_regression_fails_with_exit_1() {
    let (code, stdout, stderr) = run(
        &["--baseline", &baseline(), &fixture("fresh-regressed")],
        &[],
    );
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    // The regressed entry is named; the within-threshold one is not.
    assert!(stderr.contains("beta"), "{stderr}");
    assert!(!stderr.contains("alpha"), "{stderr}");
}

#[test]
fn median_drift_with_stable_min_is_noise_not_failure() {
    let (code, stdout, _) = run(&["--baseline", &baseline(), &fixture("fresh-noisy")], &[]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("noisy"), "{stdout}");
}

#[test]
fn env_override_selects_the_baseline() {
    let (code, _, stderr) = run(
        &[&fixture("fresh-regressed")],
        &[("PROFESS_BENCH_BASELINE", &baseline())],
    );
    assert_eq!(code, Some(1), "{stderr}");
}

#[test]
fn flag_beats_env_override() {
    // Env points at a baseline that WOULD fail; the flag points the gate
    // at the fresh artifact itself (self-compare: always passes).
    let fresh_dir = fixtures().join("fresh-regressed").display().to_string();
    let (code, stdout, _) = run(
        &["--baseline", &fresh_dir, &fixture("fresh-regressed")],
        &[("PROFESS_BENCH_BASELINE", &baseline())],
    );
    assert_eq!(code, Some(0), "{stdout}");
}

#[test]
fn missing_baseline_artifact_is_skipped() {
    let scratch = std::env::temp_dir().join(format!("benchgate-nobase-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("mkdir scratch");
    let (code, stdout, _) = run(
        &[
            "--baseline",
            &scratch.display().to_string(),
            &fixture("fresh-ok"),
        ],
        &[],
    );
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("skipping (new artifact)"), "{stdout}");
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn malformed_input_is_an_error_not_a_pass() {
    let scratch = std::env::temp_dir().join(format!("benchgate-bad-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("mkdir scratch");
    let bad = scratch.join("BENCH_gatecheck.json");
    std::fs::write(&bad, "{not json").expect("write fixture");
    let (code, _, stderr) = run(
        &["--baseline", &baseline(), &bad.display().to_string()],
        &[],
    );
    assert_eq!(code, Some(1), "{stderr}");
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn no_files_is_a_usage_error() {
    let (code, _, stderr) = run(&[], &[]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}
