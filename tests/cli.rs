//! The `profess-sim` command line: it lists and accepts every policy by
//! its `PolicyKind::cli_name`, and a simulation that cannot run or an
//! empty op budget ends on the `error:` path with exit status 1 and the
//! cause on stderr, never a panic (exit 101) and never an empty report.

use std::process::{Command, Output};

fn profess_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_profess-sim"))
        .args(args)
        .output()
        .expect("profess-sim spawns")
}

#[test]
fn more_programs_than_cores_is_a_config_error() {
    let out = profess_sim(&[
        "run",
        "--workload",
        "w01",
        "--scale",
        "single",
        "--ops",
        "100",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: invalid configuration: more programs than cores"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn zero_ops_is_an_error_not_an_empty_run() {
    for args in [
        &["run", "--workload", "w01", "--policy", "pom", "--ops", "0"][..],
        &["solo", "--program", "mcf", "--ops", "0"],
        &["compare", "--workload", "w01", "--ops", "0"],
    ] {
        let out = profess_sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr: {stderr}");
        assert!(
            stderr.contains("error: bad --ops value \"0\""),
            "{args:?}: stderr: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?}: an empty run printed a report"
        );
    }
}

#[test]
fn every_policy_kind_is_accepted_by_its_cli_name() {
    let out = profess_sim(&["list"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = profess::prelude::PolicyKind::ALL
        .iter()
        .map(|pk| pk.cli_name())
        .collect();
    assert!(
        stdout.contains(&format!("policies:  {}", names.join(" "))),
        "stdout: {stdout}"
    );
    let out = profess_sim(&[
        "solo",
        "--program",
        "mcf",
        "--policy",
        "profess-noc3",
        "--ops",
        "100",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}
