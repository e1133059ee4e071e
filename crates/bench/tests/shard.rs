//! End-to-end tests for the `profess-shard` supervisor: a sharded
//! multi-process sweep with workers killed or hung mid-cell must still
//! produce CHECKPOINT/ROWS/SURFACE artifacts **byte-identical** to a
//! fully in-process run, re-dealt cells must never execute twice in
//! the merged record (`shardcheck`), and losing a cell past its
//! re-deal budget must exit with the `worker-lost` code.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every knob the binary under test reads; cleared before each run so
/// the developer's shell cannot leak into a determinism assertion.
const PROFESS_ENVS: &[&str] = &[
    "PROFESS_FAULT",
    "PROFESS_RETRIES",
    "PROFESS_TASK_TIMEOUT_MS",
    "PROFESS_THREADS",
    "PROFESS_CHECKPOINT",
    "PROFESS_TARGET",
    "PROFESS_TRACE",
    "PROFESS_SNAPSHOT",
    "PROFESS_SURFACE_RATIOS",
    "PROFESS_SURFACE_INTENSITIES",
    "PROFESS_RESULTS_DIR",
    "PROFESS_BENCH_BASELINE",
];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("profess-shard-test-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_shard(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> (Option<i32>, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_profess-shard"));
    for k in PROFESS_ENVS {
        cmd.env_remove(k);
    }
    let out = cmd
        .env("PROFESS_RESULTS_DIR", dir)
        .envs(envs.iter().map(|&(k, v)| (k, v)))
        .args(args)
        .output()
        .expect("run profess-shard");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{}/{file}: {e}", dir.display()))
}

/// The golden a sharded run is diffed against: the same CLI with
/// `--workers 0`, which skips the worker phase entirely.
fn golden(name: &str, args: &[&str], envs: &[(&str, &str)]) -> PathBuf {
    let dir = scratch(name);
    let mut full = vec!["--workers", "0"];
    full.extend_from_slice(args);
    let (code, stdout, stderr) = run_shard(&dir, &full, envs);
    assert_eq!(code, Some(0), "golden run failed:\n{stdout}\n{stderr}");
    dir
}

#[test]
fn killed_worker_at_two_and_four_workers_matches_serial_artifacts() {
    let args = &["300", "w01"];
    let serial = golden("norm-serial", args, &[]);
    // A fault-free single-worker run: everything flows through one shard.
    let one = scratch("norm-one");
    let (code, stdout, stderr) = run_shard(&one, &["--workers", "1", "300", "w01"], &[]);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    // Kill a worker on its first dealt cell at both fleet sizes; the
    // default retry budget (1) allows exactly one re-deal per cell.
    for (name, workers, fault) in [
        ("norm-kill2", "2", "worker_kill@0"),
        ("norm-kill4", "4", "worker_kill@1"),
    ] {
        let dir = scratch(name);
        let (code, stdout, stderr) = run_shard(
            &dir,
            &["--workers", workers, "300", "w01"],
            &[("PROFESS_FAULT", fault)],
        );
        assert_eq!(code, Some(0), "{stdout}\n{stderr}");
        assert!(
            stderr.contains("re-dealing"),
            "no re-deal observed:\n{stderr}"
        );
        assert!(stdout.contains("merged journal"), "{stdout}");
        for artifact in ["CHECKPOINT_fig10_12.jsonl", "ROWS_fig10_12.json"] {
            assert_eq!(
                read(&dir, artifact),
                read(&serial, artifact),
                "{artifact} differs from the serial golden after a {workers}-worker kill"
            );
            assert_eq!(
                read(&one, artifact),
                read(&serial, artifact),
                "{artifact} differs between 1-worker and serial runs"
            );
        }
    }
}

#[test]
fn redealt_cells_never_execute_twice_in_the_merged_record() {
    let dir = scratch("norm-unique");
    let (code, stdout, stderr) = run_shard(
        &dir,
        &["--workers", "2", "300", "w01"],
        &[("PROFESS_FAULT", "worker_kill@0")],
    );
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    // shardcheck enforces exactly one merged line per cell key and that
    // every shard line is covered byte-identically.
    let merged = dir.join("CHECKPOINT_fig10_12.jsonl");
    let shards = [
        dir.join("CHECKPOINT_fig10_12.shard0.jsonl"),
        dir.join("CHECKPOINT_fig10_12.shard1.jsonl"),
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_shardcheck"))
        .arg(&merged)
        .args(&shards)
        .output()
        .expect("run shardcheck");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cell_lost_past_the_redeal_budget_exits_worker_lost() {
    let dir = scratch("norm-lost");
    // With a zero retry budget each cell may be dealt exactly once, so
    // the kill's re-deal attempt is over budget: exit 4, and the
    // survivor's completed cells stay merged (durable partial progress).
    let (code, stdout, stderr) = run_shard(
        &dir,
        &["--workers", "2", "300", "w01"],
        &[("PROFESS_FAULT", "worker_kill@0"), ("PROFESS_RETRIES", "0")],
    );
    assert_eq!(code, Some(4), "{stdout}\n{stderr}");
    assert!(stderr.contains("lost after"), "{stderr}");
    assert!(
        stdout.contains("merged journal"),
        "partial progress not merged:\n{stdout}"
    );
}

#[test]
fn hung_worker_is_timed_out_killed_and_redealt() {
    let args = &["300", "w01"];
    let serial = golden("hang-serial", args, &[]);
    let dir = scratch("hang-kill");
    let (code, stdout, stderr) = run_shard(
        &dir,
        &["--workers", "2", "300", "w01"],
        &[
            ("PROFESS_FAULT", "worker_hang@1"),
            ("PROFESS_TASK_TIMEOUT_MS", "1000"),
        ],
    );
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert!(stderr.contains("missed its deadline"), "{stderr}");
    assert_eq!(
        read(&dir, "CHECKPOINT_fig10_12.jsonl"),
        read(&serial, "CHECKPOINT_fig10_12.jsonl"),
        "checkpoint journal differs after a hang + timeout + re-deal"
    );
}

#[test]
fn sharded_surface_sweep_with_a_kill_matches_serial_artifacts() {
    let envs: &[(&str, &str)] = &[
        ("PROFESS_SURFACE_RATIOS", "0.6,0.9"),
        ("PROFESS_SURFACE_INTENSITIES", "8,32"),
    ];
    let args = &["--surface", "600", "pom", "mdm"];
    let serial = golden("surf-serial", args, envs);
    let dir = scratch("surf-kill");
    let mut all = envs.to_vec();
    all.push(("PROFESS_FAULT", "worker_kill@1"));
    let (code, stdout, stderr) = run_shard(
        &dir,
        &["--workers", "2", "--surface", "600", "pom", "mdm"],
        &all,
    );
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert!(stderr.contains("re-dealing"), "{stderr}");
    for artifact in ["CHECKPOINT_surface.jsonl", "SURFACE_surface.json"] {
        assert_eq!(
            read(&dir, artifact),
            read(&serial, artifact),
            "{artifact} differs from the serial golden after a sharded kill"
        );
    }
}
