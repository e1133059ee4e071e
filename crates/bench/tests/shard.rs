//! End-to-end tests for `profess-run --workers`: a sharded
//! multi-process sweep with children killed or hung mid-cell must still
//! produce CHECKPOINT/ROWS/SURFACE artifacts **byte-identical** to a
//! fully in-process run, a retried cell must never execute twice in the
//! journal, fault indices must mean the same at every worker count, and
//! a cell that loses its child on every allowed attempt must exit with
//! the `worker-lost` code.

#![expect(
    clippy::disallowed_methods,
    reason = "these tests run the binaries they test as child processes"
)]

use std::path::{Path, PathBuf};
use std::process::Command;

use profess_metrics::Json;

/// Every knob the binary under test reads; cleared before each run so
/// the developer's shell cannot leak into a determinism assertion.
const PROFESS_ENVS: &[&str] = &[
    "PROFESS_FAULT",
    "PROFESS_RETRIES",
    "PROFESS_TASK_TIMEOUT_MS",
    "PROFESS_THREADS",
    "PROFESS_CHECKPOINT",
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
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_profess-run"));
    for k in PROFESS_ENVS {
        cmd.env_remove(k);
    }
    let out = cmd
        .env("PROFESS_RESULTS_DIR", dir)
        .envs(envs.iter().map(|&(k, v)| (k, v)))
        .args(args)
        .output()
        .expect("run profess-run");
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

/// One cell's record in `BENCH_<name>.json`: key, status, attempts,
/// history.
#[derive(Debug, PartialEq)]
struct Cell {
    key: String,
    status: String,
    attempts: u64,
    history: Vec<String>,
}

/// The per-cell records of `BENCH_<name>.json`, in spec order.
fn cells(dir: &Path, name: &str) -> Vec<Cell> {
    let text = String::from_utf8(read(dir, &format!("BENCH_{name}.json"))).unwrap();
    let doc = Json::parse(&text).expect("BENCH artifact is JSON");
    let Some(Json::Arr(cells)) = doc.get("cells") else {
        panic!("no cells array in BENCH_{name}.json");
    };
    let text_of = |c: &Json, k: &str| c.get(k).and_then(Json::as_str).unwrap().to_string();
    cells
        .iter()
        .map(|c| Cell {
            key: text_of(c, "key"),
            status: text_of(c, "status"),
            attempts: c.get("attempts").and_then(Json::as_u64).unwrap(),
            history: match c.get("history") {
                Some(Json::Arr(h)) => h.iter().map(|l| l.as_str().unwrap().to_string()).collect(),
                _ => panic!("cell without history"),
            },
        })
        .collect()
}

/// Asserts that only cell `killed` was retried, recovering on its
/// second attempt, after a first attempt that failed with `failure`.
fn assert_only_retried(cells: &[Cell], killed: usize, failure: &str) {
    for (i, c) in cells.iter().enumerate() {
        assert_eq!(c.status, "ok", "{c:?}");
        if i == killed {
            assert_eq!(c.attempts, 2, "{c:?}");
            assert!(c.history[0].contains(failure), "{c:?}");
        } else {
            assert_eq!(c.attempts, 1, "{c:?}");
        }
    }
}

#[test]
fn killed_worker_at_two_and_four_workers_matches_serial_artifacts() {
    let args = &["fig10_12", "300", "w01"];
    let serial = golden("norm-serial", args, &[]);
    // A fault-free single-worker run: everything flows through one shard.
    let one = scratch("norm-one");
    let (code, stdout, stderr) =
        run_shard(&one, &["fig10_12", "--workers", "1", "300", "w01"], &[]);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    // Kill the child of a cell's first attempt at both fleet sizes; the
    // default retry budget (1) allows exactly one more attempt.
    for (name, workers, fault, killed) in [
        ("norm-kill2", "2", "worker_kill@0", 0),
        ("norm-kill4", "4", "worker_kill@1", 1),
    ] {
        let dir = scratch(name);
        let (code, stdout, stderr) = run_shard(
            &dir,
            &["fig10_12", "--workers", workers, "300", "w01"],
            &[("PROFESS_FAULT", fault)],
        );
        assert_eq!(code, Some(0), "{stdout}\n{stderr}");
        assert_only_retried(&cells(&dir, "fig10_12"), killed, "killed by a signal");
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
fn retried_cells_never_execute_twice_in_the_journal() {
    let dir = scratch("norm-unique");
    let (code, stdout, stderr) = run_shard(
        &dir,
        &["fig10_12", "--workers", "2", "300", "w01"],
        &[("PROFESS_FAULT", "worker_kill@0")],
    );
    // A cell key journaled twice makes profess-run's final rewrite
    // fail (a validation exit, not 0); `profess-validate journal` then
    // holds the rewritten file to exactly one line per cell key.
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    let out = Command::new(env!("CARGO_BIN_EXE_profess-validate"))
        .arg("journal")
        .arg(dir.join("CHECKPOINT_fig10_12.jsonl"))
        .output()
        .expect("run profess-validate");
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
    // Cell 0's child is killed on both attempts the retry budget (1)
    // allows: exit 4 after exactly PROFESS_RETRIES+1 attempts — a third
    // attempt would have succeeded — and every other cell still lands
    // in the journal (durable partial progress).
    let (code, stdout, stderr) = run_shard(
        &dir,
        &["fig10_12", "--workers", "2", "300", "w01"],
        &[
            ("PROFESS_FAULT", "worker_kill@0*2"),
            ("PROFESS_RETRIES", "1"),
        ],
    );
    assert_eq!(code, Some(4), "{stdout}\n{stderr}");
    assert!(stderr.contains("lost after 2"), "{stderr}");
    let cells = cells(&dir, "fig10_12");
    assert_eq!(cells[0].status, "exhausted", "{:?}", cells[0]);
    assert_eq!(cells[0].attempts, 2, "{:?}", cells[0]);
    let journal = String::from_utf8(read(&dir, "CHECKPOINT_fig10_12.jsonl")).unwrap();
    let keys: Vec<String> = journal
        .lines()
        .map(|l| {
            let line = Json::parse(l).expect("journal line is JSON");
            line.get("key").and_then(Json::as_str).unwrap().to_string()
        })
        .collect();
    let others: Vec<String> = cells[1..].iter().map(|c| c.key.clone()).collect();
    assert_eq!(keys, others, "every other cell journaled, in spec order");
}

#[test]
fn hung_worker_is_timed_out_killed_and_redealt() {
    let args = &["fig10_12", "300", "w01"];
    let serial = golden("hang-serial", args, &[]);
    let dir = scratch("hang-kill");
    let (code, stdout, stderr) = run_shard(
        &dir,
        &["fig10_12", "--workers", "2", "300", "w01"],
        &[
            ("PROFESS_FAULT", "worker_hang@1"),
            ("PROFESS_TASK_TIMEOUT_MS", "1000"),
        ],
    );
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert_only_retried(&cells(&dir, "fig10_12"), 1, "timed out");
    assert_eq!(
        read(&dir, "CHECKPOINT_fig10_12.jsonl"),
        read(&serial, "CHECKPOINT_fig10_12.jsonl"),
        "checkpoint journal differs after a hang + timeout + retry"
    );
}

#[test]
fn sharded_surface_sweep_with_a_kill_matches_serial_artifacts() {
    let envs: &[(&str, &str)] = &[
        ("PROFESS_SURFACE_RATIOS", "0.6,0.9"),
        ("PROFESS_SURFACE_INTENSITIES", "8,32"),
    ];
    let args = &["surface", "600", "pom", "mdm"];
    let serial = golden("surf-serial", args, envs);
    let dir = scratch("surf-kill");
    let mut all = envs.to_vec();
    all.push(("PROFESS_FAULT", "worker_kill@1"));
    let (code, stdout, stderr) = run_shard(
        &dir,
        &["surface", "--workers", "2", "600", "pom", "mdm"],
        &all,
    );
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    assert_only_retried(&cells(&dir, "surface"), 1, "killed by a signal");
    for artifact in ["CHECKPOINT_surface.jsonl", "SURFACE_surface.json"] {
        assert_eq!(
            read(&dir, artifact),
            read(&serial, artifact),
            "{artifact} differs from the serial golden after a sharded kill"
        );
    }
}

#[test]
fn fault_indices_mean_the_same_at_every_worker_count() {
    // `panic@0` poisons the first attempt of pending cell 0, whether
    // attempts run on threads or in child processes.
    let fault = [("PROFESS_FAULT", "panic@0")];
    let serial = golden("panic-serial", &["fig10_12", "300", "w01"], &fault);
    let dir = scratch("panic-sharded");
    let (code, stdout, stderr) =
        run_shard(&dir, &["fig10_12", "--workers", "2", "300", "w01"], &fault);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    let outcomes = |dir: &Path| -> Vec<(String, u64)> {
        cells(dir, "fig10_12")
            .into_iter()
            .map(|c| (c.status, c.attempts))
            .collect()
    };
    let sharded = outcomes(&dir);
    assert_eq!(sharded, outcomes(&serial));
    // Exactly one cell, pending cell 0, made a second attempt.
    assert_only_retried(&cells(&dir, "fig10_12"), 0, "injected fault");
}
