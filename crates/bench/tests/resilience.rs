//! End-to-end resilience tests for `profess-run`, whose cell attempts
//! all run on the threads of one process: a retried panic or a
//! timed-out stall must still produce ROWS/SURFACE artifacts and stdout
//! **byte-identical** to a fault-free serial run at any thread count
//! (and, serially, the same checkpoint journal), a retried cell must be
//! journaled once, a cell that exhausts its retries must end the run
//! with the sweep-failure code while every other cell stays journaled,
//! and fault indices must mean the same at every thread count.

#![expect(
    clippy::disallowed_methods,
    reason = "these tests run the binaries they test as child processes"
)]

use std::path::{Path, PathBuf};
use std::process::Command;

use profess_bench::exit;
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
    "PROFESS_SNAPSHOT_AT",
    "PROFESS_SURFACE_RATIOS",
    "PROFESS_SURFACE_INTENSITIES",
    "PROFESS_RESULTS_DIR",
];

/// The fig10_12 sweep every case runs: w01 at 300 ops, 10 cells.
const FIG10_12: &[&str] = &["fig10_12", "300", "w01"];

/// The surface sweep of the surface cases: 2 policies on a 2x2 grid.
const SURFACE: &[&str] = &["surface", "600", "pom", "mdm"];
const SURFACE_GRID: &[(&str, &str)] = &[
    ("PROFESS_SURFACE_RATIOS", "0.6,0.9"),
    ("PROFESS_SURFACE_INTENSITIES", "8,32"),
];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "profess-resilience-test-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// What one `profess-run` invocation left: its exit code, its stdout
/// with the results directory written as `$RESULTS`, and its stderr.
struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Runs `profess-run args` on `threads` threads, with its results and
/// its checkpoint journal in `dir`.
fn run(dir: &Path, threads: usize, args: &[&str], envs: &[(&str, &str)]) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_profess-run"));
    for k in PROFESS_ENVS {
        cmd.env_remove(k);
    }
    let out = cmd
        .env("PROFESS_RESULTS_DIR", dir)
        .env("PROFESS_CHECKPOINT", dir)
        .env("PROFESS_THREADS", threads.to_string())
        .envs(envs.iter().map(|&(k, v)| (k, v)))
        .args(args)
        .output()
        .expect("run profess-run");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).replace(&*dir.to_string_lossy(), "$RESULTS"),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// Runs `profess-run args` and asserts that it succeeded.
fn run_ok(dir: &Path, threads: usize, args: &[&str], envs: &[(&str, &str)]) -> Run {
    let r = run(dir, threads, args, envs);
    assert_eq!(
        r.code,
        Some(exit::OK),
        "{args:?}:\n{}\n{}",
        r.stdout,
        r.stderr
    );
    r
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{}/{file}: {e}", dir.display()))
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

/// The per-cell records of `BENCH_<name>.json`, in cell order.
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

/// The cell keys of a checkpoint journal, in line order.
fn journal_keys(dir: &Path, name: &str) -> Vec<String> {
    let journal = String::from_utf8(read(dir, &format!("CHECKPOINT_{name}.jsonl"))).unwrap();
    journal
        .lines()
        .map(|l| {
            let line = Json::parse(l).expect("journal line is JSON");
            line.get("key").and_then(Json::as_str).unwrap().to_string()
        })
        .collect()
}

/// Asserts that only cell `retried` was retried, recovering on its
/// second attempt, after a first attempt that failed with `failure`.
fn assert_only_retried(cells: &[Cell], retried: usize, failure: &str) {
    for (i, c) in cells.iter().enumerate() {
        assert_eq!(c.status, "ok", "{c:?}");
        if i == retried {
            assert_eq!(c.attempts, 2, "{c:?}");
            assert!(c.history[0].contains(failure), "{c:?}");
        } else {
            assert_eq!(c.attempts, 1, "{c:?}");
        }
    }
}

/// A sweep with pending cell `k` panicking on its first attempt, run on
/// 1 and 4 threads, against a fault-free serial golden: the `artifact`
/// and stdout match at both thread counts, the journal serially.
fn a_retried_panic_matches_the_serial_golden(
    name: &str,
    args: &[&str],
    grid: &[(&str, &str)],
    artifact: &str,
    k: usize,
) {
    let serial = scratch(&format!("{name}-serial"));
    let golden = run_ok(&serial, 1, args, grid);
    let fault = format!("panic@{k}");
    let mut envs = grid.to_vec();
    envs.push(("PROFESS_FAULT", &fault));
    let journal = format!("CHECKPOINT_{name}.jsonl");
    for threads in [1, 4] {
        let dir = scratch(&format!("{name}-panic-{threads}"));
        let r = run_ok(&dir, threads, args, &envs);
        assert_only_retried(&cells(&dir, name), k, "injected fault");
        assert_eq!(r.stdout, golden.stdout, "stdout at {threads} thread(s)");
        assert_eq!(
            read(&dir, artifact),
            read(&serial, artifact),
            "{artifact} differs from the serial golden after a retry at {threads} thread(s)"
        );
        if threads == 1 {
            assert_eq!(
                read(&dir, &journal),
                read(&serial, &journal),
                "the serial journal differs after a retry"
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(serial);
}

#[test]
fn a_retried_panic_gives_the_serial_rows_at_one_and_four_threads() {
    a_retried_panic_matches_the_serial_golden("fig10_12", FIG10_12, &[], "ROWS_fig10_12.json", 0);
}

#[test]
fn a_retried_panic_gives_the_serial_surface_at_one_and_four_threads() {
    a_retried_panic_matches_the_serial_golden(
        "surface",
        SURFACE,
        SURFACE_GRID,
        "SURFACE_surface.json",
        1,
    );
}

#[test]
fn a_retried_cell_is_journaled_once() {
    let dir = scratch("unique");
    run_ok(&dir, 4, FIG10_12, &[("PROFESS_FAULT", "panic@2")]);
    assert_only_retried(&cells(&dir, "fig10_12"), 2, "injected fault");
    // `profess-validate journal` holds the journal to one line per cell
    // key: a key on two lines means a cell executed twice.
    let out = Command::new(env!("CARGO_BIN_EXE_profess-validate"))
        .arg("journal")
        .arg(dir.join("CHECKPOINT_fig10_12.jsonl"))
        .output()
        .expect("run profess-validate");
    assert_eq!(
        out.status.code(),
        Some(exit::OK),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_cell_that_exhausts_its_retries_exits_3_and_every_other_cell_is_journaled() {
    let dir = scratch("exhausted");
    // Cell 0 panics on both attempts the retry budget (1) allows; a
    // third attempt would have succeeded.
    let r = run(
        &dir,
        2,
        FIG10_12,
        &[("PROFESS_FAULT", "panic@0*2"), ("PROFESS_RETRIES", "1")],
    );
    assert_eq!(
        r.code,
        Some(exit::SWEEP_FAILURE),
        "{}\n{}",
        r.stdout,
        r.stderr
    );
    assert!(
        r.stderr
            .contains("cell failed: solo:PoM:mcf [exhausted] after 2 attempt(s)"),
        "{}",
        r.stderr
    );
    let cells = cells(&dir, "fig10_12");
    assert_eq!(cells[0].status, "exhausted", "{:?}", cells[0]);
    assert_eq!(cells[0].attempts, 2, "{:?}", cells[0]);
    // Durable partial progress: every other cell is journaled, in
    // completion order.
    let mut journaled = journal_keys(&dir, "fig10_12");
    journaled.sort();
    let mut others: Vec<String> = cells[1..].iter().map(|c| c.key.clone()).collect();
    others.sort();
    assert_eq!(journaled, others);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_stalled_cell_times_out_retries_and_gives_the_serial_journal() {
    let serial = scratch("stall-serial");
    let golden = run_ok(&serial, 1, FIG10_12, &[]);
    let dir = scratch("stall");
    let r = run_ok(
        &dir,
        1,
        FIG10_12,
        &[
            ("PROFESS_FAULT", "stall@1"),
            ("PROFESS_TASK_TIMEOUT_MS", "2000"),
        ],
    );
    assert_only_retried(&cells(&dir, "fig10_12"), 1, "timed out");
    assert_eq!(r.stdout, golden.stdout);
    for artifact in ["CHECKPOINT_fig10_12.jsonl", "ROWS_fig10_12.json"] {
        assert_eq!(
            read(&dir, artifact),
            read(&serial, artifact),
            "{artifact} differs after a stall, timeout and retry"
        );
    }
    for d in [serial, dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn fault_indices_mean_the_same_at_one_and_four_threads() {
    // Pending cell 0 recovers on its retry; pending cell 3 exhausts the
    // default budget (1 retry).
    let fault = [("PROFESS_FAULT", "panic@0,panic@3*2")];
    let outcomes = |threads: usize| -> Vec<(String, u64)> {
        let dir = scratch(&format!("indices-{threads}"));
        let r = run(&dir, threads, FIG10_12, &fault);
        assert_eq!(
            r.code,
            Some(exit::SWEEP_FAILURE),
            "{}\n{}",
            r.stdout,
            r.stderr
        );
        let out = cells(&dir, "fig10_12")
            .into_iter()
            .map(|c| (c.status, c.attempts))
            .collect();
        let _ = std::fs::remove_dir_all(dir);
        out
    };
    let serial = outcomes(1);
    assert_eq!(serial[0], ("ok".to_string(), 2));
    assert_eq!(serial[3], ("exhausted".to_string(), 2));
    let retried = serial.iter().filter(|(_, a)| *a > 1).count();
    assert_eq!(retried, 2, "{serial:?}");
    assert_eq!(outcomes(4), serial);
}
