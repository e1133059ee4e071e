//! End-to-end tests for `profess-run`: every registry entry's stdout at
//! 400 ops is pinned, a run prints the same on one thread as on two, a
//! failed cell ends every experiment with the sweep-failure code instead
//! of a panic, bad invocations share one usage code, and `cells` takes
//! every policy by its command-line name.

#![expect(
    clippy::disallowed_methods,
    reason = "these tests run the binaries they test as child processes"
)]

use std::path::{Path, PathBuf};
use std::process::Command;

use profess_bench::experiments::{Setup, EXPERIMENTS};
use profess_bench::{distinct, exit};
use profess_core::system::PolicyKind;
use profess_metrics::fnv64;

/// Every knob the binary reads; cleared before each run so the
/// developer's shell cannot leak into a pinned output.
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

/// FNV-1a of each experiment's stdout at 400 ops (`PROFESS_THREADS=2`),
/// the results directory written as `$RESULTS`. Recorded from the
/// per-experiment binaries `profess-run` replaced, plus the one
/// `perf artifact:` line of the experiments that wrote no
/// `BENCH_<name>.json` before. Re-pin with
/// `PROFESS_BLESS_FINGERPRINTS=1` after a deliberate change.
const PINNED: &[(&str, u64)] = &[
    ("fig02", 0x06c472d4593ed77d),
    ("fig05", 0x8bdfb303714b0d7f),
    ("fig06", 0x914c9b4739b5047f),
    ("fig07", 0x5b8dd0fc6bb15d08),
    ("fig08_09", 0xabf331757a4b0939),
    ("fig10_12", 0xc1be2d4bdfd0e48c),
    ("fig13_15", 0xfd4dd2ad7bbe3990),
    ("fig16", 0x958bd3e8559d960f),
    ("table4", 0xc50d55e2492de2d9),
    ("mempod_vs_pom", 0x260b576e97367737),
    ("ablation", 0x6e15f0cef0f55b2e),
    ("sens_ratio", 0xac9a513a8309d2da),
    ("sens_wr", 0xdd7252123493ca78),
    ("surface", 0x798f057b44a8e541),
    ("cells", 0x74a4a24275d3ceee),
];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("profess-run-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `profess-run args` with results in `dir`; returns the exit
/// code, stdout with `dir` written as `$RESULTS`, and stderr.
fn run(dir: &Path, args: &[&str], envs: &[(&str, &str)]) -> (Option<i32>, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_profess-run"));
    for k in PROFESS_ENVS {
        cmd.env_remove(k);
    }
    let out = cmd
        .env("PROFESS_RESULTS_DIR", dir)
        .env("PROFESS_THREADS", "2")
        .envs(envs.iter().map(|&(k, v)| (k, v)))
        .args(args)
        .output()
        .expect("run profess-run");
    let stdout = String::from_utf8_lossy(&out.stdout).replace(&*dir.to_string_lossy(), "$RESULTS");
    (
        out.status.code(),
        stdout,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn every_experiment_prints_its_pinned_stdout() {
    let bless = std::env::var("PROFESS_BLESS_FINGERPRINTS").is_ok();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, pinned, "one pin per registry entry, in order");
    let mut table = String::new();
    let mut bad = Vec::new();
    for &(name, pin) in PINNED {
        let dir = scratch(&format!("pin-{name}"));
        let (code, stdout, stderr) = run(&dir, &[name, "400"], &[]);
        assert_eq!(code, Some(exit::OK), "{name}:\n{stdout}\n{stderr}");
        let h = fnv64(stdout.as_bytes());
        table.push_str(&format!("    (\"{name}\", 0x{h:016x}),\n"));
        if h != pin {
            bad.push(format!(
                "{name}: 0x{h:016x} (pinned 0x{pin:016x}):\n{stdout}"
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    if bless {
        println!("const PINNED: &[(&str, u64)] = &[\n{table}];");
        return;
    }
    assert!(
        bad.is_empty(),
        "stdout drifted from the pinned fingerprints:\n{}\n\nfresh table:\n{table}",
        bad.join("\n")
    );
}

#[test]
fn one_thread_prints_what_two_threads_print() {
    let (serial, parallel) = (scratch("fig06-one"), scratch("fig06-two"));
    let (code, expected, stderr) = run(&serial, &["fig06", "400"], &[("PROFESS_THREADS", "1")]);
    assert_eq!(code, Some(exit::OK), "{expected}\n{stderr}");
    let (code, stdout, stderr) = run(&parallel, &["fig06", "400"], &[("PROFESS_THREADS", "2")]);
    assert_eq!(code, Some(exit::OK), "{stdout}\n{stderr}");
    assert_eq!(stdout, expected);
    for dir in [serial, parallel] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `--trace` is the only switch: with `PROFESS_TRACE=1` in its
/// environment a run prints its pinned stdout and writes no trace.
#[test]
fn the_environment_does_not_trace_a_run() {
    let dir = scratch("fig06-env-trace");
    let (code, stdout, stderr) = run(&dir, &["fig06", "400"], &[("PROFESS_TRACE", "1")]);
    assert_eq!(code, Some(exit::OK), "{stdout}\n{stderr}");
    let pin = PINNED.iter().find(|&&(n, _)| n == "fig06").map(|&(_, h)| h);
    assert_eq!(Some(fnv64(stdout.as_bytes())), pin, "{stdout}");
    assert!(!dir.join("TRACE_fig06.jsonl").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_cell_ends_every_experiment_with_the_sweep_failure_code() {
    let poison = [("PROFESS_FAULT", "panic@0*9"), ("PROFESS_RETRIES", "0")];
    let setup = Setup::new(400);
    for exp in EXPERIMENTS {
        let dir = scratch(&format!("fault-{}", exp.name));
        let (code, stdout, stderr) = run(&dir, &[exp.name, "400"], &poison);
        assert_eq!(
            code,
            Some(exit::SWEEP_FAILURE),
            "{}:\n{stdout}\n{stderr}",
            exp.name
        );
        // Pending cell 0 of the first pass is the experiment's first cell.
        let first = distinct((exp.cells)(&setup).concat())
            .first()
            .map(|c| c.label().to_string())
            .expect("every experiment has cells");
        assert!(
            stderr.contains(&format!("cell failed: {first} [")),
            "{}: stderr does not name `{first}`:\n{stderr}",
            exp.name
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Arguments, environment, and what the usage message must mention.
type Invocation = (
    &'static [&'static str],
    &'static [(&'static str, &'static str)],
    &'static str,
);

#[test]
fn every_bad_invocation_is_a_usage_error() {
    let dir = scratch("usage");
    let table: &[Invocation] = &[
        (&[], &[], "fig13_15"),
        (&["fig08"], &[], "fig08_09"),
        (&["fig02", "4x"], &[], "4x"),
        (&["fig10_12", "400", "w99"], &[], "w99"),
        (&["surface", "400", "lru"], &[], "lru"),
        (&["fig06", "--bogus"], &[], "--bogus"),
        (&["cells", "400", "w01:lru"], &[], "lru"),
        (&["cells", "400", "w99"], &[], "w99"),
        (&["cells", "--opps", "100"], &[], "--opps"),
        (&["cells", "--scale", "huge"], &[], "huge"),
        (&["cells", "0", "mcf:pom"], &[], "target must be positive"),
        (&["fig06", "--scale", "paper"], &[], "fig06"),
        (&["fig10_12", "0", "w01"], &[], "target must be positive"),
        (&["fig06", "0"], &[], "target must be positive"),
        (
            &["fig06", "400"],
            &[("PROFESS_THREADS", "abc")],
            "PROFESS_THREADS=abc",
        ),
        (
            &["fig06", "400"],
            &[("PROFESS_THREADS", "0")],
            "PROFESS_THREADS=0",
        ),
        (
            &["fig06", "400"],
            &[("PROFESS_RETRIES", "x")],
            "PROFESS_RETRIES=x",
        ),
    ];
    for &(args, envs, mention) in table {
        let (code, stdout, stderr) = run(&dir, args, envs);
        assert_eq!(
            code,
            Some(exit::USAGE),
            "{args:?} {envs:?}:\n{stdout}\n{stderr}"
        );
        assert!(stderr.contains("usage: profess-run"), "{args:?}: {stderr}");
        assert!(stderr.contains(mention), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cells_accepts_every_policy_by_its_cli_name() {
    let dir = scratch("cells-policies");
    for pk in PolicyKind::ALL {
        let id = format!("mcf:{}", pk.cli_name());
        let (code, stdout, stderr) = run(&dir, &["cells", "100", &id], &[]);
        assert_eq!(code, Some(exit::OK), "{id}:\n{stdout}\n{stderr}");
        assert!(
            stdout.contains(&format!("mcf:{}", pk.name())),
            "{id}: {stdout}"
        );
    }
    let (code, _, stderr) = run(&dir, &[], &[]);
    assert_eq!(code, Some(exit::USAGE));
    let names = PolicyKind::ALL.map(PolicyKind::cli_name).join(" ");
    assert!(
        stderr.contains(&format!("policies:    {names}")),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(dir);
}
