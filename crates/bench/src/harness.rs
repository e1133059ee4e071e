//! A minimal wall-clock benchmark runner (in-tree replacement for
//! `criterion`).
//!
//! Each benchmark is a closure timed over a fixed number of samples
//! after a warm-up phase; the runner reports min / median / mean per
//! iteration. No statistics beyond that: the engine benches guard
//! against order-of-magnitude regressions, not nanosecond drift, and the
//! hermetic-build policy forbids external crates.
//!
//! Environment overrides, read by [`BenchConfig::from_env`]:
//! * `PROFESS_BENCH_SAMPLES` — timed samples per benchmark, a positive
//!   integer (default 10);
//! * `PROFESS_BENCH_WARMUP` — warm-up iterations, `0` for none
//!   (default 3);
//! * `PROFESS_BENCH_FILTER` — substring filter on benchmark names (the
//!   first CLI argument does the same, as `cargo bench -- <filter>`).
//!
//! A malformed or out-of-range count is an error, never a silent default.
//!
//! After a run, [`BenchJson`] (used by every experiment and by
//! [`Runner::finish_json`]) writes a machine-readable
//! `results/BENCH_<name>.json` perf artifact — wall time, simulated ops,
//! timed harness samples, the thread count, and a `meta` block naming
//! the host, toolchain and commit the numbers came from — so the
//! performance trajectory is tracked across changes and every recorded
//! number is attributable to the machine that produced it
//! (`profess-validate trend` compares these artifacts across commits).
//! `PROFESS_RESULTS_DIR` overrides the output directory.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use profess_metrics::Json;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Timed samples per benchmark.
    pub samples: u32,
    /// Untimed warm-up iterations.
    pub warmup: u32,
    /// Only run benchmarks whose name contains this substring.
    pub filter: Option<String>,
}

impl BenchConfig {
    /// The configuration the environment and the first CLI argument
    /// name. Sample-count knobs shape how many timing samples run, never
    /// simulator output.
    ///
    /// # Errors
    ///
    /// A malformed or out-of-range `PROFESS_BENCH_SAMPLES` or
    /// `PROFESS_BENCH_WARMUP`, named in the message.
    pub fn from_env() -> Result<BenchConfig, String> {
        let env = |name: &str| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        let knob = |name: &str, default: u32, min: u32| {
            parse_count(name, env(name).as_deref(), default, min)
        };
        Ok(BenchConfig {
            samples: knob("PROFESS_BENCH_SAMPLES", 10, 1)?,
            warmup: knob("PROFESS_BENCH_WARMUP", 3, 0)?,
            filter: std::env::var("PROFESS_BENCH_FILTER")
                .ok()
                .or_else(|| std::env::args().nth(1).filter(|a| !a.starts_with('-'))),
        })
    }
}

/// Parses the value of the count knob `name`: `default` when unset, else
/// an integer from `min` to `u32::MAX`. Anything else is an error that
/// names the variable.
fn parse_count(name: &str, value: Option<&str>, default: u32, min: u32) -> Result<u32, String> {
    let Some(v) = value else {
        return Ok(default);
    };
    match v.trim().parse::<u32>() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!(
            "{name}={v}: expected an integer in {min}..={}",
            u32::MAX
        )),
    }
}

/// One benchmark's timing summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchStats {
    /// Fastest sample.
    pub min: Duration,
    /// Median sample.
    pub median: Duration,
    /// Mean over all samples.
    pub mean: Duration,
    /// Samples taken.
    pub samples: u32,
}

/// The benchmark runner. Collects results for a final summary table.
#[derive(Debug)]
pub struct Runner {
    cfg: BenchConfig,
    results: Vec<(String, BenchStats)>,
    started: Instant,
}

impl Runner {
    /// Creates a runner from the environment/CLI configuration.
    ///
    /// # Errors
    ///
    /// As [`BenchConfig::from_env`].
    pub fn from_env() -> Result<Self, String> {
        BenchConfig::from_env().map(Runner::with_config)
    }

    /// Creates a runner with an explicit configuration.
    pub fn with_config(cfg: BenchConfig) -> Self {
        Runner {
            cfg,
            results: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Times `routine`; its return value is black-boxed so the work is
    /// not optimized away.
    pub fn bench<T>(&mut self, name: &str, mut routine: impl FnMut() -> T) {
        self.bench_with_setup(name, || (), move |()| routine());
    }

    /// Times `routine` over fresh `setup` output per iteration; only the
    /// routine is timed (the criterion `iter_batched` pattern).
    pub fn bench_with_setup<S, T>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        if let Some(f) = &self.cfg.filter {
            if !name.contains(f.as_str()) {
                return;
            }
        }
        for _ in 0..self.cfg.warmup {
            let input = setup();
            std::hint::black_box(routine(std::hint::black_box(input)));
        }
        let mut times = Vec::with_capacity(self.cfg.samples as usize);
        for _ in 0..self.cfg.samples {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(std::hint::black_box(input)));
            times.push(start.elapsed());
        }
        times.sort_unstable();
        let stats = BenchStats {
            min: times[0],
            median: times[times.len() / 2],
            mean: times.iter().sum::<Duration>() / self.cfg.samples,
            samples: self.cfg.samples,
        };
        println!(
            "{name:<40} min {:>12}  median {:>12}  mean {:>12}  ({} samples)",
            fmt_duration(stats.min),
            fmt_duration(stats.median),
            fmt_duration(stats.mean),
            stats.samples,
        );
        self.results.push((name.to_string(), stats));
    }

    /// The collected results, in execution order.
    pub fn results(&self) -> &[(String, BenchStats)] {
        &self.results
    }

    /// Prints a closing summary line.
    pub fn finish(self) {
        println!("ran {} benchmark(s)", self.results.len());
    }

    /// Like [`Runner::finish`], but also writes the
    /// `results/BENCH_<name>.json` perf artifact with the per-benchmark
    /// timing summaries.
    pub fn finish_json(self, name: &str) {
        // Anchor the artifact's wall clock to the runner's construction
        // so it covers the benchmarks, not just the write-out.
        let mut bj = BenchJson::start(name);
        bj.started = self.started;
        for (bench, stats) in &self.results {
            bj.add_harness_samples(u64::from(stats.samples));
            bj.push_result(bench, *stats);
        }
        println!("ran {} benchmark(s)", self.results.len());
        bj.finish();
    }
}

/// Provenance of a perf artifact: the host, toolchain and commit the
/// numbers were recorded on. Every lookup degrades to `"unknown"` rather
/// than failing — metadata must never break the run it describes.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Host name (`/etc/hostname`, or the `HOSTNAME` variable).
    pub hostname: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// Git commit of the enclosing checkout (short hash).
    pub commit: String,
}

impl RunMeta {
    /// Collects metadata from the environment.
    pub fn collect() -> Self {
        RunMeta {
            hostname: hostname(),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            rustc: rustc_version(),
            commit: git_commit(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("hostname", Json::Str(self.hostname.clone())),
            ("os", Json::Str(self.os.clone())),
            ("arch", Json::Str(self.arch.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("commit", Json::Str(self.commit.clone())),
        ])
    }
}

fn hostname() -> String {
    std::fs::read_to_string("/etc/hostname")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        // Host metadata lands in BENCH meta for A/B honesty, never in report
        // fingerprints.
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    #[expect(
        clippy::disallowed_methods,
        reason = "toolchain probe for BENCH meta, not a worker spawn"
    )]
    let mut probe = std::process::Command::new("rustc");
    probe
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolves the checkout's `HEAD` by reading `.git` directly (no `git`
/// subprocess): walk up from the working directory to the first ancestor
/// with a `.git` directory, follow one level of `ref:` indirection, and
/// fall back to `packed-refs`. Truncated to 12 hex characters.
fn git_commit() -> String {
    fn read_head(git: &std::path::Path) -> Option<String> {
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let sha = match head.strip_prefix("ref: ") {
            None => head.to_string(),
            Some(r) => match std::fs::read_to_string(git.join(r)) {
                Ok(s) => s.trim().to_string(),
                Err(_) => {
                    // Ref packed away: scan packed-refs for "<sha> <ref>".
                    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                    packed
                        .lines()
                        .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_string()))?
                }
            },
        };
        let short: String = sha.chars().take(12).collect();
        (short.len() == 12 && short.chars().all(|c| c.is_ascii_hexdigit())).then_some(short)
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .find(|a| a.join(".git").is_dir())
        .and_then(|a| read_head(&a.join(".git")))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The directory perf artifacts are written to: `PROFESS_RESULTS_DIR`,
/// or the workspace-level `results/`.
///
/// `cargo bench`/`cargo test` set the working directory to the *package*
/// root (`crates/bench`), not the workspace root, so a bare relative
/// `results` would scatter artifacts. Walk up to the outermost ancestor
/// holding a `Cargo.lock` (the workspace root owns the lockfile) and
/// anchor there; outside any cargo tree, fall back to `./results`.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("PROFESS_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .filter(|a| a.join("Cargo.lock").exists())
        .last()
        .map(|root| root.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Collects one run's perf numbers and writes `results/BENCH_<name>.json`.
///
/// The artifact records the wall time from [`BenchJson::start`] to
/// [`BenchJson::finish`], two *separate* work counters — `sim_ops`
/// (simulations completed, supplied by the experiment driver via
/// [`BenchJson::add_sim_ops`]) and `harness_samples` (timed benchmark
/// iterations, counted by [`Runner::finish_json`]) — the worker-thread
/// count the sweeps ran with, and a [`RunMeta`] provenance block. The
/// derived `sim_ops_per_sec` divides only simulation work by wall time,
/// so trend comparisons measure simulator throughput, never the
/// harness's own sampling effort. (Earlier artifacts carried a single
/// `ops` field that conflated the two.)
#[derive(Debug)]
pub struct BenchJson {
    name: String,
    threads: usize,
    sim_ops: u64,
    harness_samples: u64,
    meta: RunMeta,
    started: Instant,
    results: Vec<(String, BenchStats)>,
    cells: Option<Vec<Json>>,
    skipped_malformed: Option<u64>,
}

impl BenchJson {
    /// Starts the wall-time clock for artifact `name`; the thread count
    /// recorded is the pool default (`PROFESS_THREADS` semantics).
    pub fn start(name: &str) -> Self {
        BenchJson {
            name: name.to_string(),
            threads: profess_par::default_threads(),
            sim_ops: 0,
            harness_samples: 0,
            meta: RunMeta::collect(),
            started: Instant::now(),
            results: Vec::new(),
            cells: None,
            skipped_malformed: None,
        }
    }

    /// Adds `n` completed simulations to the `sim_ops` counter.
    pub fn add_sim_ops(&mut self, n: u64) {
        self.sim_ops += n;
    }

    /// Adds `n` timed harness iterations to the `harness_samples`
    /// counter (kept apart from `sim_ops` — see the type docs).
    pub fn add_harness_samples(&mut self, n: u64) {
        self.harness_samples += n;
    }

    /// Attaches one [`Runner`] benchmark summary to the artifact.
    pub fn push_result(&mut self, bench: &str, stats: BenchStats) {
        self.results.push((bench.to_string(), stats));
    }

    /// Attaches a supervised sweep's per-cell execution records. The
    /// artifact then carries a `"cells"` array — key, label, status,
    /// attempts, full retry history, and the terminal error if any —
    /// so a cell failure is inspectable from the JSON alone. Artifacts
    /// without supervised cells are unchanged (no `"cells"` key).
    pub fn push_cells(&mut self, cells: &[crate::CellRecord]) {
        self.cells = Some(
            cells
                .iter()
                .map(|c| {
                    Json::obj([
                        ("key", Json::Str(c.key.clone())),
                        ("label", Json::Str(c.label.clone())),
                        ("status", Json::Str(c.status.to_string())),
                        ("attempts", Json::UInt(u64::from(c.attempts))),
                        (
                            "history",
                            Json::Arr(c.history.iter().map(|h| Json::Str(h.clone())).collect()),
                        ),
                        (
                            "error",
                            match &c.error {
                                Some(e) => Json::Str(e.clone()),
                                None => Json::Null,
                            },
                        ),
                    ])
                })
                .collect(),
        );
    }

    /// Records how many malformed checkpoint-journal lines the sweep's
    /// tolerant loader dropped (see
    /// [`SweepRun::skipped_malformed`](crate::SweepRun::skipped_malformed)).
    /// The artifact then carries a `"skipped_malformed"` count that
    /// `profess-validate sweep` asserts is zero in strict CI mode — the
    /// tolerant drop path must never pass silently through CI.
    pub fn set_skipped_malformed(&mut self, n: u64) {
        self.skipped_malformed = Some(n);
    }

    /// Writes `BENCH_<name>.json` into [`results_dir`] and reports the
    /// path (or a warning on I/O failure — a missing artifact must not
    /// fail the run it measures).
    pub fn finish(self) {
        let dir = results_dir();
        self.finish_into(&dir);
    }

    /// [`BenchJson::finish`] with an explicit output directory.
    pub fn finish_into(self, dir: &std::path::Path) {
        let wall = self.started.elapsed().as_secs_f64();
        let per_sec = if wall > 0.0 {
            self.sim_ops as f64 / wall
        } else {
            0.0
        };
        let mut pairs = vec![
            ("bench", Json::Str(self.name.clone())),
            ("threads", Json::UInt(self.threads as u64)),
            ("meta", self.meta.to_json()),
            ("wall_seconds", Json::Num(wall)),
            ("sim_ops", Json::UInt(self.sim_ops)),
            ("sim_ops_per_sec", Json::Num(per_sec)),
            ("harness_samples", Json::UInt(self.harness_samples)),
            (
                "results",
                Json::Arr(
                    self.results
                        .iter()
                        .map(|(bench, s)| {
                            Json::obj([
                                ("name", Json::Str(bench.clone())),
                                ("min_ns", Json::UInt(s.min.as_nanos() as u64)),
                                ("median_ns", Json::UInt(s.median.as_nanos() as u64)),
                                ("mean_ns", Json::UInt(s.mean.as_nanos() as u64)),
                                ("samples", Json::UInt(u64::from(s.samples))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(n) = self.skipped_malformed {
            pairs.push(("skipped_malformed", Json::UInt(n)));
        }
        if let Some(cells) = self.cells {
            pairs.push(("cells", Json::Arr(cells)));
        }
        let json = Json::obj(pairs);
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let io =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json.to_string()));
        match io {
            Ok(()) => println!("perf artifact: {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// Collects per-run trace logs and writes the `TRACE_<name>.jsonl`
/// artifact next to the `BENCH_*.json` files.
///
/// Each recorded run contributes a `{"type":"run",...}` header line
/// followed by the run's [`profess_obs::TraceLog`] JSONL (events, then
/// histogram summaries, then the counters line). Callers must record
/// runs in a deterministic order (e.g. pool-map *result* order, never
/// completion order) so the artifact is byte-identical across
/// `PROFESS_THREADS` settings.
#[derive(Debug)]
pub struct TraceCollector {
    name: String,
    enabled: bool,
    out: String,
    runs: u64,
}

impl TraceCollector {
    /// A collector for artifact `name`. Only an enabled collector makes
    /// `run_cells` trace its cells (`profess-run --trace`).
    pub fn new(name: &str, enabled: bool) -> Self {
        TraceCollector {
            name: name.to_string(),
            enabled,
            out: String::new(),
            runs: 0,
        }
    }

    /// An inert collector: traces no cell, writes nothing.
    pub fn disabled() -> Self {
        Self::new("", false)
    }

    /// True when records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends one run's trace (no-op when the collector is off or the
    /// report carries no trace).
    pub fn record(&mut self, label: &str, report: &profess_core::system::SystemReport) {
        if !self.enabled {
            return;
        }
        let Some(log) = &report.trace else {
            return;
        };
        let header = Json::obj([
            ("type", Json::Str("run".to_string())),
            ("label", Json::Str(label.to_string())),
            ("policy", Json::Str(report.policy.clone())),
        ]);
        self.out.push_str(&header.to_string());
        self.out.push('\n');
        self.out.push_str(&log.to_jsonl());
        self.runs += 1;
    }

    /// Runs recorded so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The collected JSONL text.
    pub fn jsonl(&self) -> &str {
        &self.out
    }

    /// Writes `TRACE_<name>.jsonl` into [`results_dir`] (no-op when off
    /// or empty).
    pub fn finish(self) {
        let dir = results_dir();
        self.finish_into(&dir);
    }

    /// [`TraceCollector::finish`] with an explicit output directory.
    pub fn finish_into(self, dir: &std::path::Path) {
        if !self.enabled || self.runs == 0 {
            return;
        }
        let path = dir.join(format!("TRACE_{}.jsonl", self.name));
        let io = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &self.out));
        match io {
            Ok(()) => println!("trace artifact: {} ({} runs)", path.display(), self.runs),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// Formats a duration with a human-friendly unit.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cfg() -> BenchConfig {
        BenchConfig {
            samples: 3,
            warmup: 1,
            filter: None,
        }
    }

    #[test]
    fn runs_and_records() {
        let mut r = Runner::with_config(quiet_cfg());
        let mut calls = 0u32;
        r.bench("trivial", || {
            calls += 1;
            calls
        });
        // 1 warmup + 3 samples.
        assert_eq!(calls, 4);
        assert_eq!(r.results().len(), 1);
        let (name, stats) = &r.results()[0];
        assert_eq!(name, "trivial");
        assert!(stats.min <= stats.median && stats.median <= stats.mean * 2);
        assert_eq!(stats.samples, 3);
    }

    #[test]
    fn setup_not_timed_and_fresh_per_iteration() {
        let mut r = Runner::with_config(quiet_cfg());
        let mut setups = 0u32;
        r.bench_with_setup(
            "with_setup",
            || {
                setups += 1;
                vec![0u8; 16]
            },
            |v| v.len(),
        );
        assert_eq!(setups, 4);
    }

    #[test]
    fn count_knobs_are_parsed_strictly() {
        let samples = |v| parse_count("PROFESS_BENCH_SAMPLES", v, 10, 1);
        assert_eq!(samples(None), Ok(10));
        assert_eq!(samples(Some("7")), Ok(7));
        assert_eq!(samples(Some("4294967295")), Ok(u32::MAX));
        for bad in ["0", "4294967296", "abc", "", "-1", "2.5"] {
            let err = samples(Some(bad)).expect_err(bad);
            assert!(
                err.starts_with(&format!("PROFESS_BENCH_SAMPLES={bad}:")),
                "{err}"
            );
        }
        let warmup = |v| parse_count("PROFESS_BENCH_WARMUP", v, 3, 0);
        assert_eq!(warmup(None), Ok(3));
        assert_eq!(warmup(Some("0")), Ok(0));
        for bad in ["4294967296", "x"] {
            let err = warmup(Some(bad)).expect_err(bad);
            assert!(
                err.starts_with(&format!("PROFESS_BENCH_WARMUP={bad}:")),
                "{err}"
            );
        }
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut r = Runner::with_config(BenchConfig {
            filter: Some("channel".into()),
            ..quiet_cfg()
        });
        r.bench("core_model", || ());
        assert!(r.results().is_empty());
        r.bench("channel_10k", || ());
        assert_eq!(r.results().len(), 1);
    }

    #[test]
    fn bench_json_artifact_round_trips() {
        let dir = std::env::temp_dir().join(format!("profess_bench_json_{}", std::process::id()));
        let mut bj = BenchJson::start("unit");
        bj.add_sim_ops(42);
        bj.add_harness_samples(3);
        bj.push_result(
            "sub",
            BenchStats {
                min: Duration::from_nanos(10),
                median: Duration::from_nanos(20),
                mean: Duration::from_nanos(30),
                samples: 3,
            },
        );
        bj.finish_into(&dir);
        let raw = std::fs::read_to_string(dir.join("BENCH_unit.json")).expect("artifact written");
        let json = Json::parse(&raw).expect("valid JSON");
        assert_eq!(json.get("bench"), Some(&Json::Str("unit".into())));
        assert_eq!(json.get("sim_ops"), Some(&Json::UInt(42)));
        assert_eq!(json.get("harness_samples"), Some(&Json::UInt(3)));
        assert!(matches!(json.get("threads"), Some(Json::UInt(n)) if *n >= 1));
        assert!(json.get("wall_seconds").is_some() && json.get("sim_ops_per_sec").is_some());
        // Provenance block: every field present, never empty (worst case
        // the literal "unknown").
        let Some(meta) = json.get("meta") else {
            panic!("meta block missing");
        };
        for field in ["hostname", "os", "arch", "rustc", "commit"] {
            assert!(
                matches!(meta.get(field), Some(Json::Str(s)) if !s.is_empty()),
                "meta.{field} missing or empty"
            );
        }
        let Some(Json::Arr(results)) = json.get("results") else {
            panic!("results array missing");
        };
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get("median_ns"), Some(&Json::UInt(20)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }
}
