//! Host-time benchmark of the ProFess simulator's figure sweeps.
//!
//! Run from the repository root, as the package of its own that
//! `BENCHMARK.json` runs or as the root package's `perf` example:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path examples/perf/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--bless]
//! cargo run --release --offline --quiet --example perf -- --workload <name> ...
//! ```
//!
//! `--trace 0` (the default) times the workload with tracing off and
//! prints the end-to-end metrics; `--trace 1` is the separate traced run
//! that prints the per-layer metrics. Either way the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! `--seed` shuffles the order the cells run in and never what they
//! simulate, so every pass of every run holds each cell's report to
//! `golden.json`, and the simulated totals are exact at any seed.
//! `--bless` re-records this workload's entry in `golden.json`. See
//! README.md for the workloads and metric definitions.

mod cells;
mod probe;
mod standalone;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use profess::metrics::{geomean, Json};
use profess::obs::{Log2Histogram, TraceConfig};
use profess::prelude::*;
use profess::report::report_to_json;
use profess::rng::Rng;
use profess::trace::family_workloads;
use profess_bench::checkpoint::{fingerprint, Journal};
use profess_bench::harness::TraceCollector;
use profess_bench::surface::{
    surface_sweep, surface_to_json, SurfacePoint, SurfaceSpec, DEFAULT_POLICIES,
};
use profess_bench::{
    normalized_sweep_supervised, rows_to_json, workload_metrics, FaultPlan, NormalizedRow, Pool,
    SnapshotMode, SuperviseConfig, MULTI_TARGET_MISSES,
};

use cells::{Cell, Load};
use probe::Probe;

/// Golden report and row fingerprints of each workload's cells.
const GOLDEN: &str = include_str!("golden.json");

/// Where `--bless` writes, relative to the repository root.
const GOLDEN_PATH: &str = "examples/perf/golden.json";

/// Empty-source runs of a cell timed just before each run of the cell.
/// Set-up takes milliseconds and host noise comes in bursts, so samples
/// are spread over the whole run rather than taken back to back.
const SETUP_SAMPLES: usize = 3;

/// Integers the speed kernel sorts: about 0.2 ms of work.
const KERNEL_LEN: usize = 1 << 13;

/// About the speed kernel's median time on the host of the README's
/// baseline. Host times are reported as if every cell ran at the speed
/// this gives: the host's speed drifts by up to 1.5x within seconds, and
/// the kernel's time tracks the simulator's through it (README.md, "Host
/// speed").
const KERNEL_REFERENCE_S: f64 = 0.000_140;

/// Speed-kernel runs per thread before and after a `short_cells` round.
const ROUND_KERNELS: usize = 8;

/// `short_cells` runs at least this many rounds.
const MIN_ROUNDS: usize = 10;

/// Per-program memory-operation target of `short_cells`: cells of 1–10 ms.
const SHORT_TARGET: u64 = 400;

/// Worker threads of `short_cells`.
const SHORT_THREADS: usize = 2;

/// Requests one standalone channel run serves.
const CHANNEL_REQUESTS: usize = 200_000;

/// Longest op stream one cell feeds the standalone core.
const CORE_OPS: usize = 1 << 16;

/// No-op tasks per `par.ns_per_task` measurement.
const PAR_TASKS: usize = 1_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Name {
    Fig16Sweep,
    SurfaceRw,
    ChurnAttack,
    ShortCells,
}

const NAMES: [(&str, Name); 4] = [
    ("fig16_sweep", Name::Fig16Sweep),
    ("surface_rw", Name::SurfaceRw),
    ("churn_attack", Name::ChurnAttack),
    ("short_cells", Name::ShortCells),
];

impl Name {
    fn as_str(self) -> &'static str {
        NAMES
            .iter()
            .find(|(_, n)| *n == self)
            .map_or("?", |(s, _)| s)
    }
}

struct Args {
    name: Name,
    seed: u64,
    seconds: u64,
    traced: bool,
    bless: bool,
}

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = NAMES.iter().map(|(s, _)| *s).collect();
    eprintln!("perf: {msg}");
    eprintln!(
        "usage: perf --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--bless]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        name: Name::Fig16Sweep,
        seed: 0,
        seconds: 0,
        traced: false,
        bless: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} `{value}` is not an unsigned integer"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    NAMES
                        .iter()
                        .find(|(s, _)| *s == value)
                        .map(|&(_, n)| n)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}`: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    args.name = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The cells a workload runs, the order it runs them in, and how its rows
/// are assembled.
struct Plan {
    name: Name,
    cells: Vec<Cell>,
    rows: Rows,
    /// Seeds the order of the cells and of the public sweep's mixes.
    seed: u64,
    /// Indices into `cells`, in the order a pass runs them.
    order: Vec<usize>,
}

enum Rows {
    /// Normalized `policy`-over-PoM rows, as `normalized_sweep_supervised`.
    Normalized {
        policy: PolicyKind,
        target: u64,
        workloads: Vec<Workload>,
    },
    /// Surface points, as `surface_sweep`.
    Surface(SurfaceSpec),
    /// Per-cell reports only.
    None,
}

impl Plan {
    /// The workload's cells, to run in an order drawn from `seed`.
    fn new(name: Name, seed: u64) -> Plan {
        let pick = |ids: &[&str]| -> Vec<Workload> {
            ids.iter()
                .map(|id| {
                    profess::trace::workload::workload_by_id(id).expect("registered workload id")
                })
                .collect()
        };
        // ProFess over PoM, as the Fig 10-16 sweeps run it.
        let normalized = |workloads: Vec<Workload>, target: u64| {
            let policy = PolicyKind::Profess;
            let cells = cells::normalized_cells(policy, target, &workloads);
            let rows = Rows::Normalized {
                policy,
                target,
                workloads,
            };
            (cells, rows)
        };
        let (cells, rows) = match name {
            Name::Fig16Sweep => normalized(pick(&["w09", "w16", "w19"]), MULTI_TARGET_MISSES),
            Name::SurfaceRw => {
                let spec = SurfaceSpec::new(DEFAULT_POLICIES.to_vec());
                (cells::surface_cells(&spec), Rows::Surface(spec))
            }
            Name::ChurnAttack => {
                let workloads: Vec<Workload> = family_workloads()
                    .into_iter()
                    .filter(|w| w.id == "churn01" || w.id == "burst01")
                    .collect();
                let policies = [PolicyKind::Pom, PolicyKind::MemPod, PolicyKind::Profess];
                let cells = cells::multi_cells(&policies, MULTI_TARGET_MISSES, &workloads);
                (cells, Rows::None)
            }
            Name::ShortCells => normalized(profess::trace::workloads().to_vec(), SHORT_TARGET),
        };
        let mut order: Vec<usize> = (0..cells.len()).collect();
        Rng::seed_from_u64(seed).shuffle(&mut order);
        Plan {
            name,
            cells,
            rows,
            seed,
            order,
        }
    }

    /// The rows document the direct cells assemble into (`None` for
    /// workloads without rows). Mirrors the public sweeps' assembly; the
    /// golden check compares it with theirs.
    fn rows_doc(&self, reports: &[SystemReport]) -> Option<String> {
        match &self.rows {
            Rows::Normalized {
                policy, workloads, ..
            } => {
                let mut solo: BTreeMap<(&str, SpecProgram), f64> = BTreeMap::new();
                let mut multi: BTreeMap<(usize, &str), &SystemReport> = BTreeMap::new();
                for (c, r) in self.cells.iter().zip(reports) {
                    if let Load::Spec {
                        programs, workload, ..
                    } = &c.load
                    {
                        match workload {
                            None => {
                                solo.insert((c.policy.name(), programs[0]), r.programs[0].ipc);
                            }
                            Some(wi) => {
                                multi.insert((*wi, c.policy.name()), r);
                            }
                        }
                    }
                }
                let metrics = |wi: usize, w: &Workload, pk: PolicyKind| {
                    let ipcs: Vec<f64> =
                        w.programs.iter().map(|&p| solo[&(pk.name(), p)]).collect();
                    workload_metrics(w.id, multi[&(wi, pk.name())], &ipcs)
                };
                let rows: Vec<NormalizedRow> = workloads
                    .iter()
                    .enumerate()
                    .map(|(wi, w)| {
                        let base = metrics(wi, w, PolicyKind::Pom);
                        let m = metrics(wi, w, *policy);
                        NormalizedRow {
                            id: w.id.to_string(),
                            unfairness: m.unfairness / base.unfairness,
                            weighted_speedup: m.weighted_speedup / base.weighted_speedup,
                            energy_efficiency: m.energy_efficiency / base.energy_efficiency,
                            read_latency: m.read_latency / base.read_latency,
                            swap_fraction: m.swap_fraction / base.swap_fraction.max(1e-12),
                        }
                    })
                    .collect();
                Some(rows_to_json(&rows))
            }
            Rows::Surface(spec) => {
                let points: Vec<SurfacePoint> = self
                    .cells
                    .iter()
                    .zip(reports)
                    .map(|(c, r)| match c.load {
                        Load::Surface {
                            read_frac,
                            intensity,
                            ..
                        } => SurfacePoint::from_report(c.policy, read_frac, intensity, r),
                        Load::Spec { .. } => unreachable!("surface plans hold surface cells"),
                    })
                    .collect();
                Some(surface_to_json(self.name.as_str(), spec, &points))
            }
            Rows::None => None,
        }
    }

    /// Runs the public sweep these cells belong to (nothing for plans
    /// without rows). A normalized sweep gets its mixes in an order drawn
    /// from the plan's seed; its rows are put back in the plan's order.
    fn public_sweep(&self, cfg: &SystemConfig, pool: &Pool, journal: &Journal) -> Sweep {
        let snap = SnapshotMode::disabled();
        let mut traces = TraceCollector::disabled();
        match &self.rows {
            Rows::Normalized {
                policy,
                target,
                workloads,
            } => {
                let mut mixes = workloads.clone();
                Rng::seed_from_u64(self.seed).shuffle(&mut mixes);
                let mut run = normalized_sweep_supervised(
                    pool,
                    cfg,
                    *policy,
                    *target,
                    &mixes,
                    &supervision(),
                    journal,
                    &snap,
                    &mut traces,
                );
                run.rows
                    .sort_by_key(|r| workloads.iter().position(|w| w.id == r.id));
                Sweep {
                    cells: run.cells.len(),
                    failed: run.failed_cells().len(),
                    rows: Some(rows_to_json(&run.rows)),
                }
            }
            Rows::Surface(spec) => {
                let run =
                    surface_sweep(pool, cfg, spec, &supervision(), journal, &snap, &mut traces);
                Sweep {
                    cells: run.cells.len(),
                    failed: run.failed_cells().len(),
                    rows: Some(surface_to_json(self.name.as_str(), spec, &run.points)),
                }
            }
            Rows::None => Sweep {
                cells: 0,
                failed: 0,
                rows: None,
            },
        }
    }
}

/// What a public sweep returned.
struct Sweep {
    cells: usize,
    failed: usize,
    rows: Option<String>,
}

/// The supervision `short_cells` runs under: two retries, no watchdog.
fn supervision() -> SuperviseConfig {
    SuperviseConfig {
        retries: 2,
        timeout: None,
        faults: FaultPlan::none(),
    }
}

/// One pass over a plan's cells.
struct Pass {
    /// Host time per cell.
    cell: Vec<Duration>,
    /// The cells' time plus row assembly: the pass as a sweep runs it,
    /// without the set-up samples taken between cells.
    wall: Duration,
    /// `wall` in seconds, with each cell's time scaled by the host speed
    /// measured just before it (unscaled without set-up samples).
    scaled: f64,
    /// Report fingerprint per cell, or why the cell failed.
    fps: Vec<Result<String, String>>,
    reports: Vec<SystemReport>,
    rows: Option<String>,
}

impl Pass {
    fn served(&self) -> u64 {
        self.reports.iter().map(|r| r.total_served).sum()
    }

    fn total(&self) -> Duration {
        self.cell.iter().sum()
    }
}

/// Runs every cell serially, in the plan's order, from the builder `build`
/// makes, timing each, and samples each cell's set-up and the host speed
/// just before it runs when given a `setup` to record into. The results
/// are in cell order.
fn run_pass(
    plan: &Plan,
    cfg: &SystemConfig,
    mut setup: Option<&mut Setup>,
    mut build: impl FnMut(&Cell) -> SystemBuilder,
) -> Pass {
    let mut runs = Vec::with_capacity(plan.cells.len());
    let (mut scaled, mut speed) = (0.0, 1.0);
    for &i in &plan.order {
        if let Some(setup) = setup.as_deref_mut() {
            let k = setup.kernel.len();
            setup.sample(plan, cfg, i, SETUP_SAMPLES);
            speed = setup.speed_since(k);
        }
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| build(&plan.cells[i]).try_run()));
        let elapsed = t.elapsed();
        scaled += elapsed.as_secs_f64() * speed;
        let outcome = match out {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("panicked".to_string()),
        };
        runs.push((i, elapsed, outcome));
    }
    runs.sort_by_key(|&(i, ..)| i);
    let (cell, outcomes): (Vec<Duration>, Vec<_>) =
        runs.into_iter().map(|(_, t, out)| (t, out)).unzip();
    let fps = outcomes
        .iter()
        .map(|o| o.as_ref().map_err(Clone::clone).and_then(check_report))
        .collect();
    let reports: Vec<SystemReport> = outcomes.into_iter().filter_map(Result::ok).collect();
    let t = Instant::now();
    let rows = if reports.len() == plan.cells.len() {
        plan.rows_doc(&reports)
    } else {
        None
    };
    let assembly = t.elapsed();
    Pass {
        wall: cell.iter().sum::<Duration>() + assembly,
        scaled: scaled + assembly.as_secs_f64() * speed,
        cell,
        fps,
        reports,
        rows,
    }
}

/// A report's fingerprint, after the invariants every finished run meets.
fn check_report(r: &SystemReport) -> Result<String, String> {
    if r.truncated {
        return Err("hit the cycle cap".into());
    }
    if r.total_served == 0 || r.elapsed_cycles == 0 {
        return Err("served nothing".into());
    }
    if r.total_served != r.programs.iter().map(|p| p.served).sum::<u64>() {
        return Err("per-program served counts do not add up".into());
    }
    if !r.programs.iter().all(|p| p.ipc.is_finite() && p.ipc > 0.0) {
        return Err("a program has no positive IPC".into());
    }
    Ok(fingerprint(&report_to_json(r).to_string()))
}

/// The golden entry of one workload: its cells' and rows' fingerprints.
/// A missing entry is a problem in `tally`.
fn golden(name: Name, tally: &mut Tally) -> Option<Reference> {
    let doc = Json::parse(GOLDEN).expect("golden.json parses");
    let entry = doc.get(name.as_str());
    let cells = match entry.and_then(|e| e.get("cells")) {
        Some(Json::Obj(kv)) => kv
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect(),
        _ => {
            tally
                .problems
                .push(format!("golden.json has no {} entry", name.as_str()));
            return None;
        }
    };
    let rows = entry
        .and_then(|e| e.get("rows"))
        .and_then(Json::as_str)
        .map(str::to_string);
    Some(Reference { cells, rows })
}

/// Counts cell runs and failures, and collects why checks failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Checks a pass against the golden fingerprints and rows, if any.
    fn pass(&mut self, what: &str, plan: &Plan, pass: &Pass, refs: Option<&Reference>) {
        for (c, fp) in plan.cells.iter().zip(&pass.fps) {
            self.attempted += 1;
            let verdict = match (fp, refs.map(|r| r.cells.get(&c.label))) {
                (Err(e), _) => Err(e.clone()),
                (Ok(_), Some(None)) => Err("no golden fingerprint".to_string()),
                (Ok(fp), Some(Some(want))) if fp != want => {
                    Err(format!("report fingerprint {fp}, expected {want}"))
                }
                _ => Ok(()),
            };
            if let Err(e) = verdict {
                self.failed += 1;
                self.problems.push(format!("{what}: cell {}: {e}", c.label));
            }
        }
        if let Some(want) = refs.and_then(|r| r.rows.as_ref()) {
            self.rows(what, pass.rows.as_deref(), want);
        }
    }

    fn rows(&mut self, what: &str, got: Option<&str>, want: &str) {
        let got = got.map(fingerprint);
        if got.as_deref() != Some(want) {
            self.problems.push(format!(
                "{what}: rows fingerprint {}, expected {want}",
                got.as_deref().unwrap_or("(none)")
            ));
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Fingerprints a pass is held to.
struct Reference {
    cells: BTreeMap<String, String>,
    rows: Option<String>,
}

/// Host samples taken between cells: set-up time per cell, from
/// empty-source runs with the cell's exact config, policy and program
/// count (`System::new` plus the report), and the speed kernel's time.
struct Setup {
    cells: Vec<Vec<Duration>>,
    kernel: Vec<Duration>,
}

impl Setup {
    fn new(plan: &Plan) -> Setup {
        Setup {
            cells: vec![Vec::new(); plan.cells.len()],
            kernel: Vec::new(),
        }
    }

    /// Times `reps` empty-source runs of cell `i`, each followed by the
    /// speed kernel.
    fn sample(&mut self, plan: &Plan, cfg: &SystemConfig, i: usize, reps: usize) {
        for _ in 0..reps {
            let b = plan.cells[i].empty_builder(cfg);
            let t = Instant::now();
            let r = b.try_run().expect("an empty-source run completes");
            self.cells[i].push(t.elapsed());
            black_box(r);
            self.kernel.push(speed_kernel());
        }
    }

    /// Each cell's median sample, in seconds.
    fn medians(&self) -> Vec<f64> {
        self.cells.iter().map(|s| median_secs(s)).collect()
    }

    /// The host's speed over the run, relative to the reference host: the
    /// kernel's reference time over its median time here.
    fn speed(&self) -> f64 {
        self.speed_since(0)
    }

    /// The host's speed over the kernel samples from number `from` on.
    fn speed_since(&self, from: usize) -> f64 {
        KERNEL_REFERENCE_S / median_secs(&self.kernel[from..])
    }
}

/// The host speed as `threads` threads running at once see it, for work
/// spread over that many threads: the mean over the threads of each
/// one's speed over `reps` kernel runs. The vCPUs of the host can run at
/// different speeds.
fn threads_speed(threads: usize, reps: usize) -> f64 {
    let speeds: Vec<f64> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| (0..reps).map(|_| speed_kernel()).collect::<Vec<_>>()))
            .collect();
        runs.into_iter()
            .map(|r| KERNEL_REFERENCE_S / median_secs(&r.join().expect("a kernel thread")))
            .collect()
    });
    speeds.iter().sum::<f64>() / threads as f64
}

/// Fills and sorts [`KERNEL_LEN`] pseudo-random integers: fixed CPU-bound
/// work, in this file so no change to the simulator can change its speed.
fn speed_kernel() -> Duration {
    let t = Instant::now();
    let mut x = KERNEL_LEN as u64;
    let mut xs: Vec<u64> = (0..KERNEL_LEN)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 11
        })
        .collect();
    xs.sort_unstable();
    black_box(xs);
    t.elapsed()
}

/// The median: the mean of the two middle values of an even count.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

/// The median duration, in seconds.
fn median_secs(xs: &[Duration]) -> f64 {
    median(xs.iter().map(Duration::as_secs_f64).collect())
}

/// Whether one more repetition, as long as the last, ends within the
/// budget measured from `start`.
fn another_fits(start: Instant, last: Duration, budget: Duration) -> bool {
    start.elapsed() + last <= budget
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A workload's private scratch directory, under the build directory.
fn scratch_dir(name: Name) -> PathBuf {
    let exe = std::env::current_exe().expect("current executable path");
    let dir = exe.parent().expect("executable directory");
    dir.join(format!(
        "perf-scratch-{}-{}",
        name.as_str(),
        std::process::id()
    ))
}

/// One `short_cells` round: the public sweep on a fresh journal.
fn short_round(plan: &Plan, cfg: &SystemConfig, dir: &std::path::Path) -> (Duration, Sweep, u64) {
    let path = dir.join("CHECKPOINT_short_cells.jsonl");
    let _ = std::fs::remove_file(&path);
    let journal = Journal::load(&path).expect("open the round's checkpoint journal");
    let pool = Pool::new(SHORT_THREADS);
    let t = Instant::now();
    let sweep = plan.public_sweep(cfg, &pool, &journal);
    let wall = t.elapsed();
    drop(journal);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    (wall, sweep, bytes)
}

/// Metric values in output order, with units.
struct Metrics {
    rows: Vec<(&'static str, f64, &'static str)>,
    /// The run's [`Setup::speed`].
    speed: f64,
}

impl Metrics {
    fn new(speed: f64) -> Metrics {
        Metrics {
            rows: Vec::new(),
            speed,
        }
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.rows.push((name, value, unit));
    }

    /// Puts a host time measured here, scaled to the reference host.
    fn host(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.put(name, value * self.speed, unit);
    }

    /// Prints the table and the final JSON line; the exit status says
    /// whether every check passed.
    fn finish(self, tally: &Tally) -> ExitCode {
        println!("cells {}  cells_failed {}", tally.attempted, tally.failed);
        for p in &tally.problems {
            println!("FAILED {p}");
        }
        println!(
            "host speed {:.4} of the reference; host times are scaled to it",
            self.speed
        );
        for (name, value, unit) in &self.rows {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        let metrics = Json::Obj(
            self.rows
                .iter()
                .map(|&(name, value, unit)| {
                    (
                        name.to_string(),
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        );
        let line = Json::obj([
            ("correct", Json::Bool(tally.correct())),
            ("attempted", Json::UInt(tally.attempted)),
            ("failed", Json::UInt(tally.failed)),
            ("metrics", metrics),
        ]);
        println!("{}", line.to_string());
        if tally.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Simulated totals of a pass: Σ elapsed cycles and the geomean of the
/// cells' aggregate IPC.
fn sim_metrics(m: &mut Metrics, pass: &Pass) {
    let cycles: u64 = pass.reports.iter().map(|r| r.elapsed_cycles).sum();
    let ipcs: Vec<f64> = pass
        .reports
        .iter()
        .map(SystemReport::aggregate_ipc)
        .collect();
    m.put("sim_cycles", cycles as f64, "cycles");
    m.put("sim_ipc", geomean(&ipcs), "IPC");
}

/// The untraced run: end-to-end metrics.
fn end_to_end_run(args: &Args, plan: &Plan, cfg: &SystemConfig) -> ExitCode {
    let mut tally = Tally::default();
    let want = golden(plan.name, &mut tally);
    let mut setup = Setup::new(plan);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // Each pass's or round's wall time, as measured and scaled to the
    // reference host speed.
    let mut walls: Vec<(f64, f64)> = Vec::new();
    let first = if plan.name == Name::ShortCells {
        // The direct cells give the simulated totals; the timed rounds are
        // the public sweep itself, whose rows must be the golden ones too.
        let direct = run_pass(plan, cfg, Some(&mut setup), |c| c.builder(cfg));
        tally.pass("direct cells", plan, &direct, want.as_ref());
        let dir = scratch_dir(plan.name);
        let mut last = Duration::ZERO;
        while walls.len() < MIN_ROUNDS || another_fits(start, last, budget) {
            let t = Instant::now();
            for &i in &plan.order {
                setup.sample(plan, cfg, i, 1);
            }
            // The round runs on both threads, so its speed is taken on both,
            // before and after it.
            let before = threads_speed(SHORT_THREADS, ROUND_KERNELS);
            let (wall, sweep, _) = short_round(plan, cfg, &dir);
            let speed = (before + threads_speed(SHORT_THREADS, ROUND_KERNELS)) / 2.0;
            tally.attempted += sweep.cells as u64;
            tally.failed += sweep.failed as u64;
            if let Some(rows) = want.as_ref().and_then(|w| w.rows.as_deref()) {
                tally.rows("round", sweep.rows.as_deref(), rows);
            }
            let wall = wall.as_secs_f64();
            walls.push((wall, wall * speed));
            last = t.elapsed();
        }
        let _ = std::fs::remove_dir_all(&dir);
        direct
    } else {
        let mut first = None;
        let mut last = Duration::ZERO;
        while first.is_none() || another_fits(start, last, budget) {
            let t = Instant::now();
            let pass = run_pass(plan, cfg, Some(&mut setup), |c| c.builder(cfg));
            let what = format!("pass {}", walls.len() + 1);
            tally.pass(&what, plan, &pass, want.as_ref());
            let wall = pass.wall.as_secs_f64();
            println!("{what}: {wall:.3} s, scaled {:.3} s", pass.scaled);
            walls.push((wall, pass.scaled));
            first.get_or_insert(pass);
            last = t.elapsed();
        }
        first.expect("at least one pass")
    };
    println!(
        "workload {}  seed {}  passes {}",
        plan.name.as_str(),
        args.seed,
        walls.len()
    );
    println!(
        "median wall {:.4} s, as measured",
        median(walls.iter().map(|w| w.0).collect())
    );
    let wall = median(walls.iter().map(|w| w.1).collect());
    let mut m = Metrics::new(setup.speed());
    m.put("wall_s", wall, "s");
    m.put(
        "host_ns_per_req",
        wall * 1e9 / first.served().max(1) as f64,
        "ns",
    );
    m.host("setup_s", setup.medians().into_iter().sum(), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    sim_metrics(&mut m, &first);
    m.finish(&tally)
}

/// Host ns one traced round measured.
struct Round {
    /// Σ cell time of the plain, probed and tracer passes.
    plain: f64,
    probed: f64,
    tracer: f64,
    /// The orchestrated wall time: the plain pass's, or a public round's.
    sweep: f64,
    /// Estimated time inside `next_op`, `on_access` and the other hooks.
    next_op: f64,
    access: f64,
    hooks: f64,
}

/// The traced run: per-layer metrics.
///
/// Each round runs the cells three ways — A as users run them, B with
/// spans around op sources and policy hooks, C with the in-tree tracer
/// on — and all three must reproduce the golden reports. Rounds repeat
/// for the run's seconds; host times are medians over rounds, simulated
/// counts come from the first.
fn per_layer_run(args: &Args, plan: &Plan, cfg: &SystemConfig) -> ExitCode {
    let mut tally = Tally::default();
    let want = golden(plan.name, &mut tally);
    let want = want.as_ref();
    let empty_span = probe::empty_span_ns();
    println!("empty span: {empty_span:.1} ns");
    let mut setup = Setup::new(plan);
    let dir = scratch_dir(plan.name);
    let threads = if plan.name == Name::ShortCells {
        SHORT_THREADS
    } else {
        1
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut cell_times: Vec<Vec<Duration>> = vec![Vec::new(); plan.cells.len()];
    let mut first: Option<(Pass, Pass, Vec<Rc<Probe>>)> = None;
    let mut journal_bytes = 0;
    let mut last = Duration::ZERO;
    while rounds.is_empty() || another_fits(start, last, budget) {
        let t = Instant::now();
        let a = run_pass(plan, cfg, Some(&mut setup), |c| c.builder(cfg));
        tally.pass("plain pass", plan, &a, want);
        let mut probes: Vec<Rc<Probe>> = Vec::new();
        let b = run_pass(plan, cfg, Some(&mut setup), |c| {
            let p = Rc::new(Probe::default());
            probes.push(p.clone());
            c.probed_builder(cfg, &p)
        });
        tally.pass("probed pass", plan, &b, want);
        let c = run_pass(plan, cfg, Some(&mut setup), |c| {
            c.builder(cfg).trace(TraceConfig::on())
        });
        tally.pass("tracer pass", plan, &c, want);
        let sweep = if plan.name == Name::ShortCells {
            let (wall, sweep, bytes) = short_round(plan, cfg, &dir);
            tally.attempted += sweep.cells as u64;
            tally.failed += sweep.failed as u64;
            if let Some(rows) = want.and_then(|w| w.rows.as_deref()) {
                tally.rows("public round", sweep.rows.as_deref(), rows);
            }
            journal_bytes = bytes;
            wall
        } else {
            a.wall
        };
        let estimate = |f: fn(&Probe) -> &probe::Span| {
            probes
                .iter()
                .map(|p| f(p).total_ns(empty_span))
                .sum::<f64>()
        };
        rounds.push(Round {
            plain: a.total().as_nanos() as f64,
            probed: b.total().as_nanos() as f64,
            tracer: c.total().as_nanos() as f64,
            sweep: sweep.as_nanos() as f64,
            next_op: estimate(|p| &p.next_op),
            access: estimate(|p| &p.on_access),
            hooks: estimate(|p| &p.hooks),
        });
        for (times, t) in cell_times.iter_mut().zip(&a.cell) {
            times.push(*t);
        }
        if first.is_none() {
            first = Some((a, c, probes));
        }
        last = t.elapsed();
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("rounds {}", rounds.len());
    let (a, c, probes) = first.expect("at least one round");
    let med = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    let count = |f: fn(&Probe) -> u64| probes.iter().map(|p| f(p)).sum::<u64>();
    let next_op_calls = count(|p| p.next_op.calls());
    let access_calls = count(|p| p.on_access.calls());
    let (loads, stores) = (count(|p| p.loads.get()), count(|p| p.stores.get()));
    let groups: Vec<Vec<_>> = probes.iter().map(|p| p.groups.take()).collect();
    let hist = |name: &str| {
        let mut h = Log2Histogram::new();
        for r in &c.reports {
            if let Some(found) = r
                .trace
                .as_ref()
                .and_then(|t| t.hists.iter().find(|(n, _)| *n == name))
            {
                h.merge(&found.1);
            }
        }
        h
    };
    let (rob, depth, read_lat) = (
        hist("core_rob_occupancy"),
        hist("channel_queue_depth"),
        hist("channel_read_latency"),
    );

    let served = a.served().max(1) as f64;
    let weighted = |f: fn(&SystemReport) -> f64| {
        a.reports
            .iter()
            .map(|r| f(r) * r.total_served as f64)
            .sum::<f64>()
            / served
    };
    let row_hit = weighted(|r| r.row_hit_rate);
    let stc_hit = weighted(|r| r.stc_hit_rate);
    let read_latency = weighted(|r| r.avg_read_latency_cycles);
    let m1_share = a
        .reports
        .iter()
        .flat_map(|r| &r.programs)
        .map(|p| p.served_from_m1)
        .sum::<u64>() as f64
        / served;
    let swaps: u64 = a.reports.iter().map(|r| r.swaps).sum();

    // Standalone layers at the in-situ operating point.
    let point = standalone::calibrate(
        cfg,
        standalone::ChannelPoint {
            depth: (depth.mean().round() as usize).max(1),
            read_frac: loads as f64 / (loads + stores).max(1) as f64,
            m1_share,
            row_reuse: row_hit,
        },
        row_hit,
        args.seed,
    );
    let mem = standalone::channel(cfg, point, CHANNEL_REQUESTS, args.seed);
    let (mut core_ns, mut core_ops) = (0.0, 0usize);
    for cell in &plan.cells {
        let mut src = cell.source(cfg, 0, 0);
        let ops: Vec<_> = std::iter::from_fn(|| src.next_op())
            .take(CORE_OPS)
            .collect();
        let n = ops.len();
        core_ns += standalone::core(cfg, ops, read_latency.round() as u64) * n as f64;
        core_ops += n;
    }
    let (mut stc_ns, mut stc_hits, mut stc_lookups) = (0.0, 0.0, 0usize);
    for g in &groups {
        let run = standalone::stc(cfg, g);
        stc_ns += run.ns_per_lookup * g.len() as f64;
        stc_hits += run.hit_rate * g.len() as f64;
        stc_lookups += g.len();
    }
    println!(
        "channel point: depth {} read_frac {:.3} m1_share {:.3} row_reuse {:.3}",
        point.depth, point.read_frac, point.m1_share, point.row_reuse
    );
    println!(
        "row-hit rate: in situ {row_hit:.4}  standalone {:.4}",
        mem.row_hit_rate
    );
    println!(
        "STC hit rate: in situ {stc_hit:.4}  standalone {:.4}",
        stc_hits / stc_lookups.max(1) as f64
    );

    let cell_ms: Vec<f64> = cell_times.iter().map(|t| median_secs(t) * 1e3).collect();

    let mut m = Metrics::new(setup.speed());
    m.host(
        "trace.ns_per_op",
        med(&|r| r.next_op) / next_op_calls.max(1) as f64,
        "ns",
    );
    m.put("trace.share", med(&|r| r.next_op / r.plain), "share");
    m.host("cpu.ns_per_op", core_ns / core_ops.max(1) as f64, "ns");
    m.put("cpu.rob_occupancy_mean", rob.mean(), "entries");
    m.host("mem.ns_per_req", mem.ns_per_req, "ns");
    m.put("mem.queue_depth_mean", depth.mean(), "entries");
    m.put("mem.queue_depth_p99", depth.p99() as f64, "entries");
    m.put("mem.read_lat_p50_cycles", read_lat.p50() as f64, "cycles");
    m.put("mem.read_lat_p99_cycles", read_lat.p99() as f64, "cycles");
    m.put("mem.row_hit_rate", row_hit, "share");
    m.put("mem.standalone_row_hit_rate", mem.row_hit_rate, "share");
    m.put("mem.swaps", swaps as f64, "count");
    m.host(
        "core.stc.ns_per_lookup",
        stc_ns / stc_lookups.max(1) as f64,
        "ns",
    );
    m.put("core.stc.hit_rate", stc_hit, "share");
    m.put(
        "core.stc.standalone_hit_rate",
        stc_hits / stc_lookups.max(1) as f64,
        "share",
    );
    m.put(
        "core.stc.evictions",
        count(|p| p.evictions.get()) as f64,
        "count",
    );
    m.host(
        "core.policy.ns_per_access",
        med(&|r| r.access) / access_calls.max(1) as f64,
        "ns",
    );
    m.host(
        "core.policy.ns_per_served",
        med(&|r| r.access + r.hooks) / served,
        "ns",
    );
    m.put(
        "core.policy.share",
        med(&|r| (r.access + r.hooks) / r.plain),
        "share",
    );
    m.put(
        "core.policy.promote_rate",
        swaps as f64 / access_calls.max(1) as f64,
        "share",
    );
    m.host(
        "core.system.ns_per_req",
        med(&|r| r.plain - r.next_op - r.access - r.hooks) / served,
        "ns",
    );
    m.host("core.system.setup_ms", median(setup.medians()) * 1e3, "ms");
    m.host("bench.cell_p50_ms", median(cell_ms.clone()), "ms");
    m.host(
        "bench.cell_max_ms",
        cell_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    m.put(
        "bench.overhead_share",
        med(&|r| 1.0 - r.plain / (threads as f64 * r.sweep)),
        "share",
    );
    m.put("bench.journal_bytes", journal_bytes as f64, "bytes");
    m.host("par.ns_per_task", par_ns_per_task(), "ns");
    m.put("obs.trace_overhead", med(&|r| r.probed / r.plain), "x");
    m.put("obs.tracer_overhead", med(&|r| r.tracer / r.plain), "x");
    m.finish(&tally)
}

/// Host ns per task of supervised dispatch, `short_cells`' pool and
/// supervision with no-op tasks; median of 21 batches.
fn par_ns_per_task() -> f64 {
    let pool = Pool::new(SHORT_THREADS);
    let items = vec![(); PAR_TASKS];
    let times: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            let out = pool.run_supervised(&items, &supervision(), |_, &()| ());
            std::hint::black_box(out);
            t.elapsed().as_nanos() as f64 / PAR_TASKS as f64
        })
        .collect();
    median(times)
}

/// Re-records the plan's golden entry from its cells and the public sweep
/// of the same cells.
fn bless(plan: &Plan, cfg: &SystemConfig) -> ExitCode {
    let pass = run_pass(plan, cfg, None, |c| c.builder(cfg));
    let mut cells = Vec::new();
    for (c, fp) in plan.cells.iter().zip(&pass.fps) {
        match fp {
            Ok(fp) => cells.push((c.label.clone(), Json::Str(fp.clone()))),
            Err(e) => {
                eprintln!("perf: cell {} failed: {e}", c.label);
                return ExitCode::FAILURE;
            }
        }
    }
    let sweep = plan.public_sweep(cfg, &Pool::new(1), &Journal::disabled());
    let mut entry = vec![("cells".to_string(), Json::Obj(cells))];
    if let Some(rows) = &sweep.rows {
        if pass.rows.as_deref() != Some(rows.as_str()) {
            eprintln!("perf: the direct cells' rows differ from the public sweep's");
            return ExitCode::FAILURE;
        }
        entry.insert(0, ("rows".to_string(), Json::Str(fingerprint(rows))));
    }
    // Merge into the file on disk, not the copy compiled in, so blessing
    // several workloads in a row keeps every entry.
    let path = PathBuf::from(GOLDEN_PATH);
    let on_disk = std::fs::read_to_string(&path).unwrap_or_default();
    let mut doc = match Json::parse(&on_disk) {
        Ok(Json::Obj(kv)) => kv,
        _ => Vec::new(),
    };
    let key = plan.name.as_str().to_string();
    doc.retain(|(k, _)| *k != key && k != "seed");
    doc.push((key, Json::Obj(entry)));
    doc.sort_by(|x, y| x.0.cmp(&y.0));
    doc.insert(0, ("seed".to_string(), Json::Str(format!("{}", cfg.seed))));
    let text = pretty(&Json::Obj(doc), 0) + "\n";
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(text.as_bytes())) {
        Ok(()) => {
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perf: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Renders nested objects one key per line, for reviewable diffs.
fn pretty(j: &Json, indent: usize) -> String {
    match j {
        Json::Obj(kv) if !kv.is_empty() => {
            let pad = "  ".repeat(indent + 1);
            let body: Vec<String> = kv
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad}{}: {}",
                        Json::Str(k.clone()).to_string(),
                        pretty(v, indent + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n{}}}", body.join(",\n"), "  ".repeat(indent))
        }
        other => other.to_string(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let cfg = SystemConfig::scaled_quad();
    let plan = Plan::new(args.name, args.seed);
    if args.bless {
        bless(&plan, &cfg)
    } else if args.traced {
        per_layer_run(&args, &plan, &cfg)
    } else {
        end_to_end_run(&args, &plan, &cfg)
    }
}
