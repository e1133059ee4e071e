//! **profess-run** — runs one experiment of the registry
//! (`profess_bench::experiments`):
//!
//! ```text
//! profess-run <experiment> [--trace] [--scale paper] [<target>] [<id>...]
//! ```
//!
//! `<target>` is the memory operations per program (per load generator
//! for `surface`), a positive integer; the ids select the workloads of
//! `fig10_12` and `fig13_15`, the policies of `surface`, or the cells
//! `<workload|program>[:<policy>]` of `cells` (`w09:profess` one mix
//! under one policy, `mcf:mdm` one program alone, a bare `w12` the mix
//! under every policy). `--scale paper` runs `cells` on the paper-size
//! systems; every other experiment rejects it. `--trace` writes the
//! event trace of every traced cell to `TRACE_<experiment>.jsonl`; it
//! is the only tracing switch. With no arguments the usage lists the
//! experiments, programs, workloads and policies. The
//! supervision knobs (`PROFESS_THREADS`, `_RETRIES`,
//! `_TASK_TIMEOUT_MS`, `_FAULT`, `_SNAPSHOT`, `_SNAPSHOT_AT`) apply to
//! every experiment.
//!
//! The journal rule: `PROFESS_CHECKPOINT` names the directory of
//! `CHECKPOINT_<experiment>.jsonl` (`1`: the results directory), and a
//! run resumes from the cells it holds; unset, empty or `0` journals
//! nothing. Cells are journaled in completion order, so only a serial
//! run (`PROFESS_THREADS=1`) writes a journal byte-identical to
//! another's. The journal's path goes to stderr: stdout is the
//! experiment's output, the same at any thread count.
//!
//! Every cell attempt runs on a thread of this process. Exit codes
//! follow [`profess_bench::exit`].

use std::path::PathBuf;

use profess_bench::experiments::{self, Experiment, Ids, Setup, EXPERIMENTS};
use profess_bench::harness::results_dir;
use profess_bench::surface::{
    axis_from_env, DEFAULT_INTENSITIES, DEFAULT_READ_FRACS, INTENSITIES_ENV, RATIOS_ENV,
};
use profess_bench::{checkpoint, exit, Journal, Pool, SnapshotMode, SuperviseConfig};
use profess_core::system::PolicyKind;
use profess_trace::SpecProgram;

const USAGE: &str =
    "usage: profess-run <experiment> [--trace] [--scale paper] [<target>] [<id>...]";

/// Exits with a usage error; the message lists the experiments,
/// programs, workloads and policies.
fn usage_error(msg: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let programs: Vec<&str> = SpecProgram::ALL
        .iter()
        .chain(&SpecProgram::SYNTHETIC)
        .map(|p| p.name())
        .collect();
    let workloads: Vec<&str> = profess_trace::workload::all_workloads()
        .iter()
        .map(|w| w.id)
        .collect();
    eprintln!("profess-run: error: {msg}");
    eprintln!("{USAGE}");
    eprintln!("experiments: {}", names.join(" "));
    eprintln!("programs:    {}", programs.join(" "));
    eprintln!("workloads:   {}", workloads.join(" "));
    eprintln!(
        "policies:    {}",
        PolicyKind::ALL.map(PolicyKind::cli_name).join(" ")
    );
    std::process::exit(exit::USAGE)
}

/// The parsed command line.
#[derive(Debug)]
struct Args {
    exp: &'static Experiment,
    trace: bool,
    paper: bool,
    target: Option<u64>,
    ids: Vec<String>,
}

fn parse_args(argv: &[String]) -> Args {
    let (mut trace, mut paper) = (false, false);
    let mut positional = Vec::new();
    let mut argv = argv.iter();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--trace" => trace = true,
            "--scale" => match argv.next().map(String::as_str) {
                Some("paper") => paper = true,
                other => usage_error(&format!(
                    "`--scale` takes `paper`, not {}",
                    other.map_or("nothing".to_string(), |s| format!("`{s}`"))
                )),
            },
            s if s.starts_with('-') => usage_error(&format!("unknown flag `{s}`")),
            s => positional.push(s),
        }
    }
    let mut positional = positional.into_iter();
    let name = positional
        .next()
        .unwrap_or_else(|| usage_error("no experiment"));
    let exp = experiments::find(name)
        .unwrap_or_else(|| usage_error(&format!("unknown experiment `{name}`")));
    // A numeric first argument after the name is the target; the rest
    // are ids.
    let mut rest: Vec<&str> = positional.collect();
    let target = rest.first().and_then(|t| t.parse().ok());
    if target.is_some() {
        rest.remove(0);
    }
    if target == Some(0) {
        usage_error("the memory-operation target must be positive, not 0");
    }
    if paper && exp.ids != Ids::Cells {
        usage_error(&format!("`--scale paper` applies to `cells`, not `{name}`"));
    }
    Args {
        exp,
        trace,
        paper,
        target,
        ids: rest.into_iter().map(String::from).collect(),
    }
}

/// The experiment's setup: the target and what its ids select.
fn setup(args: &Args) -> Setup {
    let mut setup = Setup::new(args.target.unwrap_or(args.exp.default_target));
    setup.paper = args.paper;
    match args.exp.ids {
        Ids::None => {
            if let Some(id) = args.ids.first() {
                usage_error(&format!(
                    "`{id}` is not a memory-operation target ({} takes no ids)",
                    args.exp.name
                ));
            }
        }
        Ids::Workloads if !args.ids.is_empty() => {
            setup.workloads = args
                .ids
                .iter()
                .map(|id| {
                    profess_trace::workload::workload_by_id(id)
                        .unwrap_or_else(|e| usage_error(&e.to_string()))
                })
                .collect();
        }
        Ids::Workloads => {}
        Ids::Policies => {
            let spec = &mut setup.surface;
            if !args.ids.is_empty() {
                spec.policies = args
                    .ids
                    .iter()
                    .map(|n| experiments::policy_by_name(n).unwrap_or_else(|e| usage_error(&e)))
                    .collect();
            }
            spec.read_fracs =
                axis_from_env(RATIOS_ENV, &DEFAULT_READ_FRACS).unwrap_or_else(|e| usage_error(&e));
            spec.intensities = axis_from_env(INTENSITIES_ENV, &DEFAULT_INTENSITIES)
                .unwrap_or_else(|e| usage_error(&e));
            if let Err(e) = spec.validate() {
                usage_error(&e);
            }
        }
        Ids::Cells if !args.ids.is_empty() => {
            setup.cells = args
                .ids
                .iter()
                .flat_map(|id| experiments::cell_id(id).unwrap_or_else(|e| usage_error(&e)))
                .collect();
        }
        Ids::Cells => {}
    }
    setup
}

/// The one journal rule (see the module docs).
fn journal_path(name: &str) -> Option<PathBuf> {
    let dir = match std::env::var(checkpoint::CHECKPOINT_ENV) {
        Ok(v) if v == "1" => results_dir(),
        Ok(v) if !v.is_empty() && v != "0" => PathBuf::from(v),
        _ => return None,
    };
    Some(dir.join(format!("CHECKPOINT_{name}.jsonl")))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    let setup = setup(&args);
    let exp = args.exp;
    let pool = Pool::from_env().unwrap_or_else(|e| usage_error(&e));
    let sup = SuperviseConfig::from_env().unwrap_or_else(|e| usage_error(&e));
    let snap = SnapshotMode::from_env().unwrap_or_else(|e| usage_error(&e));
    let journal = match journal_path(exp.name) {
        None => Journal::disabled(),
        Some(p) => {
            let j = Journal::load(&p).unwrap_or_else(|e| {
                usage_error(&format!(
                    "cannot open checkpoint journal {}: {e}",
                    p.display()
                ))
            });
            eprintln!(
                "checkpoint journal: {} ({} cells replayed, {} lines dropped)",
                p.display(),
                j.loaded(),
                j.rejected()
            );
            j
        }
    };
    if !experiments::run(exp, &setup, &pool, &sup, &snap, &journal, args.trace) {
        std::process::exit(exit::SWEEP_FAILURE);
    }
}
