//! The experiment registry: one record per paper table, figure or
//! study. A record declares its cells as data — configuration × policy
//! × program, workload or surface point ([`Cell`]) — and the reducer
//! that folds the finished cells into its printed table and artifacts.
//! [`run`] executes any record on the one cell engine
//! (`run_cells`), so supervision, checkpoint/resume,
//! snapshots and tracing apply to every experiment alike; `profess-run
//! <name>` is the command line.
//!
//! The paper reference each table is compared with is printed under
//! it; EXPERIMENTS.md records the measured values and verdicts.

use profess_core::policies::rsm::analytic_sigma_fraction;
use profess_core::system::PolicyKind::{self, Mdm, MemPod, Pom, Profess, ProfessNoCase3};
use profess_metrics::table::TextTable;
use profess_metrics::BoxPlot;
use profess_obs::Log2Histogram;
use profess_trace::SpecProgram::{self, Bwaves, Libquantum, Mcf, Milc, Omnetpp, Zeusmp};
use profess_trace::{workloads, Workload};
use profess_types::SystemConfig;

use crate::harness::{BenchJson, TraceCollector};
use crate::surface::{
    surface_cells, surface_points, surface_to_json, write_surface_artifact, SurfaceSpec,
    DEFAULT_TARGET_OPS,
};
use crate::{
    distinct, geomean_or_nan, normalized_cells, normalized_rows, print_sweep, report_sweep_health,
    run_cells, slowdown_cells, summarize, write_rows_artifact, Cell, Journal, Pool, Results,
    Setting, Sim, SnapshotMode, SoloRun, SuperviseConfig, MULTI_TARGET_MISSES, SOLO_TARGET_MISSES,
};

/// What an experiment's trailing ids name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ids {
    /// The experiment takes no ids.
    None,
    /// Workload ids: the workloads swept (default: the 19 of Table 10).
    Workloads,
    /// Policy names ([`PolicyKind::cli_name`]): the policies
    /// characterized (default: [`crate::surface::DEFAULT_POLICIES`]).
    Policies,
}

/// An experiment's resolved command line.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Memory operations per program.
    pub target: u64,
    /// The workloads a [`Ids::Workloads`] experiment sweeps.
    pub workloads: Vec<Workload>,
    /// The grid of a [`Ids::Policies`] experiment (`surface`), its
    /// per-generator target included.
    pub surface: SurfaceSpec,
}

/// One registry record.
#[derive(Debug)]
pub struct Experiment {
    /// The name `profess-run` takes, and the artifacts' name.
    pub name: &'static str,
    /// Memory operations per program when the command line names none.
    pub default_target: u64,
    /// What the trailing ids name.
    pub ids: Ids,
    /// The cells, as passes run in order on one journal: a later pass
    /// restores the cells an earlier one already ran.
    pub cells: fn(&Setup) -> Vec<Vec<Cell>>,
    /// Prints the table and writes the artifacts from the finished
    /// cells: `None` when a cell it reads failed.
    pub report: fn(&Setup, &Results) -> Option<()>,
}

/// Every experiment, in DESIGN.md §3 order: name, default target, what
/// its ids name, its cells and its reducer.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    exp("fig02",         MULTI_TARGET_MISSES, Ids::None,      fig02_cells,         fig02),
    exp("fig05",         SOLO_TARGET_MISSES,  Ids::None,      fig05_cells,         fig05),
    exp("fig06",         SOLO_TARGET_MISSES,  Ids::None,      fig06_cells,         fig06),
    exp("fig07",         SOLO_TARGET_MISSES,  Ids::None,      fig07_cells,         fig07),
    exp("fig08_09",      SOLO_TARGET_MISSES,  Ids::None,      fig08_09_cells,      fig08_09),
    exp("fig10_12",      MULTI_TARGET_MISSES, Ids::Workloads, fig10_12_cells,      fig10_12),
    exp("fig13_15",      MULTI_TARGET_MISSES, Ids::Workloads, fig13_15_cells,      fig13_15),
    exp("fig16",         MULTI_TARGET_MISSES, Ids::None,      fig16_cells,         fig16),
    exp("table4",        300_000,             Ids::None,      table4_cells,        table4),
    exp("mempod_vs_pom", MULTI_TARGET_MISSES, Ids::None,      mempod_vs_pom_cells, mempod_vs_pom),
    exp("ablation",      MULTI_TARGET_MISSES, Ids::None,      ablation_cells,      ablation),
    exp("sens_ratio",    SOLO_TARGET_MISSES,  Ids::None,      sens_ratio_cells,    sens_ratio),
    exp("sens_wr",       SOLO_TARGET_MISSES,  Ids::None,      sens_wr_cells,       sens_wr),
    exp("surface",       DEFAULT_TARGET_OPS,  Ids::Policies,  surface_exp_cells,   surface),
];

const fn exp(
    name: &'static str,
    default_target: u64,
    ids: Ids,
    cells: fn(&Setup) -> Vec<Vec<Cell>>,
    report: fn(&Setup, &Results) -> Option<()>,
) -> Experiment {
    Experiment {
        name,
        default_target,
        ids,
        cells,
        report,
    }
}

/// The record named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Runs experiment `exp`: its cells pass by pass on `pool`'s threads
/// and `journal` under `sup` and `snap`, then its reducer, the per-pass
/// health report, and the `BENCH_<name>` artifact. With `trace`, the
/// traced cells are traced into `TRACE_<name>.jsonl`. Returns whether
/// every cell succeeded and the reducer printed its whole table.
pub fn run(
    exp: &Experiment,
    setup: &Setup,
    pool: &Pool,
    sup: &SuperviseConfig,
    snap: &SnapshotMode,
    journal: &Journal,
    trace: bool,
) -> bool {
    let mut bench = BenchJson::start(exp.name);
    let mut traces = TraceCollector::new(exp.name, trace);
    let mut results = Results::default();
    let mut passes = Vec::new();
    for cells in (exp.cells)(setup).into_iter().map(distinct) {
        let run = run_cells(&cells, pool, sup, journal, snap, &mut traces);
        bench.add_sim_ops((cells.len() - run.resumed) as u64);
        results.extend(&cells, run.values);
        passes.push(run.cells);
    }
    let complete = (exp.report)(setup, &results).is_some();
    let mut healthy = true;
    for p in &passes {
        healthy &= report_sweep_health(p);
    }
    bench.push_cells(&passes.concat());
    bench.set_skipped_malformed(journal.rejected() as u64);
    traces.finish();
    bench.finish();
    complete && healthy
}

/// The configuration of the single-core experiments.
fn single(s: &Setup) -> Setting {
    Setting::new(SystemConfig::scaled_single(), s.target)
}

/// The configuration of the quad-core experiments.
fn quad(s: &Setup) -> Setting {
    Setting::new(SystemConfig::scaled_quad(), s.target)
}

/// Program `p` alone under `pk`, labelled `<program>:<policy><tag>`.
fn solo(at: &Setting, pk: PolicyKind, p: SpecProgram, tag: &str) -> Cell {
    at.cell(pk, Sim::Solo(p), format!("{}:{}{tag}", p.name(), pk.name()))
}

/// Program `p` alone under PoM, then under MDM.
fn pom_mdm(at: &Setting, p: SpecProgram, tag: &str) -> [Cell; 2] {
    [solo(at, Pom, p, tag), solo(at, Mdm, p, tag)]
}

/// The IPC of [`solo`] cell `(pk, p)`.
fn ipc(r: &Results, at: &Setting, pk: PolicyKind, p: SpecProgram) -> Option<f64> {
    Some(r.run(at, pk, Sim::Solo(p))?.ipc)
}

/// MDM's IPC over PoM's for program `p`.
fn mdm_over_pom(r: &Results, at: &Setting, p: SpecProgram) -> Option<f64> {
    Some(ipc(r, at, Mdm, p)? / ipc(r, at, Pom, p)?)
}

/// Table 9 without libquantum, whose footprint fits M1 at default
/// scale (Figure 5 shows it separately).
fn without_libquantum() -> impl Iterator<Item = SpecProgram> {
    SpecProgram::ALL.into_iter().filter(|&p| p != Libquantum)
}

/// The workloads of Figures 2 and 16: w09, w16 and w19.
fn fig16_workloads() -> Vec<Workload> {
    workloads()
        .into_iter()
        .filter(|w| ["w09", "w16", "w19"].contains(&w.id))
        .collect()
}

/// Ratio `x` as a signed percent change from 1 (`+12.3%`).
fn pct(x: f64) -> String {
    format!("{:+.1}%", (x - 1.0) * 100.0)
}

fn fig02_cells(s: &Setup) -> Vec<Vec<Cell>> {
    let at = quad(s);
    let ws = fig16_workloads();
    vec![ws
        .iter()
        .flat_map(|w| slowdown_cells(&at, Pom, w))
        .collect()]
}

/// **Figure 2** — slowdowns under PoM management (paper §2.4), per
/// program for w09, w16 and w19. Paper: in w09 soplex reaches ~3.7
/// while lbm and GemsFDTD stay near 2.2; zeusmp suffers in w16 and
/// leslie3d in w19. Expected shape: a clearly uneven profile per
/// workload.
fn fig02(s: &Setup, r: &Results) -> Option<()> {
    let at = quad(s);
    println!("Figure 2: slowdowns under PoM management\n");
    let mut t = TextTable::new(vec!["workload", "program", "slowdown"]);
    for w in fig16_workloads() {
        let m = r.metrics(&at, Pom, &w)?;
        for (prog, sdn) in w.programs.iter().zip(&m.slowdowns) {
            t.row(vec![
                w.id.to_string(),
                prog.name().to_string(),
                format!("{sdn:.2}"),
            ]);
        }
        let spread = m.unfairness / m.slowdowns.iter().cloned().fold(f64::MAX, f64::min);
        t.row(vec![
            w.id.to_string(),
            "(max/min spread)".to_string(),
            format!("{spread:.2}x"),
        ]);
    }
    println!("{t}");
    println!("Paper: w09 soplex 3.7 vs lbm/GemsFDTD ~2.2 (spread ~1.7x);");
    println!("uneven slowdowns in every workload motivate RSM.");
    Some(())
}

/// Figure 5's reduced system for libquantum: the paper's 4 MB M1 /
/// 32 MB M2 divided by the same 32 is 128 KB M1; the smallest geometry
/// that keeps 128 regions is 512 KB M1, still well below libquantum's
/// 1 MB footprint.
fn fig05_small(s: &Setup) -> Setting {
    let mut cfg = SystemConfig::scaled_single();
    cfg.org =
        profess_types::geometry::Geometry::new(2048, 64, 4096, 1, 512 << 10, 8, 128, 16, 8192, 8);
    cfg.stc.entries = 32;
    Setting::new(cfg, s.target)
}

fn fig05_cells(s: &Setup) -> Vec<Vec<Cell>> {
    let (at, small) = (single(s), fig05_small(s));
    let mut cells: Vec<Cell> = without_libquantum()
        .flat_map(|p| pom_mdm(&at, p, ""))
        .collect();
    cells.extend(pom_mdm(&at, Libquantum, ""));
    cells.extend(pom_mdm(&small, Libquantum, ""));
    vec![cells]
}

/// **Figure 5** — single-program IPC of MDM normalized to PoM (paper
/// §5.1), as a Tukey box plot with the geometric mean. Paper: +14% on
/// average, up to +38% for lbm, omnetpp ~-1.5%. libquantum is shown
/// apart: at default scale it fits M1 and the schemes tie; with a
/// reduced M1 MDM wins (+30% in the paper).
fn fig05(s: &Setup, r: &Results) -> Option<()> {
    let (at, small) = (single(s), fig05_small(s));
    println!("Figure 5: single-program IPC of MDM normalized to PoM\n");
    let mut t = TextTable::new(vec!["program", "PoM IPC", "MDM IPC", "MDM/PoM"]);
    let mut ratios = Vec::new();
    for p in without_libquantum() {
        let (pom, mdm) = (ipc(r, &at, Pom, p)?, ipc(r, &at, Mdm, p)?);
        let ratio = mdm / pom;
        ratios.push(ratio);
        t.row(vec![
            p.name().to_string(),
            format!("{pom:.3}"),
            format!("{mdm:.3}"),
            format!("{ratio:.3}"),
        ]);
    }
    println!("{t}");
    let sm = summarize(&ratios)?;
    println!("Box plot: {}", BoxPlot::from_values(&ratios));
    println!(
        "geomean {}  best {}  worst {}",
        pct(sm.geomean),
        pct(sm.best),
        pct(sm.worst)
    );
    println!("Paper: avg +14%, up to +38% (lbm), omnetpp ~-1.5%.\n");
    println!(
        "libquantum, default scale (footprint fits M1): MDM/PoM = {:.3} (paper: ~1.00)",
        mdm_over_pom(r, &at, Libquantum)?
    );
    println!(
        "libquantum, reduced M1 (512 KB < footprint): MDM/PoM = {:.3} (paper: +30% in its reduced system)",
        mdm_over_pom(r, &small, Libquantum)?
    );
    Some(())
}

fn fig06_cells(s: &Setup) -> Vec<Vec<Cell>> {
    let at = single(s);
    vec![without_libquantum()
        .flat_map(|p| pom_mdm(&at, p, ""))
        .collect()]
}

/// **Figure 6** — single-program fraction of accesses served from M1,
/// MDM normalized to PoM (paper §5.1). Paper: the M1 fraction tracks
/// Figure 5's performance, except mcf (MDM serves *fewer* accesses from
/// M1 yet wins: it swaps less) and omnetpp (slightly more, marginally
/// slower).
fn fig06(s: &Setup, r: &Results) -> Option<()> {
    let at = single(s);
    println!("Figure 6: M1 access fraction of MDM normalized to PoM\n");
    let mut t = TextTable::new(vec![
        "program",
        "PoM m1frac",
        "MDM m1frac",
        "MDM/PoM",
        "PoM swaps",
        "MDM swaps",
    ]);
    for p in without_libquantum() {
        let (pom, mdm) = (
            r.run(&at, Pom, Sim::Solo(p))?,
            r.run(&at, Mdm, Sim::Solo(p))?,
        );
        let (fp, fm) = (pom.m1_fraction, mdm.m1_fraction);
        t.row(vec![
            p.name().to_string(),
            format!("{fp:.3}"),
            format!("{fm:.3}"),
            format!("{:.3}", fm / fp),
            format!("{}", pom.swaps),
            format!("{}", mdm.swaps),
        ]);
    }
    println!("{t}");
    println!("Paper: M1 fraction tracks performance except mcf (MDM serves");
    println!("fewer accesses from M1 but swaps less and wins) and omnetpp.");
    Some(())
}

fn fig07_cells(s: &Setup) -> Vec<Vec<Cell>> {
    let at = single(s);
    vec![SpecProgram::ALL
        .into_iter()
        .map(|p| solo(&at, Mdm, p, ""))
        .collect()]
}

/// **Figure 7** — single-program STC hit rates under MDM (paper §5.1).
/// Paper: most programs in the high 90s, mcf ~85%, omnetpp ~70%.
/// Expected shape: the irregular pointer-chasers (mcf, omnetpp) lowest.
fn fig07(s: &Setup, r: &Results) -> Option<()> {
    let at = single(s);
    println!("Figure 7: single-program STC hit rates under MDM\n");
    let mut t = TextTable::new(vec!["program", "STC hit rate (%)"]);
    let mut rows: Vec<(&str, f64)> = Vec::new();
    for p in SpecProgram::ALL {
        rows.push((p.name(), r.run(&at, Mdm, Sim::Solo(p))?.stc_hit_rate));
    }
    for (name, hr) in &rows {
        t.row(vec![name.to_string(), format!("{:.1}", 100.0 * hr)]);
    }
    println!("{t}");
    let irregular = |n: &str| n == "mcf" || n == "omnetpp";
    let regular_min = rows
        .iter()
        .filter(|(n, _)| !irregular(n))
        .map(|&(_, h)| h)
        .fold(f64::MAX, f64::min);
    let irregular_max = rows
        .iter()
        .filter(|(n, _)| irregular(n))
        .map(|&(_, h)| h)
        .fold(f64::MIN, f64::max);
    println!(
        "regular programs' minimum: {:.1}%; irregular maximum: {:.1}% ({})",
        100.0 * regular_min,
        100.0 * irregular_max,
        if irregular_max < regular_min {
            "shape holds: irregular < regular, as in the paper"
        } else {
            "shape DEVIATES from the paper"
        }
    );
    println!("Paper: ~94% typical; mcf ~85%; omnetpp ~70%.");
    Some(())
}

/// The STC sizes of Figures 8 and 9, relative to the default.
const STC_MULTS: [f64; 3] = [0.5, 1.0, 2.0];

/// The single-core system with its STC scaled by each of [`STC_MULTS`].
fn stc_settings(s: &Setup) -> Vec<(f64, Setting)> {
    STC_MULTS
        .iter()
        .map(|&mult| {
            let mut cfg = SystemConfig::scaled_single();
            cfg.stc.entries = ((cfg.stc.entries as f64) * mult) as usize;
            (mult, Setting::new(cfg, s.target))
        })
        .collect()
}

fn fig08_09_cells(s: &Setup) -> Vec<Vec<Cell>> {
    let ats = stc_settings(s);
    vec![SpecProgram::ALL
        .into_iter()
        .flat_map(|p| {
            ats.iter()
                .map(move |(mult, at)| solo(at, Mdm, p, &format!(":stc{mult}")))
        })
        .collect()]
}

/// **Figures 8 and 9** — sensitivity of MDM to STC size (paper §5.2):
/// per-program IPC with a half- and a double-size STC normalized to the
/// default (Figure 8), and the STC hit rates (Figure 9). Paper: mostly
/// insensitive; mcf and omnetpp lose ~8% at half size, omnetpp and
/// soplex ~2% at double size.
fn fig08_09(s: &Setup, r: &Results) -> Option<()> {
    let ats = stc_settings(s);
    println!("Figures 8-9: sensitivity to STC size (MDM, solo)\n");
    let mut t = TextTable::new(vec![
        "program",
        "IPC 0.5x",
        "IPC 1x",
        "IPC 2x",
        "norm 0.5x",
        "norm 2x",
        "hit% 0.5x",
        "hit% 1x",
        "hit% 2x",
    ]);
    for p in SpecProgram::ALL {
        let runs: Vec<&SoloRun> = ats
            .iter()
            .map(|(_, at)| r.run(at, Mdm, Sim::Solo(p)))
            .collect::<Option<_>>()?;
        let (ipcs, hits): (Vec<f64>, Vec<f64>) =
            runs.iter().map(|run| (run.ipc, run.stc_hit_rate)).unzip();
        t.row(vec![
            p.name().to_string(),
            format!("{:.3}", ipcs[0]),
            format!("{:.3}", ipcs[1]),
            format!("{:.3}", ipcs[2]),
            format!("{:.3}", ipcs[0] / ipcs[1]),
            format!("{:.3}", ipcs[2] / ipcs[1]),
            format!("{:.1}", 100.0 * hits[0]),
            format!("{:.1}", 100.0 * hits[1]),
            format!("{:.1}", 100.0 * hits[2]),
        ]);
    }
    println!("{t}");
    println!("Paper (Fig 8): mostly insensitive; mcf/omnetpp lose ~8% at");
    println!("half size; omnetpp/soplex lose ~2% at double size.");
    println!("Paper (Fig 9): hit rates rise with STC size; mcf 75%->85%.");
    Some(())
}

fn fig10_12_cells(s: &Setup) -> Vec<Vec<Cell>> {
    vec![normalized_cells(&quad(s), Mdm, &s.workloads)]
}

/// **Figures 10, 11 and 12** — MDM vs PoM on the Table 10 workloads
/// (paper §5.3): max slowdown, weighted speedup and energy efficiency,
/// normalized to PoM. Paper: max slowdown -6% on average (up to -19%
/// for w12), weighted speedup +7% (up to +16%), energy efficiency +7%
/// (up to +26% for w18); some workloads are *less* fair than under PoM,
/// since MDM ignores slowdowns. Writes `ROWS_fig10_12.json`.
fn fig10_12(s: &Setup, r: &Results) -> Option<()> {
    let (rows, _) = normalized_rows(r, &quad(s), Mdm, &s.workloads);
    write_rows_artifact("fig10_12", &rows);
    if rows.is_empty() {
        return Some(());
    }
    let title = format!(
        "Figures 10-12: MDM normalized to PoM over {} workload(s)",
        rows.len()
    );
    let (unf, ws, eff) = print_sweep(&title, &rows);
    println!();
    println!(
        "Paper: max slowdown -6% avg (ours {}), weighted speedup +7% avg (ours {}), energy efficiency +7% avg (ours {}).",
        pct(unf),
        pct(ws),
        pct(eff)
    );
    let mixed_fairness = rows.iter().any(|r| r.unfairness > 1.0);
    println!(
        "Some workloads less fair than PoM (expected, MDM ignores slowdowns): {}",
        if mixed_fairness {
            "yes, as in the paper"
        } else {
            "no"
        }
    );
    Some(())
}

fn fig13_15_cells(s: &Setup) -> Vec<Vec<Cell>> {
    let at = quad(s);
    let mdm = normalized_cells(&at, Mdm, &s.workloads);
    vec![
        normalized_cells(&at, Profess, &s.workloads),
        mdm.into_iter().map(Cell::untraced).collect(),
    ]
}

/// **Figures 13, 14 and 15** — ProFess (MDM + RSM) vs PoM (paper §5.4),
/// then the RSM mechanism check against plain MDM, a second pass that
/// shares the PoM cells of the first. Paper: fairness +15% on average
/// (up to +29% for w12), weighted speedup +12% (up to +29% for w19),
/// energy efficiency +11%; read latency -9%, swap fraction -24%.
/// Writes `ROWS_fig13_15.json` (the ProFess rows).
fn fig13_15(s: &Setup, r: &Results) -> Option<()> {
    let at = quad(s);
    let (profess, skipped) = normalized_rows(r, &at, Profess, &s.workloads);
    write_rows_artifact("fig13_15", &profess);
    if !profess.is_empty() {
        let title = format!(
            "Figures 13-15: ProFess normalized to PoM over {} workload(s)",
            profess.len()
        );
        let (unf, ws, eff) = print_sweep(&title, &profess);
        println!();
        println!(
            "Paper: fairness +15% avg (ours {:+.1}%), performance +12% avg (ours {}), energy efficiency +11% avg (ours {}).",
            (1.0 - unf) * 100.0,
            pct(ws),
            pct(eff)
        );
    }
    let (mdm, mdm_skipped) = normalized_rows(r, &at, Mdm, &s.workloads);
    if !(skipped.is_empty() && mdm_skipped.is_empty()) {
        return None;
    }
    let rel = |f: fn(&crate::NormalizedRow) -> f64| {
        let of =
            |rows: &[crate::NormalizedRow]| geomean_or_nan(&rows.iter().map(f).collect::<Vec<_>>());
        of(&profess) / of(&mdm)
    };
    let (unf, ws, swaps) = (
        rel(|r| r.unfairness),
        rel(|r| r.weighted_speedup),
        rel(|r| r.swap_fraction),
    );
    println!();
    println!("RSM mechanism (ProFess vs plain MDM, geomeans over workloads):");
    println!(
        "  max slowdown {}  weighted speedup {}  swap fraction {}",
        pct(unf),
        pct(ws),
        pct(swaps)
    );
    println!(
        "  expected: slowdown and swaps down, speedup up -> {}",
        if unf < 1.0 && ws > 1.0 && swaps < 1.0 {
            "shape holds"
        } else {
            "shape PARTIALLY holds (see EXPERIMENTS.md)"
        }
    );
    Some(())
}

/// The policies Figure 16 compares.
const FIG16_POLICIES: [PolicyKind; 3] = [Pom, Mdm, Profess];

fn fig16_cells(s: &Setup) -> Vec<Vec<Cell>> {
    let at = quad(s);
    let ws = fig16_workloads();
    vec![ws
        .iter()
        .flat_map(|w| FIG16_POLICIES.map(|pk| slowdown_cells(&at, pk, w)))
        .flatten()
        .collect()]
}

/// **Figure 16** — per-program slowdowns under PoM, MDM and ProFess for
/// w09, w16 and w19 (paper §5.4). Paper: MDM lowers the max slowdown by
/// speeding programs up; ProFess further penalizes lightly loaded
/// programs to help the most-suffering ones (w09); w16 offers no
/// opportunity beyond MDM's.
fn fig16(s: &Setup, r: &Results) -> Option<()> {
    let at = quad(s);
    println!("Figure 16: per-program slowdowns under the evaluated schemes\n");
    for w in fig16_workloads() {
        let m: Vec<_> = FIG16_POLICIES
            .iter()
            .map(|&pk| r.metrics(&at, pk, &w))
            .collect::<Option<_>>()?;
        let mut t = TextTable::new(vec!["program", "PoM", "MDM", "ProFess"]);
        for (i, prog) in w.programs.iter().enumerate() {
            let mut row = vec![prog.name().to_string()];
            row.extend(m.iter().map(|m| format!("{:.2}", m.slowdowns[i])));
            t.row(row);
        }
        let mut row = vec!["max".to_string()];
        row.extend(m.iter().map(|m| format!("{:.2}", m.unfairness)));
        t.row(row);
        println!("{}:\n{t}", w.id);
    }
    println!("Paper: ProFess helps the most-suffering programs at the cost");
    println!("of lightly loaded ones (w09); w16 offers no opportunity.");
    Some(())
}

/// The programs of Table 4.
const TABLE4_PROGRAMS: [SpecProgram; 3] = [Bwaves, Milc, Omnetpp];

/// The single-core system at each of Table 4's sampling-period
/// durations: the paper sweeps M_samp over {64 K, 128 K, 256 K}
/// requests at its scale, this reproduction over the scaled analogues
/// {8 K, 16 K, 32 K} (DESIGN.md §1).
fn table4_settings(s: &Setup) -> Vec<(u64, Setting)> {
    [8 * 1024u64, 16 * 1024, 32 * 1024]
        .into_iter()
        .map(|m_samp| {
            let mut cfg = SystemConfig::scaled_single();
            cfg.rsm.m_samp = m_samp;
            (m_samp, Setting::new(cfg, s.target))
        })
        .collect()
}

fn table4_cells(s: &Setup) -> Vec<Vec<Cell>> {
    let ats = table4_settings(s);
    vec![TABLE4_PROGRAMS
        .into_iter()
        .flat_map(|p| {
            ats.iter().map(move |(m, at)| {
                let label = format!("{}:ProFess:msamp{m}", p.name());
                at.cell(Profess, Sim::Sampled(p), label)
            })
        })
        .collect()]
}

/// **Table 4** — RSM sampling accuracy (paper §3.1.3): for bwaves,
/// milc and omnetpp alone, per sampling-period duration M_samp, the
/// mean per-region request-count sigma and the sigma of the raw and
/// smoothed SF_A estimates across periods, with the eq. 4 analytic
/// bound for context. Paper: smoothing cuts the SF_A sigma several-fold
/// (milc at 128 K: raw 13% -> 3.3%), and doubling M_samp shrinks the
/// request-count sigma.
fn table4(s: &Setup, r: &Results) -> Option<()> {
    let ats = table4_settings(s);
    println!("Table 4: RSM sampling accuracy (scaled M_samp sweep)\n");
    println!(
        "eq. 4 analytic sigma (uniform model), N = 128 regions, M = 2^17: {:.1}%\n",
        100.0 * analytic_sigma_fraction(128, 1 << 17)
    );
    let mut t = TextTable::new(vec![
        "program",
        "M_samp",
        "mean sigma_req (%)",
        "sigma raw_SFA (%)",
        "sigma avg_SFA (%)",
        "mean raw_SFA",
        "periods",
    ]);
    for p in TABLE4_PROGRAMS {
        for (m_samp, at) in &ats {
            let stats = match &r.run(at, Profess, Sim::Sampled(p))?.sampling {
                // The SF_A sigmas are relative to the mean (~1 when
                // running alone), the paper's percentage convention.
                Some(s) => [
                    format!("{:.1}", 100.0 * s.mean_sigma_req),
                    format!("{:.1}", 100.0 * s.sigma_raw_sfa / s.mean_raw_sfa),
                    format!("{:.1}", 100.0 * s.sigma_avg_sfa / s.mean_raw_sfa),
                    format!("{:.3}", s.mean_raw_sfa),
                    format!("{}", s.periods),
                ],
                // No sampling period closed within the op budget.
                None => ["-", "-", "-", "-", "0"].map(String::from),
            };
            let mut row = vec![p.name().to_string(), format!("{}K", m_samp / 1024)];
            row.extend(stats);
            t.row(row);
        }
    }
    println!("{t}");
    println!("Paper (at 32x scale, M_samp 64K/128K/256K):");
    println!("  bwaves  sigma_req 36/26/18%  raw_SFA 3/2/1%    avg_SFA 0.5/0.3/0.2%");
    println!("  milc    sigma_req 27/20/15%  raw_SFA 21/13/10% avg_SFA 5.1/3.3/2.7%");
    println!("  omnetpp sigma_req 15/12/10%  raw_SFA 6/5/4%    avg_SFA 2.1/1.6/1.4%");
    println!("Expected shape: sigma_req falls as M_samp doubles; smoothing");
    println!("cuts the SF_A sigma several-fold; mean raw SF_A ~= 1.");
    Some(())
}

/// Every fourth Table 10 workload: the multiprogram half of the MemPod
/// comparison.
fn mempod_workloads() -> Vec<Workload> {
    workloads().into_iter().step_by(4).collect()
}

fn mempod_vs_pom_cells(s: &Setup) -> Vec<Vec<Cell>> {
    let (one, four) = (single(s), quad(s));
    let mut cells: Vec<Cell> = SpecProgram::ALL
        .into_iter()
        .flat_map(|p| [Pom, MemPod].map(|pk| solo(&one, pk, p, "")))
        .collect();
    for w in mempod_workloads() {
        for pk in [Pom, MemPod] {
            cells.push(four.cell(pk, Sim::Multi(w), format!("{}:{}", w.id, pk.name())));
        }
    }
    vec![cells]
}

/// **§2.5 MemPod vs PoM** — average main-memory access time (AMMAT,
/// MemPod's preferred metric) under MemPod relative to PoM. Paper: in
/// the DRAM + NVM setting MemPod's access time is *longer* than PoM's
/// by 19% (single-program) and 18% (multi-program), for lack of
/// cost-benefit analysis. A failed cell drops its comparison pair.
fn mempod_vs_pom(s: &Setup, r: &Results) -> Option<()> {
    let (one, four) = (single(s), quad(s));
    println!("MemPod vs PoM: average read latency (AMMAT proxy)\n");
    let mut t = TextTable::new(vec!["program", "PoM lat", "MemPod lat", "ratio"]);
    let mut solo_ratios = Vec::new();
    for p in SpecProgram::ALL {
        let run = |pk| r.run(&one, pk, Sim::Solo(p));
        let (Some(pom), Some(pod)) = (run(Pom), run(MemPod)) else {
            continue;
        };
        let ratio = pod.avg_read_latency / pom.avg_read_latency;
        solo_ratios.push(ratio);
        t.row(vec![
            p.name().to_string(),
            format!("{:.1}", pom.avg_read_latency),
            format!("{:.1}", pod.avg_read_latency),
            format!("{ratio:.3}"),
        ]);
    }
    println!("{t}");
    let solo_geomean = geomean_or_nan(&solo_ratios);
    if !solo_geomean.is_nan() {
        println!(
            "single-program geomean: {} (paper: +19%)\n",
            pct(solo_geomean)
        );
    }
    let multi_ratios: Vec<f64> = mempod_workloads()
        .iter()
        .filter_map(|w| {
            let (pom, pod) = (r.multi(&four, Pom, w)?, r.multi(&four, MemPod, w)?);
            Some(pod.avg_read_latency / pom.avg_read_latency)
        })
        .collect();
    if let Some(m) = summarize(&multi_ratios) {
        println!(
            "multi-program geomean ({} workloads): {} (paper: +18%)",
            multi_ratios.len(),
            pct(m.geomean)
        );
        println!(
            "shape {}",
            if solo_geomean > 1.0 && m.geomean > 1.0 {
                "holds: MemPod's access time is longer than PoM's"
            } else {
                "DEVIATES: MemPod did not lose to PoM here"
            }
        );
    }
    Some(())
}

/// The programs of the min_benefit (K) ablation.
const K_PROGRAMS: [SpecProgram; 4] = [Bwaves, Mcf, Omnetpp, Zeusmp];

/// The single-core system with MDM's min_benefit set to `k`.
fn k_setting(s: &Setup, k: u32) -> Setting {
    let mut cfg = SystemConfig::scaled_single();
    cfg.mdm.min_benefit = k;
    Setting::new(cfg, s.target)
}

fn ablation_cells(s: &Setup) -> Vec<Vec<Cell>> {
    let at = quad(s);
    let mut cells: Vec<Cell> = fig16_workloads()
        .iter()
        .flat_map(|w| [Profess, ProfessNoCase3].map(|pk| slowdown_cells(&at, pk, w)))
        .flatten()
        .collect();
    for k in [2, 8, 32] {
        let at = k_setting(s, k);
        cells.extend(K_PROGRAMS.map(|p| solo(&at, Mdm, p, &format!(":k{k}")).untraced()));
    }
    vec![cells]
}

/// **Ablations** of two design choices (not a paper figure; supports
/// §3.3 and §4.1): (1) ProFess with the Case 3 product rule disabled vs
/// full ProFess on the Figure 16 workloads — the paper argues Case 3
/// avoids disproportionately large SF_B; (2) MDM solo with min_benefit
/// K ∈ {2, 8, 32} — K = 8 derives from the swap/latency arithmetic.
fn ablation(s: &Setup, r: &Results) -> Option<()> {
    let at = quad(s);
    println!("Ablation 1: ProFess Case 3 product rule\n");
    let mut t = TextTable::new(vec![
        "workload",
        "unfair full",
        "unfair noC3",
        "wspeed full",
        "wspeed noC3",
    ]);
    for w in fig16_workloads() {
        let (full, no_c3) = (
            r.metrics(&at, Profess, &w)?,
            r.metrics(&at, ProfessNoCase3, &w)?,
        );
        t.row(vec![
            w.id.to_string(),
            format!("{:.2}", full.unfairness),
            format!("{:.2}", no_c3.unfairness),
            format!("{:.3}", full.weighted_speedup),
            format!("{:.3}", no_c3.weighted_speedup),
        ]);
    }
    println!("{t}");

    println!("Ablation 2: MDM min_benefit (K) sweep, solo\n");
    let mut t = TextTable::new(vec!["min_benefit", "geomean IPC vs K=8", "swaps vs K=8"]);
    let base = k_setting(s, 8);
    for k in [2u32, 8, 32] {
        let at = k_setting(s, k);
        let mut ipc_ratios = Vec::new();
        let mut swap_ratios = Vec::new();
        for p in K_PROGRAMS {
            let (run, b) = (
                r.run(&at, Mdm, Sim::Solo(p))?,
                r.run(&base, Mdm, Sim::Solo(p))?,
            );
            ipc_ratios.push(run.ipc / b.ipc);
            swap_ratios.push(run.swaps.max(1) as f64 / b.swaps.max(1) as f64);
        }
        t.row(vec![
            format!("{k}"),
            pct(summarize(&ipc_ratios)?.geomean),
            format!("{:.2}x", summarize(&swap_ratios)?.geomean),
        ]);
    }
    println!("{t}");
    println!("Expected: K = 2 swaps much more for little gain; K = 32");
    println!("forgoes profitable promotions.");
    Some(())
}

/// The M1:M2 capacity ratios of §5.2 (M2 per M1).
const CAPACITY_RATIOS: [u32; 3] = [4, 8, 16];

/// The single-core system at each of [`CAPACITY_RATIOS`] (total M1
/// fixed, M2 scaled), with the programs whose footprint exceeds its
/// M1: the paper excludes those that fit the relatively larger M1
/// (leslie3d, libquantum and zeusmp at 1:4); so does this.
fn ratio_settings(s: &Setup) -> Vec<(u32, Setting, Vec<SpecProgram>)> {
    CAPACITY_RATIOS
        .into_iter()
        .map(|ratio| {
            let cfg = SystemConfig::scaled_single().with_capacity_ratio(ratio);
            let progs = SpecProgram::ALL
                .into_iter()
                .filter(|p| p.footprint_lines(cfg.footprint_div) * 64 > cfg.org.m1_bytes)
                .collect();
            (ratio, Setting::new(cfg, s.target), progs)
        })
        .collect()
}

fn sens_ratio_cells(s: &Setup) -> Vec<Vec<Cell>> {
    let mut cells = Vec::new();
    for (ratio, at, progs) in ratio_settings(s) {
        for p in progs {
            cells.extend(pom_mdm(&at, p, &format!(":1to{ratio}")));
        }
    }
    vec![cells]
}

/// Prints one sensitivity row: MDM/PoM geomean, best and worst.
fn sensitivity_row(t: &mut TextTable, label: String, ratios: &[f64]) -> Option<f64> {
    let sm = summarize(ratios)?;
    t.row(vec![label, pct(sm.geomean), pct(sm.best), pct(sm.worst)]);
    Some(sm.geomean)
}

/// **§5.2 sensitivity to the M1:M2 capacity ratio** — MDM vs PoM solo
/// at 1:4, 1:8 and 1:16. Paper: 1:4 +12% (excluding the programs that
/// then fit M1), 1:8 +14%, 1:16 ~+14%. Expected shape: the gain at 1:4
/// is no larger than at 1:8/1:16.
fn sens_ratio(s: &Setup, r: &Results) -> Option<()> {
    println!("Sensitivity to the M1:M2 capacity ratio (MDM/PoM solo IPC)\n");
    let mut t = TextTable::new(vec!["M1:M2", "geomean MDM/PoM", "best", "worst"]);
    for (ratio, at, progs) in ratio_settings(s) {
        let ratios: Vec<f64> = progs
            .iter()
            .map(|&p| mdm_over_pom(r, &at, p))
            .collect::<Option<_>>()?;
        sensitivity_row(&mut t, format!("1:{ratio}"), &ratios)?;
    }
    println!("{t}");
    println!("Paper: 1:4 +12%, 1:8 +14%, 1:16 +14% (footprint-fitting");
    println!("programs excluded at 1:4).");
    Some(())
}

/// The single-core system with M2's write latency scaled by 0.5, 1 and
/// 2, with the scaled latency in cycles.
fn twr_settings(s: &Setup) -> Vec<(f64, u64, Setting)> {
    let base = SystemConfig::scaled_single().mem.m2.t_wr;
    [0.5f64, 1.0, 2.0]
        .into_iter()
        .map(|mult| {
            let mut cfg = SystemConfig::scaled_single();
            cfg.mem.m2.t_wr = ((base as f64) * mult) as u64;
            (mult, cfg.mem.m2.t_wr, Setting::new(cfg, s.target))
        })
        .collect()
}

fn sens_wr_cells(s: &Setup) -> Vec<Vec<Cell>> {
    let mut cells = Vec::new();
    for (mult, _, at) in twr_settings(s) {
        for p in without_libquantum() {
            cells.extend(pom_mdm(&at, p, &format!(":twr{mult}")));
        }
    }
    vec![cells]
}

/// **§5.2 sensitivity to M2 write latency** — MDM vs PoM solo with
/// t_WR_M2 halved and doubled. Paper: the gain rises from +12% (0.5x)
/// to +14% (1x) to +18% (2x). Expected shape: monotone in t_WR_M2.
fn sens_wr(s: &Setup, r: &Results) -> Option<()> {
    println!("Sensitivity to M2 write latency (MDM/PoM solo IPC)\n");
    let mut t = TextTable::new(vec!["t_WR_M2", "geomean MDM/PoM", "best", "worst"]);
    let mut geomeans = Vec::new();
    for (mult, cycles, at) in twr_settings(s) {
        let ratios: Vec<f64> = without_libquantum()
            .map(|p| mdm_over_pom(r, &at, p))
            .collect::<Option<_>>()?;
        geomeans.push(sensitivity_row(
            &mut t,
            format!("{mult:.1}x ({cycles} cyc)"),
            &ratios,
        )?);
    }
    println!("{t}");
    let monotone = geomeans[0] <= geomeans[1] && geomeans[1] <= geomeans[2];
    println!(
        "MDM advantage vs t_WR_M2 is {}",
        if monotone {
            "monotonically increasing: shape holds (paper: 12% -> 14% -> 18%)"
        } else {
            "not monotone: shape DEVIATES from the paper (12% -> 14% -> 18%)"
        }
    );
    Some(())
}

/// The quad-core system at the surface grid's per-generator target.
fn surface_setting(s: &Setup) -> Setting {
    Setting::new(SystemConfig::scaled_quad(), s.surface.target_ops)
}

fn surface_exp_cells(s: &Setup) -> Vec<Vec<Cell>> {
    vec![surface_cells(&surface_setting(s), &s.surface)]
}

/// **surface** — the bandwidth–latency surface (DESIGN.md §13): read
/// fraction × arrival intensity per policy, four identical closed-loop
/// load generators on the quad-core system per grid cell. Each point
/// carries delivered bandwidth, read latency and the max-slowdown
/// spread RSM bounds. Writes `SURFACE_surface.json`.
fn surface(s: &Setup, r: &Results) -> Option<()> {
    let spec = &s.surface;
    let (points, _) = surface_points(r, &surface_setting(s), spec);
    write_surface_artifact("surface", &surface_to_json("surface", spec, &points));
    if points.is_empty() {
        return Some(());
    }
    println!(
        "Bandwidth-latency surface: {} point(s) over {} polic{}, target {} ops/generator\n",
        points.len(),
        spec.policies.len(),
        if spec.policies.len() == 1 { "y" } else { "ies" },
        spec.target_ops
    );
    let mut t = TextTable::new(vec![
        "policy",
        "read-frac",
        "intensity",
        "ipc",
        "bandwidth",
        "read-lat",
        "spread",
    ]);
    for p in &points {
        t.row(vec![
            p.policy.clone(),
            format!("{:.2}", p.read_frac),
            format!("{:.1}", p.intensity),
            format!("{:.3}", p.ipc),
            format!("{:.2}", p.bandwidth),
            format!("{:.1}", p.read_latency),
            format!("{:.3}", p.slowdown_spread),
        ]);
    }
    println!("{t}");
    // Per-policy latency distribution across the grid (log2 histogram
    // of per-point mean latencies): a policy whose p99 runs far from
    // its p50 degrades sharply somewhere on the surface.
    for &pk in &spec.policies {
        let mut h = Log2Histogram::new();
        for p in points.iter().filter(|p| p.policy == pk.name()) {
            h.record(p.read_latency.round() as u64);
        }
        if !h.is_empty() {
            println!(
                "latency across grid {:>10}: mean {:.1}  p50 {}  p95 {}  p99 {}",
                pk.name(),
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99()
            );
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
        assert!(find("fig13_15").is_some() && find("fig08").is_none());
    }
}
