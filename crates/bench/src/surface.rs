//! Bandwidth–latency surface characterization (the `surface`
//! experiment's engine).
//!
//! A point workload is a single sample of a memory system's behaviour;
//! the honest fingerprint is the *surface*: delivered bandwidth and
//! read latency as functions of offered load. This module sweeps a
//! grid of read/write ratio × arrival intensity per policy, running
//! four identical closed-loop load generators on the quad-core system
//! for each grid cell. Because the four generators are identical (up
//! to seed), the ratio of the best to the worst per-program IPC *is*
//! the max-slowdown spread RSM bounds — fairness under load becomes a
//! surface axis without solo reference runs.
//!
//! Cells run under the same supervision, checkpoint-journal and
//! mid-run-snapshot machinery as the figure sweeps
//! ([`crate::normalized_sweep_supervised`]): completed cells journal
//! under `surface|…` keys, a killed sweep resumes from the journal,
//! and the emitted `SURFACE_<name>.json` is byte-identical whether the
//! sweep ran on one thread, many threads, or across a kill/resume.
//!
//! `profess-validate surface` validates artifacts: schema (exactly
//! [`SURFACE_FIELDS`] per point, in order) and monotonicity sanity (read
//! latency non-decreasing with intensity at a fixed ratio);
//! `profess-validate diff` checks golden-vs-resumed byte identity.

use profess_core::system::{program_seed, PolicyKind, SystemBuilder, SystemReport};
use profess_metrics::Json;
use profess_trace::patterns::{seeded_rng, Hotspot, Mix, MultiStream};
use profess_trace::{ProgramGen, ProgramParams};
use profess_types::SystemConfig;

use crate::checkpoint::{json_f64, json_u64, Journal};
use crate::harness::TraceCollector;
use crate::{
    run_cells, Cell, CellRecord, Pool, Results, Setting, Sim, SnapshotMode, SuperviseConfig, Value,
};

/// The fields of one surface point, in emission order.
///
/// This constant is the source of truth for the surface schema: the
/// `schema_sync` test in `tests/conventions.rs` checks that the
/// DESIGN.md schema table documents exactly these fields, and
/// [`SurfacePoint::to_json`] emits them in exactly this order
/// (`profess-validate surface` rejects any other layout).
pub const SURFACE_FIELDS: &[&str] = &[
    "policy",
    "read_frac",
    "intensity",
    "ipc",
    "bandwidth",
    "read_latency",
    "slowdown_spread",
    "served",
    "elapsed_cycles",
];

/// Paper-scale footprint of the surface load generator, megabytes
/// (scaled by the configuration's footprint divisor like the Table 9
/// programs are).
pub const SURFACE_FOOTPRINT_MB: u64 = 128;

/// The policies a surface sweep characterizes by default: the PoM
/// baseline, MDM alone, the full framework, and RSM steering PoM.
pub const DEFAULT_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Pom,
    PolicyKind::Mdm,
    PolicyKind::Profess,
    PolicyKind::RsmPom,
];

/// Default read-fraction axis.
pub const DEFAULT_READ_FRACS: [f64; 3] = [0.5, 0.7, 0.9];

/// Default arrival-intensity axis (post-L3 MPKI of each generator).
pub const DEFAULT_INTENSITIES: [f64; 4] = [4.0, 12.0, 28.0, 48.0];

/// Default per-generator memory-operation target.
pub const DEFAULT_TARGET_OPS: u64 = 20_000;

/// The grid one surface sweep covers.
#[derive(Debug, Clone)]
pub struct SurfaceSpec {
    /// Policies, in sweep order.
    pub policies: Vec<PolicyKind>,
    /// Read fractions (axis values must be in (0, 1]).
    pub read_fracs: Vec<f64>,
    /// Arrival intensities, post-L3 MPKI per generator (must be > 0).
    pub intensities: Vec<f64>,
    /// Memory operations each generator targets per cell.
    pub target_ops: u64,
}

impl SurfaceSpec {
    /// The default grid over the given policies.
    pub fn new(policies: Vec<PolicyKind>) -> SurfaceSpec {
        SurfaceSpec {
            policies,
            read_fracs: DEFAULT_READ_FRACS.to_vec(),
            intensities: DEFAULT_INTENSITIES.to_vec(),
            target_ops: DEFAULT_TARGET_OPS,
        }
    }

    /// Grid size (cells).
    pub fn cells(&self) -> usize {
        self.policies.len() * self.read_fracs.len() * self.intensities.len()
    }

    /// Validates the axes, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.policies.is_empty() {
            return Err("surface spec has no policies".into());
        }
        if self.read_fracs.is_empty() || self.intensities.is_empty() {
            return Err("surface spec has an empty axis".into());
        }
        if self.target_ops == 0 {
            return Err("surface spec has a zero memory-operation target".into());
        }
        for &rf in &self.read_fracs {
            if !(rf > 0.0 && rf <= 1.0) {
                return Err(format!("read fraction {rf} outside (0, 1]"));
            }
        }
        for &it in &self.intensities {
            if it.is_nan() || it <= 0.0 {
                return Err(format!("intensity {it} is not positive"));
            }
        }
        for axis in [&self.read_fracs, &self.intensities] {
            if axis.windows(2).any(|w| w[0] >= w[1]) {
                return Err("surface axes must be strictly ascending".into());
            }
        }
        Ok(())
    }
}

/// One measured grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfacePoint {
    /// Policy name ([`PolicyKind::name`]).
    pub policy: String,
    /// Read fraction of the offered load.
    pub read_frac: f64,
    /// Arrival intensity (post-L3 MPKI per generator).
    pub intensity: f64,
    /// Sum of the four generators' IPCs.
    pub ipc: f64,
    /// Delivered bandwidth, 64 B lines per kilocycle.
    pub bandwidth: f64,
    /// Mean read latency, cycles.
    pub read_latency: f64,
    /// Best-to-worst per-generator IPC ratio (1.0 = perfectly fair).
    pub slowdown_spread: f64,
    /// Data requests served.
    pub served: u64,
    /// Simulated cycles.
    pub elapsed_cycles: u64,
}

impl SurfacePoint {
    /// Reduces a cell's report to its surface point.
    pub fn from_report(
        policy: PolicyKind,
        read_frac: f64,
        intensity: f64,
        r: &SystemReport,
    ) -> Self {
        SurfacePoint {
            policy: policy.name().to_string(),
            read_frac,
            intensity,
            ipc: r.aggregate_ipc(),
            bandwidth: r.bandwidth_lines_per_kcycle(),
            read_latency: r.avg_read_latency_cycles,
            slowdown_spread: r.ipc_spread(),
            served: r.total_served,
            elapsed_cycles: r.elapsed_cycles,
        }
    }

    /// The journal/artifact payload, fields in [`SURFACE_FIELDS`] order.
    pub fn to_json(&self) -> Json {
        let j = Json::obj([
            ("policy", Json::Str(self.policy.clone())),
            ("read_frac", Json::Num(self.read_frac)),
            ("intensity", Json::Num(self.intensity)),
            ("ipc", Json::Num(self.ipc)),
            ("bandwidth", Json::Num(self.bandwidth)),
            ("read_latency", Json::Num(self.read_latency)),
            ("slowdown_spread", Json::Num(self.slowdown_spread)),
            ("served", Json::UInt(self.served)),
            ("elapsed_cycles", Json::UInt(self.elapsed_cycles)),
        ]);
        debug_assert!(
            matches!(&j, Json::Obj(kv) if kv.iter().map(|(k, _)| k.as_str()).eq(SURFACE_FIELDS.iter().copied())),
            "SurfacePoint::to_json out of sync with SURFACE_FIELDS"
        );
        j
    }

    /// Decodes a journal payload (`None` on any shape mismatch — the
    /// caller then reruns the cell). Floats round-trip exactly, so a
    /// restored point renders byte-identically to a fresh one.
    pub fn from_json(j: &Json) -> Option<SurfacePoint> {
        let Json::Str(policy) = j.get("policy")? else {
            return None;
        };
        Some(SurfacePoint {
            policy: policy.clone(),
            read_frac: json_f64(j.get("read_frac")?)?,
            intensity: json_f64(j.get("intensity")?)?,
            ipc: json_f64(j.get("ipc")?)?,
            bandwidth: json_f64(j.get("bandwidth")?)?,
            read_latency: json_f64(j.get("read_latency")?)?,
            slowdown_spread: json_f64(j.get("slowdown_spread")?)?,
            served: json_u64(j.get("served")?)?,
            elapsed_cycles: json_u64(j.get("elapsed_cycles")?)?,
        })
    }
}

/// Everything a surface sweep produced.
#[derive(Debug)]
pub struct SurfaceRun {
    /// Completed points, in grid order (policy-major, then read
    /// fraction, then intensity) — independent of thread count and of
    /// which cells were journal-restored.
    pub points: Vec<SurfacePoint>,
    /// Per-cell execution records, in grid order.
    pub cells: Vec<CellRecord>,
    /// Labels of cells missing from `points` because they failed.
    pub skipped: Vec<String>,
    /// Cells restored from the checkpoint journal instead of running.
    pub resumed: usize,
    /// Malformed journal lines dropped at load time.
    pub skipped_malformed: usize,
}

impl SurfaceRun {
    /// Did every grid cell produce a point?
    pub fn all_ok(&self) -> bool {
        self.skipped.is_empty()
    }

    /// The cells with a terminal failure.
    pub fn failed_cells(&self) -> Vec<&CellRecord> {
        self.cells.iter().filter(|c| c.error.is_some()).collect()
    }

    /// Cells that actually ran this process (not journal-restored).
    pub fn executed(&self) -> usize {
        self.cells.len() - self.resumed
    }
}

/// The journal key of one surface cell. Floats render with shortest
/// round-trip formatting, so distinct axis values cannot collide.
pub fn surface_cell_key(policy: PolicyKind, read_frac: f64, intensity: f64, cfgfp: &str) -> String {
    format!(
        "surface|{}|r{read_frac:?}|i{intensity:?}|{cfgfp}",
        policy.name()
    )
}

/// Instruction budget giving roughly `target_ops` memory operations at
/// `intensity` MPKI (mirrors [`profess_trace::SpecProgram::budget_for_misses`]).
fn budget_for_ops(target_ops: u64, intensity: f64) -> u64 {
    (target_ops as f64 * 1000.0 / intensity) as u64
}

/// Footprint of the surface load generator in 64 B lines under the
/// configuration's footprint divisor (whole 4 KB pages, like the
/// Table 9 programs).
pub fn surface_footprint_lines(div: u64) -> u64 {
    let bytes = (SURFACE_FOOTPRINT_MB << 20) / div;
    bytes.div_ceil(4096).max(1) * 64
}

/// Builds one surface cell's simulation: four identical closed-loop
/// load generators (a multi-stream scan mixed with a mild Zipf hot
/// spot) at the given read fraction and intensity, seeded exactly as
/// [`SystemBuilder::spec_program`] seeds Table 9 programs so restarts
/// and snapshot restores regenerate identical op streams.
pub fn surface_cell_builder(
    cfg: &SystemConfig,
    policy: PolicyKind,
    read_frac: f64,
    intensity: f64,
    target_ops: u64,
) -> SystemBuilder {
    let lines = surface_footprint_lines(cfg.footprint_div);
    let params = ProgramParams {
        mpki: intensity,
        lines,
        write_frac: 1.0 - read_frac,
        instructions: budget_for_ops(target_ops, intensity),
    };
    let base_seed = cfg.seed;
    let mut b = SystemBuilder::new(cfg.clone()).policy(policy);
    for idx in 0..cfg.cpu.num_cores as u64 {
        b = b.program(format!("load{idx}"), move |restart| {
            let seed = program_seed(base_seed, idx, restart);
            let mut rng = seeded_rng(seed ^ 0xABCD_1234);
            let pattern = Box::new(Mix::new(
                Box::new(MultiStream::new(lines, 16, &mut rng)),
                Box::new(Hotspot::new(lines, 1.00, 0, false, &mut rng)),
                0.35,
            ));
            Box::new(ProgramGen::new(params, pattern, seed))
        });
    }
    b
}

/// The cells of a surface sweep, one per grid point, in grid order:
/// policy-major, then read fraction, then intensity. `at` carries the
/// spec's per-generator target.
pub(crate) fn surface_cells(at: &Setting, spec: &SurfaceSpec) -> Vec<Cell> {
    let mut grid = Vec::with_capacity(spec.cells());
    for &pk in &spec.policies {
        for &rf in &spec.read_fracs {
            for &it in &spec.intensities {
                let label = format!("surface:{}:r{rf:?}:i{it:?}", pk.name());
                grid.push(at.cell(pk, Sim::Surface(rf, it), label));
            }
        }
    }
    grid
}

/// The points of a surface sweep (see [`surface_cells`]) in grid
/// order, and the labels of the cells left without one because they
/// failed.
pub(crate) fn surface_points(
    r: &Results,
    at: &Setting,
    spec: &SurfaceSpec,
) -> (Vec<SurfacePoint>, Vec<String>) {
    let mut points = Vec::new();
    let mut skipped = Vec::new();
    for c in surface_cells(at, spec) {
        match r.get(at, c.policy, c.sim) {
            Some(Value::Point(p)) => points.push(p.clone()),
            _ => skipped.push(c.label),
        }
    }
    (points, skipped)
}

/// Runs a surface sweep: every grid cell of `spec`, supervised,
/// journaled and snapshot-capable exactly like the figure sweeps (the
/// same `run_cells` engine). Points are assembled in grid order from
/// the cell values alone, and every float round-trips through the
/// journal exactly, so the artifact is byte-identical across thread
/// counts and kill/resume.
pub fn surface_sweep(
    pool: &Pool,
    cfg: &SystemConfig,
    spec: &SurfaceSpec,
    sup: &SuperviseConfig,
    journal: &Journal,
    snap: &SnapshotMode,
    traces: &mut TraceCollector,
) -> SurfaceRun {
    let at = Setting::new(cfg.clone(), spec.target_ops);
    let cells = surface_cells(&at, spec);
    let run = run_cells(&cells, pool, sup, journal, snap, traces);
    let (points, skipped) = surface_points(&Results::new(&cells, run.values), &at, spec);
    SurfaceRun {
        points,
        cells: run.cells,
        skipped,
        resumed: run.resumed,
        skipped_malformed: journal.rejected(),
    }
}

/// Renders a surface artifact document: the spec's axes plus every
/// point, fields in [`SURFACE_FIELDS`] order.
pub fn surface_to_json(name: &str, spec: &SurfaceSpec, points: &[SurfacePoint]) -> String {
    Json::obj([
        ("name", Json::Str(name.to_string())),
        ("target_ops", Json::UInt(spec.target_ops)),
        (
            "read_fracs",
            Json::Arr(spec.read_fracs.iter().map(|&x| Json::Num(x)).collect()),
        ),
        (
            "intensities",
            Json::Arr(spec.intensities.iter().map(|&x| Json::Num(x)).collect()),
        ),
        (
            "points",
            Json::Arr(points.iter().map(SurfacePoint::to_json).collect()),
        ),
    ])
    .to_string()
}

/// Writes a surface document as `SURFACE_<name>.json` into
/// [`crate::harness::results_dir`]. An I/O failure is a warning — a
/// missing artifact must not fail the sweep that produced real results.
pub fn write_surface_artifact(name: &str, doc: &str) {
    let dir = crate::harness::results_dir();
    let path = dir.join(format!("SURFACE_{name}.json"));
    let io = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc));
    match io {
        Ok(()) => println!("surface artifact: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Validation summary of one surface document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurfaceSummary {
    /// Points checked.
    pub points: usize,
    /// (policy, read-fraction) latency series checked for monotonicity.
    pub series: usize,
}

/// One series of a surface document: policy, read fraction, and its
/// `(intensity, read latency)` points in document order.
type Series = (String, f64, Vec<(f64, f64)>);

/// Strictly validates a surface document (CI semantics):
///
/// 1. **Schema** — every point carries exactly [`SURFACE_FIELDS`], in
///    order, with the right types.
/// 2. **Grid order** — within each (policy, read-fraction) series,
///    intensity strictly increases (the emitter's grid order).
/// 3. **Monotonicity sanity** — read latency is non-decreasing with
///    intensity at a fixed ratio, within a relative tolerance of
///    `mono_tol` (queueing delay cannot fall as offered load rises; a
///    violation beyond noise means the simulator or the reduction is
///    wrong).
pub fn validate_surface(text: &str, mono_tol: f64) -> Result<SurfaceSummary, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("no `points` array")?;
    if points.is_empty() {
        return Err("empty `points` array".into());
    }
    let mut series: Vec<Series> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let Json::Obj(kv) = p else {
            return Err(format!("point {i}: not an object"));
        };
        let keys: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
        if keys != SURFACE_FIELDS {
            return Err(format!(
                "point {i}: fields [{}] do not match the schema [{}]",
                keys.join(", "),
                SURFACE_FIELDS.join(", ")
            ));
        }
        let sp = SurfacePoint::from_json(p).ok_or_else(|| format!("point {i}: mistyped field"))?;
        for (field, v) in [
            ("read_frac", sp.read_frac),
            ("intensity", sp.intensity),
            ("ipc", sp.ipc),
            ("bandwidth", sp.bandwidth),
            ("read_latency", sp.read_latency),
            ("slowdown_spread", sp.slowdown_spread),
        ] {
            if !v.is_finite() {
                return Err(format!("point {i}: `{field}` is not finite"));
            }
        }
        match series.last_mut() {
            Some((pol, rf, s)) if *pol == sp.policy && *rf == sp.read_frac => {
                s.push((sp.intensity, sp.read_latency));
            }
            _ => series.push((
                sp.policy.clone(),
                sp.read_frac,
                vec![(sp.intensity, sp.read_latency)],
            )),
        }
    }
    for (pol, rf, s) in &series {
        for w in s.windows(2) {
            let ((i0, l0), (i1, l1)) = (w[0], w[1]);
            if i1 <= i0 {
                return Err(format!(
                    "series {pol} r={rf}: intensities out of ascending grid order \
                     ({i0} then {i1})"
                ));
            }
            if l1 < l0 * (1.0 - mono_tol) {
                return Err(format!(
                    "series {pol} r={rf}: read latency fell from {l0} to {l1} as intensity \
                     rose from {i0} to {i1} (beyond tolerance {mono_tol}) — latency must be \
                     non-decreasing with offered load"
                ));
            }
        }
    }
    Ok(SurfaceSummary {
        points: points.len(),
        series: series.len(),
    })
}

/// Environment variable overriding the read-fraction axis
/// (comma-separated, strictly ascending).
pub const RATIOS_ENV: &str = "PROFESS_SURFACE_RATIOS";

/// Environment variable overriding the intensity axis.
pub const INTENSITIES_ENV: &str = "PROFESS_SURFACE_INTENSITIES";

/// Reads a comma-separated float axis from environment variable `var`,
/// defaulting to `default` when unset or empty. Errors name the
/// variable and the offending token.
pub fn axis_from_env(var: &str, default: &[f64]) -> Result<Vec<f64>, String> {
    match std::env::var(var) {
        Err(_) => Ok(default.to_vec()),
        Ok(v) if v.trim().is_empty() => Ok(default.to_vec()),
        Ok(v) => v
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("{var}: `{t}` is not a number"))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<SurfacePoint> {
        let mut pts = Vec::new();
        for (pol, rf) in [("PoM", 0.5), ("PoM", 0.9), ("MDM", 0.5)] {
            for (k, it) in [4.0f64, 12.0, 28.0].iter().enumerate() {
                pts.push(SurfacePoint {
                    policy: pol.to_string(),
                    read_frac: rf,
                    intensity: *it,
                    ipc: 2.0 - 0.25 * k as f64,
                    bandwidth: 10.0 + 5.0 * k as f64,
                    read_latency: 100.0 + 40.0 * k as f64,
                    slowdown_spread: 1.0 + 0.01 * k as f64,
                    served: 1000 + k as u64,
                    elapsed_cycles: 50_000 + 10 * k as u64,
                });
            }
        }
        pts
    }

    fn sample_doc() -> String {
        let spec = SurfaceSpec::new(vec![PolicyKind::Pom, PolicyKind::Mdm]);
        surface_to_json("test", &spec, &sample_points())
    }

    #[test]
    fn point_round_trips_exactly() {
        let p = &sample_points()[0];
        let text = p.to_json().to_string();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(SurfacePoint::from_json(&parsed).as_ref(), Some(p));
    }

    #[test]
    fn point_fields_match_schema_constant() {
        let Json::Obj(kv) = sample_points()[0].to_json() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, SURFACE_FIELDS);
    }

    #[test]
    fn valid_doc_passes() {
        let s = validate_surface(&sample_doc(), 0.0).expect("valid");
        assert_eq!(
            s,
            SurfaceSummary {
                points: 9,
                series: 3
            }
        );
    }

    #[test]
    fn latency_regression_is_caught() {
        let doc = sample_doc().replacen("\"read_latency\":140.0", "\"read_latency\":50.0", 1);
        let err = validate_surface(&doc, 0.05).unwrap_err();
        assert!(err.contains("read latency fell"), "{err}");
        // A generous tolerance accepts the same dip.
        assert!(validate_surface(&doc, 0.9).is_ok());
    }

    #[test]
    fn schema_drift_is_caught() {
        let doc = sample_doc().replace("\"slowdown_spread\"", "\"spread\"");
        let err = validate_surface(&doc, 0.0).unwrap_err();
        assert!(err.contains("do not match the schema"), "{err}");
    }

    #[test]
    fn out_of_order_grid_is_caught() {
        // Swap the first two intensities of the first series.
        let mut pts = sample_points();
        pts.swap(0, 1);
        let spec = SurfaceSpec::new(vec![PolicyKind::Pom]);
        let doc = surface_to_json("test", &spec, &pts);
        let err = validate_surface(&doc, 0.0).unwrap_err();
        assert!(err.contains("ascending grid order"), "{err}");
    }

    #[test]
    fn spec_validation() {
        let mut spec = SurfaceSpec::new(vec![PolicyKind::Pom]);
        assert_eq!(spec.validate(), Ok(()));
        assert_eq!(spec.cells(), 12);
        spec.read_fracs = vec![0.9, 0.5];
        assert!(spec.validate().unwrap_err().contains("ascending"));
        spec.read_fracs = vec![1.5];
        assert!(spec.validate().unwrap_err().contains("outside"));
        spec.read_fracs = vec![];
        assert!(spec.validate().unwrap_err().contains("empty axis"));
    }

    #[test]
    fn cell_keys_are_distinct_across_the_grid() {
        let spec = SurfaceSpec::new(DEFAULT_POLICIES.to_vec());
        let mut keys = std::collections::BTreeSet::new();
        for &pk in &spec.policies {
            for &rf in &spec.read_fracs {
                for &it in &spec.intensities {
                    assert!(keys.insert(surface_cell_key(pk, rf, it, "fp")));
                }
            }
        }
        assert_eq!(keys.len(), spec.cells());
    }

    #[test]
    fn policy_names_cover_every_kind() {
        assert_eq!(
            PolicyKind::from_cli_name("profess"),
            Some(PolicyKind::Profess)
        );
        assert_eq!(PolicyKind::from_cli_name("nosuch"), None);
        for pk in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_cli_name(pk.cli_name()), Some(pk));
        }
    }
}
