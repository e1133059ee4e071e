//! Machine-readable serialization of simulation reports.
//!
//! Built on the in-tree [`profess_metrics::emit`] JSON emitter (the
//! hermetic-build replacement for `serde`). JSON emission preserves field
//! order and uses exact integer / shortest-round-trip float formatting,
//! so two identical runs serialize to byte-identical documents — the
//! determinism golden tests (`tests/determinism.rs`) rely on this.

use profess_core::system::{ProgramReport, SystemReport};
use profess_metrics::emit::Json;

fn program_to_json(p: &ProgramReport) -> Json {
    Json::obj([
        ("name", Json::Str(p.name.clone())),
        ("instructions", Json::UInt(p.instructions)),
        ("core_cycles", Json::UInt(p.core_cycles)),
        ("ipc", Json::Num(p.ipc)),
        ("served", Json::UInt(p.served)),
        ("served_from_m1", Json::UInt(p.served_from_m1)),
        ("read_latency_avg", Json::Num(p.read_latency_avg)),
        ("restarts", Json::UInt(u64::from(p.restarts))),
    ])
}

/// Serializes a [`SystemReport`] to a JSON value covering every field,
/// including sampling and policy diagnostics.
pub fn report_to_json(r: &SystemReport) -> Json {
    let sampling = r
        .sampling
        .iter()
        .map(|s| match s {
            None => Json::Null,
            Some(s) => Json::obj([
                ("mean_sigma_req", Json::Num(s.mean_sigma_req)),
                ("sigma_raw_sfa", Json::Num(s.sigma_raw_sfa)),
                ("sigma_avg_sfa", Json::Num(s.sigma_avg_sfa)),
                ("mean_raw_sfa", Json::Num(s.mean_raw_sfa)),
                ("periods", Json::UInt(s.periods as u64)),
            ]),
        })
        .collect();
    let guidance = match &r.diag.guidance {
        None => Json::Null,
        Some(g) => Json::obj([
            ("help_m2", Json::UInt(g.help_m2)),
            ("protect_m1", Json::UInt(g.protect_m1)),
            ("protect_m1_product", Json::UInt(g.protect_m1_product)),
            ("default_mdm", Json::UInt(g.default_mdm)),
        ]),
    };
    let sfs = r
        .diag
        .sfs
        .iter()
        .map(|&(a, b)| Json::Arr(vec![Json::Num(a), Json::Num(b)]))
        .collect();
    Json::obj([
        ("policy", Json::Str(r.policy.clone())),
        (
            "programs",
            Json::Arr(r.programs.iter().map(program_to_json).collect()),
        ),
        ("elapsed_cycles", Json::UInt(r.elapsed_cycles)),
        ("total_served", Json::UInt(r.total_served)),
        ("swaps", Json::UInt(r.swaps)),
        ("stc_hit_rate", Json::Num(r.stc_hit_rate)),
        ("energy_joules", Json::Num(r.energy_joules)),
        ("requests_per_joule", Json::Num(r.requests_per_joule)),
        (
            "avg_read_latency_cycles",
            Json::Num(r.avg_read_latency_cycles),
        ),
        ("row_hit_rate", Json::Num(r.row_hit_rate)),
        ("truncated", Json::Bool(r.truncated)),
        ("sampling", Json::Arr(sampling)),
        (
            "diag",
            Json::obj([("guidance", guidance), ("sfs", Json::Arr(sfs))]),
        ),
    ])
}
