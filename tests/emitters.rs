//! Round-trip tests of the in-tree JSON/CSV emitters against real
//! simulation reports: emit → parse → re-emit must be the identity, and
//! the parsed document must reflect the report's actual values.

use profess::metrics::{Csv, Json};
use profess::prelude::*;
use profess::report::{report_to_json, reports_to_csv, REPORT_CSV_COLUMNS};

fn sample_report(policy: PolicyKind) -> SystemReport {
    let mut cfg = SystemConfig::scaled_single();
    cfg.seed = 11;
    cfg.rsm.m_samp = 1024;
    SystemBuilder::new(cfg)
        .policy(policy)
        .spec_program(SpecProgram::Lbm, SpecProgram::Lbm.budget_for_misses(5_000))
        .try_run()
        .unwrap()
}

#[test]
fn json_roundtrip_on_real_report() {
    let r = sample_report(PolicyKind::Profess);
    let doc = report_to_json(&r);
    let text = doc.to_string();
    let parsed = Json::parse(&text).expect("emitted JSON must parse");
    assert_eq!(parsed, doc, "parse(emit(x)) != x");
    assert_eq!(parsed.to_string(), text, "emit(parse(s)) != s");
}

#[test]
fn json_fields_match_report() {
    let r = sample_report(PolicyKind::Mdm);
    let doc = report_to_json(&r);
    assert_eq!(doc.get("policy"), Some(&Json::Str(r.policy.clone())));
    assert_eq!(doc.get("swaps"), Some(&Json::UInt(r.swaps)));
    assert_eq!(
        doc.get("elapsed_cycles"),
        Some(&Json::UInt(r.elapsed_cycles))
    );
    assert_eq!(doc.get("energy_joules"), Some(&Json::Num(r.energy_joules)));
    let Some(Json::Arr(programs)) = doc.get("programs") else {
        panic!("programs must be an array");
    };
    assert_eq!(programs.len(), r.programs.len());
    assert_eq!(programs[0].get("ipc"), Some(&Json::Num(r.programs[0].ipc)));
}

#[test]
fn csv_roundtrip_on_real_reports() {
    let reports = [
        sample_report(PolicyKind::Pom),
        sample_report(PolicyKind::Profess),
    ];
    let csv = reports_to_csv(&reports);
    let text = csv.to_string();
    let parsed = Csv::parse(&text).expect("emitted CSV must parse");
    assert_eq!(parsed, csv, "parse(emit(x)) != x");
    assert_eq!(parsed.to_string(), text, "emit(parse(s)) != s");

    assert_eq!(parsed.header, REPORT_CSV_COLUMNS);
    assert_eq!(parsed.rows.len(), 2);
    assert_eq!(parsed.rows[0][0], "PoM");
    assert_eq!(parsed.rows[1][0], "ProFess");
    // Floats survive the text round-trip exactly ({:?} is shortest
    // round-trip notation).
    let ipc: f64 = parsed.rows[0][3].parse().expect("ipc parses");
    assert_eq!(ipc, reports[0].programs[0].ipc);
}
