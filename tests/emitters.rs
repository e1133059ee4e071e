//! Round-trip tests of the in-tree JSON emitter against real
//! simulation reports: emit → parse → re-emit must be the identity, and
//! the parsed document must reflect the report's actual values.

use profess::metrics::Json;
use profess::prelude::*;
use profess::report::report_to_json;

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
