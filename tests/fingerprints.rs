//! Pinned report fingerprints: the serialized [`SystemReport`] for a
//! fixed (policy × workload × seed) grid, hashed with FNV-1a.
//!
//! Unlike `tests/determinism.rs` (which checks run-to-run stability
//! *within* one build), these constants pin the bytes *across* code
//! changes: any edit that perturbs simulated behaviour — timing, energy,
//! placement, migration — flips a hash and fails loudly. In particular
//! this is the regression gate for "instrumentation is free when off":
//! with tracing disabled (the default), an instrumented simulator must
//! reproduce these exact bytes.
//!
//! The grid, the hash, and the pinned table live in `tests/common` so
//! `tests/snapshot.rs` can prove snapshot/restore byte-identity against
//! the same golden runs.
//!
//! If a change is *meant* to alter results, re-pin by running with
//! `PROFESS_BLESS_FINGERPRINTS=1` and copying the printed table.

mod common;

use common::{
    family_builder, multi_builder, report_string, single_builder, FAMILY_PINNED, FAMILY_POLICIES,
    PINNED,
};
use profess::metrics::fnv64;
use profess::prelude::PolicyKind;

#[test]
fn report_fingerprints_match_pinned_values() {
    let bless = std::env::var("PROFESS_BLESS_FINGERPRINTS").is_ok();
    let mut table = String::new();
    let mut bad = Vec::new();
    for (i, pk) in PolicyKind::ALL.iter().enumerate() {
        let s = fnv64(report_string(&single_builder(*pk).try_run().unwrap()).as_bytes());
        let m = fnv64(report_string(&multi_builder(*pk).try_run().unwrap()).as_bytes());
        let (name, ps, pm) = PINNED[i];
        assert_eq!(name, pk.name(), "PINNED table order drifted");
        table.push_str(&format!(
            "    (\"{}\", 0x{:016x}, 0x{:016x}),\n",
            name, s, m
        ));
        if s != ps || m != pm {
            bad.push(format!(
                "{name}: single 0x{s:016x} (pinned 0x{ps:016x}), quad 0x{m:016x} (pinned 0x{pm:016x})"
            ));
        }
    }
    if bless {
        println!("const PINNED: [(&str, u64, u64); 9] = [\n{table}];");
        return;
    }
    assert!(
        bad.is_empty(),
        "report fingerprints drifted from pinned values:\n{}\n\nfresh table:\n{table}",
        bad.join("\n")
    );
}

/// Same drift gate for the adversarial workload families (DESIGN.md
/// §13.3): each family × characterization policy pins its report bytes.
#[test]
fn family_fingerprints_match_pinned_values() {
    let bless = std::env::var("PROFESS_BLESS_FINGERPRINTS").is_ok();
    let families = profess::trace::family_workloads();
    let mut table = String::new();
    let mut bad = Vec::new();
    for (i, w) in families.iter().enumerate() {
        let (id, pinned) = &FAMILY_PINNED[i];
        assert_eq!(*id, w.id, "FAMILY_PINNED table order drifted");
        table.push_str(&format!("    (\n        \"{}\",\n        [\n", w.id));
        for (j, pk) in FAMILY_POLICIES.iter().enumerate() {
            let h = fnv64(report_string(&family_builder(w, *pk).try_run().unwrap()).as_bytes());
            table.push_str(&format!("            0x{h:016x},\n"));
            if h != pinned[j] {
                bad.push(format!(
                    "{} under {}: 0x{h:016x} (pinned 0x{:016x})",
                    w.id,
                    pk.name(),
                    pinned[j]
                ));
            }
        }
        table.push_str("        ],\n    ),\n");
    }
    if bless {
        println!("const FAMILY_PINNED: [(&str, [u64; 4]); 4] = [\n{table}];");
        return;
    }
    assert!(
        bad.is_empty(),
        "family fingerprints drifted from pinned values:\n{}\n\nfresh table:\n{table}",
        bad.join("\n")
    );
}
