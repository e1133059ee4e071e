//! The analyzer's strongest test is the workspace itself: the shipped
//! tree must be clean, and every `schema_sync` registry entry must still
//! find its real source and its DESIGN.md table (a restructure that
//! silently blinds the lint shows up here, not in CI three PRs later).

use std::path::Path;

use profess_analyze::{analyze_root, lints::schema_sync, Analysis};

fn workspace_analysis() -> Analysis {
    let root = profess_analyze::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/analyze");
    analyze_root(&root).expect("load workspace")
}

#[test]
fn shipped_tree_is_analyzer_clean() {
    let a = workspace_analysis();
    let active: Vec<String> = a.active().map(|d| d.render()).collect();
    assert!(
        a.is_clean(),
        "workspace has unsuppressed diagnostics:\n{}",
        active.join("\n")
    );
}

#[test]
fn coverage_is_plausible() {
    let a = workspace_analysis();
    // The walker found the real tree, not an empty or truncated one.
    assert!(
        a.files_scanned >= 100,
        "only {} files scanned — walker regression?",
        a.files_scanned
    );
    // The known invariant allows are visible as suppressed diagnostics,
    // proving suppressions are surfaced rather than swallowed.
    let suppressed = a.diagnostics.iter().filter(|d| d.suppressed).count();
    assert!(
        suppressed >= 5,
        "expected the documented allows, got {suppressed}"
    );
}

#[test]
fn every_schema_sync_entry_sees_its_source_and_table() {
    let root = profess_analyze::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let ws = profess_analyze::Workspace::load(&root).expect("load");
    let design = ws.get(schema_sync::DESIGN_MD).expect("DESIGN.md");
    for schema in schema_sync::SCHEMAS {
        let src = ws
            .get(schema.source)
            .unwrap_or_else(|| panic!("{} moved — update the schema_sync registry", schema.source));
        let emitted = schema.emitted(&src.text);
        assert!(!emitted.is_empty(), "{}: no rows extracted", schema.source);
        let rows = schema_sync::design_table(&design.text, schema.heading).1;
        assert!(
            !rows.is_empty(),
            "DESIGN.md \"{}\" section yields no rows",
            schema.heading
        );
    }
    let a = workspace_analysis();
    assert!(
        !a.diagnostics
            .iter()
            .any(|d| d.message.contains("no longer verify")),
        "schema_sync can no longer read a registered source or table"
    );
}
