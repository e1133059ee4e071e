//! Fixture-based integration tests: one positive (violating) and one
//! suppressed-or-clean negative fixture per lint, plus an end-to-end run
//! of the `profess-analyze` binary against an on-disk fixture tree.

use profess_analyze::{analyze, lints, workspace::SourceFile, Workspace};

fn ws(files: &[(&str, &str)]) -> Workspace {
    Workspace {
        files: files.iter().map(|(p, t)| SourceFile::new(p, t)).collect(),
    }
}

/// Active (unsuppressed) diagnostics of one lint over a fixture set.
fn active(files: &[(&str, &str)], lint: &str) -> usize {
    analyze(&ws(files))
        .diagnostics
        .iter()
        .filter(|d| d.lint == lint && !d.suppressed)
        .count()
}

#[test]
fn hash_collections_positive_and_suppressed() {
    let bad = "use std::collections::HashMap;\n";
    assert_eq!(
        active(&[("crates/core/src/x.rs", bad)], "hash_collections"),
        1
    );
    let allowed =
        "// profess: allow(hash_collections): scratch map, drained before any iteration\n\
         use std::collections::HashMap;\n";
    assert_eq!(
        active(&[("crates/core/src/x.rs", allowed)], "hash_collections"),
        0
    );
}

#[test]
fn hot_path_map_positive_and_suppressed() {
    let bad = "use std::collections::BTreeMap;\n";
    assert_eq!(
        active(&[("crates/core/src/policies/pom.rs", bad)], "hot_path_map"),
        1
    );
    let allowed = "// profess: allow(hot_path_map): setup-time table, never touched per access\n\
                   use std::collections::BTreeMap;\n";
    assert_eq!(
        active(&[("crates/core/src/system.rs", allowed)], "hot_path_map"),
        0
    );
    // Modules off the hot path are out of scope.
    assert_eq!(
        active(&[("crates/core/src/alloc.rs", bad)], "hot_path_map"),
        0
    );
}

#[test]
fn wall_clock_positive_and_suppressed() {
    let bad = "use std::time::Instant;\n";
    assert_eq!(active(&[("crates/obs/src/x.rs", bad)], "wall_clock"), 1);
    let allowed = "use std::time::Instant; // profess: allow(wall_clock): log timestamps only\n";
    assert_eq!(active(&[("crates/obs/src/x.rs", allowed)], "wall_clock"), 0);
}

#[test]
fn ambient_input_positive_and_suppressed() {
    let bad = "fn f() -> usize {\n\
               let n = std::env::var(\"PROFESS_THREADS\").map_or(1, |v| v.len());\n\
               n + std::thread::available_parallelism().map_or(1, |p| p.get())\n}\n\
               fn g() -> bool { std::thread::current().name().is_some() }\n";
    assert_eq!(active(&[("crates/core/src/x.rs", bad)], "ambient_input"), 3);
    let allowed = "fn f() -> Option<String> {\n\
                   // profess: allow(ambient_input): debug label only, never simulated\n\
                   std::env::var(\"PROFESS_LABEL\").ok()\n}\n";
    assert_eq!(
        active(&[("crates/core/src/x.rs", allowed)], "ambient_input"),
        0
    );
    // Knob reads in the operator crates are out of scope: their
    // determinism is pinned by the byte-identity tests instead.
    for path in [
        "crates/bench/src/x.rs",
        "crates/par/src/x.rs",
        "crates/obs/src/x.rs",
    ] {
        assert_eq!(active(&[(path, bad)], "ambient_input"), 0, "{path}");
    }
    // So are other `env::` paths and test code.
    let lookalike = "fn f() -> u8 { let _ = std::env::current_dir(); 0 }\n";
    assert_eq!(
        active(&[("crates/core/src/x.rs", lookalike)], "ambient_input"),
        0
    );
    assert_eq!(active(&[("tests/x.rs", bad)], "ambient_input"), 0);
}

#[test]
fn thread_spawn_positive_and_suppressed() {
    let bad = "fn f() { std::thread::spawn(|| ()); }\n";
    assert_eq!(active(&[("crates/core/src/x.rs", bad)], "thread_spawn"), 1);
    let allowed = "// profess: allow(thread_spawn): joins before returning\n\
                   fn f() { std::thread::spawn(|| ()); }\n";
    assert_eq!(
        active(&[("crates/core/src/x.rs", allowed)], "thread_spawn"),
        0
    );
}

#[test]
fn panic_positive_and_suppressed() {
    let bad = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert_eq!(active(&[("crates/mem/src/x.rs", bad)], "panic"), 1);
    let allowed = "fn f(x: Option<u8>) -> u8 {\n\
                   // profess: allow(panic): caller checked is_some\n\
                   x.unwrap()\n}\n";
    assert_eq!(active(&[("crates/mem/src/x.rs", allowed)], "panic"), 0);
}

#[test]
fn unsafe_code_positive_and_suppressed() {
    let bad = "#![forbid(unsafe_code)]\nfn f() { unsafe {} }\n";
    assert_eq!(active(&[("crates/mem/src/lib.rs", bad)], "unsafe_code"), 1);
    let allowed = "#![forbid(unsafe_code)]\n\
                   // profess: allow(unsafe_code): doc example, not compiled\n\
                   fn f() { unsafe {} }\n";
    assert_eq!(
        active(&[("crates/mem/src/lib.rs", allowed)], "unsafe_code"),
        0
    );
}

#[test]
fn hermetic_deps_positive_and_not_suppressible() {
    let bad = "# profess: allow(hermetic_deps): nope\n[dependencies]\nserde = \"1.0\"\n";
    // Hermeticity is deliberately immune to inline allows.
    assert_eq!(active(&[("crates/x/Cargo.toml", bad)], "hermetic_deps"), 1);
    let ok = "[dependencies]\nprofess-types = { path = \"../types\" }\n";
    assert_eq!(active(&[("crates/x/Cargo.toml", ok)], "hermetic_deps"), 0);
}

#[test]
fn hermetic_lock_positive_and_negative() {
    let bad = "[[package]]\nname = \"rand\"\nversion = \"0.8.5\"\n\
               source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    assert_eq!(active(&[("Cargo.lock", bad)], "hermetic_lock"), 2);
    let ok = "[[package]]\nname = \"profess-core\"\nversion = \"0.1.0\"\n";
    assert_eq!(active(&[("Cargo.lock", ok)], "hermetic_lock"), 0);
}

/// A `kind()` arm plus the matching `to_json()` arm, as in event.rs.
fn event_rs(kind: &str) -> String {
    format!(
        "impl TraceEvent {{\n\
         pub fn kind(&self) -> &'static str {{ match self {{ TraceEvent::SwapBegin {{ .. }} => \"{kind}\" }} }}\n\
         pub fn to_json(&self) -> Json {{ match *self {{ TraceEvent::SwapBegin {{ at }} => Json::obj([kind, (\"at\", Json::UInt(at))]) }} }}\n\
         }}\n"
    )
}

#[test]
fn schema_sync_trace_kinds_positive_and_negative() {
    let ev = "crates/obs/src/event.rs";
    let (event_ok, event_bad) = (event_rs("swap_begin"), event_rs("swap_start"));
    assert_eq!(active(&[(ev, &event_bad)], "schema_sync"), 1);
    assert_eq!(active(&[(ev, &event_ok)], "schema_sync"), 0);
    // A CI script demanding a nonexistent kind is flagged too.
    let ci = (
        "scripts/ci.sh",
        "profess-validate trace \"$f\" run swap_begin bogus_kind\n",
    );
    assert_eq!(active(&[(ev, &event_ok), ci], "schema_sync"), 1);
    // So is a README example naming a misspelt kind; prose is not.
    let readme = (
        "README.md",
        "```bash\ncargo run -p profess-bench --bin profess-validate -- \\\n    \
         trace results/TRACE_fig05.jsonl swap_begin mdm_decisoin\n```\n\
         `profess-validate trace FILE` checks each line.\n",
    );
    assert_eq!(active(&[(ev, &event_ok), readme], "schema_sync"), 1);
}

#[test]
fn json_report_is_stable_and_labeled() {
    let a = analyze(&ws(&[(
        "crates/core/src/x.rs",
        "use std::collections::HashMap;\n",
    )]));
    let json = a.to_json();
    assert!(json.contains("\"tool\":\"profess-analyze\""), "{json}");
    assert!(json.contains("\"lint\":\"hash_collections\""), "{json}");
    assert_eq!(json, a.to_json(), "byte-stable on repeated rendering");
}

/// End-to-end: the built binary exits non-zero on a violating fixture
/// tree, zero on a clean one, and writes `ANALYZE.json` when asked.
#[test]
fn binary_gates_fixture_trees() {
    use std::fs;
    use std::process::Command;

    let bin = env!("CARGO_BIN_EXE_profess-analyze");
    let root = std::env::temp_dir().join(format!("profess-analyze-e2e-{}", std::process::id()));
    let src = root.join("crates/core/src");
    fs::create_dir_all(&src).expect("mkdir fixture");
    fs::write(root.join("Cargo.lock"), "version = 4\n").expect("lockfile");

    // Violating tree: HashMap in simulator state.
    fs::write(src.join("x.rs"), "use std::collections::HashMap;\n").expect("fixture");
    let json = root.join("ANALYZE.json");
    let out = Command::new(bin)
        .arg("--json")
        .arg(&json)
        .arg(&root)
        .output()
        .expect("run analyzer");
    assert_eq!(out.status.code(), Some(1), "violations must gate");
    let report = fs::read_to_string(&json).expect("ANALYZE.json written");
    assert!(report.contains("hash_collections"), "{report}");

    // Clean tree: same file, deterministic structure.
    fs::write(src.join("x.rs"), "use std::collections::BTreeMap;\n").expect("fixture");
    let out = Command::new(bin).arg(&root).output().expect("run analyzer");
    assert_eq!(out.status.code(), Some(0), "clean tree must pass");

    fs::remove_dir_all(&root).ok();
}

#[test]
fn schema_sync_tables_positive_and_negative() {
    // (source file, constant text, DESIGN heading), one per const table.
    let tables = [
        (
            "crates/core/src/snapshot.rs",
            "pub const PAYLOAD_FIELDS: &[&str] = &[\"clock\", \"policy\"];\n",
            "### 11.2 Snapshot schema",
            ["clock", "policy"],
        ),
        (
            "crates/bench/src/surface.rs",
            "pub const SURFACE_FIELDS: &[&str] = &[\"policy\", \"intensity\"];\n",
            "### 13.2 Surface schema",
            ["policy", "intensity"],
        ),
    ];
    for (path, src, heading, [a, b]) in tables {
        let table = format!(
            "{heading}\n\n| `field` | contents |\n|---|---|\n| `{a}` | x |\n| `{b}` | y |\n"
        );
        assert_eq!(
            active(&[(path, src), ("DESIGN.md", &table)], "schema_sync"),
            0
        );
        // A documented field the emitter dropped is flagged; immune to
        // inline allows, like the other cross-file lints.
        let ghost =
            format!("<!-- profess: allow(schema_sync): nope -->\n{table}| `ghost` | gone |\n");
        assert_eq!(
            active(&[(path, src), ("DESIGN.md", &ghost)], "schema_sync"),
            1
        );
    }
}

#[test]
fn lint_list_is_complete() {
    // Every lint exercised above is registered for `--list`/docs.
    let registered: Vec<&str> = lints::REGISTRY.iter().map(|l| l.name).collect();
    for lint in [
        "hash_collections",
        "wall_clock",
        "ambient_input",
        "thread_spawn",
        "process_spawn",
        "panic",
        "unsafe_code",
        "hot_path_map",
        "dead_item",
        "stale_allow",
        "hermetic_deps",
        "hermetic_lock",
        "schema_sync",
        "doc_sync",
    ] {
        assert!(registered.contains(&lint), "{lint} not registered");
    }
    assert_eq!(registered.len(), 14);
}

#[test]
fn dead_item_and_stale_allow_are_warnings_not_gates() {
    let files = [(
        "crates/mem/src/x.rs",
        "pub fn orphan() {}\n\
         // profess: allow(panic): suppresses nothing here\n\
         pub fn also_orphan() { orphan(); }\n",
    )];
    let a = analyze(&ws(&files));
    let warns: Vec<&str> = a.active_warnings().map(|d| d.lint).collect();
    assert!(warns.contains(&"dead_item"), "{warns:?}");
    assert!(warns.contains(&"stale_allow"), "{warns:?}");
    // Warnings alone never fail analyze mode.
    assert!(a.is_clean(), "warnings must not gate");
    assert_eq!(a.active_errors().count(), 0);
}

/// Gate mode end-to-end: matching baseline passes, an injected
/// diagnostic fails with exit 2, a missing baseline is an infra error.
#[test]
fn gate_binary_diffs_against_baseline() {
    use std::fs;
    use std::process::Command;

    let bin = env!("CARGO_BIN_EXE_profess-analyze");
    let root = std::env::temp_dir().join(format!("profess-analyzegate-e2e-{}", std::process::id()));
    let src = root.join("crates/core/src");
    fs::create_dir_all(&src).expect("mkdir fixture");
    fs::write(root.join("Cargo.lock"), "version = 4\n").expect("lockfile");
    fs::write(src.join("x.rs"), "use std::collections::BTreeMap;\n").expect("fixture");

    // No baseline yet: infra error, not a diff verdict.
    let out = Command::new(bin)
        .args(["gate"])
        .arg(&root)
        .output()
        .expect("run gate");
    assert_eq!(out.status.code(), Some(1), "missing baseline is exit 1");

    // Write the baseline, then a no-change run passes.
    let out = Command::new(bin)
        .args(["gate", "--write-baseline"])
        .arg(&root)
        .output()
        .expect("write baseline");
    assert_eq!(out.status.code(), Some(0));
    assert!(root.join("results/ANALYZE.json").is_file());
    let out = Command::new(bin)
        .args(["gate"])
        .arg(&root)
        .output()
        .expect("run gate");
    assert_eq!(out.status.code(), Some(0), "clean diff passes");

    // Inject a violation: the gate must fail with exit 2 — even though
    // the new diagnostic is *suppressed* (new allows are reviewed too).
    fs::write(
        src.join("x.rs"),
        "// profess: allow(hash_collections): injected\nuse std::collections::HashMap;\n",
    )
    .expect("fixture");
    let out = Command::new(bin)
        .args(["gate"])
        .arg(&root)
        .output()
        .expect("run gate");
    assert_eq!(out.status.code(), Some(2), "new suppressed diag fails");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("NEW"), "{stdout}");

    // Fixing it again reports the baseline as resolvable, still exit 0.
    fs::write(src.join("x.rs"), "use std::collections::BTreeMap;\n").expect("fixture");
    let out = Command::new(bin)
        .args(["gate"])
        .arg(&root)
        .output()
        .expect("run gate");
    assert_eq!(out.status.code(), Some(0));

    fs::remove_dir_all(&root).ok();
}

#[test]
fn list_lints_matches_registry_shape() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_profess-analyze");
    let out = Command::new(bin)
        .arg("--list-lints")
        .output()
        .expect("run --list-lints");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), lints::REGISTRY.len());
    for (line, info) in lines.iter().zip(lints::REGISTRY) {
        let mut cols = line.split('|');
        assert_eq!(cols.next(), Some(info.name));
        let level = cols.next().expect("level column");
        assert!(level == "error" || level == "warn", "{line}");
        let sup = cols.next().expect("suppressible column");
        assert!(sup == "yes" || sup == "no", "{line}");
    }
}

#[test]
fn doc_sync_positive_and_negative() {
    let manifest = (
        "crates/bench/Cargo.toml",
        "[package]\nname = \"profess-bench\"\n",
    );
    let bin = ("crates/bench/src/bin/fig05.rs", "fn main() {}");
    let ok = ("README.md", "cargo run -p profess-bench --bin fig05\n");
    assert_eq!(active(&[manifest, bin, ok], "doc_sync"), 0);
    // Immune to inline allows, like the other cross-file lints.
    let bad = (
        "README.md",
        "<!-- profess: allow(doc_sync): nope -->\ncargo run -p profess-bench --bin fig99\n",
    );
    assert_eq!(active(&[manifest, bin, bad], "doc_sync"), 1);
}

#[test]
fn hermetic_lock_cross_checks_members() {
    let manifest = (
        "crates/core/Cargo.toml",
        "[package]\nname = \"profess-core\"\n",
    );
    let stale = ("Cargo.lock", "version = 4\n");
    assert_eq!(active(&[manifest, stale], "hermetic_lock"), 1);
    let fresh = ("Cargo.lock", "[[package]]\nname = \"profess-core\"\n");
    assert_eq!(active(&[manifest, fresh], "hermetic_lock"), 0);
}
