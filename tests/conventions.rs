//! The project conventions that no compiler lint can see, checked on
//! run-time values (DESIGN.md §9): the documented schemas match what the
//! code emits, the build stays hermetic, every crate opts into the
//! workspace lints, and the documented commands, experiments and
//! workload ids exist.

use std::fs;
use std::path::Path;

use profess::metrics::Json;
use profess::obs::TraceEvent;
use profess_bench::experiments::EXPERIMENTS;
use profess_bench::surface::SURFACE_FIELDS;
use profess_core::snapshot::PAYLOAD_FIELDS;

/// JSONL line types the trace artifact adds around the events: the
/// collector's `run` header and the log's `hist` and `counters` lines.
const ARTIFACT_KINDS: &[&str] = &["run", "hist", "counters"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The names of the entries of directory `rel`, sorted.
fn dir_names(rel: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(root().join(rel))
        .map(|rd| rd.map(|e| e.expect("dir entry").file_name().to_string_lossy().into()))
        .map(Iterator::collect)
        .unwrap_or_default();
    names.sort();
    names
}

/// A bare lowercase word: a kind, field or workload id, not a path,
/// flag, variable or quoted string.
fn is_word(w: &str) -> bool {
    !w.is_empty()
        && w.bytes()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_')
}

fn backticked(cell: &str) -> Vec<String> {
    cell.split('`')
        .skip(1)
        .step_by(2)
        .filter(|w| is_word(w))
        .map(String::from)
        .collect()
}

/// The rows of the DESIGN.md table under the heading containing
/// `heading`: each row's one backticked name (first cell) and the
/// backticked words of its last cell. Header rows are skipped.
fn design_table(heading: &str) -> Vec<(String, Vec<String>)> {
    let design = read("DESIGN.md");
    let lines: Vec<&str> = design.lines().map(str::trim).collect();
    let (mut in_section, mut rows) = (false, Vec::new());
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with('#') {
            in_section = line.contains(heading);
            continue;
        }
        let is_header = lines.get(i + 1).is_some_and(|n| n.starts_with("|-"));
        if !in_section || !line.starts_with('|') || is_header {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
        if let [name] = backticked(cells[0]).as_slice() {
            rows.push((name.clone(), backticked(cells[cells.len() - 1])));
        }
    }
    assert!(
        !rows.is_empty(),
        "no table rows under a \"{heading}\" heading in DESIGN.md"
    );
    rows
}

/// One value of each `TraceEvent` variant, in declaration order. The
/// match makes a new variant a compile error here until it has a value.
fn one_of_each() -> Vec<TraceEvent> {
    use TraceEvent::*;
    let events = vec![
        SwapBegin {
            at: 1,
            channel: 0,
            group: 2,
            slot: 3,
            promoted: 0,
            demoted: None,
            done: 9,
        },
        SwapComplete {
            at: 9,
            channel: 0,
            group: 2,
        },
        SwapAbort {
            at: 1,
            group: 2,
            slot: 3,
            reason: "stale",
        },
        MdmDecision {
            at: 1,
            program: 0,
            group: 2,
            case: "-",
            verdict: "promote",
            rem_m2: 1.0,
            rem_m1: None,
            promote: true,
        },
        RsmEpoch {
            at: 1,
            program: 0,
            period: 1,
            raw_sf_a: 1.0,
            sf_a: 1.0,
            sf_b: 1.0,
        },
        QueueSample {
            at: 1,
            channel: 0,
            read_q: 1,
            write_q: 0,
            inflight: 1,
        },
    ];
    let rank = |e: &TraceEvent| match e {
        SwapBegin { .. } => 0,
        SwapComplete { .. } => 1,
        SwapAbort { .. } => 2,
        MdmDecision { .. } => 3,
        RsmEpoch { .. } => 4,
        QueueSample { .. } => 5,
    };
    assert!(
        events.iter().map(rank).eq(0..events.len()),
        "one value per variant, in order"
    );
    events
}

/// The prefix of a workload-id-shaped word: lowercase letters, then at
/// least two digits (`w01` → `w`, `churn01` → `churn`).
fn split_id(w: &str) -> Option<&str> {
    let (prefix, digits) = w.split_at(w.find(|c: char| c.is_ascii_digit())?);
    let shaped = !prefix.is_empty() && prefix.bytes().all(|c| c.is_ascii_lowercase());
    (shaped && digits.len() >= 2 && digits.bytes().all(|c| c.is_ascii_digit())).then_some(prefix)
}

fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() && i > 0 {
            out.push('_');
        }
        out.push(c.to_ascii_lowercase());
    }
    out
}

#[test]
fn schema_sync_design_tables_match_what_the_code_emits() {
    let events = one_of_each();
    let emitted: Vec<(String, Vec<String>)> = events
        .iter()
        .map(|e| {
            let variant = format!("{e:?}");
            let variant = variant.split([' ', '{']).next().unwrap_or_default();
            assert_eq!(e.kind(), snake_case(variant), "kind of `{variant}`");
            let Json::Obj(pairs) = e.to_json() else {
                panic!("`{variant}` does not serialize to an object")
            };
            assert_eq!(pairs[0], ("type".into(), Json::Str(e.kind().into())));
            (
                e.kind().to_string(),
                pairs[1..].iter().map(|(k, _)| k.clone()).collect(),
            )
        })
        .collect();
    assert_eq!(
        design_table("Event schema"),
        emitted,
        "DESIGN.md §8.1 against to_json"
    );
    for (heading, fields) in [
        ("Snapshot schema", PAYLOAD_FIELDS),
        ("Surface schema", SURFACE_FIELDS),
    ] {
        let rows: Vec<String> = design_table(heading).into_iter().map(|r| r.0).collect();
        assert_eq!(rows, fields, "DESIGN.md \"{heading}\" table");
    }
}

/// The kind words of every `profess-validate trace FILE KIND...` call in
/// `text`. Backslash continuations join lines; a pipe, redirect, `;`,
/// `&`, `#` or closing backtick ends the call.
fn required_kinds(text: &str) -> Vec<String> {
    let joined = text.replace("\\\n", " ");
    let mut kinds = Vec::new();
    for line in joined.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        for (i, w) in words.iter().enumerate() {
            let mut rest = words[i + 1..].iter().skip_while(|w| **w == "--");
            if w.trim_matches('`') != "profess-validate" || rest.next() != Some(&"trace") {
                continue;
            }
            for w in rest.skip(1) {
                if w.starts_with(['|', '>', '&', ';', '#']) || w.starts_with("2>") {
                    break;
                }
                let body = w.split('`').next().unwrap_or_default();
                if is_word(body) {
                    kinds.push(body.to_string());
                }
                if body.len() < w.len() {
                    break;
                }
            }
        }
    }
    kinds
}

#[test]
fn schema_sync_every_required_trace_kind_exists() {
    let mut known: Vec<&str> = one_of_each().iter().map(TraceEvent::kind).collect();
    known.extend(ARTIFACT_KINDS);
    let ci = required_kinds(&read("scripts/ci.sh"));
    assert!(!ci.is_empty(), "ci.sh no longer validates a trace");
    for doc in ["scripts/ci.sh", "README.md", "DESIGN.md"] {
        for kind in required_kinds(&read(doc)) {
            assert!(
                known.contains(&kind.as_str()),
                "{doc} requires unknown trace kind `{kind}`"
            );
        }
    }
}

/// A TOML file's `[section]` headers, each with its key lines (comments
/// and blank lines dropped). Top-level keys go under the header "".
fn sections(text: &str) -> Vec<(String, Vec<String>)> {
    let mut out = vec![(String::new(), Vec::new())];
    for line in text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        if line.starts_with('[') {
            out.push((line.trim_matches(['[', ']']).to_string(), Vec::new()));
        } else if let Some(last) = out.last_mut() {
            last.1.push(line.replace(' ', ""));
        }
    }
    out
}

/// The root manifest and one per member crate, by path.
fn member_manifests() -> Vec<(String, String)> {
    let mut out = vec![("Cargo.toml".to_string(), read("Cargo.toml"))];
    for c in dir_names("crates") {
        out.push((
            format!("crates/{c}/Cargo.toml"),
            read(&format!("crates/{c}/Cargo.toml")),
        ));
    }
    out
}

fn package_name(manifest: &str) -> String {
    let keys = sections(manifest)
        .into_iter()
        .find(|s| s.0 == "package")
        .expect("[package]")
        .1;
    let name = keys.iter().find_map(|k| k.strip_prefix("name="));
    name.expect("package name").trim_matches('"').to_string()
}

#[test]
fn hermetic_deps_every_dependency_is_a_path_or_workspace_dependency() {
    let mut manifests = member_manifests();
    manifests.push((
        "examples/perf/Cargo.toml".into(),
        read("examples/perf/Cargo.toml"),
    ));
    let is_deps = |h: &str| h.ends_with("dependencies");
    let ok = |v: &str| v.contains("path=") || v.contains("workspace=true");
    for (path, text) in manifests {
        for (header, keys) in sections(&text) {
            if let Some((_, dep)) = header.rsplit_once('.').filter(|(t, _)| is_deps(t)) {
                assert!(
                    keys.iter().any(|k| ok(k)),
                    "{path}: `{dep}` is not a path dependency"
                );
            } else if is_deps(&header) {
                for k in keys {
                    let ok = k.contains(".workspace=true") || ok(&k);
                    assert!(ok, "{path}: `{k}` is not a path dependency");
                }
            }
        }
    }
}

#[test]
fn hermetic_lock_lists_exactly_the_workspace_members() {
    let lock = read("Cargo.lock");
    let mut locked = Vec::new();
    for (header, keys) in sections(&lock) {
        if header != "package" {
            continue;
        }
        let name = keys
            .iter()
            .find_map(|k| k.strip_prefix("name="))
            .expect("locked name");
        let foreign = keys
            .iter()
            .find(|k| k.starts_with("source=") || k.starts_with("checksum="));
        assert_eq!(
            foreign, None,
            "Cargo.lock: {name} resolves outside the workspace"
        );
        locked.push(name.trim_matches('"').to_string());
    }
    let mut members: Vec<String> = member_manifests()
        .iter()
        .map(|m| package_name(&m.1))
        .collect();
    members.sort();
    locked.sort();
    // `examples/perf` (profess-perf) is no member: it has its own
    // workspace and lock file.
    assert_eq!(
        locked, members,
        "Cargo.lock must list exactly the workspace members"
    );
}

#[test]
fn every_member_opts_into_the_workspace_lints() {
    let manifests = member_manifests();
    let (root, crates) = manifests.split_first().expect("root manifest");
    let forbidding: Vec<String> = sections(&root.1)
        .into_iter()
        .filter(|(_, keys)| keys.iter().any(|k| k == "unsafe_code=\"forbid\""))
        .map(|s| s.0)
        .collect();
    // Cargo cannot combine `workspace = true` with the root package's
    // overrides, so the root package carries its own copy.
    assert_eq!(
        forbidding,
        ["workspace.lints.rust", "lints.rust"],
        "Cargo.toml must forbid unsafe_code for the workspace and the root package"
    );
    for (path, text) in crates {
        let lints = sections(text).into_iter().find(|s| s.0 == "lints");
        let opted_in = lints.is_some_and(|s| s.1 == ["workspace=true"]);
        assert!(
            opted_in,
            "{path} must opt into the workspace lints with `[lints] workspace = true`"
        );
    }
}

/// The experiment each `profess-run <name>` in `line` names: the first
/// word after `profess-run` (and a lone `--`). A `<placeholder>`, and
/// `profess-run` not followed by a space (`profess-run.rs`), name none.
fn run_names(line: &str) -> Vec<String> {
    line.match_indices("profess-run ")
        .filter_map(|(i, m)| {
            let mut words = line[i + m.len()..].split_whitespace();
            let word = match words.next()? {
                "--" => words.next()?,
                w => w,
            };
            let name: String = word
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || "-_".contains(*c))
                .collect();
            (!word.starts_with('<')).then_some(name)
        })
        .collect()
}

/// The paths, relative to the repository root, of every `.rs` file
/// under directory `rel`.
fn rs_files(rel: &str) -> Vec<String> {
    let mut out = Vec::new();
    for name in dir_names(rel) {
        let path = format!("{rel}/{name}");
        if root().join(&path).is_dir() {
            out.extend(rs_files(&path));
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    out
}

/// DESIGN.md §2's workspace inventory against the tree: every backticked
/// `*.rs` name is a file under `src/` or `crates/`, and the crate tree
/// lists each member crate, by directory and package name, exactly once.
fn inventory_errors() -> Vec<String> {
    let design = read("DESIGN.md");
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("2. Workspace inventory"))
        .expect("DESIGN.md has a §2 workspace inventory");
    let mut wrong = Vec::new();
    let mut sources = rs_files("src");
    sources.extend(rs_files("crates"));
    let prose: Vec<&str> = section
        .lines()
        .filter(|l| !l.trim_start().starts_with("```"))
        .collect();
    let prose = prose.join("\n");
    for name in prose.split('`').skip(1).step_by(2) {
        if name.ends_with(".rs") && !sources.iter().any(|p| p.ends_with(&format!("/{name}"))) {
            wrong.push(format!(
                "DESIGN.md §2: `{name}` is no file under src/ or crates/"
            ));
        }
    }
    let mut listed = Vec::new();
    for line in section.lines() {
        let mut toks = line
            .split_whitespace()
            .skip_while(|t| !["├──", "└──"].contains(t));
        let (Some(_), Some(dir), Some(package)) = (toks.next(), toks.next(), toks.next()) else {
            continue;
        };
        if !package.starts_with("profess-") {
            continue;
        }
        let manifest = format!("crates/{dir}/Cargo.toml");
        if !root().join(&manifest).exists() {
            wrong.push(format!(
                "DESIGN.md §2: crate `{dir}` is no directory under crates/"
            ));
        } else if package_name(&read(&manifest)) != package {
            wrong.push(format!("DESIGN.md §2: crates/{dir} is not `{package}`"));
        }
        listed.push(dir.to_string());
    }
    for dir in dir_names("crates") {
        let n = listed.iter().filter(|l| **l == dir).count();
        if n != 1 {
            wrong.push(format!("DESIGN.md §2: crate `{dir}` is listed {n} times"));
        }
    }
    wrong
}

/// The rows of DESIGN.md §3's experiment index: each row's first cell
/// and the code spans of its command (last) cell.
fn experiment_index() -> Vec<(String, Vec<String>)> {
    let design = read("DESIGN.md");
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("3. Experiment index"))
        .expect("DESIGN.md has a §3 experiment index");
    let rows: Vec<(String, Vec<String>)> = section
        .lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|-") && !l.starts_with("| ID"))
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split('|').collect();
            let command = cells[cells.len() - 1];
            let spans = command.split('`').skip(1).step_by(2).map(String::from);
            (cells[0].trim().to_string(), spans.collect())
        })
        .collect();
    assert!(rows.len() > 10, "DESIGN.md §3 lost its table");
    rows
}

#[test]
fn doc_sync_documented_commands_and_workloads_exist() {
    let packages: Vec<String> = member_manifests()
        .iter()
        .map(|m| package_name(&m.1))
        .collect();
    let stems = |dir: &str| -> Vec<String> {
        let names = dir_names(dir);
        names
            .iter()
            .filter_map(|n| n.strip_suffix(".rs").map(String::from))
            .collect()
    };
    let mut bins = stems("src/bin");
    for c in dir_names("crates") {
        bins.extend(stems(&format!("crates/{c}/src/bin")));
    }
    let mut examples = stems("examples");
    let example_dirs = dir_names("examples").into_iter();
    examples
        .extend(example_dirs.filter(|d| root().join("examples").join(d).join("main.rs").exists()));
    let ids: Vec<&str> = profess::trace::workload::all_workloads()
        .iter()
        .map(|w| w.id)
        .collect();
    let prefixes: Vec<&str> = ids.iter().filter_map(|id| split_id(id)).collect();
    let experiments: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let mut wrong = Vec::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md", "scripts/ci.sh"] {
        for (n, line) in read(doc).lines().enumerate() {
            let at = format!("{doc}:{}", n + 1);
            if let Some((_, args)) = line.split_once("cargo run") {
                let mut toks = args
                    .split_whitespace()
                    .take_while(|t| *t != "--" && !t.starts_with('#'));
                while let Some(flag) = toks.next() {
                    let known = match flag {
                        "-p" | "--package" => &packages,
                        "--bin" => &bins,
                        "--example" => &examples,
                        _ => continue,
                    };
                    let v = toks.next().unwrap_or_default();
                    let v =
                        v.trim_matches(|c: char| !(c.is_ascii_alphanumeric() || "-_".contains(c)));
                    if !known.iter().any(|k| k == v) {
                        wrong.push(format!("{at}: `cargo run {flag} {v}` names no such target"));
                    }
                }
            }
            for name in run_names(line) {
                if !experiments.contains(&name.as_str()) {
                    wrong.push(format!("{at}: `profess-run {name}` names no experiment"));
                }
            }
            for w in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                if split_id(w).is_some_and(|p| prefixes.contains(&p)) && !ids.contains(&w) {
                    wrong.push(format!("{at}: workload `{w}` is not registered"));
                }
            }
        }
    }
    for (row, commands) in experiment_index() {
        for c in commands {
            let name = c.strip_prefix("profess-run ").unwrap_or(&c);
            let name = name.split_whitespace().next().unwrap_or_default();
            if !experiments.contains(&name) {
                wrong.push(format!("DESIGN.md §3 `{row}`: `{c}` names no experiment"));
            }
        }
    }
    wrong.extend(inventory_errors());
    assert!(
        wrong.is_empty(),
        "docs name things that do not exist:\n{}",
        wrong.join("\n")
    );
}
