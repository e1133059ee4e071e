//! Documentation-sync lint: runnable examples in the top-level docs
//! must name things that exist.
//!
//! README.md and DESIGN.md are full of `cargo run -p <pkg> --bin <bin>`
//! invocations and workload ids (`w01`..`w19`). Nothing compiles those
//! strings, so a renamed binary or a re-numbered workload silently turns
//! the quickstart into a lie. This lint resolves, in every root-level
//! `*.md` file it is pointed at:
//!
//! 1. `-p`/`--package` arguments of `cargo run` lines against the
//!    `[package]` names the workspace manifests declare;
//! 2. `--bin` arguments against the `src/bin/*.rs` (and `src/main.rs`)
//!    targets on disk;
//! 3. `--example` arguments against `examples/*.rs`;
//! 4. bare workload-id tokens against the ids declared in
//!    `crates/trace/src/workload.rs` (`id: "..."` literals). A token is
//!    judged when it has the shape `<prefix><digits>` and `<prefix>` is
//!    one the declared ids actually use (`w01` → `w`, `churn01` →
//!    `churn`), so family ids are checked without dragging every
//!    `fig05`-style word into the lint.
//!
//! Not suppressible: a doc that names a phantom command has no
//! legitimate reason to keep doing so.

use super::hermetic::package_name;
use crate::diag::Diagnostic;
use crate::workspace::{Role, Workspace};

/// Lint name.
pub const DOC_SYNC: &str = "doc_sync";

/// The docs whose examples are resolved. Other root-level markdown
/// (change logs, paper notes) may quote foreign commands freely.
pub const CHECKED_DOCS: &[&str] = &["README.md", "DESIGN.md"];

/// Where the workload ids live.
pub const WORKLOAD_RS: &str = "crates/trace/src/workload.rs";

/// Runs the lint over the workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let packages: Vec<String> = ws
        .files
        .iter()
        .filter(|f| f.role == Role::Manifest)
        .filter_map(|f| package_name(&f.text))
        .collect();
    let mut bins: Vec<String> = Vec::new();
    let mut examples: Vec<String> = Vec::new();
    for f in &ws.files {
        match &f.role {
            Role::Bin(_) => {
                if let Some(stem) = stem(&f.rel_path) {
                    bins.push(stem);
                }
            }
            Role::Example => {
                if let Some(stem) = stem(&f.rel_path) {
                    examples.push(stem);
                }
            }
            _ => {}
        }
    }
    let workload_ids = ws
        .get(WORKLOAD_RS)
        .map(|f| declared_workloads(&f.text))
        .unwrap_or_default();
    for doc in CHECKED_DOCS {
        let Some(f) = ws.get(doc) else { continue };
        check_doc(
            &f.rel_path,
            &f.text,
            &packages,
            &bins,
            &examples,
            &workload_ids,
            out,
        );
    }
    if let Some(f) = ws.get(LINT_TABLE_DOC) {
        check_lint_table(&f.rel_path, &f.text, out);
    }
}

/// The doc holding the lint table the registry is checked against.
pub const LINT_TABLE_DOC: &str = "DESIGN.md";

/// The section heading the lint table lives under.
pub const LINT_TABLE_HEADING: &str = "### 9.1 The lints";

/// Checks the DESIGN.md §9.1 lint table against `lints::REGISTRY`:
/// every registered lint has a row, every row names a registered lint,
/// and the documented level/suppressibility columns match the code.
/// Skipped silently when the doc has no §9.1 heading (fixture trees).
fn check_lint_table(path: &str, text: &str, out: &mut Vec<Diagnostic>) {
    let Some(start) = text.find(LINT_TABLE_HEADING) else {
        return;
    };
    let heading_line = text[..start].lines().count() as u32 + 1;
    let section: Vec<(u32, &str)> = text[start..]
        .lines()
        .enumerate()
        .skip(1)
        .take_while(|(_, l)| !l.starts_with("### "))
        .map(|(i, l)| (heading_line + i as u32, l))
        .collect();
    let mut documented: Vec<(u32, String, String, String)> = Vec::new();
    for (lineno, line) in &section {
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let mut cols = rest.split('|').map(str::trim);
        let name = cols
            .next()
            .unwrap_or_default()
            .trim_matches('`')
            .to_string();
        let level = cols.next().unwrap_or_default().to_string();
        let suppressible = cols.next().unwrap_or_default().to_string();
        documented.push((*lineno, name, level, suppressible));
    }
    for (lineno, name, level, suppressible) in &documented {
        let Some(info) = super::REGISTRY.iter().find(|l| l.name == *name) else {
            out.push(Diagnostic::new(
                DOC_SYNC,
                path,
                *lineno,
                format!(
                    "lint table row `{name}` names a lint the registry does not \
                     declare — remove the row or register the lint"
                ),
            ));
            continue;
        };
        let want_level = info.level.label();
        if level != want_level {
            out.push(Diagnostic::new(
                DOC_SYNC,
                path,
                *lineno,
                format!(
                    "lint table row `{name}` documents level `{level}` but the \
                     registry says `{want_level}`"
                ),
            ));
        }
        let want_sup = if info.suppressible { "yes" } else { "no" };
        if suppressible != want_sup {
            out.push(Diagnostic::new(
                DOC_SYNC,
                path,
                *lineno,
                format!(
                    "lint table row `{name}` documents suppressible `{suppressible}` \
                     but the registry says `{want_sup}`"
                ),
            ));
        }
    }
    for info in super::REGISTRY {
        if !documented.iter().any(|(_, name, _, _)| name == info.name) {
            out.push(Diagnostic::new(
                DOC_SYNC,
                path,
                heading_line,
                format!(
                    "registered lint `{}` has no row in the §9.1 lint table — \
                     document its level, suppressibility, scope, and rule",
                    info.name
                ),
            ));
        }
    }
}

/// File stem of a `.rs` path (`crates/bench/src/bin/fig05.rs` → `fig05`).
/// `main.rs` is skipped: its bin target is named after the package, which
/// check 1 already resolves.
fn stem(rel_path: &str) -> Option<String> {
    let name = rel_path.rsplit('/').next()?.strip_suffix(".rs")?;
    (name != "main").then(|| name.to_string())
}

/// Workload ids declared as `id: "wNN"` struct-literal fields.
fn declared_workloads(text: &str) -> Vec<String> {
    let mut ids = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        let Some(rest) = line.strip_prefix("id:") else {
            continue;
        };
        let mut parts = rest.split('"');
        if let (Some(_), Some(id)) = (parts.next(), parts.next()) {
            ids.push(id.to_string());
        }
    }
    ids
}

#[allow(clippy::too_many_arguments)]
fn check_doc(
    path: &str,
    text: &str,
    packages: &[String],
    bins: &[String],
    examples: &[String],
    workload_ids: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let prefixes = workload_prefixes(workload_ids);
    for (i, raw) in text.lines().enumerate() {
        let lineno = i as u32 + 1;
        if let Some(pos) = raw.find("cargo run") {
            check_cargo_run(
                path,
                lineno,
                &raw[pos + "cargo run".len()..],
                packages,
                bins,
                examples,
                out,
            );
        }
        for word in words(raw) {
            if is_workload_token(&word, &prefixes)
                && !workload_ids.is_empty()
                && !workload_ids.contains(&word)
            {
                out.push(Diagnostic::new(
                    DOC_SYNC,
                    path,
                    lineno,
                    format!(
                        "workload `{word}` is not declared in {WORKLOAD_RS} \
                         (known ids: {}..{})",
                        workload_ids.first().map_or("", String::as_str),
                        workload_ids.last().map_or("", String::as_str),
                    ),
                ));
            }
        }
    }
}

fn check_cargo_run(
    path: &str,
    lineno: u32,
    args: &str,
    packages: &[String],
    bins: &[String],
    examples: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let mut push = |flag: &str, value: &str, known: &[String], what: &str| {
        if !known.iter().any(|k| k == value) {
            out.push(Diagnostic::new(
                DOC_SYNC,
                path,
                lineno,
                format!(
                    "`cargo run {flag} {value}` names a {what} that does not exist in \
                     the workspace — the documented command cannot run"
                ),
            ));
        }
    };
    let mut toks = args.split_whitespace();
    while let Some(t) = toks.next() {
        // Program arguments after `--` are not cargo target selectors.
        if t == "--" || t.starts_with('#') {
            break;
        }
        let Some(v) = (match t {
            "-p" | "--package" | "--bin" | "--example" => toks.next(),
            _ => None,
        }) else {
            continue;
        };
        // Inline-code examples close with a backtick glued to the word.
        let v = v.trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'));
        match t {
            "-p" | "--package" => push(t, v, packages, "package"),
            "--bin" => push(t, v, bins, "binary target"),
            _ => push(t, v, examples, "example"),
        }
    }
}

/// Lowercase alphanumeric/underscore words of a line.
fn words(line: &str) -> Vec<String> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

/// The distinct alphabetic prefixes of the declared workload ids
/// (`w01` → `w`, `churn01` → `churn`). Ids without a digit suffix
/// contribute nothing.
fn workload_prefixes(ids: &[String]) -> Vec<String> {
    let mut prefixes: Vec<String> = Vec::new();
    for id in ids {
        let Some((prefix, digits)) = split_id(id) else {
            continue;
        };
        if digits.len() >= 2 && !prefixes.iter().any(|p| p == prefix) {
            prefixes.push(prefix.to_string());
        }
    }
    prefixes
}

/// Splits `<alpha><digits>` into its halves; `None` for any other shape.
fn split_id(w: &str) -> Option<(&str, &str)> {
    let cut = w.find(|c: char| c.is_ascii_digit())?;
    let (prefix, digits) = w.split_at(cut);
    (!prefix.is_empty()
        && prefix.chars().all(|c| c.is_ascii_lowercase())
        && digits.chars().all(|c| c.is_ascii_digit()))
    .then_some((prefix, digits))
}

/// A declared prefix followed by at least two digits: a workload id
/// reference worth resolving.
fn is_workload_token(w: &str, prefixes: &[String]) -> bool {
    match split_id(w) {
        Some((prefix, digits)) => digits.len() >= 2 && prefixes.iter().any(|p| p == prefix),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    const WORKLOADS: &str = "
        Workload {
            id: \"w01\",
        },
        Workload {
            id: \"w02\",
        },
    ";

    fn base() -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "crates/bench/Cargo.toml",
                "[package]\nname = \"profess-bench\"\n",
            ),
            ("crates/bench/src/bin/fig05.rs", "fn main() {}"),
            ("examples/quickstart.rs", "fn main() {}"),
            (WORKLOAD_RS, WORKLOADS),
        ]
    }

    fn run(files: Vec<(&str, &str)>) -> Vec<Diagnostic> {
        let ws = Workspace {
            files: files.iter().map(|(p, t)| SourceFile::new(p, t)).collect(),
        };
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    #[test]
    fn real_targets_and_workloads_pass() {
        let mut files = base();
        files.push((
            "README.md",
            "```\ncargo run --release -p profess-bench --bin fig05 -- --trace\n\
             cargo run --example quickstart  # w01 under MDM\n```\n",
        ));
        assert!(run(files).is_empty());
    }

    #[test]
    fn phantom_bin_package_and_example_flagged() {
        let mut files = base();
        files.push((
            "README.md",
            "cargo run -p profess-gone --bin fig99\ncargo run --example missing\n",
        ));
        let out = run(files);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out.iter().all(|d| d.lint == DOC_SYNC));
        assert!(out[0].message.contains("profess-gone"));
        assert!(out[1].message.contains("fig99"));
        assert!(out[2].message.contains("missing"));
    }

    #[test]
    fn unknown_workload_id_flagged() {
        let mut files = base();
        files.push(("DESIGN.md", "compare --workload w42 against w01\n"));
        let out = run(files);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`w42`"));
        assert_eq!(out[0].path, "DESIGN.md");
    }

    #[test]
    fn family_ids_resolved_by_declared_prefix() {
        // A declared `churn01` makes `churn` a judged prefix: `churn99`
        // is flagged, while `fig05` (no such prefix) never is.
        let mut files = base();
        files.pop(); // replace the workload source
        files.push((
            WORKLOAD_RS,
            "id: \"w01\",\nid: \"churn01\",\nid: \"burst01\",\n",
        ));
        files.push((
            "README.md",
            "run churn01 then churn99, and see fig05 for burst01\n",
        ));
        let out = run(files);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`churn99`"));
    }

    #[test]
    fn prefix_derivation_requires_digit_suffix() {
        assert_eq!(
            workload_prefixes(&["w01".into(), "churn01".into(), "plain".into(), "w19".into()]),
            vec!["w".to_string(), "churn".to_string()]
        );
        let prefixes = vec!["w".to_string()];
        assert!(is_workload_token("w42", &prefixes));
        assert!(!is_workload_token("w4", &prefixes)); // too short
        assert!(!is_workload_token("churn01", &prefixes)); // undeclared prefix
        assert!(!is_workload_token("w01x", &prefixes)); // trailing junk
    }

    #[test]
    fn args_after_dashdash_are_not_targets() {
        let mut files = base();
        files.push((
            "README.md",
            "cargo run -p profess-bench --bin fig05 -- --bin not_a_target\n",
        ));
        assert!(run(files).is_empty());
    }

    #[test]
    fn lint_table_checked_against_registry() {
        // A complete, accurate table is clean.
        let rows: String = crate::lints::REGISTRY
            .iter()
            .map(|l| {
                format!(
                    "| `{}` | {} | {} | scope | rule |\n",
                    l.name,
                    l.level.label(),
                    if l.suppressible { "yes" } else { "no" }
                )
            })
            .collect();
        let ok = format!("{LINT_TABLE_HEADING}\n\n| lint | level | … |\n|---|---|---|\n{rows}");
        assert!(run(vec![("DESIGN.md", &ok)]).is_empty());

        // A phantom row, a wrong level, and a missing lint all fire.
        let bad = format!(
            "{LINT_TABLE_HEADING}\n\n| `ghost_lint` | error | yes | s | r |\n\
             | `panic` | warn | yes | s | r |\n"
        );
        let out = run(vec![("DESIGN.md", &bad)]);
        let msgs: Vec<&str> = out.iter().map(|d| d.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("`ghost_lint`")), "{msgs:?}");
        assert!(
            msgs.iter()
                .any(|m| m.contains("`panic`") && m.contains("level")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("`dead_item`") && m.contains("no row")),
            "{msgs:?}"
        );
    }

    #[test]
    fn unchecked_docs_and_missing_sources_skip() {
        // CHANGES.md may quote anything.
        let mut files = base();
        files.push(("CHANGES.md", "cargo run -p foreign-tool --bin other\n"));
        assert!(run(files).is_empty());
        // Without workload.rs, wNN tokens are not judged.
        let files = vec![("README.md", "try w42\n")];
        assert!(run(files).is_empty());
    }
}
