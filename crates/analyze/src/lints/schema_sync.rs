//! Schema-sync lint: every wire schema documented in `DESIGN.md` must
//! match the code that emits it.
//!
//! A small registry, [`SCHEMAS`], names per schema the source file that
//! defines it, the [`Extract`] rule that reads the emitted rows out of
//! that file, and the `DESIGN.md` heading of the table documenting them:
//!
//! * `PAYLOAD_FIELDS` (`crates/core/src/snapshot.rs`) → "Snapshot schema";
//! * `SURFACE_FIELDS` (`crates/bench/src/surface.rs`) → "Surface schema";
//! * the `TraceEvent::Variant { .. } => Json::obj([..])` arms of
//!   `to_json()` (`crates/obs/src/event.rs`) → "Event schema", one row
//!   per kind whose last column lists the payload fields.
//!
//! One table checker reports every mismatch: a missing row, a phantom
//! row, a wrong payload (the last column's backticked fields against
//! the emitted ones, in order), and rows out of emission order.
//!
//! Two more checks hang off the event schema. Each `TraceEvent::Variant
//! => "kind"` arm must spell the variant's snake_case (the compiler
//! checks exhaustiveness, not spelling). And every kind a
//! `profess-validate trace` invocation requires — in `scripts/ci.sh`,
//! in the validator's source, and in each `doc_sync::CHECKED_DOCS`
//! file — must be an emitted kind or an artifact-level line (`run`,
//! `hist`, `counters`); a misspelt one turns the trace gate into a
//! tautology or a false alarm.
//!
//! An entry whose source file is absent is skipped (fixture
//! workspaces); `tests/self_check.rs` pins every entry against the real
//! tree. Not suppressible: a drifted table silently decouples an
//! artifact from its specification.

use super::doc_sync::CHECKED_DOCS;
use crate::diag::Diagnostic;
use crate::scan::{scan, Spanned, Tok};
use crate::workspace::Workspace;

/// Lint name.
pub const SCHEMA_SYNC: &str = "schema_sync";

/// The design document holding the schema tables.
pub const DESIGN_MD: &str = "DESIGN.md";
/// Where the typed trace-event enum lives.
pub const EVENT_RS: &str = "crates/obs/src/event.rs";
/// Sources, besides the checked docs, whose trace invocations are read.
const KIND_SOURCES: &[&str] = &["scripts/ci.sh", "crates/bench/src/bin/profess-validate.rs"];

/// JSONL line types the artifact layer adds around the events
/// (`TraceCollector::record` writes `run`; `TraceLog::to_jsonl` writes
/// `hist` and `counters`).
const ARTIFACT_KINDS: &[&str] = &["run", "hist", "counters"];

/// How a schema's emitted rows are read from its source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extract {
    /// The string elements of a `&[&str]` constant, one row each.
    Const(&'static str),
    /// The `TraceEvent` `to_json()` arms, one row per kind with payload.
    EventArms,
}

/// One registry entry.
#[derive(Debug, Clone, Copy)]
pub struct Schema {
    /// Workspace-relative source file.
    pub source: &'static str,
    /// How rows are extracted from it.
    pub extract: Extract,
    /// Substring of the `DESIGN.md` heading above the table.
    pub heading: &'static str,
}

/// Every checked schema.
pub const SCHEMAS: &[Schema] = &[
    Schema {
        source: "crates/core/src/snapshot.rs",
        extract: Extract::Const("PAYLOAD_FIELDS"),
        heading: "Snapshot schema",
    },
    Schema {
        source: "crates/bench/src/surface.rs",
        extract: Extract::Const("SURFACE_FIELDS"),
        heading: "Surface schema",
    },
    Schema {
        source: EVENT_RS,
        extract: Extract::EventArms,
        heading: "Event schema",
    },
];

/// A row name and its payload fields (empty for constant tables).
pub type Row = (String, Vec<String>);

impl Schema {
    /// The rows `text` (this schema's source) emits, in emission order.
    pub fn emitted(&self, text: &str) -> Vec<Row> {
        match self.extract {
            Extract::Const(name) => const_strings(text, name)
                .into_iter()
                .map(|s| (s, Vec::new()))
                .collect(),
            Extract::EventArms => event_arms(text).0,
        }
    }
}

/// Runs the lint.
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for schema in SCHEMAS {
        let Some(src) = ws.get(schema.source) else {
            continue;
        };
        let emitted = schema.emitted(&src.text);
        if emitted.is_empty() {
            let what = match schema.extract {
                Extract::Const(name) => format!("`{name}` string-array constant"),
                Extract::EventArms => "`TraceEvent::Variant { .. } => Json::obj([..])` arm".into(),
            };
            out.push(Diagnostic::new(
                SCHEMA_SYNC,
                schema.source,
                1,
                format!(
                    "no {what} found: the analyzer can no longer verify the \"{}\" \
                     table (was it renamed?)",
                    schema.heading
                ),
            ));
            continue;
        }
        if schema.extract == Extract::EventArms {
            check_kind_spelling(&src.text, out);
            check_required_kinds(ws, &emitted, out);
        }
        if let Some(design) = ws.get(DESIGN_MD) {
            let (heading_line, rows) = design_table(&design.text, schema.heading);
            check_table(schema, &emitted, heading_line, &rows, out);
        }
    }
}

/// One documented row: name, payload fields, 1-based line.
pub type DocRow = (String, Vec<String>, u32);

/// Compares the documented rows with the emitted ones.
fn check_table(
    schema: &Schema,
    emitted: &[Row],
    heading_line: u32,
    rows: &[DocRow],
    out: &mut Vec<Diagnostic>,
) {
    let (src, heading) = (schema.source, schema.heading);
    let mut flag = |line: u32, msg: String| {
        out.push(Diagnostic::new(SCHEMA_SYNC, DESIGN_MD, line, msg));
    };
    if rows.is_empty() {
        flag(
            heading_line,
            format!(
                "no table rows found under a \"{heading}\" heading: the analyzer can no \
                 longer verify what {src} emits (was the section renamed?)"
            ),
        );
        return;
    }
    for (name, fields, line) in rows {
        match emitted.iter().find(|(n, _)| n == name) {
            None => flag(
                *line,
                format!("\"{heading}\" table documents `{name}`, which {src} does not emit"),
            ),
            Some((_, want)) if schema.extract == Extract::EventArms && fields != want => flag(
                *line,
                format!(
                    "payload documented for `{name}` ({}) does not match what {src} emits \
                     ({}): update the table and the emitter together",
                    fields.join(", "),
                    want.join(", ")
                ),
            ),
            Some(_) => {}
        }
    }
    for (name, _) in emitted {
        if !rows.iter().any(|(n, _, _)| n == name) {
            flag(
                heading_line,
                format!("`{name}` is emitted by {src} but has no row in the \"{heading}\" table"),
            );
        }
    }
    // Order is only meaningful once the sets agree.
    let documented: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
    let order: Vec<&str> = emitted.iter().map(|r| r.0.as_str()).collect();
    let same_set = documented.len() == order.len() && order.iter().all(|n| documented.contains(n));
    if let Some(i) = (0..order.len()).find(|&i| same_set && documented[i] != order[i]) {
        flag(
            rows[i].2,
            format!(
                "\"{heading}\" rows are out of emission order: documented ({}) vs emitted \
                 ({}) — list them in the order {src} emits them",
                documented.join(", "),
                order.join(", "),
            ),
        );
    }
}

/// The line of the heading containing `heading` (1 if none) and the
/// table rows under it: the first cell holds exactly one backticked
/// identifier, the last cell's backticked identifiers are the payload.
/// A header row (one followed by a `|---` separator) is skipped.
pub fn design_table(text: &str, heading: &str) -> (u32, Vec<DocRow>) {
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let (mut heading_line, mut in_section, mut rows) = (1u32, false, Vec::new());
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with('#') {
            in_section = line.contains(heading);
            if in_section && rows.is_empty() {
                heading_line = i as u32 + 1;
            }
            continue;
        }
        let is_header = lines.get(i + 1).is_some_and(|n| n.starts_with("|-"));
        if !in_section || !line.starts_with('|') || is_header {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
        let name = backticked_idents(cells[0]);
        if cells.len() >= 2 && name.len() == 1 {
            let payload = backticked_idents(cells[cells.len() - 1]);
            rows.push((name[0].clone(), payload, i as u32 + 1));
        }
    }
    (heading_line, rows)
}

/// Backticked spans of a table cell that look like identifiers.
fn backticked_idents(cell: &str) -> Vec<String> {
    cell.split('`')
        .skip(1)
        .step_by(2)
        .filter(|w| is_kind_word(w))
        .map(str::to_string)
        .collect()
}

/// A bare lowercase word — not a path, variable, flag, or quoted string.
fn is_kind_word(w: &str) -> bool {
    !w.is_empty()
        && w.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// The string elements of the array constant `name`, in order: from
/// the first `name` followed by `=` (uses end at `;` first) past the
/// type annotation, whose `&[&str]` has brackets of its own, to the
/// initializer, collecting strings until its `[` closes.
fn const_strings(text: &str, name: &str) -> Vec<String> {
    let t = scan(text).tokens;
    let ident = Tok::Ident(name.to_string());
    for start in (0..t.len()).filter(|&i| t[i].tok == ident) {
        let rest = &t[start..];
        let Some(eq) = rest
            .iter()
            .position(|x| matches!(x.tok, Tok::Punct('=') | Tok::Punct(';')))
            .filter(|&e| rest[e].tok == Tok::Punct('='))
        else {
            continue;
        };
        let mut depth = 0i64;
        let mut fields = Vec::new();
        for x in &rest[eq..] {
            match &x.tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') if depth == 1 => break,
                Tok::Punct(']') => depth -= 1,
                Tok::Punct(';') => break,
                Tok::Str(s) if depth > 0 => fields.push(s.clone()),
                _ => {}
            }
        }
        return fields;
    }
    Vec::new()
}

/// One `TraceEvent::Variant => "kind"` arm: variant, kind, line.
type KindArm = (String, String, u32);

/// Every `TraceEvent::Variant { .. } =>` arm of `text`: the `to_json()`
/// arms as rows (kind = the variant's snake_case; fields = the string
/// openers of `("name", ..)` tuples, minus `type`) and the `kind()` arms.
fn event_arms(text: &str) -> (Vec<Row>, Vec<KindArm>) {
    let t = scan(text).tokens;
    let is = |j: usize, tok: Tok| t.get(j).map(|x| &x.tok) == Some(&tok);
    let (mut rows, mut kinds) = (Vec::new(), Vec::new());
    let mut i = 0usize;
    while i + 3 < t.len() {
        let path = is(i, Tok::Ident("TraceEvent".into()))
            && is(i + 1, Tok::Punct(':'))
            && is(i + 2, Tok::Punct(':'));
        let (true, Tok::Ident(variant)) = (path, t[i + 3].tok.clone()) else {
            i += 1;
            continue;
        };
        let mut j = skip_braces(&t, i + 4);
        if is(j, Tok::Punct('=')) && is(j + 1, Tok::Punct('>')) {
            if let Some(Tok::Str(kind)) = t.get(j + 2).map(|x| &x.tok) {
                kinds.push((variant.clone(), kind.clone(), t[j + 2].line));
            } else if is(j + 2, Tok::Ident("Json".into())) && is(j + 5, Tok::Ident("obj".into())) {
                j += 6;
                let mut depth = 0i64;
                let mut fields = Vec::new();
                while j < t.len() {
                    match &t[j].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') if depth == 1 => break,
                        Tok::Punct(']') => depth -= 1,
                        Tok::Str(name)
                            if depth > 0 && is(j - 1, Tok::Punct('(')) && name != "type" =>
                        {
                            fields.push(name.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                rows.push((snake_case(&variant), fields));
            }
        }
        i = j.max(i + 1);
    }
    (rows, kinds)
}

/// Advances past a balanced `{ ... }` starting at `j`, if one is there.
fn skip_braces(t: &[Spanned], mut j: usize) -> usize {
    if t.get(j).map(|x| &x.tok) != Some(&Tok::Punct('{')) {
        return j;
    }
    let mut depth = 0i64;
    while j < t.len() {
        match t[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') if depth == 1 => return j + 1,
            Tok::Punct('}') => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    j
}

fn snake_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() && i > 0 {
            out.push('_');
        }
        out.push(c.to_ascii_lowercase());
    }
    out
}

/// Each `kind()` arm's string must be its variant's snake_case.
fn check_kind_spelling(text: &str, out: &mut Vec<Diagnostic>) {
    for (variant, kind, line) in event_arms(text).1 {
        let want = snake_case(&variant);
        if kind != want {
            out.push(Diagnostic::new(
                SCHEMA_SYNC,
                EVENT_RS,
                line,
                format!("kind string \"{kind}\" does not match variant `{variant}` (expected \"{want}\")"),
            ));
        }
    }
}

/// Every kind a `profess-validate trace` invocation requires must exist.
fn check_required_kinds(ws: &Workspace, emitted: &[Row], out: &mut Vec<Diagnostic>) {
    let known = |w: &str| emitted.iter().any(|(k, _)| k == w) || ARTIFACT_KINDS.contains(&w);
    for path in KIND_SOURCES.iter().chain(CHECKED_DOCS) {
        let Some(f) = ws.get(path) else { continue };
        for (kind, line) in required_kinds(&f.text) {
            if !known(&kind) {
                let names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
                out.push(Diagnostic::new(
                    SCHEMA_SYNC,
                    path,
                    line,
                    format!(
                        "required event kind `{kind}` does not exist in {EVENT_RS} (known \
                         kinds: {}, plus artifact lines {})",
                        names.join("/"),
                        ARTIFACT_KINDS.join("/")
                    ),
                ));
            }
        }
    }
}

/// The kind words, with lines, of every `profess-validate trace FILE
/// KIND...` invocation in `text`. Backslash continuations join lines; a
/// `#` word ends a physical line (shell comment, markdown heading); a
/// backtick, pipe, redirect or `;` ends the invocation. Paths,
/// variables and flags are not kind words and are passed over.
fn required_kinds(text: &str) -> Vec<(String, u32)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut found = Vec::new();
    let mut i = 0usize;
    while i < lines.len() {
        let mut words: Vec<(&str, u32)> = Vec::new();
        loop {
            let l = lines[i].trim_end();
            let (body, more) = l.strip_suffix('\\').map_or((l, false), |b| (b, true));
            let line = i as u32 + 1;
            words.extend(
                body.split_whitespace()
                    .take_while(|w| !w.starts_with('#'))
                    .map(|w| (w, line)),
            );
            i += 1;
            if !more || i >= lines.len() {
                break;
            }
        }
        for p in 0..words.len() {
            if words[p].0.trim_matches('`') != "profess-validate" {
                continue;
            }
            let mut rest = words[p + 1..].iter().skip_while(|w| w.0 == "--");
            if rest.next().map(|w| w.0) != Some("trace") {
                continue;
            }
            // The first word is the trace file, the rest are kinds.
            for (n, &(w, line)) in rest.enumerate() {
                if w.starts_with(['|', '>', '&', ';']) || w.starts_with("2>") {
                    break;
                }
                let w = w.trim_start_matches('`');
                let body = w.split('`').next().unwrap_or_default();
                if n > 0 && is_kind_word(body) {
                    found.push((body.to_string(), line));
                }
                if body.len() < w.len() {
                    break;
                }
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    // A kind() plus a to_json() with a nested `match` payload and a
    // string-valued field, to prove only tuple openers parse as fields.
    const EVENT: &str = r#"
        impl TraceEvent {
            pub fn kind(&self) -> &'static str {
                match self {
                    TraceEvent::SwapBegin { .. } => "swap_begin",
                    TraceEvent::RsmEpoch { .. } => "rsm_epoch",
                }
            }
            pub fn to_json(&self) -> Json {
                let kind = ("type", Json::Str(self.kind().to_string()));
                match *self {
                    TraceEvent::SwapBegin { at, demoted, reason } => Json::obj([
                        kind,
                        ("at", Json::UInt(at)),
                        ("demoted", match demoted { Some(p) => Json::UInt(p), None => Json::Null }),
                        ("reason", Json::Str(reason.to_string())),
                    ]),
                    TraceEvent::RsmEpoch { at, sf_a } => Json::obj([
                        kind,
                        ("at", Json::UInt(at)),
                        ("sf_a", Json::Num(sf_a)),
                    ]),
                }
            }
        }
    "#;
    const SNAPSHOT: &str =
        "fn f() { g(PAYLOAD_FIELDS); }\npub const PAYLOAD_FIELDS: &[&str] = &[\"clock\", \"cores\", \"policy\"];";
    const SURFACE: &str = "pub const SURFACE_FIELDS: &[&str] = &[\"policy\", \"intensity\"];";
    const DESIGN: &str = "\
### 8.1 Event schema

| `type` | emitted when | payload |
|---|---|---|
| `swap_begin` | a swap is issued | `at`, `demoted` (null if vacant, `\"-\"` never), `reason` |
| `rsm_epoch` | a period closes | `at`, `sf_a` |

### 11.2 Snapshot schema

| `field` | contents |
|---|---|
| `clock` | the simulated `cycle` |
| `cores` | per-core state |
| `policy` | policy state |

### 13.2 Surface schema

| `field` | contents |
|---|---|
| `policy` | policy name |
| `intensity` | offered load |

### 13.3 Other

| `stray` | not a schema row |
";

    /// The fixture workspace; `extra` files come first, so they shadow
    /// a fixture file of the same path.
    fn run(extra: &[(&str, &str)], design: &str) -> Vec<Diagnostic> {
        let base = [
            (EVENT_RS, EVENT),
            (SCHEMAS[0].source, SNAPSHOT),
            (SCHEMAS[1].source, SURFACE),
            (DESIGN_MD, design),
        ];
        let files = extra.iter().chain(&base);
        let files = files.map(|(p, t)| SourceFile::new(p, t)).collect();
        let mut out = Vec::new();
        check(&Workspace { files }, &mut out);
        out
    }

    #[test]
    fn extractors_read_rows_in_emission_order() {
        let names = |rows: Vec<Row>| rows.into_iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(
            names(SCHEMAS[0].emitted(SNAPSHOT)),
            ["clock", "cores", "policy"]
        );
        assert_eq!(names(SCHEMAS[1].emitted(SURFACE)), ["policy", "intensity"]);
        let (rows, kinds) = event_arms(EVENT);
        let fields = |f: &[&str]| f.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            rows,
            vec![
                ("swap_begin".into(), fields(&["at", "demoted", "reason"])),
                ("rsm_epoch".into(), fields(&["at", "sf_a"])),
            ]
        );
        assert_eq!(kinds.len(), 2);
        assert_eq!(snake_case("MdmDecision"), "mdm_decision");
    }

    #[test]
    fn in_sync_tables_pass() {
        assert!(run(&[], DESIGN).is_empty(), "{:?}", run(&[], DESIGN));
    }

    #[test]
    fn every_table_reports_each_kind_of_drift() {
        let cases: &[(&str, &str, &str)] = &[
            ("| `cores` | per-core state |\n", "", "`cores` is emitted"),
            (
                "| `intensity` | offered load |\n",
                "",
                "`intensity` is emitted",
            ),
            (
                "| `rsm_epoch` | a period closes | `at`, `sf_a` |\n",
                "",
                "`rsm_epoch` is emitted",
            ),
            (
                "| `policy` | policy state |",
                "| `policy` | policy state |\n| `ghost` | x |",
                "`ghost`",
            ),
            (
                "| `rsm_epoch` |",
                "| `phantom_kind` | never | `at` |\n| `rsm_epoch` |",
                "`phantom_kind`",
            ),
            (
                "`at`, `sf_a`",
                "`at`, `sf_a`, `sf_b`",
                "payload documented for `rsm_epoch`",
            ),
            (
                "| `clock` | the simulated `cycle` |\n| `cores` | per-core state |",
                "| `cores` | per-core state |\n| `clock` | the simulated `cycle` |",
                "out of emission order",
            ),
            (
                "| `policy` | policy name |\n| `intensity` | offered load |",
                "| `intensity` | offered load |\n| `policy` | policy name |",
                "out of emission order",
            ),
            (
                "### 13.2 Surface schema",
                "### 13.2 Surfaces",
                "no table rows found under a \"Surface schema\"",
            ),
        ];
        for (from, to, want) in cases {
            assert!(DESIGN.contains(from), "{from}");
            let out = run(&[], &DESIGN.replacen(from, to, 1));
            assert_eq!(out.len(), 1, "{from} -> {to}: {out:?}");
            assert!(out[0].message.contains(want), "{want}: {out:?}");
            assert_eq!(out[0].lint, SCHEMA_SYNC);
        }
    }

    #[test]
    fn misspelt_kind_and_missing_sources_flagged() {
        let bad = EVENT.replace("=> \"swap_begin\"", "=> \"swap_started\"");
        let out = run(&[(EVENT_RS, &bad)], DESIGN);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("expected \"swap_begin\""));
        for (path, text) in [(EVENT_RS, "pub struct NotAnEnum;"), (SCHEMAS[0].source, "")] {
            let out = run(&[(path, text)], DESIGN);
            assert_eq!(out.len(), 1, "{out:?}");
            assert!(out[0].message.contains("no longer verify"), "{out:?}");
        }
    }

    #[test]
    fn required_trace_kinds_must_exist() {
        let ci = "# `profess-validate trace` in prose is not an invocation\n\
                  cargo run --bin profess-validate -- \\\n  trace \"$d/T.jsonl\" \\\n  run swap_begin bogus_ci\n";
        let readme = "```\nprofess-validate trace t.jsonl rsm_epoch mdm_decisoin\n```\n\
                      Run `profess-validate trace T.jsonl` and read every line.\n";
        let doc = "//! profess-validate trace results/T.jsonl counters no_such_kind\n";
        let out = run(
            &[
                (KIND_SOURCES[0], ci),
                ("README.md", readme),
                (KIND_SOURCES[1], doc),
            ],
            DESIGN,
        );
        let got: Vec<(&str, u32)> = out.iter().map(|d| (d.path.as_str(), d.line)).collect();
        assert_eq!(
            got,
            [(KIND_SOURCES[0], 4), (KIND_SOURCES[1], 1), ("README.md", 2)],
            "{out:?}"
        );
        assert!(out[2].message.contains("`mdm_decisoin`"));
    }
}
