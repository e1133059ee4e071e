//! The lint suite.
//!
//! Lints fall into four groups:
//!
//! * **code lints** ([`code`]) — token-level checks on Rust sources,
//!   scoped by [`Role`] and exempting `#[cfg(test)]` modules; these
//!   honor `// profess: allow(<lint>)` inline suppressions (same line
//!   or the line above);
//! * **the item lint** ([`dead_item`]) — a name-occurrence count over
//!   the items [`crate::items`] parses from every file;
//! * **hermeticity lints** ([`hermetic`]) — manifest/lockfile checks;
//!   deliberately *not* suppressible (an allowed external dependency is
//!   a contradiction in terms here);
//! * **cross-file lints** ([`schema_sync`], [`doc_sync`]) — the
//!   DESIGN.md schema tables against the code that emits them (snapshot
//!   payload, surface point, trace events, and the trace kinds every
//!   `profess-validate trace` invocation requires), and the top-level
//!   docs against the build targets/workloads they tell the reader to
//!   run; not suppressible either.
//!
//! Adding a lint: write a `check` that pushes [`Diagnostic`]s, call it
//! from [`run_all`], give it a unique name, document it in DESIGN.md §9,
//! and add a positive + suppressed-negative fixture pair to
//! `crates/analyze/tests/lints.rs`.

pub mod code;
pub mod dead_item;
pub mod doc_sync;
pub mod hermetic;
pub mod schema_sync;

use crate::diag::{self, Diagnostic, Level};
use crate::items::{self, FileItems};
use crate::scan::{scan, Scan, Spanned, Tok};
use crate::workspace::Workspace;

/// `stale_allow`: a suppression comment that suppresses nothing.
pub const STALE_ALLOW: &str = "stale_allow";

/// One registry entry: everything `--list-lints` and the DESIGN.md
/// lint table must agree on.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// The lint name (the `allow(...)` key).
    pub name: &'static str,
    /// Error (gates CI) or Warn (advisory, baselined).
    pub level: Level,
    /// Whether `// profess: allow(<name>)` is honored.
    pub suppressible: bool,
}

/// The full lint registry, in documentation order.
pub const REGISTRY: &[LintInfo] = &[
    LintInfo {
        name: code::HASH_COLLECTIONS,
        level: Level::Error,
        suppressible: true,
    },
    LintInfo {
        name: code::WALL_CLOCK,
        level: Level::Error,
        suppressible: true,
    },
    LintInfo {
        name: code::AMBIENT_INPUT,
        level: Level::Error,
        suppressible: true,
    },
    LintInfo {
        name: code::THREAD_SPAWN,
        level: Level::Error,
        suppressible: true,
    },
    LintInfo {
        name: code::PROCESS_SPAWN,
        level: Level::Error,
        suppressible: true,
    },
    LintInfo {
        name: code::PANIC,
        level: Level::Error,
        suppressible: true,
    },
    LintInfo {
        name: code::UNSAFE_CODE,
        level: Level::Error,
        suppressible: true,
    },
    LintInfo {
        name: code::HOT_PATH_MAP,
        level: Level::Error,
        suppressible: true,
    },
    LintInfo {
        name: dead_item::DEAD_ITEM,
        level: Level::Warn,
        suppressible: true,
    },
    LintInfo {
        name: STALE_ALLOW,
        level: Level::Warn,
        suppressible: false,
    },
    LintInfo {
        name: hermetic::HERMETIC_DEPS,
        level: Level::Error,
        suppressible: false,
    },
    LintInfo {
        name: hermetic::HERMETIC_LOCK,
        level: Level::Error,
        suppressible: false,
    },
    LintInfo {
        name: schema_sync::SCHEMA_SYNC,
        level: Level::Error,
        suppressible: false,
    },
    LintInfo {
        name: doc_sync::DOC_SYNC,
        level: Level::Error,
        suppressible: false,
    },
];

/// One `// profess: allow(<lint>)` marker, with whether it earned its
/// keep this run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowRecord {
    /// Workspace-relative path of the file holding the comment.
    pub path: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// The lint name inside `allow(...)`.
    pub lint: String,
    /// The justification after `): `, empty if none was given.
    pub reason: String,
    /// True when the marker suppressed at least one diagnostic.
    pub used: bool,
}

/// The full result of a suite run.
#[derive(Debug, Clone)]
pub struct Suite {
    /// All diagnostics, suppressed ones included, in canonical order.
    pub diagnostics: Vec<Diagnostic>,
    /// Every suppression marker in the tree, with usage.
    pub allows: Vec<AllowRecord>,
}

/// Runs the whole suite over a workspace.
pub fn run_all(ws: &Workspace) -> Suite {
    let mut diags = Vec::new();
    let parsed: Vec<FileItems> = items::parse_workspace(ws);
    // Code lints ride the same scans the item parser produced.
    for p in &parsed {
        let Some(f) = ws.get(&p.rel_path) else {
            continue;
        };
        let mut file_diags = Vec::new();
        code::check(f, &p.scan, &p.test_regions, &mut file_diags);
        for mut d in file_diags {
            d.suppressed = p.scan.is_suppressed(d.lint, d.line);
            diags.push(d);
        }
    }
    dead_item::check(&parsed, &mut diags);
    // Cross-file lints.
    hermetic::check(ws, &mut diags);
    schema_sync::check(ws, &mut diags);
    doc_sync::check(ws, &mut diags);
    // Suppression inventory + stale_allow, after every producer ran.
    let allows = allow_inventory(&parsed, &diags);
    for a in allows.iter().filter(|a| !a.used) {
        diags.push(Diagnostic::warn(
            STALE_ALLOW,
            &a.path,
            a.line,
            format!(
                "`allow({})` suppresses nothing — remove the marker, or fix the lint \
                 name if it is a typo",
                a.lint
            ),
        ));
    }
    diag::sort(&mut diags);
    Suite {
        diagnostics: diags,
        allows,
    }
}

/// Builds the suppression inventory: every allow marker, marked used
/// when it covers at least one suppressed diagnostic.
fn allow_inventory(parsed: &[FileItems], diags: &[Diagnostic]) -> Vec<AllowRecord> {
    let mut out = Vec::new();
    for p in parsed {
        // Fixture trees are lint *specimens*: their allow markers belong
        // to the fixture's own analysis run (where the suppressed lint
        // actually fires), not to this workspace's policy, so they stay
        // out of the inventory and never read as stale here.
        if p.rel_path.contains("/fixtures/") {
            continue;
        }
        for s in &p.scan.suppressions {
            let used = diags.iter().any(|d| {
                d.suppressed
                    && d.path == p.rel_path
                    && (d.line == s.line || d.line == s.line + 1)
                    && d.lint == s.lint
            });
            out.push(AllowRecord {
                path: p.rel_path.clone(),
                line: s.line,
                lint: s.lint.clone(),
                reason: s.reason.clone(),
                used,
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, &a.lint).cmp(&(&b.path, b.line, &b.lint)));
    out
}

/// Line ranges (inclusive) covered by `#[cfg(test)] mod ... { ... }`
/// blocks. Code lints treat these like test files.
pub fn test_regions(tokens: &[Spanned]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !matches_cfg_test(tokens, i) {
            i += 1;
            continue;
        }
        // Skip past the attribute, any further attributes, up to `mod`.
        let mut j = i + 7;
        while j < tokens.len() && tokens[j].tok != Tok::Ident("mod".to_string()) {
            // Another attribute (e.g. #[allow(...)]) may sit between.
            if tokens[j].tok == Tok::Punct('#') {
                j += 1;
                continue;
            }
            if matches!(tokens[j].tok, Tok::Punct('[') | Tok::Punct(']'))
                || matches!(
                    tokens[j].tok,
                    Tok::Ident(_) | Tok::Punct('(') | Tok::Punct(')')
                )
            {
                j += 1;
                continue;
            }
            break;
        }
        if j >= tokens.len() || tokens[j].tok != Tok::Ident("mod".to_string()) {
            i += 1;
            continue;
        }
        // mod <name> { ... } — find the opening brace, then balance.
        let start_line = tokens[i].line;
        let mut k = j + 1;
        while k < tokens.len() && tokens[k].tok != Tok::Punct('{') {
            k += 1;
        }
        let mut depth = 0i64;
        let mut end_line = start_line;
        while k < tokens.len() {
            match tokens[k].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = tokens[k].line;
                        k += 1;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        regions.push((start_line, end_line.max(start_line)));
        i = k.max(i + 1);
    }
    regions
}

/// Does `tokens[i..]` start with `# [ cfg ( test ) ]`?
fn matches_cfg_test(tokens: &[Spanned], i: usize) -> bool {
    let want: [&dyn Fn(&Tok) -> bool; 7] = [
        &|t| *t == Tok::Punct('#'),
        &|t| *t == Tok::Punct('['),
        &|t| *t == Tok::Ident("cfg".to_string()),
        &|t| *t == Tok::Punct('('),
        &|t| *t == Tok::Ident("test".to_string()),
        &|t| *t == Tok::Punct(')'),
        &|t| *t == Tok::Punct(']'),
    ];
    tokens.len() >= i + want.len() && want.iter().enumerate().all(|(k, f)| f(&tokens[i + k].tok))
}

/// True when `line` falls inside any of `regions`.
pub fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Convenience used by lints and tests: scan + classify one in-memory
/// file and run only the code lints on it.
pub fn check_source(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    let f = crate::workspace::SourceFile::new(rel_path, text);
    let s: Scan = scan(&f.text);
    let tests = test_regions(&s.tokens);
    let mut diags = Vec::new();
    code::check(&f, &s, &tests, &mut diags);
    for d in &mut diags {
        d.suppressed = s.is_suppressed(d.lint, d.line);
    }
    diag::sort(&mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    #[test]
    fn test_region_detection() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let s = scan(src);
        let r = test_regions(&s.tokens);
        assert_eq!(r.len(), 1);
        assert!(in_regions(&r, 4));
        assert!(!in_regions(&r, 1));
        assert!(!in_regions(&r, 6));
    }

    #[test]
    fn cfg_test_with_interleaved_attribute() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t {\n fn b() {}\n}\n";
        let s = scan(src);
        assert_eq!(test_regions(&s.tokens).len(), 1);
    }

    #[test]
    fn lint_names_unique() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|l| l.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn stale_allow_fires_for_unused_and_unknown_markers() {
        use crate::workspace::{SourceFile, Workspace};
        let ws = Workspace {
            files: vec![
                SourceFile::new("Cargo.toml", "[workspace]\nmembers = []\n"),
                SourceFile::new("Cargo.lock", "version = 4\n"),
                SourceFile::new(
                    "crates/mem/src/x.rs",
                    "#![forbid(unsafe_code)]\n\
                     // profess: allow(panic): real invariant\n\
                     pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                     // profess: allow(panic): nothing here panics\n\
                     pub fn g() -> u8 { f(Some(1)) }\n\
                     // profess: allow(no_such_lint): typo\n\
                     pub fn h() { g(); }\n\
                     fn caller() { h(); caller(); }\n",
                ),
            ],
        };
        let suite = run_all(&ws);
        let stale: Vec<&Diagnostic> = suite
            .diagnostics
            .iter()
            .filter(|d| d.lint == STALE_ALLOW)
            .collect();
        assert_eq!(stale.len(), 2, "{stale:?}");
        assert!(stale[0].message.contains("allow(panic)"));
        assert!(stale[1].message.contains("allow(no_such_lint)"));
        let used: Vec<bool> = suite.allows.iter().map(|a| a.used).collect();
        assert_eq!(used, vec![true, false, false]);
        assert_eq!(suite.allows[0].reason, "real invariant");
    }

    #[test]
    fn fixture_allows_stay_out_of_the_inventory() {
        use crate::workspace::{SourceFile, Workspace};
        let ws = Workspace {
            files: vec![SourceFile::new(
                "crates/analyze/tests/fixtures/gate/tree/crates/core/src/lib.rs",
                "// profess: allow(wall_clock): specimen for the fixture's own run\n\
                 pub fn f() {}\n",
            )],
        };
        let suite = run_all(&ws);
        assert!(suite.allows.is_empty(), "{:?}", suite.allows);
        assert!(
            suite.diagnostics.iter().all(|d| d.lint != STALE_ALLOW),
            "fixture specimen must not read as a stale allow"
        );
    }
}
