//! `profess-analyze`: the workspace's in-tree static analysis pass.
//!
//! The repo's headline guarantee — byte-identical reports across
//! policies, thread counts, and tracing modes (the 34 pinned
//! fingerprints in `tests/fingerprints.rs`) — rests on conventions no
//! compiler checks: no unordered-map iteration in simulator state, no
//! wall-clock or environment reads in simulated behaviour, no external
//! crates, no undocumented library panics, and event-kind strings that
//! match the typed `TraceEvent` enum. This crate turns those
//! conventions into per-file token lints, run as a CI gate
//! (`cargo run -p profess-analyze`, wired into `scripts/ci.sh`).
//! What a token lint cannot see — an env read in `bench` that reaches
//! an artifact — is guarded dynamically by the byte-identity tests.
//!
//! Architecture (see DESIGN.md §9 and §14):
//!
//! * [`scan`] — a comment/string-aware Rust token scanner, so lints see
//!   identifiers rather than bytes and `// profess: allow(<lint>)`
//!   suppressions rather than magic strings;
//! * [`workspace`] — the file walker and role classifier (library vs.
//!   bin vs. test vs. script vs. manifest) that scopes each lint;
//! * [`items`] — the token stream parsed into items (fn/struct/enum/
//!   mod/...), the input of the `dead_item` lint;
//! * [`lints`] — the suite itself plus the suppression plumbing;
//! * [`baseline`] — the committed-`ANALYZE.json` diff behind the
//!   `analyzegate` CI mode;
//! * [`diag`] — stable diagnostics and the `ANALYZE.json` rendering.
//!
//! The crate depends on nothing — not even the workspace's own crates —
//! so it can audit all of them without sitting downstream of any.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod diag;
pub mod items;
pub mod lints;
pub mod scan;
pub mod workspace;

pub use diag::{Diagnostic, Level};
pub use workspace::{Role, SourceFile, Workspace};

use std::fmt::Write as _;
use std::path::Path;

/// The result of one analyzer run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Every diagnostic, suppressed ones included, in canonical order.
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Every suppression marker in the tree, with usage.
    pub allows: Vec<lints::AllowRecord>,
}

impl Analysis {
    /// Diagnostics not covered by an inline suppression.
    pub fn active(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.suppressed)
    }

    /// Unsuppressed error-level diagnostics — the ones that fail a run.
    pub fn active_errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.active().filter(|d| d.level == Level::Error)
    }

    /// Unsuppressed warnings — advisory, baselined by `analyzegate`.
    pub fn active_warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.active().filter(|d| d.level == Level::Warn)
    }

    /// True when the tree is clean (no unsuppressed errors; warnings
    /// do not fail a run).
    pub fn is_clean(&self) -> bool {
        self.active_errors().next().is_none()
    }

    /// Per-lint `(active, suppressed)` counts, for every lint with at
    /// least one diagnostic, in registry order.
    pub fn counts(&self) -> Vec<(&'static str, usize, usize)> {
        lints::REGISTRY
            .iter()
            .filter_map(|l| {
                let active = self
                    .diagnostics
                    .iter()
                    .filter(|d| d.lint == l.name && !d.suppressed)
                    .count();
                let suppressed = self
                    .diagnostics
                    .iter()
                    .filter(|d| d.lint == l.name && d.suppressed)
                    .count();
                (active + suppressed > 0).then_some((l.name, active, suppressed))
            })
            .collect()
    }

    /// The `ANALYZE.json` v3 document: run stats, per-lint counts, the
    /// suppression inventory, and every diagnostic. The document is
    /// fully deterministic — no timestamps, no wall time, no host
    /// metadata — so it can be committed and byte-diffed.
    pub fn to_json(&self) -> String {
        let errors = self.active_errors().count();
        let warnings = self.active_warnings().count();
        let suppressed = self.diagnostics.iter().filter(|d| d.suppressed).count();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"tool\":\"profess-analyze\",\"version\":3,\"files_scanned\":{},\
             \"active_errors\":{errors},\"active_warnings\":{warnings},\
             \"suppressed\":{suppressed},",
            self.files_scanned
        );
        out.push_str("\"counts\":{");
        for (i, (name, active, sup)) in self.counts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"active\":{active},\"suppressed\":{sup}}}",
                diag::json_str(name)
            );
        }
        out.push_str("},\"allows\":[");
        for (i, a) in self.allows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":{},\"line\":{},\"lint\":{},\"used\":{},\"reason\":{}}}",
                diag::json_str(&a.path),
                a.line,
                diag::json_str(&a.lint),
                a.used,
                diag::json_str(&a.reason),
            );
        }
        out.push_str("],\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&diag::diag_json(d));
        }
        out.push_str("]}");
        out
    }
}

/// Loads the workspace at `root` and runs the full lint suite.
pub fn analyze_root(root: &Path) -> std::io::Result<Analysis> {
    let ws = Workspace::load(root)?;
    Ok(analyze(&ws))
}

/// Runs the full lint suite over an already-loaded workspace.
pub fn analyze(ws: &Workspace) -> Analysis {
    let suite = lints::run_all(ws);
    Analysis {
        diagnostics: suite.diagnostics,
        files_scanned: ws.files.len(),
        allows: suite.allows,
    }
}
