//! Diagnostics and their stable machine-readable rendering.

use std::fmt::Write as _;

/// How severe a diagnostic is.
///
/// Errors gate CI (an unsuppressed error fails the run); warnings are
/// advisory — reported, counted, baselined, but never a failure by
/// themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Gates CI.
    Error,
    /// Advisory only.
    Warn,
}

impl Level {
    /// Stable lowercase label used in JSON and renders.
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Lint name (the key used in `profess: allow(...)`).
    pub lint: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line (0 for whole-file findings).
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// True when an inline suppression covers this finding.
    pub suppressed: bool,
    /// Severity: errors gate CI, warnings are advisory.
    pub level: Level,
}

impl Diagnostic {
    /// Builds an (unsuppressed) error-level diagnostic.
    pub fn new(lint: &'static str, path: &str, line: u32, message: impl Into<String>) -> Self {
        Diagnostic {
            lint,
            path: path.to_string(),
            line,
            message: message.into(),
            suppressed: false,
            level: Level::Error,
        }
    }

    /// Builds an (unsuppressed) warning-level diagnostic.
    pub fn warn(lint: &'static str, path: &str, line: u32, message: impl Into<String>) -> Self {
        Diagnostic {
            level: Level::Warn,
            ..Diagnostic::new(lint, path, line, message)
        }
    }

    /// The human-readable one-liner.
    pub fn render(&self) -> String {
        let sup = if self.suppressed { " (allowed)" } else { "" };
        let lvl = if self.level == Level::Warn {
            " warning:"
        } else {
            ""
        };
        format!(
            "{}:{}: [{}]{}{} {}",
            self.path, self.line, self.lint, sup, lvl, self.message
        )
    }
}

/// Sorts diagnostics into the canonical emission order.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.lint, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.lint,
            b.message.as_str(),
        ))
    });
}

/// Renders one diagnostic as a JSON object (the per-entry shape of v2 and v3).
pub fn diag_json(d: &Diagnostic) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"lint\":{},\"level\":{},\"path\":{},\"line\":{},\"suppressed\":{},\"message\":{}}}",
        json_str(d.lint),
        json_str(d.level.label()),
        json_str(&d.path),
        d.line,
        d.suppressed,
        json_str(&d.message),
    );
    out
}

/// JSON-escapes and quotes a string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_is_stable_by_path_line_lint() {
        let mut ds = vec![
            Diagnostic::new("b", "z.rs", 1, "m"),
            Diagnostic::new("a", "a.rs", 9, "m"),
            Diagnostic::new("a", "a.rs", 2, "m"),
        ];
        sort(&mut ds);
        assert_eq!(
            ds.iter()
                .map(|d| (d.path.as_str(), d.line))
                .collect::<Vec<_>>(),
            vec![("a.rs", 2), ("a.rs", 9), ("z.rs", 1)]
        );
    }

    #[test]
    fn json_escapes_and_levels() {
        let mut d = Diagnostic::new("panic", "a.rs", 3, "uses \"unwrap\"\n");
        d.suppressed = true;
        let j = diag_json(&d);
        assert!(j.contains("\"level\":\"error\""));
        assert!(j.contains("\"suppressed\":true"));
        assert!(j.contains("uses \\\"unwrap\\\"\\n"));
        let w = Diagnostic::warn("dead_item", "b.rs", 1, "x");
        assert!(diag_json(&w).contains("\"level\":\"warn\""));
        assert!(w.render().contains("warning:"));
    }
}
