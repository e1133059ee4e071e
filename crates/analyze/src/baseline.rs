//! The `analyzegate` baseline: diffing a fresh analysis against the
//! committed `results/ANALYZE.json`, mirroring the bench trend gate
//! (`profess-validate trend`).
//!
//! The gate answers one question: *did this change introduce any
//! diagnostic that was not already reviewed?* New entries — including
//! new **suppressed** ones, so a fresh `allow` is always a reviewed
//! baseline refresh, never a silent drive-by — fail with exit 2.
//! Entries that disappeared are an improvement; the gate passes but
//! prints a refresh prompt so the committed baseline keeps ratcheting
//! down.
//!
//! Diff keys deliberately **exclude line numbers**: moving code must
//! not trip the gate. A diagnostic is identified by
//! `(lint, level, path, suppressed, message)`, compared as a multiset
//! (two identical `.unwrap()` messages in one file are two entries).
//!
//! The parser below reads exactly the document `Analysis::to_json`
//! emits. It is a small hand-rolled scanner — this crate depends on
//! nothing, including the workspace's own JSON emitter, so it can
//! audit it.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;

/// The identity of a diagnostic for baseline diffing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Lint name.
    pub lint: String,
    /// `"error"` or `"warn"`.
    pub level: String,
    /// Workspace-relative path.
    pub path: String,
    /// Whether an allow covers it.
    pub suppressed: bool,
    /// The full message.
    pub message: String,
}

impl Key {
    /// Human-readable one-liner for gate output.
    pub fn render(&self) -> String {
        let sup = if self.suppressed { " (allowed)" } else { "" };
        format!("{}: [{}]{} {}", self.path, self.lint, sup, self.message)
    }

    fn of(d: &Diagnostic) -> Key {
        Key {
            lint: d.lint.to_string(),
            level: d.level.label().to_string(),
            path: d.path.clone(),
            suppressed: d.suppressed,
            message: d.message.clone(),
        }
    }
}

/// The result of diffing fresh diagnostics against a baseline.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// Keys with more occurrences now than in the baseline (with the
    /// excess count).
    pub new: Vec<(Key, usize)>,
    /// Keys with fewer occurrences now (with the deficit).
    pub removed: Vec<(Key, usize)>,
}

impl Diff {
    /// True when fresh and baseline agree exactly.
    pub fn is_empty(&self) -> bool {
        self.new.is_empty() && self.removed.is_empty()
    }
}

/// Diffs a fresh run against parsed baseline keys, as multisets.
pub fn diff(baseline: &[Key], fresh: &[Diagnostic]) -> Diff {
    let mut counts: BTreeMap<Key, i64> = BTreeMap::new();
    for k in baseline {
        *counts.entry(k.clone()).or_default() -= 1;
    }
    for d in fresh {
        *counts.entry(Key::of(d)).or_default() += 1;
    }
    let mut out = Diff::default();
    for (k, c) in counts {
        match c.cmp(&0) {
            std::cmp::Ordering::Greater => out.new.push((k, c as usize)),
            std::cmp::Ordering::Less => out.removed.push((k, (-c) as usize)),
            std::cmp::Ordering::Equal => {}
        }
    }
    out
}

/// Parses the `diagnostics` array of an `ANALYZE.json` (v1 to v3)
/// document into diff keys.
pub fn parse(doc: &str) -> Result<Vec<Key>, String> {
    let marker = "\"diagnostics\":[";
    let start = doc
        .find(marker)
        .ok_or_else(|| "baseline has no \"diagnostics\" array".to_string())?
        + marker.len();
    let chars: Vec<char> = doc[start..].chars().collect();
    let mut keys = Vec::new();
    let mut i = 0usize;
    loop {
        skip_ws(&chars, &mut i);
        match chars.get(i) {
            Some(']') => return Ok(keys),
            Some('{') => {
                i += 1;
                keys.push(parse_object(&chars, &mut i)?);
                skip_ws(&chars, &mut i);
                if chars.get(i) == Some(&',') {
                    i += 1;
                }
            }
            other => return Err(format!("unexpected {other:?} in diagnostics array")),
        }
    }
}

fn parse_object(chars: &[char], i: &mut usize) -> Result<Key, String> {
    let mut fields: BTreeMap<String, String> = BTreeMap::new();
    loop {
        skip_ws(chars, i);
        match chars.get(*i) {
            Some('}') => {
                *i += 1;
                break;
            }
            Some(',') => {
                *i += 1;
            }
            Some('"') => {
                let key = parse_string(chars, i)?;
                skip_ws(chars, i);
                if chars.get(*i) != Some(&':') {
                    return Err(format!("expected ':' after key {key:?}"));
                }
                *i += 1;
                skip_ws(chars, i);
                let val = match chars.get(*i) {
                    Some('"') => parse_string(chars, i)?,
                    Some(c) if c.is_ascii_digit() || *c == '-' => {
                        let s = *i;
                        while chars
                            .get(*i)
                            .is_some_and(|c| c.is_ascii_digit() || *c == '-' || *c == '.')
                        {
                            *i += 1;
                        }
                        chars[s..*i].iter().collect()
                    }
                    Some('t') | Some('f') => {
                        let s = *i;
                        while chars.get(*i).is_some_and(|c| c.is_ascii_alphabetic()) {
                            *i += 1;
                        }
                        chars[s..*i].iter().collect()
                    }
                    other => return Err(format!("unexpected value start {other:?}")),
                };
                fields.insert(key, val);
            }
            other => return Err(format!("unexpected {other:?} in diagnostic object")),
        }
    }
    let get = |k: &str| fields.get(k).cloned().unwrap_or_default();
    Ok(Key {
        lint: get("lint"),
        // v1 documents had no level field; they predate warnings.
        level: if fields.contains_key("level") {
            get("level")
        } else {
            "error".to_string()
        },
        path: get("path"),
        suppressed: get("suppressed") == "true",
        message: get("message"),
    })
}

/// Parses a JSON string starting at the opening quote, unescaping.
fn parse_string(chars: &[char], i: &mut usize) -> Result<String, String> {
    if chars.get(*i) != Some(&'"') {
        return Err("expected string".to_string());
    }
    *i += 1;
    let mut out = String::new();
    while let Some(&c) = chars.get(*i) {
        *i += 1;
        match c {
            '"' => return Ok(out),
            '\\' => {
                let esc = chars.get(*i).copied().ok_or("truncated escape")?;
                *i += 1;
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String =
                            chars.get(*i..*i + 4).unwrap_or_default().iter().collect();
                        *i += 4;
                        let code =
                            u32::from_str_radix(&hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape \\{other}")),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

fn skip_ws(chars: &[char], i: &mut usize) {
    while chars.get(*i).is_some_and(|c| c.is_ascii_whitespace()) {
        *i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Level;

    fn fresh(entries: &[(&'static str, &str, bool, &str)]) -> Vec<Diagnostic> {
        entries
            .iter()
            .map(|(lint, path, sup, msg)| {
                let mut d = Diagnostic::new(lint, path, 1, *msg);
                d.suppressed = *sup;
                d
            })
            .collect()
    }

    #[test]
    fn roundtrip_through_to_json() {
        let diags = fresh(&[
            ("panic", "a.rs", true, "uses \"unwrap\"\tok"),
            ("doc_sync", "README.md", false, "drift"),
        ]);
        let a = crate::Analysis {
            diagnostics: diags.clone(),
            files_scanned: 2,
            allows: Vec::new(),
        };
        let keys = parse(&a.to_json()).expect("parse");
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].message, "uses \"unwrap\"\tok");
        assert!(keys[0].suppressed);
        assert_eq!(keys[1].lint, "doc_sync");
        assert!(diff(&keys, &diags).is_empty(), "self-diff is clean");
    }

    #[test]
    fn new_and_removed_are_multiset_counted() {
        let base_diags = fresh(&[("panic", "a.rs", false, "m"), ("panic", "a.rs", false, "m")]);
        let base: Vec<Key> = base_diags.iter().map(Key::of).collect();
        // One of the two duplicates fixed, one brand-new elsewhere.
        let now = fresh(&[("panic", "a.rs", false, "m"), ("panic", "b.rs", false, "m")]);
        let d = diff(&base, &now);
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.new[0].0.path, "b.rs");
        assert_eq!(d.removed.len(), 1);
        assert_eq!((d.removed[0].0.path.as_str(), d.removed[0].1), ("a.rs", 1));
    }

    #[test]
    fn line_moves_do_not_trip_the_diff() {
        let base_diags = fresh(&[("panic", "a.rs", false, "m")]);
        let base: Vec<Key> = base_diags.iter().map(Key::of).collect();
        let mut moved = base_diags.clone();
        moved[0].line = 999;
        assert!(diff(&base, &moved).is_empty());
    }

    #[test]
    fn level_changes_do_trip_it() {
        let base_diags = fresh(&[("dead_item", "a.rs", false, "m")]);
        let base: Vec<Key> = base_diags.iter().map(Key::of).collect();
        let mut now = base_diags.clone();
        now[0].level = Level::Warn;
        let d = diff(&base, &now);
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.removed.len(), 1);
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(parse("{}").is_err());
        assert!(parse("{\"diagnostics\":[{\"lint\":").is_err());
    }
}
