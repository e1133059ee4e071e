//! `dead_item`: library items whose name is never mentioned outside
//! their own definition.
//!
//! The reachability question ("is this item used from any bin, test, or
//! pub export?") is answered with a name-level overapproximation: an
//! item is *live* if its identifier occurs anywhere in the workspace
//! beyond its definition sites — a call, a `pub use`, a type
//! annotation, a test.
//! An item that fails even that generous test is genuinely
//! unreferenced. Reported as a **warning**: dead code is debt, not a
//! broken guarantee, so it is baselined by `analyzegate` (new dead
//! items fail the diff) rather than failing the run outright.
//!
//! Trait-dispatched method names that are invoked without their
//! identifier ever appearing (`fmt` via `{}`, `next` via `for`,
//! operators) are exempt by list.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::items::{FileItems, ItemKind};
use crate::scan::Tok;
use crate::workspace::Role;

/// The lint name.
pub const DEAD_ITEM: &str = "dead_item";

/// Method names dispatched through traits or syntax, where a zero
/// mention count proves nothing.
const DISPATCHED: &[&str] = &[
    "main",
    "fmt",
    "clone",
    "clone_from",
    "default",
    "drop",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "next",
    "size_hint",
    "from",
    "try_from",
    "into",
    "from_str",
    "from_iter",
    "into_iter",
    "deref",
    "deref_mut",
    "index",
    "index_mut",
    "add",
    "sub",
    "mul",
    "div",
    "rem",
    "neg",
    "not",
    "add_assign",
    "sub_assign",
    "mul_assign",
    "div_assign",
    "rem_assign",
];

/// Runs the lint over the parsed workspace.
pub fn check(parsed: &[FileItems], out: &mut Vec<Diagnostic>) {
    // Total occurrences of every identifier, and how many of those are
    // item definitions bearing it.
    let mut occurrences: BTreeMap<&str, usize> = BTreeMap::new();
    let mut definitions: BTreeMap<&str, usize> = BTreeMap::new();
    for f in parsed {
        for t in &f.scan.tokens {
            if let Tok::Ident(w) = &t.tok {
                *occurrences.entry(w.as_str()).or_default() += 1;
            }
        }
        for it in &f.items {
            *definitions.entry(it.name.as_str()).or_default() += 1;
        }
    }
    for f in parsed {
        if !matches!(f.role, Role::Lib(_)) {
            continue;
        }
        for it in &f.items {
            if it.in_test
                || it.kind == ItemKind::Mod
                || DISPATCHED.contains(&it.name.as_str())
                || it.name.starts_with('_')
            {
                continue;
            }
            let occ = occurrences.get(it.name.as_str()).copied().unwrap_or(0);
            let defs = definitions.get(it.name.as_str()).copied().unwrap_or(0);
            // Each definition mentions the name exactly once; anything
            // beyond that is a reference somewhere.
            if occ > defs {
                continue;
            }
            let mut d = Diagnostic::warn(
                DEAD_ITEM,
                &f.rel_path,
                it.line,
                format!(
                    "{} `{}` is never referenced outside its definition — no bin, test, \
                     or pub-export root reaches it; delete it or suppress with \
                     `// profess: allow(dead_item): <why it must stay>`",
                    it.kind.label(),
                    it.name
                ),
            );
            d.suppressed = f.scan.is_suppressed(DEAD_ITEM, it.line);
            out.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let parsed: Vec<FileItems> = files
            .iter()
            .map(|(p, s)| FileItems::parse(&SourceFile::new(p, s)))
            .collect();
        let mut out = Vec::new();
        check(&parsed, &mut out);
        out
    }

    #[test]
    fn unreferenced_lib_fn_is_a_warning() {
        let d = run(&[(
            "crates/mem/src/x.rs",
            "pub fn used() {}\npub fn orphan() {}\nfn caller() { used(); caller_of_caller(); }\n\
             pub fn caller_of_caller() { caller(); }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("fn `orphan`"));
        assert_eq!(d[0].level, crate::diag::Level::Warn);
    }

    #[test]
    fn references_from_tests_and_bins_count() {
        let d = run(&[
            (
                "crates/mem/src/x.rs",
                "pub fn from_a_bin() {}\npub fn from_a_test() {}\n",
            ),
            ("crates/bench/src/bin/b.rs", "fn main() { from_a_bin(); }\n"),
            ("tests/t.rs", "#[test]\nfn t() { from_a_test(); }\n"),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn dispatched_names_and_test_items_exempt() {
        let d = run(&[(
            "crates/mem/src/x.rs",
            "impl std::fmt::Display for S {\n fn fmt(&self, f: &mut F) -> R { todo() }\n}\n\
             #[cfg(test)]\nmod tests {\n fn helper_never_called() {}\n}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn suppression_applies_at_the_definition_line() {
        let d = run(&[(
            "crates/mem/src/x.rs",
            "// profess: allow(dead_item): public API kept for downstream tooling\n\
             pub fn reserved() {}\n",
        )]);
        assert_eq!(d.len(), 1);
        assert!(d[0].suppressed);
    }

    #[test]
    fn structs_and_consts_are_covered() {
        let d = run(&[
            (
                "crates/mem/src/x.rs",
                "pub struct Orphan;\npub const UNUSED: u8 = 0;\npub struct Used;\n\
                 pub fn take_used(_u: Used) {}\n",
            ),
            ("tests/t.rs", "fn t() { take_used(Used); }\n"),
        ]);
        let names: Vec<&str> = d.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(d.len(), 2, "{names:?}");
        assert!(names[0].contains("`Orphan`"));
        assert!(names[1].contains("`UNUSED`"));
    }
}
