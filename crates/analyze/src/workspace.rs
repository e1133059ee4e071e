//! Workspace loading and file-role classification.
//!
//! Every lint is scoped by *role* — library code answers to the panic
//! policy, benchmark binaries may read the wall clock, test code may do
//! nearly anything — so the walker assigns each file a [`Role`] from its
//! workspace-relative path before any lint runs.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What kind of file a path is, for lint scoping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// Library source of the named crate (`crates/<c>/src/**`, minus
    /// bins), or of the root `profess` facade (`src/*.rs`).
    Lib(String),
    /// An executable entry point (`src/bin/**`, `src/main.rs`).
    Bin(String),
    /// Integration tests and benches (`tests/**`, `benches/**`).
    Test,
    /// Example programs (`examples/**`).
    Example,
    /// Shell scripts (`scripts/*.sh`).
    Script,
    /// A `Cargo.toml`.
    Manifest,
    /// The `Cargo.lock`.
    Lockfile,
    /// Top-level project documentation (`*.md` at the workspace root) —
    /// checked for drift against the code it describes.
    Doc,
    /// Anything else (licenses, assets); no lint applies.
    Other,
}

impl Role {
    /// Classifies a workspace-relative path (with `/` separators).
    pub fn classify(rel: &str) -> Role {
        if rel == "Cargo.lock" {
            return Role::Lockfile;
        }
        if rel == "Cargo.toml" || rel.ends_with("/Cargo.toml") {
            return Role::Manifest;
        }
        if rel.starts_with("scripts/") && rel.ends_with(".sh") {
            return Role::Script;
        }
        if rel.ends_with(".md") && !rel.contains('/') {
            return Role::Doc;
        }
        if !rel.ends_with(".rs") {
            return Role::Other;
        }
        if rel.starts_with("examples/") || rel.contains("/examples/") {
            return Role::Example;
        }
        if rel.starts_with("tests/") || rel.contains("/tests/") || rel.contains("/benches/") {
            return Role::Test;
        }
        let (crate_name, in_crate) = match rel.strip_prefix("crates/") {
            Some(rest) => match rest.split_once('/') {
                Some((c, tail)) => (c.to_string(), tail.to_string()),
                None => (rest.to_string(), String::new()),
            },
            None => ("profess".to_string(), rel.to_string()),
        };
        if in_crate.starts_with("src/bin/") || in_crate == "src/main.rs" {
            Role::Bin(crate_name)
        } else if in_crate.starts_with("src/") {
            Role::Lib(crate_name)
        } else {
            Role::Other
        }
    }

    /// The crate a library/binary file belongs to, if any.
    pub fn crate_name(&self) -> Option<&str> {
        match self {
            Role::Lib(c) | Role::Bin(c) => Some(c),
            _ => None,
        }
    }
}

/// One loaded source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Lint-scoping role.
    pub role: Role,
    /// Full text.
    pub text: String,
}

impl SourceFile {
    /// Builds a file from a path and text, classifying the role.
    pub fn new(rel_path: &str, text: &str) -> SourceFile {
        SourceFile {
            rel_path: rel_path.to_string(),
            role: Role::classify(rel_path),
            text: text.to_string(),
        }
    }
}

/// The set of files the lints run over.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// All loaded files.
    pub files: Vec<SourceFile>,
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "results", "related"];

impl Workspace {
    /// Loads every analyzable file under `root`, skipping build output
    /// and VCS metadata. Files are sorted by path so diagnostics are
    /// emitted in a stable order on every platform.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut paths = Vec::new();
        walk(root, &mut paths)?;
        paths.sort();
        let mut files = Vec::new();
        for p in paths {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let role = Role::classify(&rel);
            if role == Role::Other {
                continue;
            }
            let text = fs::read_to_string(&p)?;
            files.push(SourceFile {
                rel_path: rel,
                role,
                text,
            });
        }
        Ok(Workspace { files })
    }

    /// Looks a file up by its workspace-relative path.
    pub fn get(&self, rel_path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel_path)
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the workspace root: the outermost ancestor of `start` holding a
/// `Cargo.lock` (the workspace root owns the lockfile).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .filter(|a| a.join("Cargo.lock").exists())
        .last()
        .map(Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_by_path() {
        let cases = [
            ("crates/core/src/system.rs", Role::Lib("core".into())),
            ("crates/core/src/policies/pom.rs", Role::Lib("core".into())),
            ("crates/bench/src/bin/fig05.rs", Role::Bin("bench".into())),
            ("crates/bench/benches/engine.rs", Role::Test),
            ("crates/cpu/tests/core_properties.rs", Role::Test),
            ("crates/analyze/src/main.rs", Role::Bin("analyze".into())),
            ("src/lib.rs", Role::Lib("profess".into())),
            ("src/report.rs", Role::Lib("profess".into())),
            ("src/bin/profess-sim.rs", Role::Bin("profess".into())),
            ("tests/determinism.rs", Role::Test),
            ("examples/quickstart.rs", Role::Example),
            ("scripts/ci.sh", Role::Script),
            ("Cargo.toml", Role::Manifest),
            ("crates/obs/Cargo.toml", Role::Manifest),
            ("Cargo.lock", Role::Lockfile),
            ("README.md", Role::Doc),
            ("DESIGN.md", Role::Doc),
            ("crates/analyze/README.md", Role::Other),
            ("LICENSE", Role::Other),
        ];
        for (path, want) in cases {
            assert_eq!(Role::classify(path), want, "{path}");
        }
    }

    #[test]
    fn loads_this_workspace() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let ws = Workspace::load(&root).expect("load");
        assert!(ws.get("crates/analyze/src/workspace.rs").is_some());
        assert!(ws.get("Cargo.lock").is_some());
        assert!(
            ws.files.windows(2).all(|w| w[0].rel_path < w[1].rel_path),
            "files sorted by path"
        );
    }
}
