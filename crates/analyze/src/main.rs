//! The `profess-analyze` gate binary.
//!
//! ```text
//! profess-analyze [--json <path>] [--list] [--list-lints] [root]
//! profess-analyze gate [--baseline <path>] [--write-baseline] [root]
//! ```
//!
//! **Analyze mode** (default): analyzes the workspace (found by walking
//! up from the current directory to the outermost `Cargo.lock`, or
//! given explicitly), prints every diagnostic, and exits non-zero if
//! any unsuppressed *error* remains (warnings are advisory). `--json`
//! additionally writes the machine-readable `ANALYZE.json`; with
//! `PROFESS_RESULTS_DIR` set and no `--json`, the report lands in
//! `$PROFESS_RESULTS_DIR/ANALYZE.json`.
//!
//! **Gate mode**: diffs a fresh run against a committed baseline
//! (`--baseline` > `PROFESS_ANALYZE_BASELINE` > `<root>/results/
//! ANALYZE.json`), mirroring the bench trend gate. Any diagnostic not in
//! the baseline — suppressed ones included, so new `allow` markers are
//! always a reviewed refresh — exits 2; diagnostics that disappeared
//! pass with a refresh prompt; `--write-baseline` rewrites the baseline
//! in place. Exit 1 means the gate itself could not run.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use profess_analyze::{analyze_root, baseline, lints, workspace, Analysis};

fn usage() -> ExitCode {
    eprintln!(
        "usage: profess-analyze [--json <path>] [--list] [--list-lints] [root]\n\
                profess-analyze gate [--baseline <path>] [--write-baseline] [root]"
    );
    ExitCode::from(2)
}

fn resolve_root(root_arg: Option<PathBuf>) -> Result<PathBuf, ExitCode> {
    match root_arg {
        Some(r) => Ok(r),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            workspace::find_root(&cwd).ok_or_else(|| {
                eprintln!("profess-analyze: no Cargo.lock above {}", cwd.display());
                ExitCode::from(2)
            })
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gate") {
        return gate(&args[1..]);
    }

    let mut json_path: Option<PathBuf> = None;
    let mut root_arg: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--list" => {
                for l in lints::REGISTRY {
                    println!("{}", l.name);
                }
                return ExitCode::SUCCESS;
            }
            "--list-lints" => {
                for l in lints::REGISTRY {
                    println!(
                        "{}|{}|{}",
                        l.name,
                        l.level.label(),
                        if l.suppressible { "yes" } else { "no" }
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(),
            _ if a.starts_with('-') => return usage(),
            _ if root_arg.is_none() => root_arg = Some(PathBuf::from(a)),
            _ => return usage(),
        }
    }

    let root = match resolve_root(root_arg) {
        Ok(r) => r,
        Err(code) => return code,
    };

    let analysis = match analyze_root(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("profess-analyze: cannot read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    for d in &analysis.diagnostics {
        println!("{}", d.render());
    }
    let errors = analysis.active_errors().count();
    let warnings = analysis.active_warnings().count();
    let suppressed = analysis.diagnostics.len() - errors - warnings;
    println!(
        "profess-analyze: {} file(s), {errors} violation(s), {warnings} warning(s), \
         {suppressed} allowed",
        analysis.files_scanned
    );

    if json_path.is_none() {
        json_path =
            std::env::var_os("PROFESS_RESULTS_DIR").map(|d| PathBuf::from(d).join("ANALYZE.json"));
    }
    if let Some(path) = json_path {
        let io = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, analysis.to_json()));
        match io {
            Ok(()) => println!("analysis artifact: {}", path.display()),
            Err(e) => {
                eprintln!("profess-analyze: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    if errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `gate` subcommand. Exit 0 = no new diagnostics, 1 = the gate
/// could not run, 2 = new diagnostics vs. the baseline.
fn gate(args: &[String]) -> ExitCode {
    let mut baseline_arg: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_arg = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--write-baseline" => write_baseline = true,
            "--help" | "-h" => return usage(),
            _ if a.starts_with('-') => return usage(),
            _ if root_arg.is_none() => root_arg = Some(PathBuf::from(a)),
            _ => return usage(),
        }
    }
    let root = match resolve_root(root_arg) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let env_baseline = std::env::var_os("PROFESS_ANALYZE_BASELINE").map(PathBuf::from);
    let baseline_path = baseline_arg
        .or(env_baseline)
        .unwrap_or_else(|| root.join("results").join("ANALYZE.json"));

    let analysis = match analyze_root(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analyzegate: cannot read {}: {e}", root.display());
            return ExitCode::from(1);
        }
    };

    if write_baseline {
        let io = baseline_path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&baseline_path, analysis.to_json()));
        return match io {
            Ok(()) => {
                println!("analyzegate: baseline written: {}", baseline_path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("analyzegate: cannot write {}: {e}", baseline_path.display());
                ExitCode::from(1)
            }
        };
    }

    let doc = match std::fs::read_to_string(&baseline_path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!(
                "analyzegate: cannot read baseline {}: {e}\n\
                 analyzegate: create one with `profess-analyze gate --write-baseline`",
                baseline_path.display()
            );
            return ExitCode::from(1);
        }
    };
    let base = match baseline::parse(&doc) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "analyzegate: malformed baseline {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(1);
        }
    };

    let diff = baseline::diff(&base, &analysis.diagnostics);
    report_gate(&diff, &base, &analysis, &baseline_path)
}

fn report_gate(
    diff: &baseline::Diff,
    base: &[baseline::Key],
    analysis: &Analysis,
    baseline_path: &Path,
) -> ExitCode {
    println!(
        "analyzegate: baseline {} ({} entr{}), fresh run {} entr{}",
        baseline_path.display(),
        base.len(),
        if base.len() == 1 { "y" } else { "ies" },
        analysis.diagnostics.len(),
        if analysis.diagnostics.len() == 1 {
            "y"
        } else {
            "ies"
        },
    );
    for (k, n) in &diff.removed {
        println!("analyzegate: resolved x{n}: {}", k.render());
    }
    for (k, n) in &diff.new {
        println!("analyzegate: NEW x{n}: {}", k.render());
    }
    if !diff.new.is_empty() {
        // Unsuppressed errors among the new entries are double trouble,
        // but any new entry — a new allow, a new warning — fails: the
        // baseline is the review record.
        println!(
            "analyzegate: FAIL — {} new diagnostic(s); fix them, or refresh the reviewed \
             baseline with `profess-analyze gate --write-baseline`",
            diff.new.len()
        );
        return ExitCode::from(2);
    }
    if !diff.removed.is_empty() {
        println!(
            "analyzegate: OK — {} diagnostic(s) resolved; refresh the baseline with \
             `profess-analyze gate --write-baseline` to ratchet",
            diff.removed.len()
        );
        return ExitCode::SUCCESS;
    }
    println!("analyzegate: OK — fresh run matches the baseline");
    ExitCode::SUCCESS
}
