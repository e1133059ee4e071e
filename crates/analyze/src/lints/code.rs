//! Token-level code lints: determinism, panic policy, unsafe policy.

use super::in_regions;
use crate::diag::Diagnostic;
use crate::scan::{Scan, Tok};
use crate::workspace::{Role, SourceFile};

/// No `HashMap`/`HashSet` in simulator-state crates.
pub const HASH_COLLECTIONS: &str = "hash_collections";
/// No `Instant`/`SystemTime` outside the bench crate.
pub const WALL_CLOCK: &str = "wall_clock";
/// No environment or scheduler queries in simulator-state crates.
pub const AMBIENT_INPUT: &str = "ambient_input";
/// No thread spawning outside `profess-par`.
pub const THREAD_SPAWN: &str = "thread_spawn";
/// No `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`
/// in library code.
pub const PANIC: &str = "panic";
/// No `unsafe`, and every lib.rs must `#![forbid(unsafe_code)]`.
pub const UNSAFE_CODE: &str = "unsafe_code";
/// No tree/hash maps in the simulator's designated hot-path modules.
pub const HOT_PATH_MAP: &str = "hot_path_map";
/// No `Command::new` outside the shard supervisor; workers re-exec self.
pub const PROCESS_SPAWN: &str = "process_spawn";

/// The one module allowed to spawn processes: `run_child`, which runs
/// a sharded sweep's attempts and must re-exec the running binary
/// (`std::env::current_exe()`) so children share its exact build.
const PROCESS_SPAWN_MODULE: &str = "crates/par/src/process.rs";

/// Crates whose library code holds simulator state that must iterate
/// deterministically (the report fingerprints replay their decisions)
/// and read no input but their config and seed.
const SIM_STATE_CRATES: &[&str] = &["core", "mem", "cpu", "cache"];

/// The wall clock is only legitimate where wall time is the measurement
/// (`bench`) or the supervisor (`par`: watchdog deadlines for hung
/// tasks — never fed into task results).
const WALL_CLOCK_CRATES: &[&str] = &["bench", "par"];

/// Threads are spawned only by the deterministic pool.
const THREAD_CRATES: &[&str] = &["par"];

/// Crates exempt from the panic policy: `check` is the property-test
/// harness — panicking on a failed assertion is its entire product.
const PANIC_EXEMPT_CRATES: &[&str] = &["check"];

/// Modules on the per-access simulator hot path: the run loop and the
/// migration policies it dispatches into every served request. Keyed
/// lookups here must use the dense flat structures in
/// `crates/core/src/flat.rs`; a `BTreeMap`/`HashMap` is a measured
/// regression, not a style nit. Cold paths (setup, snapshot plumbing)
/// may suppress with `// profess: allow(hot_path_map): <why cold>`.
pub(crate) fn is_hot_path_module(rel_path: &str) -> bool {
    rel_path == "crates/core/src/system.rs" || rel_path.starts_with("crates/core/src/policies/")
}

/// Runs all code lints over one scanned Rust file.
pub fn check(f: &SourceFile, s: &Scan, tests: &[(u32, u32)], out: &mut Vec<Diagnostic>) {
    let crate_name = f.role.crate_name().unwrap_or("");
    let is_lib = matches!(f.role, Role::Lib(_));
    let is_code = matches!(f.role, Role::Lib(_) | Role::Bin(_));

    for (i, t) in s.tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        let in_test = in_regions(tests, t.line);
        // Checked outside the big match: `HashMap` must fire both this
        // and `hash_collections` (they demand different fixes).
        if matches!(id.as_str(), "BTreeMap" | "HashMap")
            && is_code
            && is_hot_path_module(&f.rel_path)
            && !in_test
        {
            out.push(Diagnostic::new(
                HOT_PATH_MAP,
                &f.rel_path,
                t.line,
                format!(
                    "`{id}` in a hot-path module: every served request pays the traversal — \
                     use a dense flat structure (see crates/core/src/flat.rs), or suppress a \
                     cold path with `// profess: allow(hot_path_map): <why cold>`"
                ),
            ));
        }
        match id.as_str() {
            "HashMap" | "HashSet"
                if is_code && SIM_STATE_CRATES.contains(&crate_name) && !in_test =>
            {
                out.push(Diagnostic::new(
                    HASH_COLLECTIONS,
                    &f.rel_path,
                    t.line,
                    format!(
                        "`{id}` in simulator state: iteration order is unspecified and breaks \
                         replayability — use `BTreeMap`/`BTreeSet` or a flat structure \
                         (see crates/core/src/flat.rs)"
                    ),
                ));
            }
            "Instant" | "SystemTime"
                if is_code && !WALL_CLOCK_CRATES.contains(&crate_name) && !in_test =>
            {
                out.push(Diagnostic::new(
                    WALL_CLOCK,
                    &f.rel_path,
                    t.line,
                    format!(
                        "`{id}` outside the bench crate: simulated behaviour must depend only \
                         on the simulated clock (`Cycle`), never wall time"
                    ),
                ));
            }
            "env" | "thread" | "available_parallelism"
                if is_code && SIM_STATE_CRATES.contains(&crate_name) && !in_test =>
            {
                let what = match (id.as_str(), path_segment_after(s, i)) {
                    ("env", Some(m @ ("var" | "var_os" | "vars" | "vars_os"))) => {
                        format!("env::{m}")
                    }
                    ("thread", Some("current")) => "thread::current".to_string(),
                    ("available_parallelism", _) => id.clone(),
                    _ => continue,
                };
                out.push(Diagnostic::new(
                    AMBIENT_INPUT,
                    &f.rel_path,
                    t.line,
                    format!(
                        "`{what}` in simulator state: simulated behaviour must depend only on \
                         the config and the seed — read the knob outside the simulator crates \
                         and pass it in as config"
                    ),
                ));
            }
            "Command"
                if is_code
                    && !in_test
                    && path_segment_after(s, i) == Some("new")
                    && next_is(s, i + 3, '(') =>
            {
                if f.rel_path != PROCESS_SPAWN_MODULE {
                    out.push(Diagnostic::new(
                        PROCESS_SPAWN,
                        &f.rel_path,
                        t.line,
                        "`Command::new` outside the shard supervisor \
                         (crates/par/src/process.rs): child processes are spawned only by \
                         `run_child`; suppress a genuine toolchain probe with \
                         `// profess: allow(process_spawn): <why>`",
                    ));
                } else if !paren_group_has_ident(s, i + 4, "current_exe") {
                    out.push(Diagnostic::new(
                        PROCESS_SPAWN,
                        &f.rel_path,
                        t.line,
                        "`Command::new` in the shard supervisor must spawn \
                         `std::env::current_exe()`: workers re-exec the running binary so \
                         supervisor and workers share one build",
                    ));
                }
            }
            "spawn" if is_code && !THREAD_CRATES.contains(&crate_name) && !in_test => {
                out.push(Diagnostic::new(
                    THREAD_SPAWN,
                    &f.rel_path,
                    t.line,
                    "thread spawning outside profess-par: use `Pool::map`, which collects \
                     results in input order regardless of scheduling",
                ));
            }
            "unwrap" | "expect"
                if is_lib
                    && !PANIC_EXEMPT_CRATES.contains(&crate_name)
                    && !in_test
                    && is_method_call(s, i) =>
            {
                out.push(Diagnostic::new(
                    PANIC,
                    &f.rel_path,
                    t.line,
                    format!(
                        "`.{id}()` in library code: return a `Result`/`Option` or handle the \
                         case; for a true invariant, suppress with \
                         `// profess: allow(panic): <why it cannot fail>`"
                    ),
                ));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if is_lib
                    && !PANIC_EXEMPT_CRATES.contains(&crate_name)
                    && !in_test
                    && next_is(s, i, '!') =>
            {
                out.push(Diagnostic::new(
                    PANIC,
                    &f.rel_path,
                    t.line,
                    format!(
                        "`{id}!` in library code: return an error, or suppress with \
                         `// profess: allow(panic): <why>` if this guards corruption"
                    ),
                ));
            }
            "unsafe" => {
                out.push(Diagnostic::new(
                    UNSAFE_CODE,
                    &f.rel_path,
                    t.line,
                    "`unsafe` is forbidden workspace-wide (every crate is \
                     `#![forbid(unsafe_code)]`); find a safe formulation",
                ));
            }
            _ => {}
        }
    }

    // Crate roots must carry the forbid attribute so the compiler, not
    // just this analyzer, rejects unsafe code.
    if is_lib && (f.rel_path == "src/lib.rs" || f.rel_path.ends_with("/src/lib.rs")) {
        let has_forbid = s.tokens.windows(4).any(|w| {
            w[0].tok == Tok::Ident("forbid".to_string())
                && w[1].tok == Tok::Punct('(')
                && w[2].tok == Tok::Ident("unsafe_code".to_string())
                && w[3].tok == Tok::Punct(')')
        });
        if !has_forbid {
            out.push(Diagnostic::new(
                UNSAFE_CODE,
                &f.rel_path,
                1,
                "crate root is missing `#![forbid(unsafe_code)]`",
            ));
        }
    }
}

/// `tokens[i]` is a method call receiver position: preceded by `.` and
/// followed by `(`. Filters out free functions and method *definitions*
/// that merely share the name.
fn is_method_call(s: &Scan, i: usize) -> bool {
    i > 0
        && s.tokens[i - 1].tok == Tok::Punct('.')
        && s.tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('('))
}

fn next_is(s: &Scan, i: usize, p: char) -> bool {
    s.tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(p))
}

/// The path segment after `tokens[i]`: `name` in `tokens[i] :: name`.
fn path_segment_after(s: &Scan, i: usize) -> Option<&str> {
    match s.tokens.get(i + 1..i + 4)? {
        [a, b, c] if a.tok == Tok::Punct(':') && b.tok == Tok::Punct(':') => match &c.tok {
            Tok::Ident(n) => Some(n.as_str()),
            _ => None,
        },
        _ => None,
    }
}

/// Does the paren group opening at `tokens[open]` (which must be `(`)
/// contain `ident` before its matching close?
fn paren_group_has_ident(s: &Scan, open: usize, ident: &str) -> bool {
    let mut depth = 0i64;
    for t in &s.tokens[open..] {
        match &t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            Tok::Ident(id) if id == ident => return true,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use crate::lints::check_source;

    #[test]
    fn hash_collections_scoped_to_sim_crates() {
        let bad = "use std::collections::HashMap;\nstruct S { m: HashMap<u64, u64> }\n";
        let d = check_source("crates/core/src/x.rs", bad);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.lint == "hash_collections"));
        // Outside the sim-state crates, no finding.
        assert!(check_source("crates/metrics/src/x.rs", bad).is_empty());
        // In a test module, no finding.
        let test_ok = "#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n}\n";
        assert!(check_source("crates/core/src/x.rs", test_ok).is_empty());
    }

    #[test]
    fn wall_clock_only_in_bench_and_par() {
        let bad = "use std::time::Instant;\n";
        assert_eq!(check_source("crates/core/src/x.rs", bad).len(), 1);
        assert!(check_source("crates/bench/src/bin/fig05.rs", bad).is_empty());
        assert!(check_source("crates/bench/src/harness.rs", bad).is_empty());
        // The supervisor's watchdog measures wall time by design.
        assert!(check_source("crates/par/src/supervise.rs", bad).is_empty());
    }

    #[test]
    fn spawn_only_in_par() {
        let bad = "fn f() { std::thread::spawn(|| ()); }\n";
        assert_eq!(check_source("crates/obs/src/x.rs", bad).len(), 1);
        assert!(check_source("crates/par/src/lib.rs", bad)
            .iter()
            .all(|d| d.lint != "thread_spawn"));
    }

    #[test]
    fn process_spawn_scoped_to_the_shard_supervisor() {
        let bad = "fn f() { std::process::Command::new(\"rustc\"); }\n";
        let d = check_source("crates/bench/src/harness.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lint, "process_spawn");
        // The supervisor module may spawn — but only the running binary.
        let reexec = "fn f() { Command::new(std::env::current_exe().unwrap()); }\n";
        assert!(check_source("crates/par/src/process.rs", reexec)
            .iter()
            .all(|d| d.lint != "process_spawn"));
        assert_eq!(
            check_source("crates/par/src/process.rs", bad)
                .iter()
                .filter(|d| d.lint == "process_spawn")
                .count(),
            1,
            "supervisor spawning anything but current_exe must fire"
        );
        // Tests and suppressed probes are exempt.
        assert!(check_source("tests/x.rs", bad).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests {\n fn f() { Command::new(\"ls\"); }\n}\n";
        assert!(check_source("crates/bench/src/harness.rs", test_mod).is_empty());
        let allowed = "// profess: allow(process_spawn): toolchain probe\n\
                       fn f() { std::process::Command::new(\"rustc\"); }\n";
        assert!(check_source("crates/bench/src/harness.rs", allowed)
            .iter()
            .all(|d| d.suppressed));
    }

    #[test]
    fn panic_policy_in_lib_only() {
        let bad = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g() { panic!(\"no\"); }\n";
        let d = check_source("crates/mem/src/x.rs", bad);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.lint == "panic"));
        // Bins, tests, examples, and the check harness are exempt.
        assert!(check_source("crates/bench/src/bin/fig05.rs", bad).is_empty());
        assert!(check_source("tests/x.rs", bad).is_empty());
        assert!(check_source("examples/x.rs", bad).is_empty());
        assert!(check_source("crates/check/src/x.rs", bad).is_empty());
    }

    #[test]
    fn panic_macros_flagged_in_lib_only() {
        let bad =
            "fn f() { unreachable!(\"x\") }\nfn g() { todo!() }\nfn h() { unimplemented!() }\n";
        let d = check_source("crates/mem/src/x.rs", bad);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|d| d.lint == "panic"));
        assert!(d[0].message.contains("`unreachable!`"));
        assert!(check_source("tests/x.rs", bad).is_empty());
        let test_mod = format!("#[cfg(test)]\nmod tests {{\n{bad}}}\n");
        assert!(check_source("crates/mem/src/x.rs", &test_mod).is_empty());
    }

    #[test]
    fn panic_policy_ignores_lookalikes() {
        let ok = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
                  fn expect(s: &str) {}\n\
                  fn g() { let s = \"don't unwrap() or panic!\"; } // .unwrap()\n";
        assert!(check_source("crates/mem/src/x.rs", ok).is_empty());
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let same = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // profess: allow(panic): invariant\n";
        assert!(check_source("crates/mem/src/x.rs", same)
            .iter()
            .all(|d| d.suppressed));
        let above =
            "// profess: allow(panic): invariant\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(check_source("crates/mem/src/x.rs", above)
            .iter()
            .all(|d| d.suppressed));
    }

    #[test]
    fn hot_path_map_scoped_to_run_loop_and_policies() {
        let bad = "use std::collections::BTreeMap;\nstruct S { m: BTreeMap<u64, u64> }\n";
        let hits = |p: &str| {
            check_source(p, bad)
                .iter()
                .filter(|d| d.lint == "hot_path_map")
                .count()
        };
        assert_eq!(hits("crates/core/src/system.rs"), 2);
        assert_eq!(hits("crates/core/src/policies/pom.rs"), 2);
        // Cold modules of the same crate are fine.
        assert_eq!(hits("crates/core/src/snapshot.rs"), 0);
        assert_eq!(hits("crates/mem/src/channel.rs"), 0);
        // `HashMap` fires this lint *and* hash_collections.
        let hashy = "use std::collections::HashMap;\n";
        let d = check_source("crates/core/src/policies/mdm.rs", hashy);
        assert!(d.iter().any(|d| d.lint == "hot_path_map"));
        assert!(d.iter().any(|d| d.lint == "hash_collections"));
        // Test modules are exempt.
        let test_ok = "#[cfg(test)]\nmod tests {\n use std::collections::BTreeMap;\n}\n";
        assert!(check_source("crates/core/src/system.rs", test_ok).is_empty());
    }

    #[test]
    fn unsafe_flagged_everywhere_and_forbid_required() {
        let bad = "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
        assert_eq!(
            check_source("tests/x.rs", bad)
                .iter()
                .filter(|d| d.lint == "unsafe_code")
                .count(),
            1
        );
        let no_forbid = "pub fn f() {}\n";
        let d = check_source("crates/mem/src/lib.rs", no_forbid);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("forbid(unsafe_code)"));
        let with_forbid = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(check_source("crates/mem/src/lib.rs", with_forbid).is_empty());
    }
}
