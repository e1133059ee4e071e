//! **profess-validate** — the one strict validator for every artifact
//! the sweeps write.
//!
//! ```text
//! profess-validate trend   [--baseline DIR] BENCH_*.json...
//! profess-validate journal [--min-snapshots N] CHECKPOINT_*.jsonl...
//! profess-validate sweep   BENCH_*.json...
//! profess-validate surface [--mono-tol F] SURFACE_*.json...
//! profess-validate trace   TRACE_*.jsonl [KIND...]
//! profess-validate diff    GOLDEN FRESH
//! ```
//!
//! * **trend** — the bench trend gate. Each fresh `BENCH_<name>.json` is
//!   compared with the file of the same name in the baseline directory:
//!   `--baseline`, else `PROFESS_BENCH_BASELINE` (the intentional
//!   trajectory-reset path), else the workspace-level `results/`. An
//!   entry regresses when it is more than 15% slower on **both** the
//!   median and the min of its timed samples; a median over threshold
//!   with the min in range is scheduler noise, reported but not fatal.
//!   Entries on one side only, and artifacts with no baseline file, are
//!   reported and skipped. Wall-clock and throughput fields are never
//!   gated.
//! * **journal** — every line of a checkpoint journal strict-decodes
//!   with a matching FNV-1a fingerprint (where `Journal::load` is
//!   tolerant, CI is strict), every cell key appears on exactly one line
//!   (a repeat means a cell executed twice; `snapshot|` entries are
//!   exempt), and every `snapshot|` payload decodes as a versioned
//!   `SystemSnapshot`. `--min-snapshots N` requires at least `N`
//!   snapshot entries across all files, proving a preempting run really
//!   exercised the snapshot path.
//! * **sweep** — a `BENCH_*.json` artifact reports `skipped_malformed ==
//!   0` (absent counts as zero): the tolerant drop path exists so a torn
//!   write costs one rerun, not so decay passes silently through CI.
//! * **surface** — each `SURFACE_*.json` carries exactly the
//!   `SURFACE_FIELDS` per point, ascending intensities per series, and
//!   read latency non-decreasing with intensity within the relative
//!   tolerance `--mono-tol` (default 0.05).
//! * **trace** — every line of a `TRACE_*.jsonl` parses with a string
//!   `type`, and every `KIND` named occurs at least once:
//!
//!   ```text
//!   profess-validate trace results/TRACE_fig05.jsonl swap_begin mdm_decision rsm_epoch
//!   ```
//! * **diff** — two artifacts (`ROWS_`, `SURFACE_`, `CHECKPOINT_`) are
//!   byte-identical; a mismatch names the first differing byte with an
//!   excerpt of each side.
//!
//! Exit codes are the shared [`profess_bench::exit`] taxonomy: `0`
//! valid, `1` a validation failure (an unreadable input included), `2`
//! a usage error.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use profess_bench::checkpoint::{check_unique_keys, entries_of_file};
use profess_bench::exit;
use profess_bench::surface::validate_surface;
use profess_core::SystemSnapshot;
use profess_metrics::Json;

const USAGE: &str = "usage: profess-validate trend [--baseline DIR] BENCH_*.json...
       profess-validate journal [--min-snapshots N] CHECKPOINT_*.jsonl...
       profess-validate sweep BENCH_*.json...
       profess-validate surface [--mono-tol F] SURFACE_*.json...
       profess-validate trace TRACE_*.jsonl [KIND...]
       profess-validate diff GOLDEN FRESH";

/// Trend threshold: fail when fresh > baseline * (1 + 15/100) on both
/// gated statistics.
const THRESHOLD_PCT: u128 = 15;

/// Default relative tolerance of the surface latency-monotonicity check.
const DEFAULT_MONO_TOL: f64 = 0.05;

/// Each kind with its one optional flag and its positional-count range.
const KINDS: &[(&str, Option<&str>, usize, usize)] = &[
    ("trend", Some("--baseline"), 1, usize::MAX),
    ("journal", Some("--min-snapshots"), 1, usize::MAX),
    ("sweep", None, 1, usize::MAX),
    ("surface", Some("--mono-tol"), 1, usize::MAX),
    ("trace", None, 1, usize::MAX),
    ("diff", None, 2, 2),
];

/// A parsed invocation: the kind, its flag value if given, positionals.
struct Cmd {
    kind: &'static str,
    flag: Option<String>,
    args: Vec<String>,
}

fn parse(argv: &[String]) -> Result<Cmd, String> {
    let (kind, rest) = argv.split_first().ok_or("no kind given")?;
    let &(kind, flag_name, min, max) = KINDS
        .iter()
        .find(|k| k.0 == kind)
        .ok_or_else(|| format!("unknown kind `{kind}`"))?;
    let (mut flag, mut args) = (None, Vec::new());
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if Some(a.as_str()) == flag_name {
            flag = Some(it.next().cloned().ok_or(format!("{a} needs a value"))?);
        } else if a.starts_with('-') {
            return Err(format!("unknown flag `{a}` for `{kind}`"));
        } else {
            args.push(a.clone());
        }
    }
    if args.len() < min || args.len() > max {
        return Err(format!("wrong number of arguments for `{kind}`"));
    }
    Ok(Cmd { kind, flag, args })
}

fn usage(msg: &str) -> ! {
    eprintln!("profess-validate: {msg}\n{USAGE}");
    std::process::exit(exit::USAGE);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = parse(&argv).unwrap_or_else(|e| usage(&e));
    let flag = cmd.flag.as_deref();
    let result = match cmd.kind {
        "trend" => trend(flag.map(PathBuf::from), &cmd.args),
        "journal" => match flag.map(str::parse::<usize>).transpose() {
            Ok(min) => journal(min.unwrap_or(0), &cmd.args),
            Err(_) => usage("--min-snapshots needs a non-negative integer"),
        },
        "sweep" => cmd.args.iter().try_for_each(|f| sweep(f)),
        "surface" => match flag.map_or(Ok(DEFAULT_MONO_TOL), str::parse::<f64>) {
            Ok(tol) if (0.0..1.0).contains(&tol) => surface(tol, &cmd.args),
            _ => usage("--mono-tol needs a number in [0, 1)"),
        },
        "trace" => trace(&cmd.args[0], &cmd.args[1..]),
        _ => diff(&cmd.args[0], &cmd.args[1]),
    };
    if let Err(e) = result {
        eprintln!("profess-validate {}: {e}", cmd.kind);
        std::process::exit(exit::VALIDATION_FAIL);
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Parses a `BENCH_*.json` artifact, requiring its `bench` key.
fn bench_artifact(path: &str) -> Result<Json, String> {
    let j = Json::parse(&read(path)?).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    if j.get("bench").is_none() {
        return Err(format!("{path}: not a BENCH artifact (no `bench` key)"));
    }
    Ok(j)
}

/// One gated benchmark entry from an artifact's `results` array.
#[derive(Debug, PartialEq)]
struct Entry {
    name: String,
    min_ns: u64,
    median_ns: u64,
}

/// Outcome of comparing one entry against its baseline.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Within threshold (or faster).
    Ok,
    /// Median over threshold but min within: machine noise, not fatal.
    Noisy,
    /// Median and min both over threshold: a real regression.
    Regressed,
}

fn verdict(fresh: &Entry, base: &Entry) -> Verdict {
    let over = |f: u64, b: u64| (f as u128) * 100 > (b as u128) * (100 + THRESHOLD_PCT);
    match (
        over(fresh.median_ns, base.median_ns),
        over(fresh.min_ns, base.min_ns),
    ) {
        (true, true) => Verdict::Regressed,
        (true, false) => Verdict::Noisy,
        _ => Verdict::Ok,
    }
}

/// Percent change of `fresh` vs `base`, for reporting (`+` = slower).
fn pct(fresh: u64, base: u64) -> String {
    if base == 0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", fresh as f64 / base as f64 * 100.0 - 100.0)
}

/// The `results` entries of a `BENCH_*.json` artifact.
fn entries(path: &str) -> Result<Vec<Entry>, String> {
    let j = bench_artifact(path)?;
    let results = j
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no `results` array"))?;
    let missing = |k: &str| format!("{path}: result entry without `{k}`");
    results
        .iter()
        .map(|r| {
            let ns = |k: &str| r.get(k).and_then(Json::as_u64).ok_or_else(|| missing(k));
            Ok(Entry {
                name: r
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| missing("name"))?
                    .to_string(),
                min_ns: ns("min_ns")?,
                median_ns: ns("median_ns")?,
            })
        })
        .collect()
}

/// The workspace-level `results/` directory: the outermost ancestor of
/// the working directory holding a `Cargo.lock`. Deliberately ignores
/// `PROFESS_RESULTS_DIR` — in CI that points at the scratch directory
/// the *fresh* artifacts land in, which must never be its own baseline.
fn default_baseline() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .filter(|a| a.join("Cargo.lock").exists())
        .last()
        .map_or_else(|| PathBuf::from("results"), |root| root.join("results"))
}

fn trend(flag: Option<PathBuf>, files: &[String]) -> Result<(), String> {
    let baseline = flag
        .or_else(|| std::env::var_os("PROFESS_BENCH_BASELINE").map(PathBuf::from))
        .unwrap_or_else(default_baseline);
    println!("trend: baseline {}", baseline.display());
    let mut regressions = Vec::new();
    for f in files {
        let fresh = entries(f)?;
        let base_path = baseline.join(Path::new(f).file_name().unwrap_or_default());
        if !base_path.exists() {
            println!(
                "trend: {f}: no baseline at {}; skipping (new artifact)",
                base_path.display()
            );
            continue;
        }
        let base = entries(&base_path.display().to_string())?;
        for fe in &fresh {
            let Some(b) = base.iter().find(|b| b.name == fe.name) else {
                println!("trend: {}: no baseline entry; skipping", fe.name);
                continue;
            };
            let line = format!(
                "{}: median {} ({} -> {} ns), min {} ({} -> {} ns)",
                fe.name,
                pct(fe.median_ns, b.median_ns),
                b.median_ns,
                fe.median_ns,
                pct(fe.min_ns, b.min_ns),
                b.min_ns,
                fe.min_ns,
            );
            match verdict(fe, b) {
                Verdict::Ok => println!("trend: ok       {line}"),
                Verdict::Noisy => println!("trend: noisy    {line} (min within threshold)"),
                Verdict::Regressed => {
                    println!("trend: REGRESSED {line}");
                    regressions.push(line);
                }
            }
        }
        for b in base
            .iter()
            .filter(|b| !fresh.iter().any(|f| f.name == b.name))
        {
            println!("trend: {}: not in fresh run; skipping", b.name);
        }
    }
    if regressions.is_empty() {
        println!("trend: trend gate passed ({} artifact(s))", files.len());
        return Ok(());
    }
    Err(format!(
        "{} entr{} regressed >{THRESHOLD_PCT}% on median and min:\n  {}",
        regressions.len(),
        if regressions.len() == 1 { "y" } else { "ies" },
        regressions.join("\n  ")
    ))
}

fn journal(min_snapshots: usize, files: &[String]) -> Result<(), String> {
    let mut snapshots = 0usize;
    for f in files {
        let entries = entries_of_file(Path::new(f))?;
        check_unique_keys(Path::new(f))?;
        let mut here = 0usize;
        for (key, payload) in entries.iter().filter(|(k, _)| k.starts_with("snapshot|")) {
            SystemSnapshot::from_json(payload)
                .map_err(|e| format!("{f}: `{key}`: invalid snapshot: {e}"))?;
            here += 1;
        }
        println!("{f}: ok ({} entries, {here} snapshot(s))", entries.len());
        snapshots += here;
    }
    if snapshots < min_snapshots {
        return Err(format!(
            "{snapshots} snapshot(s) found, {min_snapshots} required — \
             the preemption path was not exercised"
        ));
    }
    println!(
        "journal: {} file(s), {snapshots} snapshot(s), all valid",
        files.len()
    );
    Ok(())
}

fn sweep(path: &str) -> Result<(), String> {
    let dropped = match bench_artifact(path)?.get("skipped_malformed") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("{path}: `skipped_malformed` is not a non-negative integer"))?,
    };
    if dropped > 0 {
        return Err(format!(
            "{path}: sweep dropped {dropped} malformed checkpoint line(s); \
             the journal is decaying and must be regenerated"
        ));
    }
    println!("{path}: ok (no malformed lines dropped)");
    Ok(())
}

fn surface(mono_tol: f64, files: &[String]) -> Result<(), String> {
    for f in files {
        let s = validate_surface(&read(f)?, mono_tol).map_err(|e| format!("{f}: {e}"))?;
        println!(
            "{f}: ok ({} point(s), {} latency series)",
            s.points, s.series
        );
    }
    println!("surface: {} file(s), all valid", files.len());
    Ok(())
}

fn trace(path: &str, required: &[String]) -> Result<(), String> {
    let text = read(path)?;
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let at = format!("{path}:{}", i + 1);
        let json = Json::parse(line).map_err(|e| format!("{at}: invalid JSON ({e:?})"))?;
        let Some(Json::Str(kind)) = json.get("type") else {
            return Err(format!("{at}: missing string `type` field"));
        };
        *kinds.entry(kind.clone()).or_insert(0) += 1;
    }
    if kinds.is_empty() {
        return Err(format!("{path} is empty"));
    }
    println!("trace: {path}: {} lines", kinds.values().sum::<u64>());
    for (kind, n) in &kinds {
        println!("  {kind}: {n}");
    }
    let missing: Vec<&str> = required
        .iter()
        .filter(|k| !kinds.contains_key(*k))
        .map(String::as_str)
        .collect();
    if missing.is_empty() {
        return Ok(());
    }
    Err(format!(
        "required event kind(s) not found: {}",
        missing.join(", ")
    ))
}

/// Byte-compares two artifacts.
fn diff(golden: &str, fresh: &str) -> Result<(), String> {
    let (a, b) = (read(golden)?, read(fresh)?);
    if a == b {
        println!(
            "diff: {golden} and {fresh} are byte-identical ({} bytes)",
            a.len()
        );
        return Ok(());
    }
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    Err(format!(
        "{golden} ({} bytes) and {fresh} ({} bytes) differ, first at byte {at}\n  \
         golden: ...{}\n  fresh:  ...{}",
        a.len(),
        b.len(),
        excerpt(&a, at),
        excerpt(&b, at)
    ))
}

/// A printable window of up to 60 bytes of `s` from near byte `at`.
fn excerpt(s: &str, at: usize) -> &str {
    let start = (0..=at.min(s.len()))
        .rev()
        .find(|&i| s.is_char_boundary(i))
        .unwrap_or(0);
    let mut end = (start + 60).min(s.len());
    while !s.is_char_boundary(end) {
        end += 1;
    }
    &s[start..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(min_ns: u64, median_ns: u64) -> Entry {
        Entry {
            name: "b".to_string(),
            min_ns,
            median_ns,
        }
    }

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn verdicts_follow_the_dual_threshold() {
        let base = e(1_000, 1_200);
        // Faster, equal, and just-inside are all ok.
        assert_eq!(verdict(&e(900, 1_100), &base), Verdict::Ok);
        assert_eq!(verdict(&e(1_000, 1_200), &base), Verdict::Ok);
        assert_eq!(verdict(&e(1_150, 1_380), &base), Verdict::Ok);
        // Median over but min inside: noise, not a failure.
        assert_eq!(verdict(&e(1_000, 1_600), &base), Verdict::Noisy);
        // Both over: regression.
        assert_eq!(verdict(&e(1_200, 1_600), &base), Verdict::Regressed);
        // Min alone over is ok (median carries the trend).
        assert_eq!(verdict(&e(1_200, 1_200), &base), Verdict::Ok);
    }

    #[test]
    fn threshold_boundary_is_strict() {
        // Exactly +15% is within the gate; one past it is over.
        assert_eq!(verdict(&e(115, 115), &e(100, 100)), Verdict::Ok);
        assert_eq!(verdict(&e(116, 116), &e(100, 100)), Verdict::Regressed);
    }

    #[test]
    fn pct_formatting_handles_zero_baseline() {
        assert_eq!(pct(115, 100), "+15.0%");
        assert_eq!(pct(90, 100), "-10.0%");
        assert_eq!(pct(5, 0), "n/a");
    }

    #[test]
    fn one_parser_for_every_kind() {
        let c = parse(&args(&["trend", "--baseline", "d", "a.json"])).expect("trend");
        assert_eq!(
            (c.kind, c.flag.as_deref(), c.args),
            ("trend", Some("d"), args(&["a.json"]))
        );
        let c = parse(&args(&["trace", "t.jsonl", "run", "hist"])).expect("trace");
        assert_eq!(c.args, args(&["t.jsonl", "run", "hist"]));
        assert!(parse(&args(&["diff", "a"])).is_err());
        assert!(parse(&args(&["diff", "a", "b", "c"])).is_err());
        assert!(parse(&args(&["sweep", "--baseline", "d", "a.json"])).is_err());
        assert!(parse(&args(&["journal", "--min-snapshots"])).is_err());
        assert!(parse(&args(&["check", "a"])).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn excerpt_stays_on_char_boundaries() {
        assert_eq!(excerpt("abc", 1), "bc");
        assert_eq!(excerpt("aé", 2), "é");
        assert_eq!(excerpt("abc", 3), "");
    }
}
