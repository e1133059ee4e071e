//! **checkpointcheck** — strict CI validator for sweep checkpoint
//! journals (`CHECKPOINT_*.jsonl`) and sweep perf artifacts
//! (`BENCH_*.json`).
//!
//! Usage: `checkpointcheck <journal.jsonl | BENCH_*.json>...`
//!
//! For a journal (any file not ending in `.json`), every line must be a
//! well-formed entry — an object with a `key` string, a `payload`, and
//! an `fp` string matching the payload's FNV-1a fingerprint. Where
//! [`Journal::load`] is tolerant (a bad line just reruns its cell), CI
//! is strict: a malformed line in a finished journal means the writer
//! or the resume path regressed.
//!
//! For a `.json` perf artifact, the `skipped_malformed` count the sweep
//! recorded (journal lines its tolerant loader dropped) must be zero —
//! the tolerant drop path exists so a torn write costs one rerun, not
//! so decay passes silently through CI.
//!
//! Journals must also hold **exactly one line per cell key**: every
//! cell runs once, so a repeated key — even with identical bytes —
//! means a cell executed twice (a retried `profess-shard` attempt whose
//! first child was not really lost, say). Snapshot entries
//! (`snapshot|…`) are exempt. The repeat is reported with both line
//! numbers and the check fails.
//!
//! Exits 0 with per-file diagnostics on success; exits 1 (the shared
//! [`profess_bench::exit`] taxonomy's validation failure) on the first
//! invalid line, repeated cell key, or nonzero drop count.
//!
//! [`Journal::load`]: profess_bench::Journal::load

use profess_bench::checkpoint::{check_unique_keys, validate_file};
use profess_bench::exit;
use profess_metrics::Json;

/// Checks a `BENCH_*.json` artifact: parses, requires the `bench` key,
/// and rejects a nonzero `skipped_malformed` (absent counts as zero —
/// not every binary runs a journaled sweep).
fn check_bench_artifact(path: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    if j.get("bench").is_none() {
        return Err(format!("{path}: not a BENCH artifact (no `bench` key)"));
    }
    let dropped = match j.get("skipped_malformed") {
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
    Ok(dropped)
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: checkpointcheck <journal.jsonl | BENCH_*.json>...");
        std::process::exit(exit::USAGE);
    }
    let mut total = 0usize;
    for f in &files {
        if f.ends_with(".json") {
            match check_bench_artifact(f) {
                Ok(_) => println!("{f}: ok (no malformed lines dropped)"),
                Err(e) => {
                    eprintln!("checkpointcheck: {e}");
                    std::process::exit(exit::VALIDATION_FAIL);
                }
            }
            continue;
        }
        let path = std::path::Path::new(f);
        // A journal whose every line validates can still be wrong as a
        // *record*: two entries for one key mean the cell executed twice.
        match validate_file(path).and_then(|cells| check_unique_keys(path).map(|()| cells)) {
            Ok(cells) => {
                println!("{f}: ok ({cells} cells)");
                total += cells;
            }
            Err(e) => {
                eprintln!("checkpointcheck: {e}");
                std::process::exit(exit::VALIDATION_FAIL);
            }
        }
    }
    println!(
        "checkpointcheck: {} file(s), {total} journal cells, all valid",
        files.len()
    );
}
