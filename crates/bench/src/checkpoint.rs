//! The checkpoint journal: append-only JSONL of completed cells.
//!
//! An experiment decomposes into independent *cells* (see
//! [`crate::Cell`]) — one solo run, one multiprogram run or one surface
//! point, each reduced to exactly the numbers its reducer consumes. As
//! each cell completes it is appended to `CHECKPOINT_<name>.jsonl` as
//! one line:
//!
//! ```text
//! {"key":"multi|profess|w03|<cfgfp>","fp":"<fnv64>","payload":{...}}
//! ```
//!
//! The `key` encodes cell kind × policy × workload/program/point × a
//! fingerprint of the system configuration and memory-operation target,
//! so a journal can never leak results across differently-configured
//! sweeps. The `fp` field fingerprints the payload text itself; a line
//! whose fingerprint does not match (torn write, hand edit) is dropped
//! on load with a warning and the cell simply reruns.
//!
//! Determinism: payload floats are serialized with Rust's shortest
//! round-trip formatting and re-parsed exactly, so a cell restored from
//! the journal feeds bit-identical values into the row assembly — a
//! resumed sweep's rows are byte-identical to an uninterrupted run's.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use profess_core::system::{SamplingReport, SystemReport};
use profess_metrics::{fnv64, Json};

/// Env var enabling checkpoint journaling in `profess-run`: unset,
/// empty, or `0` disables it (a `--workers` run journals regardless);
/// `1` journals into the default results directory; any other value
/// names the journal directory.
pub const CHECKPOINT_ENV: &str = "PROFESS_CHECKPOINT";

/// [`fnv64`] of a text rendering, as 16 lowercase hex digits.
pub fn fingerprint(text: &str) -> String {
    format!("{:016x}", fnv64(text.as_bytes()))
}

/// Fingerprint of everything that determines a cell's result besides
/// the cell identity itself: the full system configuration plus the
/// per-program memory-operation target. Part of every journal key.
pub fn config_fingerprint(cfg: &profess_types::SystemConfig, target_misses: u64) -> String {
    fingerprint(&format!("{cfg:?}|target_misses={target_misses}"))
}

/// A multiprogram cell reduced to exactly what row assembly consumes
/// (see [`crate::workload_metrics_cell`]). Everything else in the
/// [`SystemReport`] is deliberately not journaled: keeping the payload
/// minimal keeps the resume contract small and checkable.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCell {
    /// Per-program IPCs, in core order.
    pub ipcs: Vec<f64>,
    /// Served requests per joule.
    pub requests_per_joule: f64,
    /// Mean read latency, cycles.
    pub avg_read_latency: f64,
    /// Swap operations performed.
    pub swaps: u64,
    /// Data requests served.
    pub total_served: u64,
}

impl MultiCell {
    /// Reduces a full report to the journaled cell.
    pub fn from_report(r: &SystemReport) -> MultiCell {
        MultiCell {
            ipcs: r.programs.iter().map(|p| p.ipc).collect(),
            requests_per_joule: r.requests_per_joule,
            avg_read_latency: r.avg_read_latency_cycles,
            swaps: r.swaps,
            total_served: r.total_served,
        }
    }

    /// Fraction of swaps among served requests (mirrors
    /// [`SystemReport::swap_fraction`] exactly, including the
    /// zero-served guard, so resumed rows match fresh ones).
    pub fn swap_fraction(&self) -> f64 {
        if self.total_served == 0 {
            0.0
        } else {
            self.swaps as f64 / self.total_served as f64
        }
    }

    /// The journal payload.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "ipcs",
                Json::Arr(self.ipcs.iter().map(|&x| Json::Num(x)).collect()),
            ),
            ("requests_per_joule", Json::Num(self.requests_per_joule)),
            ("avg_read_latency", Json::Num(self.avg_read_latency)),
            ("swaps", Json::UInt(self.swaps)),
            ("total_served", Json::UInt(self.total_served)),
        ])
    }

    /// Decodes a journal payload (`None` on any shape mismatch — the
    /// caller then reruns the cell).
    pub fn from_json(j: &Json) -> Option<MultiCell> {
        let Json::Arr(ipcs) = j.get("ipcs")? else {
            return None;
        };
        Some(MultiCell {
            ipcs: ipcs.iter().map(json_f64).collect::<Option<Vec<f64>>>()?,
            requests_per_joule: json_f64(j.get("requests_per_joule")?)?,
            avg_read_latency: json_f64(j.get("avg_read_latency")?)?,
            swaps: json_u64(j.get("swaps")?)?,
            total_served: json_u64(j.get("total_served")?)?,
        })
    }
}

/// A single-program run reduced to what the solo experiments read:
/// the program's IPC and M1 fraction, the system's swaps, STC hit rate
/// and read latency, and (with region sampling on) its Table 4 RSM
/// sampling statistics.
#[derive(Debug, Clone)]
pub struct SoloRun {
    /// The program's IPC.
    pub ipc: f64,
    /// Fraction of the program's accesses served from M1.
    pub m1_fraction: f64,
    /// Swap operations performed.
    pub swaps: u64,
    /// STC hit rate.
    pub stc_hit_rate: f64,
    /// Mean read latency, cycles.
    pub avg_read_latency: f64,
    /// RSM sampling statistics: `Some` when region sampling was on and
    /// at least one sampling period closed.
    pub sampling: Option<SamplingReport>,
}

impl SoloRun {
    /// Reduces a full report to the journaled cell.
    pub fn from_report(r: &SystemReport) -> SoloRun {
        SoloRun {
            ipc: r.programs[0].ipc,
            m1_fraction: r.programs[0].m1_fraction(),
            swaps: r.swaps,
            stc_hit_rate: r.stc_hit_rate,
            avg_read_latency: r.avg_read_latency_cycles,
            sampling: r.sampling.first().cloned().flatten(),
        }
    }

    /// The journal payload.
    pub fn to_json(&self) -> Json {
        let sampling = match &self.sampling {
            None => Json::Null,
            Some(s) => Json::obj([
                ("mean_sigma_req", Json::Num(s.mean_sigma_req)),
                ("sigma_raw_sfa", Json::Num(s.sigma_raw_sfa)),
                ("sigma_avg_sfa", Json::Num(s.sigma_avg_sfa)),
                ("mean_raw_sfa", Json::Num(s.mean_raw_sfa)),
                ("periods", Json::UInt(s.periods as u64)),
            ]),
        };
        Json::obj([
            ("ipc", Json::Num(self.ipc)),
            ("m1_fraction", Json::Num(self.m1_fraction)),
            ("swaps", Json::UInt(self.swaps)),
            ("stc_hit_rate", Json::Num(self.stc_hit_rate)),
            ("avg_read_latency", Json::Num(self.avg_read_latency)),
            ("sampling", sampling),
        ])
    }

    /// Decodes a journal payload (`None` on any shape mismatch — the
    /// caller then reruns the cell).
    pub fn from_json(j: &Json) -> Option<SoloRun> {
        let num = float_or_nan;
        let sampling = match j.get("sampling")? {
            Json::Null => None,
            s => Some(SamplingReport {
                mean_sigma_req: num(s, "mean_sigma_req")?,
                sigma_raw_sfa: num(s, "sigma_raw_sfa")?,
                sigma_avg_sfa: num(s, "sigma_avg_sfa")?,
                mean_raw_sfa: num(s, "mean_raw_sfa")?,
                periods: usize::try_from(json_u64(s.get("periods")?)?).ok()?,
            }),
        };
        Some(SoloRun {
            ipc: num(j, "ipc")?,
            m1_fraction: num(j, "m1_fraction")?,
            swaps: json_u64(j.get("swaps")?)?,
            stc_hit_rate: num(j, "stc_hit_rate")?,
            avg_read_latency: num(j, "avg_read_latency")?,
            sampling,
        })
    }
}

/// Float field `k` of `j`. A non-finite float is written as `null` and
/// reads back as NaN, so a degenerate statistic prints as it would
/// have unjournaled instead of failing its cell.
fn float_or_nan(j: &Json, k: &str) -> Option<f64> {
    match j.get(k)? {
        Json::Null => Some(f64::NAN),
        v => json_f64(v),
    }
}

/// Decodes a solo-cell payload (`{"ipc": <f64>}`).
pub fn solo_ipc_from_json(j: &Json) -> Option<f64> {
    json_f64(j.get("ipc")?)
}

/// A numeric JSON value as `f64` (integers included: the parser reads
/// `2` as `UInt` even where the writer emitted `2.0`-style floats).
pub(crate) fn json_f64(j: &Json) -> Option<f64> {
    match *j {
        Json::Num(x) => Some(x),
        Json::UInt(n) => Some(n as f64),
        Json::Int(n) => Some(n as f64),
        _ => None,
    }
}

/// A non-negative integer JSON value.
pub(crate) fn json_u64(j: &Json) -> Option<u64> {
    match *j {
        Json::UInt(n) => Some(n),
        _ => None,
    }
}

/// The journal's in-memory state, behind one mutex so worker threads
/// can record cells concurrently.
#[derive(Debug)]
struct State {
    entries: BTreeMap<String, Json>,
    writer: Option<File>,
}

/// An append-only checkpoint journal for one sweep artifact.
///
/// [`Journal::load`] replays an existing file (dropping corrupt or
/// fingerprint-mismatched lines with a warning), then appends new cells
/// to the same file as they complete — each [`Journal::record`] is one
/// flushed line, so a killed process loses at most the cell it was
/// mid-writing, and that line fails its fingerprint check on the next
/// load and reruns.
#[derive(Debug)]
pub struct Journal {
    path: Option<PathBuf>,
    /// The keys replayed from the file at load time.
    replayed: BTreeSet<String>,
    rejected: usize,
    state: Mutex<State>,
}

impl Journal {
    /// An inert journal: remembers nothing, writes nothing. Sweeps run
    /// exactly as if checkpointing did not exist.
    pub fn disabled() -> Journal {
        Journal {
            path: None,
            replayed: BTreeSet::new(),
            rejected: 0,
            state: Mutex::new(State {
                entries: BTreeMap::new(),
                writer: None,
            }),
        }
    }

    /// Opens (creating if absent) the journal at `path`, replaying any
    /// valid lines already present.
    pub fn load(path: &Path) -> std::io::Result<Journal> {
        let mut entries = BTreeMap::new();
        let mut rejected = 0usize;
        let mut torn_tail = false;
        if path.exists() {
            let text = std::fs::read_to_string(path)?;
            torn_tail = !text.is_empty() && !text.ends_with('\n');
            for (lineno, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match decode_line(line) {
                    Some((key, payload)) => {
                        entries.insert(key, payload);
                    }
                    None => {
                        rejected += 1;
                        eprintln!(
                            "warning: {}:{}: dropping invalid checkpoint line (cell will rerun)",
                            path.display(),
                            lineno + 1
                        );
                    }
                }
            }
        }
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut writer = OpenOptions::new().create(true).append(true).open(path)?;
        if torn_tail {
            // A process killed mid-write left a fragment with no newline:
            // end it, so the next record starts a line of its own instead
            // of being glued to the fragment and lost with it.
            writer.write_all(b"\n")?;
        }
        Ok(Journal {
            path: Some(path.to_path_buf()),
            replayed: entries.keys().cloned().collect(),
            rejected,
            state: Mutex::new(State {
                entries,
                writer: Some(writer),
            }),
        })
    }

    /// Is this journal backed by a file?
    pub fn is_enabled(&self) -> bool {
        self.path.is_some()
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Valid cells replayed from disk at load time.
    pub fn loaded(&self) -> usize {
        self.replayed.len()
    }

    /// Was `key` replayed from disk at load time? A key recorded in this
    /// process is not, even though [`Journal::lookup`] finds it.
    pub fn replayed(&self, key: &str) -> bool {
        self.replayed.contains(key)
    }

    /// Invalid lines dropped at load time.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Cells currently known (replayed + recorded this run).
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Is the journal empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The journaled payload for `key`, if present.
    pub fn lookup(&self, key: &str) -> Option<Json> {
        self.lock().entries.get(key).cloned()
    }

    /// Records a completed cell: appends one flushed journal line and
    /// remembers the payload. No-op on a disabled journal. A write
    /// failure is a warning, not an error — losing checkpoint coverage
    /// must not fail the sweep that is producing real results.
    pub fn record(&self, key: &str, payload: Json) {
        let mut st = self.lock();
        if let Some(w) = st.writer.as_mut() {
            let line = encode_line(key, &payload);
            if let Err(e) = w.write_all(line.as_bytes()).and_then(|()| w.flush()) {
                eprintln!("warning: checkpoint write for `{key}` failed: {e}");
            }
        }
        st.entries.insert(key.to_string(), payload);
    }

    /// Locks the state, shrugging off poison (the guarded maps are
    /// always valid; record never panics while holding the lock).
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Renders one journal line (trailing newline included). Crate-visible
/// so a sharded run's child process (see [`crate::shard`]) can hand its
/// cell back in exactly the format [`Journal::record`] appends.
pub(crate) fn encode_line(key: &str, payload: &Json) -> String {
    let fp = fingerprint(&payload.to_string());
    let mut line = Json::obj([
        ("key", Json::Str(key.to_string())),
        ("fp", Json::Str(fp)),
        ("payload", payload.clone()),
    ])
    .to_string();
    line.push('\n');
    line
}

/// Decodes one journal line, verifying the payload fingerprint.
/// Crate-visible for a sharded run's parent, which decodes its child
/// processes' lines.
pub(crate) fn decode_line(line: &str) -> Option<(String, Json)> {
    let j = Json::parse(line).ok()?;
    let Json::Str(key) = j.get("key")? else {
        return None;
    };
    let Json::Str(fp) = j.get("fp")? else {
        return None;
    };
    let payload = j.get("payload")?;
    if fingerprint(&payload.to_string()) != *fp {
        return None;
    }
    Some((key.clone(), payload.clone()))
}

/// Rewrites the journal at `path` in `keys` order, one line per key
/// (temp file + rename). Cells journal in completion order, which
/// depends on scheduling; this canonical order makes a finished
/// journal byte-identical at any thread or worker count. Undecodable
/// lines (a torn tail) and snapshot entries are dropped. A cell key on
/// two lines is an `Err` that leaves the file untouched (see
/// [`check_unique_keys`]).
pub fn rewrite_in_order(path: &Path, keys: &[String]) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let lines = cell_lines(path, &text, false)?;
    let mut out = String::new();
    for (_, line) in keys.iter().filter_map(|k| lines.get(k)) {
        out.push_str(line);
        out.push('\n');
    }
    let tmp = path.with_extension("jsonl.tmp");
    std::fs::write(&tmp, out)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Strictly checks that a journal holds every cell key on one line,
/// identical bytes included: every cell is journaled once, so a repeat
/// means a cell executed twice (the tolerant loader would silently let
/// the later line win). Snapshot entries (`snapshot|…`) are exempt — a
/// cell preempted on several attempts journals a snapshot each time.
/// Every line must decode (CI semantics, like [`entries_of_file`]).
pub fn check_unique_keys(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    cell_lines(path, &text, true).map(|_| ())
}

/// The cell lines of journal `text` (read from `path`) by key, with
/// their 1-based line numbers; snapshot entries are skipped. A repeated
/// cell key is an `Err` naming both lines, and so, when `strict`, is an
/// undecodable line (otherwise skipped).
fn cell_lines<'a>(
    path: &Path,
    text: &'a str,
    strict: bool,
) -> Result<BTreeMap<String, (usize, &'a str)>, String> {
    let mut lines = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let Some((key, _)) = decode_line(line) else {
            if strict && !line.trim().is_empty() {
                return Err(format!(
                    "{}:{lineno}: invalid checkpoint line",
                    path.display()
                ));
            }
            continue;
        };
        if key.starts_with("snapshot|") {
            continue;
        }
        if let Some((first, first_line)) = lines.insert(key.clone(), (lineno, line)) {
            let how = if first_line == line {
                "identical"
            } else {
                "differing"
            };
            return Err(format!(
                "{}:{lineno}: cell key `{key}` journaled twice ({how} to line {first}): \
                 a cell executed twice",
                path.display()
            ));
        }
    }
    Ok(lines)
}

/// Strictly validates a journal file for CI: every line must decode and
/// fingerprint-match. Returns the cell count (a repeated key counts
/// once; [`check_unique_keys`] rejects it).
pub fn validate_file(path: &Path) -> Result<usize, String> {
    Ok(entries_of_file(path)?.len())
}

/// Strictly decodes a journal file into its effective entries: every
/// line must decode and fingerprint-match (CI semantics, not the
/// tolerant [`Journal::load`]), and later duplicates of a key replace
/// earlier ones — exactly the payload a reload would see. Entries come
/// back in key order.
pub fn entries_of_file(path: &Path) -> Result<BTreeMap<String, Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut entries = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (key, payload) = decode_line(line)
            .ok_or_else(|| format!("{}:{}: invalid checkpoint line", path.display(), lineno + 1))?;
        entries.insert(key, payload);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("profess_ckpt_{}_{name}", std::process::id()))
    }

    fn sample_cell() -> MultiCell {
        MultiCell {
            ipcs: vec![0.5, 1.25, 2.0, 0.125],
            requests_per_joule: 1234.5678,
            avg_read_latency: 321.0625,
            swaps: 40,
            total_served: 400,
        }
    }

    #[test]
    fn fnv64_is_stable() {
        // The FNV-1a offset basis, as 16 hex digits.
        assert_eq!(fingerprint(""), "cbf29ce484222325");
    }

    #[test]
    fn multicell_round_trips_exactly() {
        let cell = sample_cell();
        let text = cell.to_json().to_string();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(MultiCell::from_json(&parsed), Some(cell));
    }

    #[test]
    fn multicell_rejects_malformed_payloads() {
        assert_eq!(MultiCell::from_json(&Json::Null), None);
        assert_eq!(
            MultiCell::from_json(&Json::obj([("ipcs", Json::Null)])),
            None
        );
        let missing = Json::obj([("ipcs", Json::Arr(vec![Json::Num(1.0)]))]);
        assert_eq!(MultiCell::from_json(&missing), None);
    }

    #[test]
    fn journal_records_and_reloads() {
        let path = tmp("roundtrip.jsonl");
        std::fs::remove_file(&path).ok();
        let j = Journal::load(&path).expect("create");
        assert!(j.is_enabled());
        assert_eq!(j.loaded(), 0);
        j.record("solo|pom|mcf|abc", Json::obj([("ipc", Json::Num(0.75))]));
        j.record("multi|mdm|w01|abc", sample_cell().to_json());
        assert_eq!(j.len(), 2);
        drop(j);

        let j2 = Journal::load(&path).expect("reload");
        assert_eq!(j2.loaded(), 2);
        assert_eq!(j2.rejected(), 0);
        let ipc = j2.lookup("solo|pom|mcf|abc").expect("present");
        assert_eq!(ipc.get("ipc"), Some(&Json::Num(0.75)));
        let cell = MultiCell::from_json(&j2.lookup("multi|mdm|w01|abc").unwrap());
        assert_eq!(cell, Some(sample_cell()));
        assert_eq!(j2.lookup("multi|mdm|w01|OTHERCFG"), None);
        assert_eq!(validate_file(&path), Ok(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_lines_are_dropped_on_load_but_fail_validation() {
        let path = tmp("corrupt.jsonl");
        std::fs::remove_file(&path).ok();
        let j = Journal::load(&path).expect("create");
        j.record("a", Json::UInt(1));
        j.record("b", Json::UInt(2));
        drop(j);
        // Tamper with one payload (fingerprint mismatch) and append a
        // torn line (invalid JSON).
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen(":1}", ":9}", 1) + "{\"key\":\"torn";
        std::fs::write(&path, tampered).unwrap();

        let j2 = Journal::load(&path).expect("reload");
        assert_eq!(j2.loaded(), 1, "only the intact line survives");
        assert_eq!(j2.rejected(), 2);
        assert_eq!(j2.lookup("a"), None, "tampered cell must rerun");
        assert_eq!(j2.lookup("b"), Some(Json::UInt(2)));
        assert!(validate_file(&path).is_err(), "CI validation is strict");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_torn_tail_does_not_swallow_the_next_record() {
        let path = tmp("torn_tail.jsonl");
        std::fs::remove_file(&path).ok();
        let torn = encode_line("a", &Json::UInt(1)) + "{\"key\":\"b\",\"fp";
        std::fs::write(&path, torn).unwrap();
        let j = Journal::load(&path).expect("load");
        assert_eq!((j.loaded(), j.rejected()), (1, 1));
        j.record("c", Json::UInt(3));
        drop(j);

        let j2 = Journal::load(&path).expect("reload");
        assert_eq!(
            j2.loaded(),
            2,
            "the cell recorded after the fragment survives"
        );
        assert_eq!(j2.rejected(), 1, "only the fragment is dropped");
        assert_eq!(j2.lookup("c"), Some(Json::UInt(3)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_unique_keys_rejects_every_repeated_cell_key() {
        let path = tmp("unique.jsonl");
        std::fs::remove_file(&path).ok();
        let j = Journal::load(&path).expect("create");
        j.record("a", Json::UInt(1));
        j.record("snapshot|a", Json::UInt(7));
        j.record("b", Json::UInt(2));
        // Snapshots may repeat: each preempted attempt journals one.
        j.record("snapshot|a", Json::UInt(8));
        drop(j);
        assert_eq!(check_unique_keys(&path), Ok(()));
        let clean = std::fs::read_to_string(&path).unwrap();
        // A cell that ran twice fails even with identical bytes, and so
        // does one whose runs disagreed.
        for (key, v, how) in [
            ("a", 1, "identical to line 1"),
            ("b", 99, "differing to line 3"),
        ] {
            std::fs::write(&path, clean.clone() + &encode_line(key, &Json::UInt(v))).unwrap();
            let err = check_unique_keys(&path).unwrap_err();
            assert!(
                err.contains(&format!(":5: cell key `{key}` journaled twice ({how})")),
                "{err}"
            );
        }
        // Strict like the rest of CI: an undecodable line is an error.
        std::fs::write(&path, clean + "{\"key\":\"torn").unwrap();
        assert!(check_unique_keys(&path)
            .unwrap_err()
            .contains(":5: invalid"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewrite_in_order_keeps_one_line_per_key_in_key_order() {
        let path = tmp("rewrite.jsonl");
        std::fs::remove_file(&path).ok();
        let j = Journal::load(&path).expect("create");
        for (key, v) in [
            ("c", 3),
            ("snapshot|a", 9),
            ("snapshot|a", 8),
            ("a", 1),
            ("b", 2),
        ] {
            j.record(key, Json::UInt(v));
        }
        drop(j);
        let torn = std::fs::read_to_string(&path).unwrap() + "{\"key\":\"d\",\"fp\"";
        std::fs::write(&path, torn).unwrap();
        let keys: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        rewrite_in_order(&path, &keys).unwrap();
        let expect: String = [("a", 1), ("b", 2), ("c", 3)]
            .iter()
            .map(|&(k, v)| encode_line(k, &Json::UInt(v)))
            .collect();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expect);
        assert_eq!(check_unique_keys(&path), Ok(()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewrite_in_order_refuses_a_cell_journaled_twice() {
        let keys = vec!["a".to_string(), "b".to_string()];
        for second in [0, 1] {
            let path = tmp(&format!("rewrite_twice_{second}.jsonl"));
            std::fs::remove_file(&path).ok();
            let j = Journal::load(&path).expect("create");
            j.record("a", Json::UInt(0));
            j.record("b", Json::UInt(2));
            j.record("a", Json::UInt(second));
            drop(j);
            let before = std::fs::read_to_string(&path).unwrap();
            let err = rewrite_in_order(&path, &keys).unwrap_err();
            assert!(err.contains(":3: cell key `a` journaled twice"), "{err}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn disabled_journal_is_inert() {
        let j = Journal::disabled();
        assert!(!j.is_enabled());
        j.record("k", Json::UInt(1));
        // Remembered in memory (idempotent within the run), though not
        // replayed from any file...
        assert_eq!(j.lookup("k"), Some(Json::UInt(1)));
        assert!(!j.replayed("k"));
        // ...but nothing on disk.
        assert_eq!(j.path(), None);
    }

    #[test]
    fn config_fingerprint_separates_configs_and_targets() {
        let a = profess_types::SystemConfig::scaled_single();
        let mut b = a.clone();
        b.rsm.m_samp += 1;
        assert_ne!(config_fingerprint(&a, 100), config_fingerprint(&b, 100));
        assert_ne!(config_fingerprint(&a, 100), config_fingerprint(&a, 101));
        assert_eq!(
            config_fingerprint(&a, 100),
            config_fingerprint(&a.clone(), 100)
        );
    }
}
