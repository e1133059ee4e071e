//! The sweep checkpoint journal: append-only JSONL of completed cells.
//!
//! A supervised sweep (see [`crate::normalized_sweep_supervised`])
//! decomposes into independent *cells* — one solo reference run or one
//! multiprogram run, reduced to exactly the numbers the row assembly
//! consumes. As each cell completes it is appended to
//! `CHECKPOINT_<name>.jsonl` as one line:
//!
//! ```text
//! {"key":"multi|profess|w03|<cfgfp>","fp":"<fnv64>","payload":{...}}
//! ```
//!
//! The `key` encodes cell kind × policy × workload/program × a
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

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use profess_core::system::SystemReport;
use profess_metrics::Json;

/// Env var enabling checkpoint journaling in the sweep binaries: unset,
/// empty, or `0` disables it; `1` journals into the default results
/// directory; any other value names the journal directory.
pub const CHECKPOINT_ENV: &str = "PROFESS_CHECKPOINT";

/// 64-bit FNV-1a over a byte string (the workspace is hermetic, so the
/// journal uses this in-tree fingerprint rather than a vendored hash).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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
    loaded: usize,
    rejected: usize,
    state: Mutex<State>,
}

impl Journal {
    /// An inert journal: remembers nothing, writes nothing. Sweeps run
    /// exactly as if checkpointing did not exist.
    pub fn disabled() -> Journal {
        Journal {
            path: None,
            loaded: 0,
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
        if path.exists() {
            let text = std::fs::read_to_string(path)?;
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
        let writer = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            path: Some(path.to_path_buf()),
            loaded: entries.len(),
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
        self.loaded
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
/// so the shard merge (see [`crate::shard`]) can rewrite a merged
/// journal in exactly the format [`Journal::record`] appends.
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
/// Crate-visible for the shard merge.
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

/// Strictly validates a journal file for CI: every line must decode and
/// fingerprint-match. Returns the cell count (later duplicates of a key
/// are allowed — a rerun after a drop re-records — and counted once).
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

/// Two journal lines claiming the same cell key with **different**
/// payload fingerprints — two different executions both said "this is
/// cell K's result" and disagreed. The tolerant loader silently lets
/// the later one win; [`key_conflicts`] makes the disagreement loud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyConflict {
    /// The contested cell key.
    pub key: String,
    /// 1-based line number of the first entry for the key.
    pub first_lineno: usize,
    /// The first entry's raw journal line.
    pub first_line: String,
    /// 1-based line number of the conflicting later entry.
    pub second_lineno: usize,
    /// The conflicting entry's raw journal line.
    pub second_line: String,
}

impl std::fmt::Display for KeyConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conflicting entries for cell key `{}`:\n  line {}: {}\n  line {}: {}",
            self.key, self.first_lineno, self.first_line, self.second_lineno, self.second_line
        )
    }
}

/// Strictly scans a journal for duplicate cell keys whose payload
/// fingerprints differ (see [`KeyConflict`]). Benign duplicates —
/// identical key *and* fingerprint, as when a re-dealt shard cell ran
/// twice deterministically — are fine; a mismatch means two runs
/// disagreed about one cell and the journal cannot be trusted. Every
/// line must decode (CI semantics, like [`entries_of_file`]).
pub fn key_conflicts(path: &Path) -> Result<Vec<KeyConflict>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut first_seen: BTreeMap<String, (usize, String, String)> = BTreeMap::new();
    let mut conflicts = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let (key, payload) = decode_line(line)
            .ok_or_else(|| format!("{}:{}: invalid checkpoint line", path.display(), lineno))?;
        let fp = fingerprint(&payload.to_string());
        match first_seen.get(&key) {
            None => {
                first_seen.insert(key, (lineno, fp, line.to_string()));
            }
            Some((first_lineno, first_fp, first_line)) if *first_fp != fp => {
                conflicts.push(KeyConflict {
                    key,
                    first_lineno: *first_lineno,
                    first_line: first_line.clone(),
                    second_lineno: lineno,
                    second_line: line.to_string(),
                });
            }
            Some(_) => {}
        }
    }
    Ok(conflicts)
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
        // Published FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
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
    fn key_conflicts_flags_disagreeing_duplicates_only() {
        let path = tmp("conflicts.jsonl");
        std::fs::remove_file(&path).ok();
        let j = Journal::load(&path).expect("create");
        j.record("a", Json::UInt(1));
        j.record("b", Json::UInt(2));
        // A benign duplicate: same key, same payload (re-dealt cell
        // executed twice, deterministically).
        j.record("a", Json::UInt(1));
        drop(j);
        assert_eq!(key_conflicts(&path), Ok(vec![]));

        // A conflicting duplicate: same key, different payload.
        let j = Journal::load(&path).expect("reopen");
        j.record("b", Json::UInt(99));
        drop(j);
        let conflicts = key_conflicts(&path).expect("scan");
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].key, "b");
        assert_eq!(conflicts[0].first_lineno, 2);
        assert_eq!(conflicts[0].second_lineno, 4);
        assert!(conflicts[0].first_line.contains(":2}"), "{conflicts:?}");
        assert!(conflicts[0].second_line.contains(":99}"), "{conflicts:?}");
        let msg = conflicts[0].to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("line 4"), "{msg}");

        // Strict like the rest of CI: an undecodable line is an error.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text + "{\"key\":\"torn").unwrap();
        assert!(key_conflicts(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disabled_journal_is_inert() {
        let j = Journal::disabled();
        assert!(!j.is_enabled());
        j.record("k", Json::UInt(1));
        // Remembered in memory (idempotent within the run)...
        assert_eq!(j.lookup("k"), Some(Json::UInt(1)));
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
