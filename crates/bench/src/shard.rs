//! The sharded sweep engine behind `profess-shard`: supervisor-side
//! policy for dealing checkpoint cells to worker *processes*,
//! re-dealing the cells of dead workers, and merging per-worker shard
//! journals back into one canonical artifact.
//!
//! [`profess_par::WorkerPool`] owns the mechanism (spawn the current
//! executable, line I/O, kill/reap/classify); this module owns the
//! protocol and the state machine:
//!
//! - **Shard unit**: one checkpoint-journal cell key. Workers journal
//!   each finished cell into `CHECKPOINT_<name>.shard<k>.jsonl` using
//!   the exact [`crate::checkpoint`] line codec, so a shard journal is
//!   a plain checkpoint journal that happens to hold a subset of keys.
//! - **Frames** ([`Frame`]): line-delimited JSON. The supervisor sends
//!   `cell` frames; a worker answers each with `start` (refreshing its
//!   deadline) and `done`. Closing the worker's stdin means "no more
//!   cells" and the worker exits 0.
//! - **Re-dealing**: a worker that dies (abort, signal, missed
//!   deadline, protocol garbage) with a cell in flight returns that
//!   cell to the front of the queue. Each cell may be dealt at most
//!   `deal_budget` times (the in-process retry budget plus one);
//!   beyond that the run is declared lost ([`ShardOutcome::lost`]) and
//!   the caller exits [`crate::exit::WORKER_LOST`]. A `done` frame
//!   with `status: "failed"` is a *terminal* cell failure — the worker
//!   survived and the cell's own retries are exhausted — and is never
//!   re-dealt.
//! - **Merging** ([`merge_shards`]): shard journals are folded into
//!   the merged journal in canonical spec order, so the merged file is
//!   byte-identical to the journal a serial in-process sweep writes.
//!   Identical duplicate lines (a cell re-dealt after the journal
//!   write raced the crash) are benign; the same key with *different*
//!   bytes is a determinism violation and fails the merge.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use profess_core::system::PolicyKind;
use profess_metrics::Json;
use profess_par::{WorkerEvent, WorkerExit, WorkerPool};
use profess_trace::Workload;
use profess_types::SystemConfig;

use crate::checkpoint::{decode_line, Journal};
use crate::surface::{SurfaceCells, SurfaceSpec};
use crate::{run_keyed_cell, CellSweep, NormalizedCells, SuperviseConfig};

/// The sweep a sharded run deals to worker processes, one keyed cell
/// at a time. Supervisor and workers derive it identically from the
/// same arguments and environment, so both sides agree on every key.
#[derive(Debug, Clone)]
pub enum ShardSweep {
    /// The cells of [`crate::normalized_sweep_supervised`] for `policy`.
    Normalized {
        /// The policy normalized against PoM.
        policy: PolicyKind,
        /// Memory operations per program.
        target_misses: u64,
        /// The workloads swept.
        workloads: Vec<Workload>,
    },
    /// The cells of [`crate::surface::surface_sweep`].
    Surface(SurfaceSpec),
}

impl ShardSweep {
    /// Every cell key, in canonical spec order: the shard units, and
    /// the line order of a merged shard journal.
    pub fn cell_keys(&self, cfg: &SystemConfig) -> Vec<String> {
        fn keys<S: CellSweep>(sweep: S) -> Vec<String> {
            sweep.specs().into_iter().map(|s| s.key).collect()
        }
        match self {
            ShardSweep::Normalized {
                policy,
                target_misses,
                workloads,
            } => keys(NormalizedCells {
                cfg,
                policy: *policy,
                target_misses: *target_misses,
                workloads,
            }),
            ShardSweep::Surface(spec) => keys(SurfaceCells { cfg, spec }),
        }
    }

    /// Runs (or skips, when already journaled) the one cell keyed
    /// `key` — a worker's unit of work. `Err` carries the terminal
    /// failure, or names a key that is not one of the sweep's cells.
    pub fn run_cell(
        &self,
        cfg: &SystemConfig,
        sup: &SuperviseConfig,
        journal: &Journal,
        key: &str,
    ) -> Result<(), String> {
        match self {
            ShardSweep::Normalized {
                policy,
                target_misses,
                workloads,
            } => {
                let sweep = NormalizedCells {
                    cfg,
                    policy: *policy,
                    target_misses: *target_misses,
                    workloads,
                };
                run_keyed_cell(&sweep, sup, journal, key)
            }
            ShardSweep::Surface(spec) => {
                run_keyed_cell(&SurfaceCells { cfg, spec }, sup, journal, key)
            }
        }
    }
}

/// One line of the supervisor↔worker protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Supervisor → worker: run this cell.
    Cell {
        /// The cell's checkpoint-journal key.
        key: String,
    },
    /// Worker → supervisor: protocol handshake, sent once on startup.
    Hello {
        /// The worker's own index (`--worker k`).
        worker: usize,
    },
    /// Worker → supervisor: beginning a dealt cell (refreshes the
    /// supervisor's per-worker deadline).
    Start {
        /// The cell being started.
        key: String,
    },
    /// Worker → supervisor: a dealt cell finished.
    Done {
        /// The cell that finished.
        key: String,
        /// Did it succeed (journaled) or fail terminally?
        ok: bool,
        /// The failure description when `ok` is false.
        error: Option<String>,
    },
}

impl Frame {
    /// Renders the frame as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let j = match self {
            Frame::Cell { key } => Json::obj([
                ("type", Json::Str("cell".to_string())),
                ("key", Json::Str(key.clone())),
            ]),
            Frame::Hello { worker } => Json::obj([
                ("type", Json::Str("hello".to_string())),
                ("worker", Json::UInt(*worker as u64)),
            ]),
            Frame::Start { key } => Json::obj([
                ("type", Json::Str("start".to_string())),
                ("key", Json::Str(key.clone())),
            ]),
            Frame::Done { key, ok, error } => Json::obj([
                ("type", Json::Str("done".to_string())),
                ("key", Json::Str(key.clone())),
                (
                    "status",
                    Json::Str(if *ok { "ok" } else { "failed" }.to_string()),
                ),
                (
                    "error",
                    match error {
                        Some(e) => Json::Str(e.clone()),
                        None => Json::Null,
                    },
                ),
            ]),
        };
        j.to_string()
    }

    /// Parses one protocol line. Anything undecodable is an `Err` —
    /// the supervisor treats it as a protocol violation and kills the
    /// worker; a worker treats it as a fatal supervisor bug.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let j = Json::parse(line).map_err(|e| format!("bad frame `{line}`: {e}"))?;
        let Some(Json::Str(ty)) = j.get("type") else {
            return Err(format!("bad frame `{line}`: missing type"));
        };
        let key = || -> Result<String, String> {
            match j.get("key") {
                Some(Json::Str(k)) => Ok(k.clone()),
                _ => Err(format!("bad frame `{line}`: missing key")),
            }
        };
        match ty.as_str() {
            "cell" => Ok(Frame::Cell { key: key()? }),
            "start" => Ok(Frame::Start { key: key()? }),
            "hello" => match j.get("worker").and_then(Json::as_u64) {
                Some(w) => Ok(Frame::Hello { worker: w as usize }),
                None => Err(format!("bad frame `{line}`: missing worker")),
            },
            "done" => {
                let ok = match j.get("status").and_then(Json::as_str) {
                    Some("ok") => true,
                    Some("failed") => false,
                    _ => return Err(format!("bad frame `{line}`: bad status")),
                };
                let error = match j.get("error") {
                    Some(Json::Str(e)) => Some(e.clone()),
                    _ => None,
                };
                Ok(Frame::Done {
                    key: key()?,
                    ok,
                    error,
                })
            }
            other => Err(format!("bad frame `{line}`: unknown type `{other}`")),
        }
    }
}

/// The shard journal a worker writes:
/// `<dir>/CHECKPOINT_<name>.shard<worker>.jsonl`.
pub fn shard_journal_path(dir: &Path, name: &str, worker: usize) -> PathBuf {
    dir.join(format!("CHECKPOINT_{name}.shard{worker}.jsonl"))
}

/// The merged journal: `<dir>/CHECKPOINT_<name>.jsonl` — the
/// same path an in-process checkpointed sweep uses.
pub fn main_journal_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("CHECKPOINT_{name}.jsonl"))
}

/// What [`merge_shards`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Spec cells present in the merged journal.
    pub cells: usize,
    /// Benign byte-identical duplicate lines dropped.
    pub duplicates: usize,
    /// Valid lines skipped because their key is not a spec cell
    /// (snapshot entries, cells of another sweep sharing the file).
    pub foreign: usize,
    /// Undecodable lines dropped (torn tails of crashed workers).
    pub dropped: usize,
}

/// Folds shard journals into the merged journal, rewriting it in
/// canonical `spec_keys` order (atomically: temp file + rename).
///
/// Lines that fail the checkpoint codec are dropped with a warning —
/// a worker killed mid-write leaves a torn final line, and losing
/// that cell (it gets re-run) is the correct recovery. Two sources
/// supplying the *same key with different bytes* is a determinism
/// violation and fails the whole merge; byte-identical duplicates
/// collapse to one line. Missing shard files are treated as empty.
pub fn merge_shards(
    merged: &Path,
    shards: &[PathBuf],
    spec_keys: &[String],
) -> Result<MergeStats, String> {
    let spec_set: BTreeSet<&str> = spec_keys.iter().map(String::as_str).collect();
    let mut chosen: BTreeMap<String, String> = BTreeMap::new();
    let mut stats = MergeStats::default();
    for path in std::iter::once(merged).chain(shards.iter().map(PathBuf::as_path)) {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let Some((key, _payload)) = decode_line(line) else {
                eprintln!(
                    "warning: {}: dropping undecodable journal line",
                    path.display()
                );
                stats.dropped += 1;
                continue;
            };
            if !spec_set.contains(key.as_str()) {
                stats.foreign += 1;
                continue;
            }
            match chosen.get(&key) {
                None => {
                    chosen.insert(key, line.to_string());
                }
                Some(prev) if prev == line => stats.duplicates += 1,
                Some(prev) => {
                    return Err(format!(
                        "conflicting results for cell key `{key}`:\n  {prev}\n  {line}"
                    ));
                }
            }
        }
    }
    let mut out = String::new();
    for key in spec_keys {
        if let Some(line) = chosen.get(key) {
            out.push_str(line);
            out.push('\n');
            stats.cells += 1;
        }
    }
    if let Some(parent) = merged.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let tmp = merged.with_extension("jsonl.tmp");
    std::fs::write(&tmp, out).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, merged).map_err(|e| format!("{}: {e}", merged.display()))?;
    Ok(stats)
}

/// Strictly reads a *merged* journal for `shardcheck`: the raw line
/// per cell key. Errors on an undecodable line or a duplicate key —
/// a merged journal is exactly one line per cell, in spec order, so a
/// re-dealt cell that executed twice (two lines for one key) is a
/// supervisor bug this surfaces.
pub fn merged_lines(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let Some((key, _)) = decode_line(line) else {
            return Err(format!("{}:{lineno}: undecodable line", path.display()));
        };
        if lines.insert(key.clone(), line.to_string()).is_some() {
            return Err(format!(
                "{}:{lineno}: duplicate cell key `{key}` in merged journal",
                path.display()
            ));
        }
    }
    Ok(lines)
}

/// Tolerantly reads a *shard* journal: `(key, raw line)` for every
/// decodable line (duplicates included), plus the count of dropped
/// undecodable lines — a worker killed mid-write legitimately leaves
/// a torn tail. A missing file is an empty shard.
pub fn shard_lines(path: &Path) -> Result<(Vec<(String, String)>, usize), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut lines = Vec::new();
    let mut dropped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match decode_line(line) {
            Some((key, _)) => lines.push((key, line.to_string())),
            None => dropped += 1,
        }
    }
    Ok((lines, dropped))
}

/// The supervisor's plan for one sharded run.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Worker processes to spawn.
    pub workers: usize,
    /// Worker-mode argv for the re-exec (everything but the trailing
    /// `--worker <k>`, which [`run_sharded`] appends per spawn). Workers
    /// inherit the supervisor's environment, `PROFESS_FAULT` included.
    pub worker_args: Vec<String>,
    /// Deals allowed per cell: the in-process retry budget plus one
    /// (initial deal). Exceeding it declares the run lost.
    pub deal_budget: u32,
    /// Supervisor-side deadline per dealt cell; refreshed by `start`
    /// frames. `None` disables the watchdog (a hung worker then
    /// blocks until killed externally).
    pub deadline: Option<Duration>,
}

/// What a sharded worker phase produced. The caller merges shard
/// journals afterwards regardless — completed cells stay durable even
/// when the run is lost.
#[derive(Debug, Clone, Default)]
pub struct ShardOutcome {
    /// Cells workers reported `done`/`ok` (journaled in their shard).
    pub finished: Vec<String>,
    /// Terminal per-cell failures `(key, error)` — the worker
    /// survived, the cell's retries are exhausted. Never re-dealt.
    pub failed: Vec<(String, String)>,
    /// Exit classification per spawned worker, in reap order.
    pub exits: Vec<(usize, WorkerExit)>,
    /// Cells never dealt to a finishing worker (spawn failed or every
    /// worker died with budget to spare): the caller's in-process
    /// fallback executes them.
    pub leftover: Vec<String>,
    /// Set when a cell exceeded `deal_budget` — `(cell key, deals
    /// performed)`: the run is lost, and the caller reports
    /// `SimError::WorkerLost` and exits [`crate::exit::WORKER_LOST`].
    pub lost: Option<(String, u32)>,
}

/// Per-worker supervisor state.
#[derive(Debug, Default)]
struct WorkerState {
    alive: bool,
    inflight: Option<String>,
    deadline: Option<Instant>,
    /// Classification decided before a supervisor-initiated kill
    /// (timeout, protocol violation); consumed when the Eof arrives.
    pending_class: Option<WorkerExit>,
}

/// Runs the worker phase: spawns up to `plan.workers` processes,
/// deals `keys` one cell at a time per worker, re-deals the in-flight
/// cells of dead workers, and reaps everything before returning.
///
/// Cells are dealt dynamically (fastest worker pulls next), which is
/// safe because results are keyed and [`merge_shards`] restores
/// canonical order — scheduling never reaches the artifact bytes.
pub fn run_sharded(plan: &ShardPlan, keys: &[String]) -> ShardOutcome {
    let mut out = ShardOutcome::default();
    let mut queue: VecDeque<String> = keys.iter().cloned().collect();
    if queue.is_empty() || plan.workers == 0 {
        out.leftover = queue.into_iter().collect();
        return out;
    }

    let mut pool = WorkerPool::new();
    let mut st: Vec<WorkerState> = Vec::new();
    for _ in 0..plan.workers.min(queue.len()) {
        let k = pool.len();
        let mut args = plan.worker_args.clone();
        args.push("--worker".to_string());
        args.push(k.to_string());
        // profess: allow(thread_spawn): WorkerPool::spawn forks a worker *process* via profess-par, not a thread
        match pool.spawn(&args) {
            Ok(_) => st.push(WorkerState {
                alive: true,
                ..WorkerState::default()
            }),
            Err(e) => {
                // Likely systemic (fd limit, fork failure): stop
                // spawning; whatever was spawned still works the queue.
                eprintln!("profess-shard: worker {k}: {e}; degrading");
                break;
            }
        }
    }
    if pool.is_empty() {
        out.leftover = queue.into_iter().collect();
        return out;
    }

    let mut deals: BTreeMap<String, u32> = BTreeMap::new();
    let tick = Duration::from_millis(50);
    loop {
        // Deal one cell to every idle surviving worker.
        for w in 0..pool.len() {
            if !st[w].alive || st[w].inflight.is_some() {
                continue;
            }
            let Some(key) = queue.pop_front() else { break };
            let n = deals.entry(key.clone()).or_insert(0);
            *n += 1;
            if *n > plan.deal_budget {
                out.lost = Some((key.clone(), *n - 1));
                queue.push_front(key);
                break;
            }
            if pool
                .send(w, &Frame::Cell { key: key.clone() }.to_line())
                .is_ok()
            {
                // profess: allow(determinism_taint): watchdog deadline only; cell payloads come from worker journals
                st[w].deadline = plan.deadline.map(|d| Instant::now() + d);
                st[w].inflight = Some(key);
            } else {
                // Died mid-write: refund the deal, requeue; its Eof
                // event will classify it.
                *deals.entry(key.clone()).or_insert(1) -= 1;
                queue.push_front(key);
                st[w].alive = false;
            }
        }
        let inflight_any = st.iter().any(|s| s.inflight.is_some());
        if out.lost.is_some() || (queue.is_empty() && !inflight_any) {
            break;
        }
        if !st.iter().any(|s| s.alive) {
            break; // no survivors: leftover work degrades to in-process
        }

        match pool.next_event(tick) {
            Some((w, WorkerEvent::Line(line))) => match Frame::parse(&line) {
                Ok(Frame::Hello { .. }) => {}
                Ok(Frame::Start { .. }) => {
                    if st[w].alive {
                        // profess: allow(determinism_taint): watchdog deadline refresh, never in artifacts
                        st[w].deadline = plan.deadline.map(|d| Instant::now() + d);
                    }
                }
                Ok(Frame::Done { key, ok, error }) => {
                    if st[w].inflight.as_deref() == Some(key.as_str()) {
                        st[w].inflight = None;
                        st[w].deadline = None;
                    }
                    if ok {
                        out.finished.push(key);
                    } else {
                        out.failed.push((key, error.unwrap_or_default()));
                    }
                }
                Ok(Frame::Cell { .. }) | Err(_) => {
                    let msg = format!("unexpected frame `{line}`");
                    eprintln!("profess-shard: worker {w}: {msg}; killing");
                    st[w].pending_class = Some(WorkerExit::Protocol { msg });
                    kill_and_redeal(&mut pool, &mut st[w], w, &mut queue);
                }
            },
            Some((w, WorkerEvent::Eof)) => {
                let reaped = pool.wait(w);
                let class = st[w].pending_class.take().unwrap_or(reaped);
                st[w].alive = false;
                st[w].deadline = None;
                if let Some(key) = st[w].inflight.take() {
                    eprintln!(
                        "profess-shard: worker {w} died ({}) with cell `{key}` in flight; re-dealing",
                        class.label()
                    );
                    queue.push_front(key);
                }
                out.exits.push((w, class));
            }
            None => {
                // Quiet tick: enforce deadlines.
                // profess: allow(determinism_taint): watchdog comparison only; timed-out cells are re-run, not fabricated
                let now = Instant::now();
                for w in 0..pool.len() {
                    if st[w].alive && st[w].deadline.is_some_and(|dl| now >= dl) {
                        eprintln!("profess-shard: worker {w} missed its deadline; killing");
                        st[w].pending_class = Some(WorkerExit::TimedOut);
                        kill_and_redeal(&mut pool, &mut st[w], w, &mut queue);
                    }
                }
            }
        }
    }

    // Wind down: close stdins, drain Eofs, reap stragglers.
    for w in 0..pool.len() {
        if st[w].alive {
            pool.close_stdin(w);
        }
    }
    // profess: allow(determinism_taint): wind-down timeout only; decides when to stop reaping, not what was computed
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    // profess: allow(determinism_taint): same wind-down timeout as above
    while st.iter().any(|s| s.alive) && Instant::now() < drain_deadline {
        match pool.next_event(Duration::from_millis(100)) {
            Some((w, WorkerEvent::Eof)) => {
                let reaped = pool.wait(w);
                let class = st[w].pending_class.take().unwrap_or(reaped);
                st[w].alive = false;
                if let Some(key) = st[w].inflight.take() {
                    queue.push_front(key);
                }
                out.exits.push((w, class));
            }
            Some((_, WorkerEvent::Line(_))) | None => {}
        }
    }
    for w in 0..pool.len() {
        if st[w].alive {
            pool.kill(w);
            let reaped = pool.wait(w);
            let class = st[w].pending_class.take().unwrap_or(reaped);
            st[w].alive = false;
            if let Some(key) = st[w].inflight.take() {
                queue.push_front(key);
            }
            out.exits.push((w, class));
        }
    }
    out.leftover = queue.into_iter().collect();
    out
}

/// Kills worker `w` after a supervisor-side classification
/// ([`WorkerState::pending_class`] must already be set) and returns
/// its in-flight cell to the front of the queue.
fn kill_and_redeal(
    pool: &mut WorkerPool,
    st: &mut WorkerState,
    w: usize,
    queue: &mut VecDeque<String>,
) {
    pool.kill(w);
    st.alive = false;
    st.deadline = None;
    if let Some(key) = st.inflight.take() {
        queue.push_front(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::encode_line;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("profess-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    // `encode_line` includes the trailing newline; strip it so tests
    // can place lines explicitly.
    fn line(key: &str, v: u64) -> String {
        encode_line(key, &Json::obj([("v", Json::UInt(v))]))
            .trim_end()
            .to_string()
    }

    #[test]
    fn frames_round_trip() {
        let frames = [
            Frame::Cell {
                key: "solo|pom|p1|abc".to_string(),
            },
            Frame::Hello { worker: 3 },
            Frame::Start {
                key: "multi|mdm|w01|abc".to_string(),
            },
            Frame::Done {
                key: "k".to_string(),
                ok: true,
                error: None,
            },
            Frame::Done {
                key: "k".to_string(),
                ok: false,
                error: Some("panicked: boom".to_string()),
            },
        ];
        for f in &frames {
            let l = f.to_line();
            assert!(!l.contains('\n'), "frames are single lines: {l}");
            assert_eq!(&Frame::parse(&l).unwrap(), f, "round trip of {l}");
        }
        assert!(Frame::parse("not json").is_err());
        assert!(Frame::parse("{\"type\":\"warp\"}").is_err());
        assert!(Frame::parse("{\"type\":\"cell\"}").is_err());
    }

    #[test]
    fn merge_orders_by_spec_and_collapses_identical_duplicates() {
        let dir = tmp_dir("merge-ok");
        let merged = main_journal_path(&dir, "t");
        let s0 = shard_journal_path(&dir, "t", 0);
        let s1 = shard_journal_path(&dir, "t", 1);
        let spec: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        // Main already holds `a`; shard 0 holds c (+ a benign duplicate
        // of `a` and a snapshot key); shard 1 holds b and a torn line.
        std::fs::write(&merged, format!("{}\n", line("a", 1))).unwrap();
        std::fs::write(
            &s0,
            format!(
                "{}\n{}\n{}\n",
                line("c", 3),
                line("a", 1),
                line("snapshot|a", 9)
            ),
        )
        .unwrap();
        std::fs::write(&s1, format!("{}\n{{\"key\":\"d\",\"fp\"", line("b", 2))).unwrap();
        let stats = merge_shards(&merged, &[s0, s1], &spec).unwrap();
        assert_eq!(
            stats,
            MergeStats {
                cells: 3,
                duplicates: 1,
                foreign: 1,
                dropped: 1
            }
        );
        let text = std::fs::read_to_string(&merged).unwrap();
        let expect = format!("{}\n{}\n{}\n", line("a", 1), line("b", 2), line("c", 3));
        assert_eq!(text, expect, "spec order, duplicates collapsed");
        // Re-merging with no shards is idempotent.
        let again = merge_shards(&merged, &[], &spec).unwrap();
        assert_eq!(again.cells, 3);
        assert_eq!(std::fs::read_to_string(&merged).unwrap(), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_conflicting_results_for_one_key() {
        let dir = tmp_dir("merge-conflict");
        let merged = main_journal_path(&dir, "t");
        let s0 = shard_journal_path(&dir, "t", 0);
        std::fs::write(&merged, format!("{}\n", line("a", 1))).unwrap();
        std::fs::write(&s0, format!("{}\n", line("a", 2))).unwrap();
        let spec = vec!["a".to_string()];
        let err = merge_shards(&merged, &[s0], &spec).unwrap_err();
        assert!(err.contains("conflicting results"), "{err}");
        assert!(err.contains('a'), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_treats_missing_shards_as_empty() {
        let dir = tmp_dir("merge-missing");
        let merged = main_journal_path(&dir, "t");
        std::fs::write(&merged, format!("{}\n", line("a", 1))).unwrap();
        let ghost = shard_journal_path(&dir, "t", 7);
        let spec = vec!["a".to_string()];
        let stats = merge_shards(&merged, &[ghost], &spec).unwrap();
        assert_eq!(stats.cells, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_sharded_with_no_workers_leaves_everything_over() {
        let plan = ShardPlan {
            workers: 0,
            worker_args: vec![],
            deal_budget: 2,
            deadline: None,
        };
        let keys = vec!["a".to_string(), "b".to_string()];
        let out = run_sharded(&plan, &keys);
        assert_eq!(out.leftover, keys);
        assert!(out.finished.is_empty());
        assert!(out.lost.is_none());
    }
}
