//! Worker-*process* supervision for sharded sweeps: spawn, message,
//! watch, kill, and classify child processes of the current binary.
//!
//! [`crate::supervise`] contains failures inside one process — a
//! panicking cell unwinds, a stalled cell is cancelled. This module is
//! the next isolation ring out: the shard supervisor (`profess-shard`
//! in `profess-bench`) re-execs the **current executable** as N worker
//! processes and talks to them over line-delimited stdin/stdout, so a
//! worker that aborts, segfaults, or wedges takes down only its own
//! address space. The policy — what to deal, when a silent worker is
//! dead, where its cells go — lives with the caller; this module owns
//! the mechanism: process lifecycle, non-blocking line I/O (one reader
//! thread per worker feeding a shared channel), and exit
//! classification. Worker-process faults are ordinary
//! [`crate::FaultPlan`] entries (`worker_kill@k`/`worker_hang@k` in
//! `PROFESS_FAULT`), which workers inherit with the rest of the
//! environment.
//!
//! Everything here is std-only: `std::process::Command` +
//! `std::sync::mpsc`, no dependencies, per the workspace's hermetic
//! policy. Spawned programs are always `std::env::current_exe()` — the
//! `process_spawn` lint enforces that no other module in the workspace
//! launches processes at all.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// How a worker process ended, as the supervisor classifies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerExit {
    /// Exited 0.
    Ok,
    /// Exited non-zero (a Rust panic in a worker exits 101; an
    /// injected task fault exits [`crate::supervise::FAULT_EXIT_CODE`]).
    Panicked {
        /// The exit code.
        code: i32,
    },
    /// Died without an exit code (killed by a signal: SIGKILL,
    /// SIGABRT, segfault).
    Killed,
    /// Missed its deadline and was killed by the supervisor's
    /// watchdog (classified by the caller before the kill).
    TimedOut,
    /// Spoke garbage on the protocol channel and was killed
    /// (classified by the caller before the kill).
    Protocol {
        /// What was wrong with the frame.
        msg: String,
    },
}

impl WorkerExit {
    /// A stable machine-readable label (`ok`, `panicked`, `killed`,
    /// `timed_out`, `protocol_error`).
    pub fn label(&self) -> &'static str {
        match self {
            WorkerExit::Ok => "ok",
            WorkerExit::Panicked { .. } => "panicked",
            WorkerExit::Killed => "killed",
            WorkerExit::TimedOut => "timed_out",
            WorkerExit::Protocol { .. } => "protocol_error",
        }
    }

    /// Did the worker finish cleanly?
    pub fn is_ok(&self) -> bool {
        matches!(self, WorkerExit::Ok)
    }
}

/// An event from some worker's stdout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerEvent {
    /// One line (without the trailing newline).
    Line(String),
    /// The worker closed its stdout (it exited or is about to).
    Eof,
}

/// One live (or reaped) worker process.
#[derive(Debug)]
struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
}

/// A set of worker processes re-exec'd from the current binary, with
/// line-based I/O multiplexed onto one event channel.
///
/// Each spawned worker gets a reader thread draining its stdout into
/// the shared channel as [`WorkerEvent`]s tagged with the worker
/// index, so the supervisor can `select` across all workers with one
/// timed [`WorkerPool::next_event`] loop and never blocks on a dead
/// or silent child. Stderr is inherited — worker diagnostics go to
/// the terminal, the protocol owns stdout exclusively.
#[derive(Debug)]
pub struct WorkerPool {
    workers: Vec<Worker>,
    tx: Sender<(usize, WorkerEvent)>,
    rx: Receiver<(usize, WorkerEvent)>,
}

impl Default for WorkerPool {
    fn default() -> WorkerPool {
        WorkerPool::new()
    }
}

impl WorkerPool {
    /// An empty pool.
    pub fn new() -> WorkerPool {
        let (tx, rx) = channel();
        WorkerPool {
            workers: Vec::new(),
            tx,
            rx,
        }
    }

    /// How many workers have been spawned (alive or not).
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Has nothing been spawned?
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Spawns one worker: the **current executable** with `args` and
    /// the inherited environment, stdin/stdout piped for the protocol,
    /// stderr inherited. Returns the worker's index in this pool.
    ///
    /// A spawn failure is an `Err`, not a panic — the caller degrades
    /// to in-process execution.
    pub fn spawn(&mut self, args: &[String]) -> Result<usize, String> {
        let mut child =
            Command::new(std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?)
                .args(args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn worker: {e}"))?;
        let id = self.workers.len();
        let stdin = child.stdin.take();
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("spawn worker: no stdout pipe".to_string());
        };
        let tx = self.tx.clone();
        // The reader thread lives until the worker closes stdout (or
        // dies); send failures just mean the pool is gone.
        std::thread::spawn(move || {
            let reader = BufReader::new(stdout);
            for line in reader.lines() {
                match line {
                    Ok(l) => {
                        if tx.send((id, WorkerEvent::Line(l))).is_err() {
                            return;
                        }
                    }
                    Err(_) => break,
                }
            }
            let _ = tx.send((id, WorkerEvent::Eof));
        });
        self.workers.push(Worker { child, stdin });
        Ok(id)
    }

    /// Sends one protocol line (newline appended) to worker `w`'s
    /// stdin. An I/O error usually means the worker died mid-write;
    /// the caller will see its `Eof` shortly.
    pub fn send(&mut self, w: usize, line: &str) -> Result<(), String> {
        let worker = self
            .workers
            .get_mut(w)
            .ok_or_else(|| format!("no worker {w}"))?;
        let stdin = worker
            .stdin
            .as_mut()
            .ok_or_else(|| format!("worker {w}: stdin already closed"))?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("worker {w}: write: {e}"))
    }

    /// Closes worker `w`'s stdin — the protocol's way of saying "no
    /// more cells"; the worker drains and exits 0.
    pub fn close_stdin(&mut self, w: usize) {
        if let Some(worker) = self.workers.get_mut(w) {
            worker.stdin = None;
        }
    }

    /// Waits up to `timeout` for the next event from any worker.
    /// `None` means the interval elapsed quietly (the caller's chance
    /// to check deadlines).
    pub fn next_event(&self, timeout: Duration) -> Option<(usize, WorkerEvent)> {
        match self.rx.recv_timeout(timeout) {
            Ok(ev) => Some(ev),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Kills worker `w` (SIGKILL). Idempotent; errors (already dead)
    /// are ignored — `wait` still reaps and classifies it.
    pub fn kill(&mut self, w: usize) {
        if let Some(worker) = self.workers.get_mut(w) {
            worker.stdin = None;
            let _ = worker.child.kill();
        }
    }

    /// Reaps worker `w` and classifies its death: exit 0 → [`Ok`],
    /// non-zero → [`Panicked`], no code (signal) → [`Killed`].
    ///
    /// [`Ok`]: WorkerExit::Ok
    /// [`Panicked`]: WorkerExit::Panicked
    /// [`Killed`]: WorkerExit::Killed
    pub fn wait(&mut self, w: usize) -> WorkerExit {
        let Some(worker) = self.workers.get_mut(w) else {
            return WorkerExit::Protocol {
                msg: format!("no worker {w}"),
            };
        };
        worker.stdin = None;
        match worker.child.wait() {
            Ok(status) => match status.code() {
                Some(0) => WorkerExit::Ok,
                Some(code) => WorkerExit::Panicked { code },
                None => WorkerExit::Killed,
            },
            Err(e) => WorkerExit::Protocol {
                msg: format!("wait: {e}"),
            },
        }
    }
}

impl Drop for WorkerPool {
    /// No worker outlives its supervisor: anything still running is
    /// killed and reaped, so an early supervisor exit (usage error,
    /// panic) cannot leak orphan simulator processes.
    fn drop(&mut self) {
        for w in &mut self.workers {
            w.stdin = None;
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_exit_labels_are_stable() {
        assert_eq!(WorkerExit::Ok.label(), "ok");
        assert!(WorkerExit::Ok.is_ok());
        assert_eq!(WorkerExit::Panicked { code: 101 }.label(), "panicked");
        assert_eq!(WorkerExit::Killed.label(), "killed");
        assert_eq!(WorkerExit::TimedOut.label(), "timed_out");
        assert_eq!(
            WorkerExit::Protocol { msg: "m".into() }.label(),
            "protocol_error"
        );
        assert!(!WorkerExit::Killed.is_ok());
    }

    #[test]
    fn empty_pool_yields_no_events() {
        let pool = WorkerPool::new();
        assert!(pool.is_empty());
        assert_eq!(pool.len(), 0);
        assert!(pool.next_event(Duration::from_millis(5)).is_none());
    }
}
