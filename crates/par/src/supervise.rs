//! Supervised task execution: per-task fault isolation, bounded
//! deterministic retries, cooperative timeouts, and fault injection.
//!
//! [`Pool::map`](crate::Pool::map) is all-or-nothing: one worker panic
//! aborts the whole batch via `resume_unwind`, and a hung task stalls
//! the pool forever. [`Pool::try_run_supervised`](crate::Pool::try_run_supervised)
//! instead wraps every attempt in `catch_unwind`, treats a returned
//! `Err` exactly like a panic, and returns a [`TaskOutcome`] per input
//! slot, so one bad cell cannot take down a sweep of hundreds.
//!
//! Determinism contract: supervision never feeds wall time or attempt
//! counts into a task's *result* — a task that succeeds returns exactly
//! the bytes it would have returned under [`Pool::map`](crate::Pool::map).
//! The wall clock is read only by the watchdog, and only to decide when
//! to fire a [`CancelToken`]; timeouts are opt-in and off by default.
//!
//! Fault injection ([`FaultPlan`], `PROFESS_FAULT`) deterministically
//! targets task *indices* and attempts, so every recovery path (panic,
//! stall, process exit) is exercisable from tests and CI without
//! touching the task code. Every attempt runs on a pool thread: a hung
//! attempt is ended by its cancel token, and a killed process is
//! recovered by the caller's checkpoint journal on the next run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::Pool;

/// Env var holding a [`FaultPlan`] spec (see [`FaultPlan::parse`]).
pub const FAULT_ENV: &str = "PROFESS_FAULT";
/// Env var overriding [`SuperviseConfig::retries`].
pub const RETRIES_ENV: &str = "PROFESS_RETRIES";
/// Env var overriding [`SuperviseConfig::timeout`], in milliseconds
/// (`0` disables the watchdog).
pub const TIMEOUT_ENV: &str = "PROFESS_TASK_TIMEOUT_MS";

/// The process exit code used by the `exit` fault kind (a deterministic
/// stand-in for `kill -9` in resume tests).
pub const FAULT_EXIT_CODE: i32 = 86;

/// How a supervised attempt's failure reads when its watchdog fired:
/// the [`TaskOutcome::TimedOut`] error and the text a timed-out attempt
/// leaves in [`Supervised::history`] (`attempt N: timed out`).
pub const TIMED_OUT: &str = "timed out";

/// [`CancelToken`] states.
const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const SETTLED: u8 = 2;

/// A shared cancellation flag polled cooperatively by long-running
/// tasks. Cloning yields another handle to the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicU8>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fires the token, unless [`CancelToken::settle`] got there first.
    /// Idempotent.
    pub fn cancel(&self) {
        let _ = self
            .0
            .compare_exchange(LIVE, CANCELLED, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Has [`CancelToken::cancel`] fired the token?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire) == CANCELLED
    }

    /// Claims the attempt's result against the watchdog: `false` if the
    /// token already fired, otherwise every later
    /// [`CancelToken::cancel`] is a no-op, so the supervisor accepts the
    /// result. A task calls this right before a side effect that must
    /// happen at most once per cell (journaling it): a cancel landing
    /// after the effect would otherwise count the attempt as timed out
    /// and run the effect again on the retry.
    pub fn settle(&self) -> bool {
        match self
            .0
            .compare_exchange(LIVE, SETTLED, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => true,
            Err(state) => state == SETTLED,
        }
    }
}

/// What finally happened to one supervised task slot.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutcome<R> {
    /// The task returned a value (possibly after retries).
    Ok(R),
    /// The task panicked or returned an error, and no retries were
    /// configured.
    Failed {
        /// The failure: `panicked: <payload>` or the returned error.
        msg: String,
    },
    /// The task's watchdog deadline fired and no retries were
    /// configured.
    TimedOut,
    /// Every allowed attempt failed.
    Exhausted {
        /// Total attempts made (`retries + 1`).
        attempts: u32,
        /// Description of the final failure.
        last_error: String,
    },
}

impl<R> TaskOutcome<R> {
    /// Did the task produce a value?
    pub fn is_ok(&self) -> bool {
        matches!(self, TaskOutcome::Ok(_))
    }

    /// A stable machine-readable label (`ok`, `failed`, `timed_out`,
    /// `exhausted`) for JSON artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            TaskOutcome::Ok(_) => "ok",
            TaskOutcome::Failed { .. } => "failed",
            TaskOutcome::TimedOut => "timed_out",
            TaskOutcome::Exhausted { .. } => "exhausted",
        }
    }

    /// A one-line human description of a failure (`None` for `Ok`).
    pub fn error(&self) -> Option<String> {
        match self {
            TaskOutcome::Ok(_) => None,
            TaskOutcome::Failed { msg } => Some(msg.clone()),
            TaskOutcome::TimedOut => Some(TIMED_OUT.to_string()),
            TaskOutcome::Exhausted {
                attempts,
                last_error,
            } => Some(format!("exhausted after {attempts} attempts: {last_error}")),
        }
    }
}

/// One supervised slot: the outcome plus its full retry history.
#[derive(Debug, Clone, PartialEq)]
pub struct Supervised<R> {
    /// Final outcome for this input slot.
    pub outcome: TaskOutcome<R>,
    /// Attempts actually made (1 when the first try succeeded).
    pub attempts: u32,
    /// One line per *failed* attempt, in attempt order (empty when the
    /// first try succeeded).
    pub history: Vec<String>,
}

/// Per-attempt context handed to a supervised task.
#[derive(Debug)]
pub struct TaskCtx<'a> {
    /// 1-based attempt number. Tasks must not let this affect their
    /// result — it exists for logging and fault injection only.
    pub attempt: u32,
    /// Cooperative cancellation flag; long-running tasks should poll it
    /// and bail out promptly once fired.
    pub cancel: &'a CancelToken,
}

/// Which failure a [`Fault`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at attempt start.
    Panic,
    /// Busy-wait until the watchdog cancels, then abort the attempt
    /// (classified as a timeout). Requires a configured timeout,
    /// otherwise the task genuinely hangs — which is the point.
    Stall,
    /// Terminate the whole process with [`FAULT_EXIT_CODE`], simulating
    /// an external kill for checkpoint/resume tests.
    Exit,
}

impl FaultKind {
    const ALL: [FaultKind; 3] = [FaultKind::Panic, FaultKind::Stall, FaultKind::Exit];

    /// The kind's name in a `PROFESS_FAULT` spec.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Stall => "stall",
            FaultKind::Exit => "exit",
        }
    }

    fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One injected fault: it fires on task `index` for the first `times`
/// attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The failure to inject.
    pub kind: FaultKind,
    /// The task slot it targets.
    pub index: usize,
    /// How many attempts it poisons (attempts beyond this succeed).
    pub times: u32,
}

/// A deterministic fault-injection schedule, keyed by task index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parses a spec: comma-separated `kind@index[*times]` entries,
    /// e.g. `panic@3`, `panic@0*2,stall@5`, `exit@7`. Kinds are
    /// `panic`, `stall` and `exit`; `times` defaults to 1. An empty spec
    /// is the empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind_s, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault `{entry}`: expected kind@index[*times]"))?;
            let kind = FaultKind::parse(kind_s)
                .ok_or_else(|| format!("fault `{entry}`: unknown kind `{kind_s}`"))?;
            let (index_s, times_s) = match rest.split_once('*') {
                Some((i, t)) => (i, Some(t)),
                None => (rest, None),
            };
            let index = index_s
                .parse::<usize>()
                .map_err(|_| format!("fault `{entry}`: bad index `{index_s}`"))?;
            let times = match times_s {
                Some(t) => t
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("fault `{entry}`: bad times `{t}`"))?,
                None => 1,
            };
            faults.push(Fault { kind, index, times });
        }
        Ok(FaultPlan { faults })
    }

    /// Reads the plan from `PROFESS_FAULT` (empty plan when unset).
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var(FAULT_ENV) {
            Ok(spec) => FaultPlan::parse(&spec),
            Err(_) => Ok(FaultPlan::none()),
        }
    }

    /// Fires any fault scheduled for (`index`, `attempt`). Called at
    /// attempt start, inside the catch_unwind boundary.
    fn trigger(&self, index: usize, attempt: u32, cancel: &CancelToken) {
        for f in &self.faults {
            if f.index != index || attempt > f.times {
                continue;
            }
            match f.kind {
                #[expect(clippy::panic, reason = "the entire purpose of the injected fault")]
                FaultKind::Panic => {
                    panic!("injected fault: panic (task {index}, attempt {attempt})")
                }
                #[expect(clippy::panic, reason = "unwinds the stalled attempt once cancelled")]
                FaultKind::Stall => {
                    while !cancel.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    panic!("injected fault: stall (task {index}, attempt {attempt})")
                }
                FaultKind::Exit => std::process::exit(FAULT_EXIT_CODE),
            }
        }
    }
}

/// Configuration for [`Pool::try_run_supervised`](crate::Pool::try_run_supervised).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// Extra attempts after a failed one (total attempts = retries + 1).
    pub retries: u32,
    /// Per-attempt watchdog deadline. `None` disables the watchdog (no
    /// wall-clock reads at all).
    pub timeout: Option<Duration>,
    /// Deterministic fault injection schedule.
    pub faults: FaultPlan,
}

impl Default for SuperviseConfig {
    fn default() -> SuperviseConfig {
        SuperviseConfig {
            retries: 1,
            timeout: None,
            faults: FaultPlan::none(),
        }
    }
}

impl SuperviseConfig {
    /// The default config overridden by `PROFESS_RETRIES`,
    /// `PROFESS_TASK_TIMEOUT_MS` (0 = no watchdog), and
    /// `PROFESS_FAULT`. Invalid values are an error, not a silent
    /// default: a typo'd fault plan must not quietly run fault-free.
    pub fn from_env() -> Result<SuperviseConfig, String> {
        let mut cfg = SuperviseConfig::default();
        if let Ok(v) = std::env::var(RETRIES_ENV) {
            cfg.retries = v
                .trim()
                .parse::<u32>()
                .map_err(|_| format!("{RETRIES_ENV}={v}: expected a non-negative integer"))?;
        }
        if let Ok(v) = std::env::var(TIMEOUT_ENV) {
            let ms = v
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("{TIMEOUT_ENV}={v}: expected milliseconds"))?;
            cfg.timeout = (ms > 0).then(|| Duration::from_millis(ms));
        }
        cfg.faults = FaultPlan::from_env()?;
        Ok(cfg)
    }
}

/// A task currently running under the watchdog.
#[derive(Debug)]
struct Inflight {
    deadline: Instant,
    token: CancelToken,
}

/// Locks a registry slot, shrugging off poison (the guarded state is a
/// plain `Option` that is always valid).
fn lock_slot(slot: &Mutex<Option<Inflight>>) -> std::sync::MutexGuard<'_, Option<Inflight>> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

impl Pool {
    /// [`Pool::try_run_supervised`] for a task that cannot return an
    /// error: only panics and timeouts fail its attempts.
    pub fn run_supervised<T, R, F>(
        &self,
        items: &[T],
        cfg: &SuperviseConfig,
        f: F,
    ) -> Vec<Supervised<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(TaskCtx<'_>, &T) -> R + Sync,
    {
        self.try_run_supervised(items, cfg, |ctx, item| Ok(f(ctx, item)))
    }

    /// Applies `f` to every item under supervision and returns one
    /// [`Supervised`] per input slot, in input order.
    ///
    /// Unlike [`Pool::map`], a failing task does not abort the batch:
    /// each attempt runs under `catch_unwind`, an attempt that panics or
    /// returns `Err` is retried up to `cfg.retries` times, and a
    /// per-attempt watchdog (when `cfg.timeout` is set) fires the
    /// attempt's [`CancelToken`] so cooperative tasks can bail out.
    /// Successful results are byte-identical to what [`Pool::map`]
    /// would have produced.
    pub fn try_run_supervised<T, R, F>(
        &self,
        items: &[T],
        cfg: &SuperviseConfig,
        f: F,
    ) -> Vec<Supervised<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(TaskCtx<'_>, &T) -> Result<R, String> + Sync,
    {
        let Some(timeout) = cfg.timeout else {
            return self.map_indexed(items, |i, item| supervise_one(i, item, cfg, None, &f));
        };
        // One registry slot per item; the watchdog scans them all.
        let registry: Vec<Mutex<Option<Inflight>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let all_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !all_done.load(Ordering::Acquire) {
                    for slot in &registry {
                        if let Some(inflight) = lock_slot(slot).as_ref() {
                            if Instant::now() >= inflight.deadline {
                                inflight.token.cancel();
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
            let out = self.map_indexed(items, |i, item| {
                supervise_one(i, item, cfg, Some((&registry[i], timeout)), &f)
            });
            all_done.store(true, Ordering::Release);
            out
        })
    }
}

/// Runs one slot to completion: attempt, classify, retry, conclude.
fn supervise_one<T, R, F>(
    index: usize,
    item: &T,
    cfg: &SuperviseConfig,
    watch: Option<(&Mutex<Option<Inflight>>, Duration)>,
    f: &F,
) -> Supervised<R>
where
    F: Fn(TaskCtx<'_>, &T) -> Result<R, String>,
{
    let mut history = Vec::new();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let token = CancelToken::new();
        if let Some((slot, timeout)) = watch {
            *lock_slot(slot) = Some(Inflight {
                // The wall-clock deadline only bounds hung tasks; retries are
                // deterministic and journal-keyed.
                deadline: Instant::now() + timeout,
                token: token.clone(),
            });
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            cfg.faults.trigger(index, attempt, &token);
            f(
                TaskCtx {
                    attempt,
                    cancel: &token,
                },
                item,
            )
        }));
        if let Some((slot, _)) = watch {
            *lock_slot(slot) = None;
        }
        // Classify the attempt. A fired token outranks everything: a
        // result produced after cancellation is truncated work, and the
        // stall fault's unwinding panic is a timeout, not a crash.
        let cancelled = token.is_cancelled();
        let (timed_out, failure) = match result {
            Ok(Ok(r)) if !cancelled => {
                return Supervised {
                    outcome: TaskOutcome::Ok(r),
                    attempts: attempt,
                    history,
                };
            }
            Ok(Err(e)) if !cancelled => (false, e),
            Err(payload) if !cancelled => (false, panic_failure(payload.as_ref())),
            _ => (true, TIMED_OUT.to_string()),
        };
        history.push(format!("attempt {attempt}: {failure}"));
        if attempt > cfg.retries {
            let outcome = match (cfg.retries, timed_out) {
                (0, true) => TaskOutcome::TimedOut,
                (0, false) => TaskOutcome::Failed { msg: failure },
                _ => TaskOutcome::Exhausted {
                    attempts: attempt,
                    last_error: failure,
                },
            };
            return Supervised {
                outcome,
                attempts: attempt,
                history,
            };
        }
    }
}

/// How a panicked attempt's failure reads: `panicked: <payload>` (the
/// two payload shapes `panic!` produces, rendered as text).
fn panic_failure(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    };
    format!("panicked: {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet<T>(f: impl FnOnce() -> T) -> T {
        // Injected panics are expected; keep test output readable by
        // not installing anything (the default hook prints once per
        // panic — acceptable noise, and hooks are process-global so a
        // test must not swap them).
        f()
    }

    #[test]
    fn all_ok_matches_map() {
        let items: Vec<u64> = (0..40).collect();
        let cfg = SuperviseConfig::default();
        let out = Pool::new(4).run_supervised(&items, &cfg, |_, &x| x * 3);
        let expect = Pool::new(4).map(&items, |&x| x * 3);
        assert_eq!(out.len(), expect.len());
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s.outcome, TaskOutcome::Ok(expect[i]));
            assert_eq!(s.attempts, 1);
            assert!(s.history.is_empty());
        }
    }

    #[test]
    fn injected_panic_is_isolated_and_retried() {
        let items: Vec<u32> = (0..8).collect();
        let cfg = SuperviseConfig {
            retries: 1,
            timeout: None,
            faults: FaultPlan::parse("panic@3").unwrap(),
        };
        let out = quiet(|| Pool::new(4).run_supervised(&items, &cfg, |_, &x| x + 1));
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s.outcome, TaskOutcome::Ok(items[i] + 1), "slot {i}");
            if i == 3 {
                assert_eq!(s.attempts, 2);
                assert_eq!(s.history.len(), 1);
                assert!(s.history[0].contains("panicked"), "{:?}", s.history);
            } else {
                assert_eq!(s.attempts, 1);
            }
        }
        // A returned error is retried exactly like a panic.
        let cfg = SuperviseConfig::default();
        let out = Pool::new(4).try_run_supervised(&items, &cfg, |ctx, &x| {
            if x == 3 && ctx.attempt == 1 {
                return Err(format!("bad cell {x}"));
            }
            Ok(x + 1)
        });
        assert_eq!(out[3].outcome, TaskOutcome::Ok(4));
        assert_eq!(out[3].attempts, 2);
        assert_eq!(out[3].history, vec!["attempt 1: bad cell 3".to_string()]);
    }

    #[test]
    fn persistent_panic_exhausts() {
        let items: Vec<u32> = (0..4).collect();
        let cfg = SuperviseConfig {
            retries: 2,
            timeout: None,
            faults: FaultPlan::parse("panic@1*99").unwrap(),
        };
        let out = quiet(|| Pool::new(2).run_supervised(&items, &cfg, |_, &x| x));
        match &out[1].outcome {
            TaskOutcome::Exhausted {
                attempts,
                last_error,
            } => {
                assert_eq!(*attempts, 3);
                assert!(last_error.contains("panicked"), "{last_error}");
            }
            o => panic!("expected Exhausted, got {o:?}"),
        }
        assert_eq!(out[1].history.len(), 3);
        assert!(out[0].outcome.is_ok());
        assert!(out[2].outcome.is_ok());
        assert!(out[3].outcome.is_ok());
        // A persistent returned error exhausts the same budget.
        let cfg = SuperviseConfig {
            faults: FaultPlan::none(),
            ..cfg
        };
        let out = Pool::new(2).try_run_supervised(&items, &cfg, |_, &x| {
            if x == 1 {
                return Err("always".to_string());
            }
            Ok(x)
        });
        assert_eq!(
            out[1].outcome,
            TaskOutcome::Exhausted {
                attempts: 3,
                last_error: "always".to_string()
            }
        );
        assert_eq!(out[1].history.len(), 3);
        assert_eq!(out[0].outcome, TaskOutcome::Ok(0));
    }

    #[test]
    fn zero_retries_reports_failed() {
        let items = [0u8, 1];
        let cfg = SuperviseConfig {
            retries: 0,
            timeout: None,
            faults: FaultPlan::parse("panic@0").unwrap(),
        };
        let out = quiet(|| Pool::new(1).run_supervised(&items, &cfg, |_, &x| x));
        match &out[0].outcome {
            TaskOutcome::Failed { msg } => assert!(msg.contains("injected"), "{msg}"),
            o => panic!("expected Failed, got {o:?}"),
        }
        assert_eq!(out[1].outcome, TaskOutcome::Ok(1));
        // A returned error ends `Failed` too, carrying the error text.
        let out = Pool::new(1).try_run_supervised(&items, &cfg, |_, &x| {
            if x == 1 {
                return Err("nope".to_string());
            }
            Ok(x)
        });
        let failed = TaskOutcome::Failed {
            msg: "nope".to_string(),
        };
        assert_eq!(out[1].outcome, failed);
        assert_eq!(out[1].outcome.error().as_deref(), Some("nope"));
        assert_eq!(out[1].attempts, 1);
    }

    #[test]
    fn stall_times_out_via_watchdog() {
        let items: Vec<u32> = (0..4).collect();
        let cfg = SuperviseConfig {
            retries: 0,
            timeout: Some(Duration::from_millis(20)),
            faults: FaultPlan::parse("stall@2").unwrap(),
        };
        for threads in [1, 4] {
            let out = quiet(|| Pool::new(threads).run_supervised(&items, &cfg, |_, &x| x));
            assert_eq!(out[2].outcome, TaskOutcome::TimedOut, "{threads} threads");
            assert!(
                out[2].history[0].contains("timed out"),
                "{:?}",
                out[2].history
            );
            for i in [0usize, 1, 3] {
                assert_eq!(out[i].outcome, TaskOutcome::Ok(items[i]), "slot {i}");
            }
        }
    }

    #[test]
    fn stall_then_recover_on_retry() {
        let items: Vec<u32> = (0..3).collect();
        let cfg = SuperviseConfig {
            retries: 1,
            timeout: Some(Duration::from_millis(20)),
            faults: FaultPlan::parse("stall@1").unwrap(),
        };
        let out = quiet(|| Pool::new(1).run_supervised(&items, &cfg, |_, &x| x * 10));
        assert_eq!(out[1].outcome, TaskOutcome::Ok(10));
        assert_eq!(out[1].attempts, 2);
    }

    #[test]
    fn cooperative_task_sees_cancellation() {
        // A task that polls its token returns early once cancelled; the
        // supervisor still classifies the slot as timed out.
        let items = [0u8];
        let cfg = SuperviseConfig {
            retries: 0,
            timeout: Some(Duration::from_millis(20)),
            faults: FaultPlan::none(),
        };
        let out = Pool::new(1).run_supervised(&items, &cfg, |ctx, _| {
            while !ctx.cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            0u8
        });
        assert_eq!(out[0].outcome, TaskOutcome::TimedOut);
    }

    #[test]
    fn outcomes_identical_across_thread_counts() {
        let items: Vec<u64> = (0..23).collect();
        let cfg = SuperviseConfig {
            retries: 1,
            timeout: None,
            faults: FaultPlan::parse("panic@4,panic@7*99").unwrap(),
        };
        let serial = quiet(|| Pool::new(1).run_supervised(&items, &cfg, |_, &x| x ^ 0xABCD));
        // A fallible task mixing returned errors with the panic faults.
        let fallible = |ctx: TaskCtx<'_>, &x: &u64| {
            if x % 5 == 0 && ctx.attempt == 1 {
                return Err(format!("error at {x}"));
            }
            Ok(x ^ 0xABCD)
        };
        let serial_fallible = quiet(|| Pool::new(1).try_run_supervised(&items, &cfg, fallible));
        assert_eq!(serial_fallible[5].attempts, 2);
        for threads in [2, 4, 8] {
            let par = quiet(|| Pool::new(threads).run_supervised(&items, &cfg, |_, &x| x ^ 0xABCD));
            assert_eq!(par, serial, "{threads} threads diverged");
            let par = quiet(|| Pool::new(threads).try_run_supervised(&items, &cfg, fallible));
            assert_eq!(
                par, serial_fallible,
                "{threads} threads diverged (fallible)"
            );
        }
    }

    #[test]
    fn retry_then_succeed_keeps_input_order_deterministic() {
        // Several slots fail on their first attempt while neighbours run
        // concurrently; the output must stay in input order with results
        // identical to a serial run, and only the faulted slots show a
        // retry history.
        let items: Vec<u64> = (0..16).collect();
        let cfg = SuperviseConfig {
            retries: 1,
            timeout: None,
            faults: FaultPlan::parse("panic@0,panic@5,panic@11,panic@15").unwrap(),
        };
        let serial = quiet(|| Pool::new(1).run_supervised(&items, &cfg, |_, &x| x * 7 + 1));
        let par = quiet(|| Pool::new(4).run_supervised(&items, &cfg, |_, &x| x * 7 + 1));
        assert_eq!(par, serial, "pool of 4 diverged from serial");
        for (i, s) in par.iter().enumerate() {
            assert_eq!(s.outcome, TaskOutcome::Ok(items[i] * 7 + 1), "slot {i}");
            let faulted = matches!(i, 0 | 5 | 11 | 15);
            assert_eq!(s.attempts, if faulted { 2 } else { 1 }, "slot {i}");
            assert_eq!(s.history.len(), usize::from(faulted), "slot {i}");
        }
    }

    #[test]
    fn cancel_racing_completion_counts_as_timeout_then_retries() {
        // The task produces a value only *after* its token fires — the
        // classic watchdog race. The fired token must outrank the Ok
        // (truncated work is not a result), and the retry, whose token
        // never fires, succeeds with attempts = 2.
        let items = [7u8];
        let cfg = SuperviseConfig {
            retries: 1,
            timeout: Some(Duration::from_millis(20)),
            faults: FaultPlan::none(),
        };
        let out = Pool::new(1).run_supervised(&items, &cfg, |ctx, &x| {
            if ctx.attempt == 1 {
                while !ctx.cancel.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Returns Ok-shaped data despite the cancellation.
                return x;
            }
            x
        });
        assert_eq!(out[0].outcome, TaskOutcome::Ok(7));
        assert_eq!(out[0].attempts, 2);
        assert_eq!(out[0].history.len(), 1);
        assert!(
            out[0].history[0].contains("timed out"),
            "{:?}",
            out[0].history
        );
    }

    #[test]
    fn fault_on_final_cell_is_isolated() {
        // The last slot is the edge the retire loop can get wrong: its
        // failure must not truncate the batch or disturb earlier slots.
        let items: Vec<u32> = (0..10).collect();
        let n = items.len();
        let cfg = SuperviseConfig {
            retries: 0,
            timeout: None,
            faults: FaultPlan::parse(&format!("panic@{}", n - 1)).unwrap(),
        };
        let out = quiet(|| Pool::new(4).run_supervised(&items, &cfg, |_, &x| x + 100));
        assert_eq!(out.len(), n, "no slot may be dropped");
        for (i, s) in out.iter().enumerate().take(n - 1) {
            assert_eq!(s.outcome, TaskOutcome::Ok(items[i] + 100), "slot {i}");
        }
        match &out[n - 1].outcome {
            TaskOutcome::Failed { msg } => assert!(msg.contains("injected"), "{msg}"),
            o => panic!("expected Failed on the final cell, got {o:?}"),
        }
    }

    #[test]
    fn fault_plan_parses_and_rejects() {
        let p = FaultPlan::parse("panic@3,stall@0*2, exit@9 ").unwrap();
        assert_eq!(
            p,
            FaultPlan {
                faults: vec![
                    Fault {
                        kind: FaultKind::Panic,
                        index: 3,
                        times: 1
                    },
                    Fault {
                        kind: FaultKind::Stall,
                        index: 0,
                        times: 2
                    },
                    Fault {
                        kind: FaultKind::Exit,
                        index: 9,
                        times: 1
                    },
                ]
            }
        );
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert!(FaultPlan::parse("boom@1").is_err());
        assert!(FaultPlan::parse("panic@x").is_err());
        assert!(FaultPlan::parse("panic@1*0").is_err());
        assert!(FaultPlan::parse("panic").is_err());
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
    }

    #[test]
    fn a_settled_token_ignores_later_cancels() {
        let token = CancelToken::new();
        assert!(token.settle());
        token.cancel();
        assert!(!token.is_cancelled());
        assert!(token.settle(), "settling twice still holds the claim");
        let fired = CancelToken::new();
        fired.cancel();
        assert!(!fired.settle());
        assert!(fired.is_cancelled());
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(TaskOutcome::Ok(1u8).label(), "ok");
        assert_eq!(TaskOutcome::<u8>::TimedOut.label(), "timed_out");
        assert_eq!(
            TaskOutcome::<u8>::Failed { msg: "m".into() }.label(),
            "failed"
        );
        assert_eq!(
            TaskOutcome::<u8>::Exhausted {
                attempts: 2,
                last_error: "e".into()
            }
            .label(),
            "exhausted"
        );
        assert_eq!(TaskOutcome::Ok(1u8).error(), None);
        assert!(TaskOutcome::<u8>::TimedOut
            .error()
            .unwrap()
            .contains("timed out"));
    }
}
