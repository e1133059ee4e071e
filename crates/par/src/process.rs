//! One supervised attempt in a child process: spawn, wait or kill,
//! classify.
//!
//! [`crate::supervise`] contains failures inside one process — a
//! panicking cell unwinds, a stalled cell is cancelled. A sharded sweep
//! (`profess-run <experiment> --workers N` in `profess-bench`) goes one isolation
//! ring further: each attempt re-execs the **current executable** for
//! one cell, so an attempt that aborts, segfaults, or wedges takes down
//! only its own address space. [`run_child`] is that attempt's whole
//! mechanism. Retries, deadlines and fault indices stay with the one
//! supervisor ([`Pool::try_run_supervised`](crate::Pool::try_run_supervised)):
//! the child is killed when the attempt's [`CancelToken`] fires, so a
//! child attempt runs under exactly the deadline a thread attempt does,
//! and this module reads no clock of its own.
//!
//! Everything here is std-only (`std::process::Command`), per the
//! workspace's hermetic policy. The spawned program is always
//! `std::env::current_exe()`. The `clippy.toml` ban on `Command::new`
//! keeps every other module in the workspace from launching processes.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Duration;

use crate::supervise::{CancelToken, FaultKind, FaultPlan, FAULT_ENV};

/// How a child attempt ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChildExit {
    /// The child exited on its own.
    Exited {
        /// Its exit code.
        code: i32,
        /// Everything it wrote to stdout.
        stdout: String,
    },
    /// The child died without an exit code: a signal (abort, SIGKILL,
    /// segfault), or the kill that followed its cancel token firing.
    Killed,
}

/// Runs the current executable with `args` as one attempt and waits for
/// it, killing it as soon as `cancel` fires.
///
/// The child inherits the environment and stderr, with `PROFESS_FAULT`
/// replaced: set to `<fault>@0` when `fault` names the worker fault
/// this attempt must suffer (the child is task 0 of its own one-task
/// plan), removed otherwise — task faults fire in the supervisor. Its
/// stdout is drained on a scoped thread while this one waits, so a
/// chatty child can never block on a full pipe.
///
/// An `Err` means no child ran (`current_exe` or spawn failed).
pub fn run_child(
    args: &[String],
    fault: Option<FaultKind>,
    cancel: &CancelToken,
) -> Result<ChildExit, String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one process spawner; a child must re-exec `current_exe` so it runs the parent's build"
    )]
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    match fault {
        Some(kind) => cmd.env(FAULT_ENV, format!("{}@0", kind.name())),
        None => cmd.env_remove(FAULT_ENV),
    };
    let mut child = cmd.spawn().map_err(|e| format!("spawn worker: {e}"))?;
    let stdout = child.stdout.take();
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut out = Vec::new();
            if let Some(mut pipe) = stdout {
                // A read error just truncates the output, which the
                // caller then rejects as unreadable.
                let _ = pipe.read_to_end(&mut out);
            }
            String::from_utf8_lossy(&out).into_owned()
        });
        let code = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status.code(),
                Ok(None) if !cancel.is_cancelled() => std::thread::sleep(Duration::from_millis(1)),
                // Cancelled, or the child can no longer be polled: kill
                // and reap it (errors mean it is already gone).
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        let stdout = reader.join().unwrap_or_default();
        Ok(match code {
            Some(code) => ChildExit::Exited { code, stdout },
            None => ChildExit::Killed,
        })
    })
}

/// Called first in a child started by [`run_child`], with the plan of
/// its inherited `PROFESS_FAULT`: fires the worker fault the parent
/// handed this attempt, if any (the child is task 0, attempt 1 of that
/// plan). A hang parks the thread until the parent's watchdog has the
/// child killed; a kill aborts (SIGABRT, so the parent sees a signal
/// death, not an exit code — the same observable as an OOM kill).
pub fn fire_worker_fault(faults: &FaultPlan) {
    let Some(kind) = faults.worker_action(0, 1) else {
        return;
    };
    eprintln!("injected fault: {} (child process)", kind.name());
    match kind {
        FaultKind::WorkerHang => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
        _ => std::process::abort(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Re-execs this test binary to run [`fault_probe`] alone.
    fn probe(fault: Option<FaultKind>, cancel: &CancelToken) -> ChildExit {
        let args: Vec<String> = ["--exact", "process::tests::fault_probe", "--ignored"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run_child(&args, fault, cancel).expect("spawn the test binary")
    }

    /// Not a test of its own: the child side of `child_attempts_*`,
    /// firing whatever worker fault its `PROFESS_FAULT` schedules.
    #[test]
    #[ignore]
    fn fault_probe() {
        fire_worker_fault(&FaultPlan::from_env().expect("valid PROFESS_FAULT"));
    }

    #[test]
    fn child_attempts_report_output_faults_and_cancellation() {
        let fresh = CancelToken::new();
        match run_child(&["--list".to_string()], None, &fresh).unwrap() {
            ChildExit::Exited { code, stdout } => {
                assert_eq!(code, 0);
                assert!(stdout.contains("fault_probe"), "{stdout}");
            }
            other => panic!("expected a clean exit, got {other:?}"),
        }
        assert!(matches!(
            probe(None, &fresh),
            ChildExit::Exited { code: 0, .. }
        ));
        assert_eq!(
            probe(Some(FaultKind::WorkerKill), &fresh),
            ChildExit::Killed
        );
        // A hung child is killed once its token fires.
        let token = CancelToken::new();
        let hung = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(200));
                token.cancel();
            });
            probe(Some(FaultKind::WorkerHang), &token)
        });
        assert_eq!(hung, ChildExit::Killed);
    }
}
