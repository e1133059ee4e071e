//! Child-process attempts: the ordinary [`crate::run_cells`] engine
//! with every attempt of a cell run in a child process
//! (`profess-run <experiment> --workers N`).
//!
//! A process is an attempt. With `--workers N` an experiment runs on
//! `Pool::new(N)` and each attempt re-execs the current executable
//! with the parent's own arguments plus `--worker <cell key>`
//! ([`child_attempt`], on [`profess_par::run_child`]). The child
//! re-derives the experiment's cells from those arguments, runs that
//! one cell once ([`child_main`]) and prints its journal line
//! ([`crate::checkpoint::encode_line`]); the parent decodes it with the
//! fingerprint-checking [`crate::checkpoint::decode_line`] and journals
//! it like any in-process result. Retries, the deadline and fault
//! indices are the one supervisor's ([`crate::Pool::try_run_supervised`]):
//! a child that dies, exits non-zero, or prints garbage fails its
//! attempt, and the watchdog's cancel kills a hung child. Only the
//! parent journals, so there is one journal and nothing to merge.

use profess_metrics::Json;
use profess_par::{
    fire_worker_fault, panic_failure, run_child, ChildExit, FaultPlan, TaskCtx, TIMED_OUT,
};

use crate::checkpoint::decode_line;
use crate::{exit, Cell, CellRecord};

/// How an attempt's error text starts when its child process was lost:
/// killed, crashed, or unreadable.
const LOST: &str = "worker process lost";

/// A child attempt's whole job: suffer the worker fault the supervisor
/// scheduled for it, if any, then run the cell keyed `key` once and
/// report on stdout. Prints the cell's journal line and exits
/// [`exit::OK`], or prints the simulator's error and exits
/// [`exit::SWEEP_FAILURE`]; a key that is none of `cells` is an error
/// too — a child must never silently accept a cell it cannot map back
/// to the experiment.
pub fn child_main(cells: &[Cell], key: &str, faults: &FaultPlan) -> ! {
    report_panics_as_cell_errors();
    fire_worker_fault(faults);
    let line = match cells.iter().find(|c| c.key() == key) {
        Some(cell) => cell.line(),
        None => Err(format!("unknown cell key `{key}`")),
    };
    match line {
        Ok(line) => {
            print!("{line}");
            std::process::exit(exit::OK)
        }
        Err(e) => {
            println!("{e}");
            std::process::exit(exit::SWEEP_FAILURE)
        }
    }
}

/// Runs one attempt of cell `key` in a child process: the current
/// executable with `args` plus `--worker <key>`, suffering whatever
/// `worker_*` fault `faults` schedules for this attempt. The attempt's
/// result is [`classify`]'s reading of how the child ended; a child
/// that cannot even be started is a lost child too.
pub(crate) fn child_attempt(
    args: &[String],
    key: &str,
    ctx: &TaskCtx<'_>,
    faults: &FaultPlan,
) -> Result<Json, String> {
    let mut argv = args.to_vec();
    argv.extend(["--worker".to_string(), key.to_string()]);
    let fault = faults.worker_action(ctx.index, ctx.attempt);
    let exit = run_child(&argv, fault, ctx.cancel).map_err(|e| format!("{LOST}: {e}"))?;
    classify(key, exit)
}

/// A child attempt's result for cell `key`. The child must exit 0 with
/// the cell's journal line, or exit [`exit::SWEEP_FAILURE`] with the
/// cell's own error (a simulator error, or `panicked: <msg>` from
/// [`report_panics_as_cell_errors`]) — the same text the attempt fails
/// with in-process. Anything else (a signal, another code, garbage, a
/// kill at the deadline) is a lost child: its error starts with
/// `worker process lost`.
fn classify(key: &str, exit: ChildExit) -> Result<Json, String> {
    match exit {
        ChildExit::Exited { code: 0, stdout } => match decode_line(stdout.trim_end()) {
            Some((k, payload)) if k == key => Ok(payload),
            _ => Err(format!("{LOST}: unreadable output `{}`", stdout.trim_end())),
        },
        ChildExit::Exited {
            code: exit::SWEEP_FAILURE,
            stdout,
        } => Err(stdout.trim_end().to_string()),
        ChildExit::Exited { code, .. } => Err(format!("{LOST}: exited with code {code}")),
        ChildExit::Killed => Err(format!("{LOST}: killed by a signal")),
    }
}

/// Installed first in a child attempt: a panic in the cell prints its
/// [`panic_failure`] text on stdout and exits [`exit::SWEEP_FAILURE`], so it
/// fails the attempt exactly as an in-process panic does (an ordinary
/// cell failure, not a lost child). The default hook still reports the
/// panic on stderr.
pub fn report_panics_as_cell_errors() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default(info);
        println!("{}", panic_failure(info.payload()));
        std::process::exit(exit::SWEEP_FAILURE);
    }));
}

/// The first cell whose final attempt lost its child process — killed,
/// crashed, unreadable, or timed out (a timed-out child is killed) —
/// in a run with `workers > 0`, where every attempt is a child. Such a
/// run exits [`exit::WORKER_LOST`].
pub fn lost_cell(cells: &[CellRecord]) -> Option<&CellRecord> {
    cells.iter().find(|c| {
        c.error.is_some()
            && c.history
                .last()
                .is_some_and(|h| h.contains(LOST) || h.ends_with(TIMED_OUT))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::encode_line;

    fn record(history: &[&str], error: Option<&str>) -> CellRecord {
        CellRecord {
            key: "k".to_string(),
            label: "l".to_string(),
            status: if error.is_some() { "failed" } else { "ok" },
            attempts: history.len() as u32 + u32::from(error.is_none()),
            history: history.iter().map(|h| h.to_string()).collect(),
            error: error.map(str::to_string),
        }
    }

    #[test]
    fn a_cell_is_lost_when_its_final_attempt_lost_the_child() {
        let killed = format!("attempt 1: {LOST}: killed by a signal");
        let recovered = record(&[&killed], None);
        let lost = record(&[&killed], Some("x"));
        let timed_out = format!("attempt 1: {TIMED_OUT}");
        let hung = record(&[&timed_out], Some(TIMED_OUT));
        let failed = record(&[&killed, "attempt 2: budget exceeded"], Some("x"));
        assert!(lost_cell(std::slice::from_ref(&recovered)).is_none());
        assert!(
            lost_cell(std::slice::from_ref(&failed)).is_none(),
            "a cell error is not a lost child"
        );
        assert!(lost_cell(&[recovered.clone(), lost]).is_some());
        assert!(lost_cell(&[recovered, failed, hung]).is_some());
    }

    /// Not a test of its own: the child side of
    /// `a_panicking_child_fails_like_an_in_process_panic`.
    #[test]
    #[ignore]
    fn panicking_child() {
        report_panics_as_cell_errors();
        panic!("boom");
    }

    #[test]
    fn a_panicking_child_fails_like_an_in_process_panic() {
        let args: Vec<String> = [
            "--exact",
            "shard::tests::panicking_child",
            "--ignored",
            "--nocapture",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let exit = run_child(&args, None, &profess_par::CancelToken::new()).expect("spawn");
        assert!(
            matches!(
                &exit,
                ChildExit::Exited {
                    code: exit::SWEEP_FAILURE,
                    ..
                }
            ),
            "{exit:?}"
        );
        // The test harness prints its own lines around the child's.
        let err = classify("k", exit).unwrap_err();
        assert!(err.lines().any(|l| l == "panicked: boom"), "{err}");
        assert!(!err.contains(LOST), "{err}");
    }

    #[test]
    fn child_exits_classify_as_cell_results_or_lost_children() {
        let line = encode_line("k", &Json::UInt(7));
        let exited = |code: i32, stdout: &str| ChildExit::Exited {
            code,
            stdout: stdout.to_string(),
        };
        assert_eq!(classify("k", exited(0, &line)), Ok(Json::UInt(7)));
        assert_eq!(
            classify("k", exited(exit::SWEEP_FAILURE, "panicked: boom\n")),
            Err("panicked: boom".to_string())
        );
        for lost in [
            exited(0, "garbage"),
            exited(0, &encode_line("other", &Json::UInt(7))),
            exited(101, ""),
            ChildExit::Killed,
        ] {
            assert!(classify("k", lost).unwrap_err().starts_with(LOST));
        }
    }
}
