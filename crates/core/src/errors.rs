//! The simulator's structured error taxonomy and run budgets.
//!
//! Every way a run can end without a report is a [`SimError`] value
//! returned by [`try_run`](crate::system::SystemBuilder::try_run): a
//! builder that cannot run ([`SimError::Config`]), a deadlock, a blown
//! [`SimBudget`] (instead of a silent crawl toward the 2-billion-cycle
//! safety cap), a cancellation, or a preemption carrying the snapshot
//! to resume from ([`SimError::Preempted`]). A supervisor can classify,
//! retry, or resume per cell instead of aborting the batch.

use profess_par::CancelToken;

use crate::snapshot::SystemSnapshot;

/// Which budgeted resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetResource {
    /// Simulated channel cycles ([`SimBudget::max_cycles`]).
    Cycles,
    /// Served data requests ([`SimBudget::max_retired`]).
    RetiredEvents,
}

impl BudgetResource {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            BudgetResource::Cycles => "cycles",
            BudgetResource::RetiredEvents => "retired_events",
        }
    }
}

/// Hard resource limits for one simulation run. `None` = unlimited.
///
/// Unlike the legacy [`max_cycles`](crate::system::SystemBuilder::max_cycles)
/// safety cap — which *truncates* the run and still produces a report
/// flagged `truncated` — blowing a budget is an error: the run is
/// abandoned and [`SimError::BudgetExceeded`] is returned, because a
/// supervised sweep must not silently fold partial cells into results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimBudget {
    /// Abort once the simulated clock passes this many cycles.
    pub max_cycles: Option<u64>,
    /// Abort once this many data requests have been served.
    pub max_retired: Option<u64>,
}

impl SimBudget {
    /// No limits (the default).
    pub fn unlimited() -> SimBudget {
        SimBudget::default()
    }

    /// Limits simulated cycles.
    pub fn with_max_cycles(mut self, c: u64) -> SimBudget {
        self.max_cycles = Some(c);
        self
    }

    /// Limits served data requests.
    pub fn with_max_retired(mut self, n: u64) -> SimBudget {
        self.max_retired = Some(n);
        self
    }

    /// Is any limit configured?
    pub fn is_limited(&self) -> bool {
        self.max_cycles.is_some() || self.max_retired.is_some()
    }
}

/// Why a simulation run failed to produce a report.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The builder describes a system that cannot run: no programs,
    /// more programs than cores, or more pages than physical frames.
    Config {
        /// What is wrong with the configuration.
        what: String,
    },
    /// The run stopped at a clock boundary
    /// ([`SystemBuilder::snapshot_at`](crate::system::SystemBuilder::snapshot_at)
    /// reached, or cancellation under
    /// [`SystemBuilder::snapshot_on_cancel`](crate::system::SystemBuilder::snapshot_on_cancel)):
    /// the state to resume from via
    /// [`SystemBuilder::restore`](crate::system::SystemBuilder::restore).
    Preempted {
        /// The simulation state at the preemption point.
        snapshot: Box<SystemSnapshot>,
    },
    /// A [`SimBudget`] limit was hit.
    BudgetExceeded {
        /// The exhausted resource.
        resource: BudgetResource,
        /// The configured limit.
        limit: u64,
        /// Simulated cycle at which the limit was detected.
        at_cycle: u64,
    },
    /// No component has a next event: the simulation can never finish.
    Deadlock {
        /// Simulated cycle of the deadlock.
        cycle: u64,
        /// Swap groups with an in-flight ST fetch.
        pending_st: usize,
        /// Outstanding request tokens.
        tokens: usize,
    },
    /// The run's [`CancelToken`] fired (watchdog timeout or shutdown).
    Cancelled {
        /// Simulated cycle at which cancellation was observed.
        cycle: u64,
    },
    /// A snapshot was written by an incompatible format version.
    SnapshotVersion {
        /// Version found in the snapshot.
        found: u64,
        /// Version this build understands.
        expected: u64,
    },
    /// A snapshot failed structural or fingerprint validation.
    SnapshotCorrupt {
        /// What was wrong.
        detail: String,
    },
    /// A snapshot came from a differently configured system.
    SnapshotConfigMismatch {
        /// Config fingerprint recorded in the snapshot.
        found: u64,
        /// Config fingerprint of the restoring system.
        expected: u64,
    },
    /// The configured run cannot be snapshotted (e.g. region sampling
    /// holds unbounded diagnostic state excluded from the format).
    SnapshotUnsupported {
        /// Which feature blocks snapshotting.
        what: String,
    },
}

impl SimError {
    /// Stable machine-readable label (`config`, `preempted`,
    /// `budget_exceeded`, `deadlock`, `cancelled`, `snapshot_version`,
    /// `snapshot_corrupt`, `snapshot_config_mismatch`,
    /// `snapshot_unsupported`).
    pub fn label(&self) -> &'static str {
        match self {
            SimError::Config { .. } => "config",
            SimError::Preempted { .. } => "preempted",
            SimError::BudgetExceeded { .. } => "budget_exceeded",
            SimError::Deadlock { .. } => "deadlock",
            SimError::Cancelled { .. } => "cancelled",
            SimError::SnapshotVersion { .. } => "snapshot_version",
            SimError::SnapshotCorrupt { .. } => "snapshot_corrupt",
            SimError::SnapshotConfigMismatch { .. } => "snapshot_config_mismatch",
            SimError::SnapshotUnsupported { .. } => "snapshot_unsupported",
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config { what } => write!(f, "invalid configuration: {what}"),
            SimError::Preempted { snapshot } => {
                write!(f, "preempted into snapshot at cycle {}", snapshot.clock())
            }
            SimError::BudgetExceeded {
                resource,
                limit,
                at_cycle,
            } => write!(
                f,
                "simulation exceeded its {} budget of {limit} at cycle {at_cycle}",
                resource.label()
            ),
            // Keeps the exact wording of the historical deadlock assert.
            SimError::Deadlock {
                cycle,
                pending_st,
                tokens,
            } => write!(
                f,
                "simulation deadlock at cycle {cycle} (pending ST: {pending_st}, tokens: {tokens})"
            ),
            SimError::Cancelled { cycle } => {
                write!(f, "simulation cancelled at cycle {cycle}")
            }
            SimError::SnapshotVersion { found, expected } => write!(
                f,
                "snapshot version {found} is not supported (expected {expected})"
            ),
            SimError::SnapshotCorrupt { detail } => {
                write!(f, "snapshot corrupt: {detail}")
            }
            SimError::SnapshotConfigMismatch { found, expected } => write!(
                f,
                "snapshot config fingerprint {found:#018x} does not match \
                 this system's {expected:#018x}"
            ),
            SimError::SnapshotUnsupported { what } => {
                write!(f, "snapshot unsupported: {what}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The supervision hooks a run threads through its main loop: the
/// budget and an optional cooperative cancellation token.
#[derive(Debug, Clone, Default)]
pub struct RunLimits {
    /// Resource budget.
    pub budget: SimBudget,
    /// Polled each loop step; firing it yields [`SimError::Cancelled`].
    pub cancel: Option<CancelToken>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_builders() {
        let b = SimBudget::unlimited();
        assert!(!b.is_limited());
        let b = SimBudget::unlimited()
            .with_max_cycles(1_000)
            .with_max_retired(50);
        assert_eq!(b.max_cycles, Some(1_000));
        assert_eq!(b.max_retired, Some(50));
        assert!(b.is_limited());
    }

    #[test]
    fn display_formats_are_stable() {
        let e = SimError::BudgetExceeded {
            resource: BudgetResource::Cycles,
            limit: 10,
            at_cycle: 11,
        };
        assert_eq!(
            e.to_string(),
            "simulation exceeded its cycles budget of 10 at cycle 11"
        );
        assert_eq!(e.label(), "budget_exceeded");
        let d = SimError::Deadlock {
            cycle: 7,
            pending_st: 2,
            tokens: 3,
        };
        assert_eq!(
            d.to_string(),
            "simulation deadlock at cycle 7 (pending ST: 2, tokens: 3)"
        );
        let c = SimError::Cancelled { cycle: 5 };
        assert_eq!(c.to_string(), "simulation cancelled at cycle 5");
        assert_eq!(c.label(), "cancelled");
        let v = SimError::SnapshotVersion {
            found: 9,
            expected: 1,
        };
        assert_eq!(
            v.to_string(),
            "snapshot version 9 is not supported (expected 1)"
        );
        assert_eq!(v.label(), "snapshot_version");
        let k = SimError::SnapshotCorrupt {
            detail: "fingerprint mismatch".to_string(),
        };
        assert_eq!(k.to_string(), "snapshot corrupt: fingerprint mismatch");
        assert_eq!(k.label(), "snapshot_corrupt");
        let m = SimError::SnapshotConfigMismatch {
            found: 0x1,
            expected: 0x2,
        };
        assert_eq!(
            m.to_string(),
            "snapshot config fingerprint 0x0000000000000001 does not match \
             this system's 0x0000000000000002"
        );
        assert_eq!(m.label(), "snapshot_config_mismatch");
        let u = SimError::SnapshotUnsupported {
            what: "region sampling".to_string(),
        };
        assert_eq!(u.to_string(), "snapshot unsupported: region sampling");
        assert_eq!(u.label(), "snapshot_unsupported");
        let g = SimError::Config {
            what: "no programs configured".to_string(),
        };
        assert_eq!(
            g.to_string(),
            "invalid configuration: no programs configured"
        );
        assert_eq!(g.label(), "config");
    }

    #[test]
    fn resource_labels() {
        assert_eq!(BudgetResource::Cycles.label(), "cycles");
        assert_eq!(BudgetResource::RetiredEvents.label(), "retired_events");
    }
}
