//! # ProFess — a probabilistic hybrid main-memory management framework
//!
//! A from-scratch Rust reproduction of *"ProFess: A Probabilistic Hybrid
//! Main Memory Management Framework for High Performance and Fairness"*
//! (HPCA 2018): a cycle-level flat-migrating DRAM (M1) + NVM (M2) memory
//! simulator with the paper's contribution — the probabilistic
//! Migration-Decision Mechanism (MDM) guided by the Relative-Slowdown
//! Monitor (RSM) — and the baselines it is evaluated against (PoM,
//! CAMEO-style, MemPod).
//!
//! This crate is a facade that re-exports the workspace's public API:
//!
//! * [`types`] — configuration (paper Table 8 presets), address geometry,
//!   clock domain;
//! * [`mem`] — the memory-channel timing and energy model;
//! * [`cpu`] — the ROB-limited out-of-order core model;
//! * [`trace`] — synthetic SPEC CPU2006-like program models (Table 9) and
//!   the 19 multiprogrammed workloads (Table 10);
//! * [`core`] — the organization (swap groups, ST/STC, regions, OS frame
//!   allocation), all migration policies, and the full-system simulator;
//! * [`metrics`] — slowdown, weighted speedup, unfairness, energy
//!   efficiency, box-plot statistics;
//! * [`par`] — a scoped thread pool with deterministic, input-order
//!   result collection, used by the sweep drivers (`PROFESS_THREADS`).
//!
//! # Quick start
//!
//! ```
//! use profess::prelude::*;
//!
//! let mut cfg = SystemConfig::scaled_single();
//! cfg.rsm.m_samp = 1024;
//! let report = SystemBuilder::new(cfg)
//!     .policy(PolicyKind::Profess)
//!     .spec_program(SpecProgram::Zeusmp, 50_000)
//!     .try_run()?;
//! assert!(report.programs[0].ipc > 0.0);
//! # Ok::<(), profess::core::SimError>(())
//! ```
//!
//! See `DESIGN.md` for the system inventory, `EXPERIMENTS.md` for the
//! paper-vs-measured record, and `profess-run` (`crates/bench`) for the
//! driver that regenerates every table and figure of the paper's
//! evaluation from its experiment registry.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]

pub use profess_core as core;
pub use profess_cpu as cpu;
pub use profess_mem as mem;
pub use profess_metrics as metrics;
pub use profess_obs as obs;
pub use profess_par as par;
pub use profess_rng as rng;
pub use profess_trace as trace;
pub use profess_types as types;

pub mod report;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use profess_core::system::{PolicyKind, SystemBuilder, SystemReport};
    pub use profess_core::{
        Decision, MigrationPolicy, RegionClass, RegionMap, SystemSnapshot, SNAPSHOT_VERSION,
    };
    pub use profess_cpu::{MemOp, MemOpKind, OpSource};
    pub use profess_metrics::{slowdown, unfairness, weighted_speedup, BoxPlot};
    pub use profess_trace::{workloads, ProgramGen, SpecProgram, Workload};
    pub use profess_types::{Cycle, SystemConfig};
}
