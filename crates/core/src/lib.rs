//! The paper's contribution: flat migrating hybrid-memory management.
//!
//! This crate implements the PoM baseline organization (swap groups, the
//! Swap-group Table and its cache), the OS support RSM requires (regions
//! and region-aware frame allocation), all evaluated migration policies
//! (Static, CAMEO-style, PoM, MemPod, MDM, ProFess = MDM + RSM), and the
//! full-system simulator that binds cores, caches-of-translations, the
//! policies, and the memory timing model together.
//!
//! # Examples
//!
//! ```
//! use profess_core::system::{PolicyKind, SystemBuilder};
//! use profess_trace::SpecProgram;
//! use profess_types::SystemConfig;
//!
//! let mut cfg = SystemConfig::scaled_single();
//! cfg.rsm.m_samp = 512;
//! let report = SystemBuilder::new(cfg)
//!     .policy(PolicyKind::Mdm)
//!     .spec_program(SpecProgram::Libquantum, 20_000)
//!     .try_run()?;
//! assert_eq!(report.programs.len(), 1);
//! assert!(report.programs[0].ipc > 0.0);
//! # Ok::<(), profess_core::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod errors;
pub mod flat;
pub mod org;
pub mod policies;
pub mod regions;
pub mod snapshot;
pub mod stc;
pub mod system;

pub use errors::{BudgetResource, SimBudget, SimError};
pub use flat::{FlatPageTable, TokenRing};
pub use org::{StEntry, SwapTable};
pub use policies::{Decision, MigrationPolicy};
pub use regions::{RegionClass, RegionMap};
pub use snapshot::{SystemSnapshot, SNAPSHOT_VERSION};
pub use stc::Stc;
pub use system::{PolicyKind, SystemBuilder, SystemReport};
