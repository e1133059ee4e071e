//! Synthetic SPEC-CPU2006-like workload models.
//!
//! The paper drives its simulator with 500 M-instruction SimPoints of ten
//! SPEC CPU2006 programs (Table 9). This crate substitutes parameterised
//! synthetic program models that reproduce the properties the evaluated
//! policies actually observe: post-L3 request rate (MPKI), footprint,
//! write fraction, block-level reuse skew, spatial locality, and
//! memory-level parallelism (dependence chains).
//!
//! * [`patterns`] — address-stream generators (streaming, strided, pointer
//!   chasing, Zipfian hot spots, mixes, phase drift);
//! * [`program`] — the [`program::ProgramGen`] op source combining a
//!   pattern with MPKI-derived gaps and a write fraction;
//! * [`spec`] — the ten Table 9 programs as model parameter sets, plus
//!   four synthetic characterization programs ([`spec::SpecProgram::SYNTHETIC`]:
//!   phase-changing, bursty, multi-tenant, adversarial hot-set churn);
//! * [`workload`] — the nineteen Table 10 multiprogrammed mixes and the
//!   adversarial [`workload::family_workloads`].
//!
//! # Examples
//!
//! ```
//! use profess_cpu::OpSource;
//! use profess_trace::spec::SpecProgram;
//!
//! // A bwaves-like stream, footprint scaled by 32, 10 000 instructions.
//! let mut gen = SpecProgram::Bwaves.generator(32, 10_000, 7);
//! let mut ops = 0;
//! while let Some(_op) = gen.next_op() {
//!     ops += 1;
//! }
//! assert!(ops > 0);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod patterns;
pub mod program;
pub mod spec;
pub mod workload;

pub use program::{BurstParams, ProgramGen, ProgramParams};
pub use spec::SpecProgram;
pub use workload::{
    all_workloads, family_workloads, workload_by_id, workloads, UnknownWorkload, Workload,
};
