//! Out-of-order core model (paper Table 8: 4-wide, 256-entry ROB).
//!
//! The model executes an abstract instruction stream in which only memory
//! operations are explicit ([`MemOp`]): each op carries the number of
//! non-memory instructions preceding it, so the simulator's cost is
//! proportional to the number of memory operations, not instructions.
//!
//! Timing semantics:
//!
//! * non-memory instructions retire at the core width (4 per core cycle);
//! * a load issues to memory when execution reaches it and completes when
//!   the response arrives; younger instructions may execute ahead of an
//!   outstanding load, limited by the ROB size and the MSHR count;
//! * a load marked [`MemOp::dependent`] (pointer chasing) cannot issue
//!   before the previous load's data returns;
//! * stores retire into a finite write buffer and only stall the core when
//!   the buffer is full.
//!
//! This reproduces the properties the paper's evaluation depends on —
//! memory-level parallelism bounded by the ROB, serialization of irregular
//! pointer chains, and IPC sensitivity to memory latency — without
//! simulating individual non-memory instructions.

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

mod core_model;
mod op;

pub use core_model::{CoreObs, CoreRequest, CoreSim, WaitState};
pub use op::{MemOp, MemOpKind, OpSource};
