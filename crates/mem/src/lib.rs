//! Cycle-level hybrid memory-channel timing model.
//!
//! Models the off-chip memory system of the paper's Table 8: each channel
//! carries one M1 (DRAM) module and one M2 (NVM) module sharing a 64-bit
//! data bus; each module has 16 banks with 8 KB row buffers. The memory
//! controller uses the open-page policy with FR-FCFS-Cap scheduling
//! (at most four consecutive row-buffer hits), drains writes in batches,
//! refreshes M1 (M2 needs no refresh), and performs channel-blocking 2 KB
//! block swaps whose latency reproduces the paper's analytic 796.25 ns.
//!
//! The model is event-driven at request granularity: each request reserves
//! time on its bank and on the shared data bus, which preserves bank-level
//! parallelism and bus serialization without per-cycle simulation.
//!
//! # Examples
//!
//! ```
//! use profess_mem::{AccessKind, ChannelSim, PhysRequest};
//! use profess_types::config::{EnergyConfig, MemTimingConfig};
//! use profess_types::geometry::{MemLoc, Module};
//! use profess_types::Cycle;
//!
//! let mut ch = ChannelSim::new(MemTimingConfig::paper(), EnergyConfig::default_values(), 16, 32);
//! ch.push(
//!     PhysRequest {
//!         id: 1,
//!         kind: AccessKind::Read,
//!         loc: MemLoc { module: Module::M1, bank: 0, row: 3 },
//!     },
//!     Cycle(0),
//! );
//! let mut served = Vec::new();
//! let mut now = Cycle(0);
//! ch.advance(now, &mut served);
//! while !ch.is_idle() {
//!     now = ch.next_event(now);
//!     ch.advance(now, &mut served);
//! }
//! assert_eq!(served.len(), 1);
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

mod bank;
mod channel;
mod energy;
mod request;
pub mod stats;

pub use channel::{ChannelObs, ChannelSim};
pub use energy::EnergyCounters;
pub use request::{AccessKind, PhysRequest, Served};
