//! Common vocabulary types for the ProFess reproduction.
//!
//! This crate defines the identifiers, address geometry, clock domain, and
//! configuration structures shared by every other crate in the workspace:
//!
//! * [`ids`] — newtype identifiers for programs, channels, regions, swap
//!   groups and slots;
//! * [`clock`] — the memory-cycle clock domain and nanosecond conversions;
//! * [`geometry`] — the flat-migrating address layout (original address →
//!   swap group / slot / line) of the PoM organization used as the baseline
//!   in the paper (§2.3);
//! * [`config`] — the full system configuration with presets matching the
//!   paper's Table 8 at both paper scale and the default reduced scale.
//!
//! # Examples
//!
//! ```
//! use profess_types::config::SystemConfig;
//!
//! let cfg = SystemConfig::scaled_quad();
//! assert_eq!(cfg.org.m1_bytes * 8, cfg.org.m2_bytes());
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

pub mod clock;
pub mod config;
pub mod geometry;
pub mod ids;

pub use clock::Cycle;
pub use config::SystemConfig;
pub use geometry::Geometry;
pub use ids::{ChannelId, GroupId, ProgramId, RegionId, SlotIdx};
