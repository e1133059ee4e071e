//! Set-associative cache hierarchy substrate (paper Table 8).
//!
//! Three levels: split L1 (we model the data side), private L2, shared L3,
//! all write-back / write-allocate with LRU replacement. The hierarchy is
//! used by the cache-driven trace mode and the examples; the fast post-L3
//! trace mode generates L3-miss streams directly.
//!
//! # Examples
//!
//! ```
//! use profess_cache::{Hierarchy, HitLevel};
//! use profess_types::config::CacheHierarchyConfig;
//!
//! let cfg = CacheHierarchyConfig {
//!     l1_bytes: 32 << 10,
//!     l1_ways: 4,
//!     l2_bytes: 256 << 10,
//!     l2_ways: 8,
//!     l3_bytes: 8 << 20,
//!     l3_ways: 16,
//!     line_bytes: 64,
//! };
//! let mut h = Hierarchy::new(&cfg, 1);
//! let first = h.access(0, 100, false);
//! assert_eq!(first.hit, HitLevel::Memory);
//! let second = h.access(0, 100, false);
//! assert_eq!(second.hit, HitLevel::L1);
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

mod set_assoc;

pub use set_assoc::{Cache, CacheStats};

use profess_types::config::CacheHierarchyConfig;

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Served by the (per-core) L1.
    L1,
    /// Served by the (per-core) L2.
    L2,
    /// Served by the shared L3.
    L3,
    /// Missed all levels: main memory must be accessed.
    Memory,
}

/// Result of one access through the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Level that served the access.
    pub hit: HitLevel,
    /// Dirty lines written back to memory by evictions along the way.
    pub writebacks: Vec<u64>,
}

/// A three-level cache hierarchy with per-core L1/L2 and a shared L3.
#[derive(Debug)]
pub struct Hierarchy {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
}

impl Hierarchy {
    /// Builds the hierarchy for `cores` cores.
    pub fn new(cfg: &CacheHierarchyConfig, cores: usize) -> Self {
        let mk = |bytes: usize, ways: usize| Cache::new(bytes / cfg.line_bytes, ways);
        Hierarchy {
            l1: (0..cores).map(|_| mk(cfg.l1_bytes, cfg.l1_ways)).collect(),
            l2: (0..cores).map(|_| mk(cfg.l2_bytes, cfg.l2_ways)).collect(),
            l3: mk(cfg.l3_bytes, cfg.l3_ways),
        }
    }

    /// Performs a load (`is_write == false`) or store through the
    /// hierarchy for `core`, at 64 B line granularity.
    ///
    /// Inclusive-style fill: a miss allocates the line in every level.
    /// Dirty evictions propagate downwards; evictions from L3 that are
    /// dirty anywhere surface as memory writebacks.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, line: u64, is_write: bool) -> HierarchyOutcome {
        let mut writebacks = Vec::new();
        let hit = if self.l1[core].access(line, is_write) {
            HitLevel::L1
        } else if self.l2[core].access(line, false) {
            self.fill_l1(core, line, is_write, &mut writebacks);
            HitLevel::L2
        } else if self.l3.access(line, false) {
            self.fill_l2(core, line, &mut writebacks);
            self.fill_l1(core, line, is_write, &mut writebacks);
            HitLevel::L3
        } else {
            if let Some(victim) = self.l3.fill(line, false) {
                if victim.dirty {
                    writebacks.push(victim.line);
                }
            }
            self.fill_l2(core, line, &mut writebacks);
            self.fill_l1(core, line, is_write, &mut writebacks);
            HitLevel::Memory
        };
        HierarchyOutcome { hit, writebacks }
    }

    fn fill_l1(&mut self, core: usize, line: u64, dirty: bool, writebacks: &mut Vec<u64>) {
        if let Some(victim) = self.l1[core].fill(line, dirty) {
            if victim.dirty {
                // Dirty L1 victim lands in L2 (write-back).
                if !self.l2[core].access(victim.line, true) {
                    if let Some(v2) = self.l2[core].fill(victim.line, true) {
                        if v2.dirty {
                            self.writeback_to_l3(v2.line, writebacks);
                        }
                    }
                }
            }
        }
    }

    fn fill_l2(&mut self, core: usize, line: u64, writebacks: &mut Vec<u64>) {
        if let Some(victim) = self.l2[core].fill(line, false) {
            if victim.dirty {
                self.writeback_to_l3(victim.line, writebacks);
            }
        }
    }

    fn writeback_to_l3(&mut self, line: u64, writebacks: &mut Vec<u64>) {
        if !self.l3.access(line, true) {
            if let Some(v3) = self.l3.fill(line, true) {
                if v3.dirty {
                    writebacks.push(v3.line);
                }
            }
        }
    }

    /// Statistics of a core's L1.
    pub fn l1_stats(&self, core: usize) -> &CacheStats {
        self.l1[core].stats()
    }

    /// Statistics of a core's L2.
    pub fn l2_stats(&self, core: usize) -> &CacheStats {
        self.l2[core].stats()
    }

    /// Statistics of the shared L3.
    pub fn l3_stats(&self) -> &CacheStats {
        self.l3.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheHierarchyConfig {
        CacheHierarchyConfig {
            l1_bytes: 1 << 10, // 16 lines
            l1_ways: 2,
            l2_bytes: 4 << 10, // 64 lines
            l2_ways: 4,
            l3_bytes: 16 << 10, // 256 lines
            l3_ways: 8,
            line_bytes: 64,
        }
    }

    #[test]
    fn miss_then_hit_ladder() {
        let mut h = Hierarchy::new(&cfg(), 2);
        assert_eq!(h.access(0, 42, false).hit, HitLevel::Memory);
        assert_eq!(h.access(0, 42, false).hit, HitLevel::L1);
        // The other core misses its private levels but hits shared L3.
        assert_eq!(h.access(1, 42, false).hit, HitLevel::L3);
        assert_eq!(h.access(1, 42, false).hit, HitLevel::L1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = Hierarchy::new(&cfg(), 1);
        // Fill one L1 set (2 ways): lines mapping to the same set are
        // stride 16 apart (16 sets).
        h.access(0, 0, false);
        h.access(0, 16, false);
        h.access(0, 32, false); // evicts line 0 from L1
        assert_eq!(h.access(0, 0, false).hit, HitLevel::L2);
    }

    #[test]
    fn dirty_l3_eviction_writes_back_to_memory() {
        let mut h = Hierarchy::new(&cfg(), 1);
        // Write a line, then stream enough lines through the same L3 set
        // to evict it.
        h.access(0, 7, true);
        let mut saw_writeback = false;
        // L3 has 32 sets; same-set stride is 32.
        for i in 1..=16 {
            let out = h.access(0, 7 + i * 32, false);
            if out.writebacks.contains(&7) {
                saw_writeback = true;
            }
        }
        assert!(saw_writeback, "dirty line never written back");
    }

    #[test]
    fn streaming_produces_all_memory_misses() {
        let mut h = Hierarchy::new(&cfg(), 1);
        let misses = (0..1000)
            .filter(|&i| h.access(0, 10_000 + i, false).hit == HitLevel::Memory)
            .count();
        assert_eq!(misses, 1000);
    }

    #[test]
    fn stats_accumulate() {
        let mut h = Hierarchy::new(&cfg(), 1);
        h.access(0, 1, false);
        h.access(0, 1, false);
        assert_eq!(h.l1_stats(0).accesses, 2);
        assert_eq!(h.l1_stats(0).hits, 1);
        assert_eq!(h.l3_stats().accesses, 1);
    }
}
