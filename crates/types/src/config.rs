//! System configuration (paper Table 8) with paper-scale and reduced-scale
//! presets.
//!
//! The paper evaluates a quad-core, two-channel system with 256 MB M1 and
//! 2 GB M2 (capacities already scaled down by the authors to keep detailed
//! simulation tractable), and a single-core, one-channel system with 64 MB
//! M1 for the solo experiments. The default presets here scale capacities by
//! a further 1/32 — preserving every ratio that drives the results
//! (footprint/M1, M1:M2 = 1:8, STC-reach/M1, MPKI) — so the full benchmark
//! suite runs in minutes. `paper_quad()`/`paper_single()` keep the paper's
//! values.

use crate::clock::ClockSpec;
use crate::geometry::Geometry;

/// Timing of one memory technology, in memory-channel cycles (1.25 ns each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TechTiming {
    /// Row-to-column delay (activate → read/write), cycles.
    pub t_rcd: u64,
    /// CAS latency (read command → first data), cycles.
    pub t_cl: u64,
    /// Precharge latency, cycles.
    pub t_rp: u64,
    /// Minimum activate → precharge, cycles.
    pub t_ras: u64,
    /// Write recovery (end of write data → precharge), cycles.
    pub t_wr: u64,
    /// Data-bus occupancy of one 64 B transfer (BL8 on a 64-bit DDR bus
    /// at 2:1 data rate = 4 channel cycles).
    pub t_burst: u64,
    /// Refresh interval in cycles (`None` for NVM: no refresh).
    pub t_refi: Option<u64>,
    /// Refresh cycle time (bank unavailable), cycles.
    pub t_rfc: u64,
}

impl TechTiming {
    /// Minimum activate-to-activate time for the same bank (tRC).
    #[inline]
    pub fn t_rc(&self) -> u64 {
        self.t_ras + self.t_rp
    }
}

/// Full memory timing configuration for one channel (both modules share the
/// channel clock and data bus, as in Intel Purley; paper §2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct MemTimingConfig {
    /// Clock specification (channel frequency, core multiplier).
    pub clock: ClockSpec,
    /// M1 (DRAM) timing.
    pub m1: TechTiming,
    /// M2 (NVM) timing.
    pub m2: TechTiming,
    /// FR-FCFS-Cap row-hit cap (4 in the paper, after Mutlu & Moscibroda).
    pub frfcfs_cap: u32,
    /// Write-queue occupancy that forces draining writes.
    pub write_drain_high: usize,
    /// Write-queue occupancy at which draining stops.
    pub write_drain_low: usize,
}

impl MemTimingConfig {
    /// The paper's Table 8 timings: DDR4-1600-like M1; M2 with
    /// `tRCD_M2 = 10 × tRCD_M1` and `tWR_M2 = 2 × tRCD_M2`, identical other
    /// timings except adjusted tRAS/tRC and no refresh.
    pub fn paper() -> Self {
        let clock = ClockSpec::paper();
        let ns = |x: f64| clock.ns_to_cycles(x);
        let m1 = TechTiming {
            t_rcd: ns(13.75),
            t_cl: ns(13.75),
            t_rp: ns(13.75),
            t_ras: ns(35.0),
            t_wr: ns(15.0),
            t_burst: 4,
            t_refi: Some(ns(7800.0)),
            t_rfc: ns(350.0),
        };
        let m2 = TechTiming {
            t_rcd: ns(137.50),
            t_cl: ns(13.75),
            t_rp: ns(13.75),
            // tRAS adjusted so a full read (activate -> data out) fits.
            t_ras: ns(137.50 + 35.0),
            t_wr: ns(275.0),
            t_burst: 4,
            t_refi: None,
            t_rfc: 0,
        };
        MemTimingConfig {
            clock,
            m1,
            m2,
            frfcfs_cap: 4,
            write_drain_high: 24,
            write_drain_low: 8,
        }
    }

    /// Analytic latency of one 2 KB block swap, in channel cycles.
    ///
    /// Reproduces the overlap structure of paper §4.1: both reads start
    /// after a precharge; the M1 read bursts go first on the shared bus,
    /// then the M2 read bursts; the write bursts to M2 then M1 follow; the
    /// M1 write recovery hides under the (much longer) M2 write recovery.
    /// With Table 8 values this evaluates to 796.25 ns, matching the
    /// paper's analytic swap latency (observed average 820 ns, within 3%).
    pub fn swap_latency(&self, lines_per_block: u64) -> u64 {
        let b = lines_per_block * self.m1.t_burst; // bus time of one block
        let m1_read_done = self.m1.t_rp + self.m1.t_rcd + self.m1.t_cl + b;
        let m2_ready = self.m2.t_rp + self.m2.t_rcd + self.m2.t_cl;
        let reads_done = m1_read_done.max(m2_ready) + b;
        reads_done + (b + self.m2.t_wr).max(2 * b + self.m1.t_wr)
    }

    /// Difference in uncontended 64 B read latencies of M2 and M1, cycles.
    /// This is the per-access benefit of having a block in M1; PoM's
    /// parameter `K = ceil(swap_latency / read_gap)` derives from it.
    pub fn read_latency_gap(&self) -> u64 {
        (self.m2.t_rcd + self.m2.t_cl) - (self.m1.t_rcd + self.m1.t_cl)
    }

    /// PoM's swap-cost parameter `K` (paper §4.1 derives K = 7 and, like
    /// the PoM authors, uses the slightly larger 8).
    pub fn pom_k(&self, lines_per_block: u64) -> u32 {
        let k = self
            .swap_latency(lines_per_block)
            .div_ceil(self.read_latency_gap());
        (k + 1) as u32
    }
}

/// Per-operation memory energy model (documented engineering values; the
/// figures of merit use only relative energy efficiency).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConfig {
    /// M1 activate+precharge energy per row activation, picojoules.
    pub m1_act_pj: f64,
    /// M1 64 B read burst energy, picojoules.
    pub m1_read_pj: f64,
    /// M1 64 B write burst energy, picojoules.
    pub m1_write_pj: f64,
    /// M2 array read (activate) energy, picojoules.
    pub m2_act_pj: f64,
    /// M2 64 B read burst energy, picojoules.
    pub m2_read_pj: f64,
    /// M2 64 B write burst energy (NVM writes are expensive), picojoules.
    pub m2_write_pj: f64,
    /// M1 refresh energy per refresh command, picojoules.
    pub m1_refresh_pj: f64,
    /// M1 background power per channel, milliwatts.
    pub m1_background_mw: f64,
    /// M2 background power per channel, milliwatts (no refresh, lower
    /// standby than DRAM).
    pub m2_background_mw: f64,
}

impl EnergyConfig {
    /// Default values: DDR4-like DRAM and PCM/3D-XPoint-like NVM with an
    /// asymmetric, high write energy.
    pub fn default_values() -> Self {
        EnergyConfig {
            m1_act_pj: 2_000.0,
            m1_read_pj: 5_000.0,
            m1_write_pj: 5_500.0,
            m2_act_pj: 8_000.0,
            m2_read_pj: 5_000.0,
            m2_write_pj: 34_000.0,
            m1_refresh_pj: 12_000.0,
            m1_background_mw: 150.0,
            m2_background_mw: 60.0,
        }
    }
}

/// Swap-group Table Cache geometry (per channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StcConfig {
    /// Total ST entries held by this channel's STC.
    pub entries: usize,
    /// Associativity (8 in Table 8).
    pub ways: usize,
}

impl StcConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.entries / self.ways
    }
}

/// Core model parameters (paper Table 8: width 4, ROB 256).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Number of cores (= programs).
    pub num_cores: usize,
    /// Reorder-buffer size in instructions.
    pub rob: usize,
    /// Retire width, instructions per core cycle.
    pub width: u32,
    /// Maximum outstanding load misses per core.
    pub mshrs: usize,
    /// Write-buffer entries per core (stores retire into it).
    pub write_buffer: usize,
}

/// Cache hierarchy geometry (paper Table 8), recorded for reference.
///
/// No model reads it: every core is fed a synthetic post-L3 stream
/// (DESIGN.md §1), so no request passes through a cache. It stays
/// because [`SystemConfig`]'s `Debug` text, which includes it, is the
/// config fingerprint of checkpoint keys and snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheHierarchyConfig {
    /// L1 data cache size in bytes (per core).
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 size in bytes (per core).
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Shared L3 size in bytes.
    pub l3_bytes: usize,
    /// L3 associativity.
    pub l3_ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

/// PoM migration-algorithm parameters (paper Table 2 row 2 and §4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct PomParams {
    /// Candidate global thresholds; PoM picks one per epoch or prohibits
    /// migrations (Table 2: 1, 6, 18 or 48 accesses).
    pub thresholds: Vec<u32>,
    /// Epoch length in served requests (system-wide).
    pub epoch_requests: u64,
    /// Weight of a write request in accesses (8 in §4.1, due to the M1/M2
    /// characteristics).
    pub write_weight: u32,
}

/// MDM parameters (paper §3.2 and §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdmParams {
    /// Least predicted number of remaining accesses that justifies a
    /// promotion; same meaning as PoM's K (8 in §4.1).
    pub min_benefit: u32,
    /// Weight of a write request in accesses (8 in §4.1).
    pub write_weight: u32,
    /// Saturation value of the 6-bit STC access counters (63).
    pub ac_max: u32,
    /// Duration of each observation/estimation phase in MDM-counter
    /// updates per program (1 K in §4.1).
    pub phase_updates: u64,
    /// During estimation, recompute `exp_cnt` every this many updates per
    /// program (100 in §4.1).
    pub recompute_every: u64,
}

impl MdmParams {
    /// Paper defaults.
    pub fn paper() -> Self {
        MdmParams {
            min_benefit: 8,
            write_weight: 8,
            ac_max: 63,
            phase_updates: 1000,
            recompute_every: 100,
        }
    }
}

/// RSM parameters (paper §3.1 and §4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RsmParams {
    /// Sampling-period duration in served requests per program
    /// (128 K in §4.1; scaled presets shrink it proportionally).
    pub m_samp: u64,
    /// Exponential-smoothing parameter (0.125 in §3.1.3).
    pub alpha: f64,
    /// Comparison threshold for single SF conditions (~3%: 1 + 1/32).
    pub sf_threshold: f64,
    /// Comparison threshold for the SF-product condition (~6%: 1 + 1/16).
    pub sf_product_threshold: f64,
}

impl RsmParams {
    /// Paper defaults (M_samp = 128 K requests).
    pub fn paper() -> Self {
        RsmParams {
            m_samp: 128 * 1024,
            alpha: 0.125,
            sf_threshold: 1.0 + 1.0 / 32.0,
            sf_product_threshold: 1.0 + 1.0 / 16.0,
        }
    }
}

/// MemPod parameters (paper §4.1: best configuration found).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemPodParams {
    /// MEA interval in nanoseconds (50 µs).
    pub interval_ns: u64,
    /// Number of MEA counters (128).
    pub counters: usize,
    /// Maximum migrations per interval (64).
    pub max_migrations: usize,
    /// Weight of a write request in accesses (1 for MemPod in §4.1).
    pub write_weight: u32,
}

impl MemPodParams {
    /// Paper defaults.
    pub fn paper() -> Self {
        MemPodParams {
            interval_ns: 50_000,
            counters: 128,
            max_migrations: 64,
            write_weight: 1,
        }
    }
}

/// CAMEO-style parameters (paper Table 2 row 1: global threshold of one
/// access), applied at the 2 KB granularity of the PoM organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CameoParams {
    /// Accesses to an M2 block before it is promoted (1).
    pub threshold: u32,
}

/// The complete system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Address-space geometry.
    pub org: Geometry,
    /// Memory timing.
    pub mem: MemTimingConfig,
    /// Energy model.
    pub energy: EnergyConfig,
    /// STC geometry per channel.
    pub stc: StcConfig,
    /// Core model.
    pub cpu: CpuConfig,
    /// Cache hierarchy geometry of Table 8. Read by no model; kept in the
    /// config fingerprint (see [`CacheHierarchyConfig`]).
    pub caches: CacheHierarchyConfig,
    /// PoM parameters.
    pub pom: PomParams,
    /// MDM parameters.
    pub mdm: MdmParams,
    /// RSM parameters.
    pub rsm: RsmParams,
    /// MemPod parameters.
    pub mempod: MemPodParams,
    /// CAMEO parameters.
    pub cameo: CameoParams,
    /// Divisor applied to the paper's Table 9 footprints (32 for the scaled
    /// presets, 1 for the paper presets).
    pub footprint_div: u64,
    /// Base RNG seed; every stochastic component derives its own stream.
    pub seed: u64,
}

impl SystemConfig {
    fn common(org: Geometry, stc_entries_per_channel: usize, cores: usize) -> Self {
        let mem = MemTimingConfig::paper();
        SystemConfig {
            org,
            mem,
            energy: EnergyConfig::default_values(),
            stc: StcConfig {
                entries: stc_entries_per_channel,
                ways: 8,
            },
            cpu: CpuConfig {
                num_cores: cores,
                rob: 256,
                width: 4,
                mshrs: 16,
                write_buffer: 64,
            },
            caches: CacheHierarchyConfig {
                l1_bytes: 32 << 10,
                l1_ways: 4,
                l2_bytes: 256 << 10,
                l2_ways: 8,
                l3_bytes: 8 << 20,
                l3_ways: 16,
                line_bytes: 64,
            },
            pom: PomParams {
                thresholds: vec![1, 6, 18, 48],
                epoch_requests: 64 * 1024,
                write_weight: 8,
            },
            mdm: MdmParams::paper(),
            rsm: RsmParams::paper(),
            mempod: MemPodParams::paper(),
            cameo: CameoParams { threshold: 1 },
            footprint_div: 1,
            seed: 0x9E3779B97F4A7C15,
        }
    }

    /// Paper-scale quad-core system: 256 MB M1, 2 GB M2, two channels,
    /// 64 KB STC (8 K entries) split across the channel MCs.
    pub fn paper_quad() -> Self {
        let org = Geometry::new(2048, 64, 4096, 2, 256 << 20, 8, 128, 16, 8192, 8);
        Self::common(org, 4096, 4)
    }

    /// Paper-scale single-core system: 64 MB M1, 512 MB M2, one channel,
    /// scaled STC and L3 (paper §4.1).
    pub fn paper_single() -> Self {
        let org = Geometry::new(2048, 64, 4096, 1, 64 << 20, 8, 128, 16, 8192, 8);
        let mut cfg = Self::common(org, 2048, 1);
        cfg.caches.l3_bytes = 2 << 20;
        cfg
    }

    /// Default evaluation preset: the paper quad system with all capacities
    /// divided by 32 (M1 = 8 MB, M2 = 64 MB, STC reach and program
    /// footprints scaled by the same factor) and the request-denominated
    /// intervals (RSM sampling period, PoM epoch) scaled to match the
    /// shorter runs.
    pub fn scaled_quad() -> Self {
        let org = Geometry::new(2048, 64, 4096, 2, 8 << 20, 8, 128, 16, 8192, 8);
        // Reach of 1/8 groups (vs the paper's 1/16): scaling shrinks the
        // absolute STC so much that per-group turnover effects would
        // otherwise dominate; 1/8 restores hit rates comparable to the
        // paper's (~94% multiprogram, ~70-90% solo).
        let mut cfg = Self::common(org, 256, 4);
        cfg.caches.l3_bytes = 256 << 10;
        cfg.rsm.m_samp = 8 * 1024;
        cfg.pom.epoch_requests = 8 * 1024;
        cfg.footprint_div = 32;
        cfg
    }

    /// Default single-core preset: the paper single-core system divided by
    /// 32 (M1 = 2 MB, M2 = 16 MB).
    pub fn scaled_single() -> Self {
        let org = Geometry::new(2048, 64, 4096, 1, 2 << 20, 8, 128, 16, 8192, 8);
        let mut cfg = Self::common(org, 128, 1);
        cfg.caches.l3_bytes = 64 << 10;
        cfg.rsm.m_samp = 8 * 1024;
        cfg.pom.epoch_requests = 8 * 1024;
        cfg.footprint_div = 32;
        cfg
    }

    /// Returns a copy with a different M1:M2 capacity ratio (the §5.2
    /// sensitivity study). Ratios below the base 1:8 *grow M1* with M2
    /// fixed (the paper speaks of programs fitting "the twice larger M1"
    /// at 1:4); ratios above grow M2 with M1 fixed (so that the largest
    /// footprints still fit the total capacity, as they must have in the
    /// paper's 1:16 system). The STC is resized to keep its group reach.
    pub fn with_capacity_ratio(&self, m2_per_m1: u32) -> Self {
        let mut cfg = self.clone();
        let m1_bytes = if m2_per_m1 <= self.org.m2_per_m1 {
            self.org.m2_bytes() / u64::from(m2_per_m1)
        } else {
            self.org.m1_bytes
        };
        cfg.org = Geometry::new(
            self.org.block_bytes,
            self.org.line_bytes,
            self.org.page_bytes,
            self.org.num_channels,
            m1_bytes,
            m2_per_m1,
            self.org.num_regions,
            self.org.banks_per_module,
            self.org.row_bytes,
            self.org.st_entry_bytes,
        );
        let scale = cfg.org.num_groups() as f64 / self.org.num_groups() as f64;
        cfg.stc.entries = (((self.stc.entries as f64) * scale / 8.0).round() as usize * 8).max(8);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_swap_latency_matches_analytic_796ns() {
        let mem = MemTimingConfig::paper();
        let cycles = mem.swap_latency(32);
        let ns = mem.clock.cycles_to_ns(cycles);
        assert!(
            (ns - 796.25).abs() < 1e-6,
            "swap latency {ns} ns != 796.25 ns"
        );
    }

    #[test]
    fn paper_read_gap_and_k() {
        let mem = MemTimingConfig::paper();
        // 123.75 ns = 99 cycles.
        assert_eq!(mem.read_latency_gap(), 99);
        // K = ceil(637/99) = 7, plus one -> 8 (paper §4.1).
        assert_eq!(mem.pom_k(32), 8);
    }

    #[test]
    fn m2_timing_relations() {
        let mem = MemTimingConfig::paper();
        assert_eq!(mem.m2.t_rcd, 10 * mem.m1.t_rcd);
        assert_eq!(mem.m2.t_wr, 2 * mem.m2.t_rcd);
        assert_eq!(mem.m2.t_cl, mem.m1.t_cl);
        assert_eq!(mem.m2.t_rp, mem.m1.t_rp);
        assert!(mem.m2.t_refi.is_none(), "M2 has no refresh");
        assert!(mem.m1.t_refi.is_some());
    }

    #[test]
    fn presets_preserve_ratios() {
        let paper = SystemConfig::paper_quad();
        let scaled = SystemConfig::scaled_quad();
        assert_eq!(paper.org.m2_per_m1, scaled.org.m2_per_m1);
        assert_eq!(paper.org.m1_bytes / scaled.org.m1_bytes, 32);
        // STC reach (groups per STC entry): 1/16 at paper scale, and the
        // deliberately doubled 1/8 at reduced scale (see `scaled_quad`).
        let paper_reach =
            paper.org.num_groups() / (paper.stc.entries as u64 * u64::from(paper.org.num_channels));
        let scaled_reach = scaled.org.num_groups()
            / (scaled.stc.entries as u64 * u64::from(scaled.org.num_channels));
        assert_eq!(paper_reach, 16);
        assert_eq!(scaled_reach, 8);
    }

    #[test]
    fn single_core_presets() {
        let s = SystemConfig::scaled_single();
        assert_eq!(s.cpu.num_cores, 1);
        assert_eq!(s.org.num_channels, 1);
        assert_eq!(s.org.m1_bytes, 2 << 20);
        assert_eq!(s.stc.sets(), 16);
        let p = SystemConfig::paper_single();
        assert_eq!(p.org.m1_bytes, 64 << 20);
    }

    #[test]
    fn capacity_ratio_variants() {
        let base = SystemConfig::scaled_single();
        // M2 stays fixed at 16 MB; M1 resizes.
        // 1:4 grows M1 (M2 fixed at 16 MB).
        let quarter = base.with_capacity_ratio(4);
        assert_eq!(quarter.org.m2_bytes(), 16 << 20);
        assert_eq!(quarter.org.m1_bytes, 4 << 20);
        assert_eq!(quarter.org.slots_per_group(), 5);
        // 1:16 grows M2 (M1 fixed at 2 MB).
        let sixteen = base.with_capacity_ratio(16);
        assert_eq!(sixteen.org.m1_bytes, 2 << 20);
        assert_eq!(sixteen.org.m2_bytes(), 32 << 20);
        assert_eq!(sixteen.org.slots_per_group(), 17);
        // STC reach preserved (entries scale with groups).
        assert_eq!(quarter.stc.entries, 256);
        assert_eq!(sixteen.stc.entries, 128);
    }

    #[test]
    fn stc_geometry() {
        let cfg = SystemConfig::paper_quad();
        // 8K entries of 8 B = 64 KB total STC storage, as in Table 8.
        let total_entries = cfg.stc.entries * cfg.org.num_channels as usize;
        assert_eq!(total_entries * 8, 64 << 10);
        assert_eq!(cfg.stc.ways, 8);
    }
}
