//! The ten SPEC CPU2006 program models of the paper's Table 9.
//!
//! Each model reproduces the published L3 MPKI and footprint (scaled by the
//! configured divisor) and an access-pattern mix chosen to match the
//! program's published character: mcf, omnetpp and libquantum use irregular
//! pointer-based structures, soplex mixes regular and irregular accesses
//! (paper §4.2), the floating-point codes stream or stride. Every model
//! blends block classes with different reuse so that per-block cost-benefit
//! analysis has something real to discriminate — the property the paper's
//! single-program study (Figure 5) exercises.

use crate::patterns::{
    seeded_rng, ChurnHotSet, Hotspot, Mix, MultiStream, Pattern, Phased, PointerChase, Streaming,
    WeightedInterleave, LINES_PER_BLOCK,
};
use crate::program::{BurstParams, ProgramGen, ProgramParams};

/// Working-set drift period (references) for hot-spot components.
const DRIFT_REFS: u64 = 50_000;

/// Phase length (references) of the phase-changing synthetic program.
const PHASE_REFS: u64 = 25_000;

/// Churn period (references) of the adversarial hot-set program: long
/// enough for a hot block to look promotion-worthy to a cost-benefit
/// filter, short enough that the promotion never amortizes.
const CHURN_REFS: u64 = 1_500;

/// Tenant sub-footprints are cut at 2 KB block boundaries so the blend's
/// tenants never share a block.
const LINES_FLOOR: u64 = LINES_PER_BLOCK;

/// The ten Table 9 programs, plus the synthetic characterization
/// programs behind the adversarial workload families (`SYNTHETIC`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[expect(
    missing_docs,
    reason = "the SPEC CPU2006 program names document themselves"
)]
pub enum SpecProgram {
    Bwaves,
    GemsFDTD,
    Lbm,
    Leslie3d,
    Libquantum,
    Mcf,
    Milc,
    Omnetpp,
    Soplex,
    Zeusmp,
    /// Phase-changing program: scan → irregular → hot-loop phases.
    PhaseFlip,
    /// Bursty on/off arrival process over a streaming mix.
    BurstStream,
    /// Consolidated multi-tenant blend (disjoint sub-footprints, exact
    /// per-tenant request shares).
    TenantBlend,
    /// Adversarial hot-set churn engineered to thrash MDM's
    /// probabilistic migration filter.
    HotChurn,
}

impl SpecProgram {
    /// All ten programs, in Table 9 order.
    pub const ALL: [SpecProgram; 10] = [
        SpecProgram::Bwaves,
        SpecProgram::GemsFDTD,
        SpecProgram::Lbm,
        SpecProgram::Leslie3d,
        SpecProgram::Libquantum,
        SpecProgram::Mcf,
        SpecProgram::Milc,
        SpecProgram::Omnetpp,
        SpecProgram::Soplex,
        SpecProgram::Zeusmp,
    ];

    /// The synthetic characterization programs (not part of Table 9, so
    /// not in [`SpecProgram::ALL`]; the sens_* sweeps stay ten-wide).
    pub const SYNTHETIC: [SpecProgram; 4] = [
        SpecProgram::PhaseFlip,
        SpecProgram::BurstStream,
        SpecProgram::TenantBlend,
        SpecProgram::HotChurn,
    ];

    /// The SPEC benchmark name (or the synthetic program's id).
    pub fn name(self) -> &'static str {
        match self {
            SpecProgram::Bwaves => "bwaves",
            SpecProgram::GemsFDTD => "GemsFDTD",
            SpecProgram::Lbm => "lbm",
            SpecProgram::Leslie3d => "leslie3d",
            SpecProgram::Libquantum => "libquantum",
            SpecProgram::Mcf => "mcf",
            SpecProgram::Milc => "milc",
            SpecProgram::Omnetpp => "omnetpp",
            SpecProgram::Soplex => "soplex",
            SpecProgram::Zeusmp => "zeusmp",
            SpecProgram::PhaseFlip => "phaseflip",
            SpecProgram::BurstStream => "burststream",
            SpecProgram::TenantBlend => "tenantblend",
            SpecProgram::HotChurn => "hotchurn",
        }
    }

    /// Looks a program up by its SPEC name (or synthetic id).
    pub fn from_name(name: &str) -> Option<SpecProgram> {
        SpecProgram::ALL
            .iter()
            .chain(SpecProgram::SYNTHETIC.iter())
            .copied()
            .find(|p| p.name() == name)
    }

    /// L3 misses per kilo-instruction (Table 9).
    pub fn mpki(self) -> f64 {
        match self {
            SpecProgram::Bwaves => 11.0,
            SpecProgram::GemsFDTD => 16.0,
            SpecProgram::Lbm => 32.0,
            SpecProgram::Leslie3d => 15.0,
            SpecProgram::Libquantum => 30.0,
            SpecProgram::Mcf => 60.0,
            SpecProgram::Milc => 18.0,
            SpecProgram::Omnetpp => 19.0,
            SpecProgram::Soplex => 29.0,
            SpecProgram::Zeusmp => 5.0,
            SpecProgram::PhaseFlip => 22.0,
            SpecProgram::BurstStream => 25.0,
            SpecProgram::TenantBlend => 24.0,
            SpecProgram::HotChurn => 45.0,
        }
    }

    /// Footprint in megabytes at paper scale (Table 9).
    pub fn footprint_mb(self) -> u64 {
        match self {
            SpecProgram::Bwaves => 265,
            SpecProgram::GemsFDTD => 499,
            SpecProgram::Lbm => 402,
            SpecProgram::Leslie3d => 76,
            SpecProgram::Libquantum => 32,
            SpecProgram::Mcf => 525,
            SpecProgram::Milc => 547,
            SpecProgram::Omnetpp => 138,
            SpecProgram::Soplex => 241,
            SpecProgram::Zeusmp => 112,
            SpecProgram::PhaseFlip => 160,
            SpecProgram::BurstStream => 96,
            SpecProgram::TenantBlend => 192,
            SpecProgram::HotChurn => 256,
        }
    }

    /// Fraction of post-L3 requests that are writes.
    pub fn write_frac(self) -> f64 {
        match self {
            SpecProgram::Bwaves => 0.20,
            SpecProgram::GemsFDTD => 0.25,
            SpecProgram::Lbm => 0.45,
            SpecProgram::Leslie3d => 0.25,
            SpecProgram::Libquantum => 0.22,
            SpecProgram::Mcf => 0.15,
            SpecProgram::Milc => 0.25,
            SpecProgram::Omnetpp => 0.30,
            SpecProgram::Soplex => 0.20,
            SpecProgram::Zeusmp => 0.25,
            SpecProgram::PhaseFlip => 0.25,
            SpecProgram::BurstStream => 0.30,
            SpecProgram::TenantBlend => 0.25,
            SpecProgram::HotChurn => 0.20,
        }
    }

    /// Footprint in 64 B lines after dividing the paper footprint by
    /// `div`, rounded up to whole 4 KB pages.
    pub fn footprint_lines(self, div: u64) -> u64 {
        let bytes = (self.footprint_mb() << 20) / div;
        let pages = bytes.div_ceil(4096).max(1);
        pages * 64
    }

    /// Builds the program's address pattern over `lines` lines.
    ///
    /// Every model mixes a *hot* component (Zipf-skewed blocks, random
    /// line within the block) with either a *scan* component or a
    /// *pointer-chase* component (dependent, uniform random), per the
    /// program's published character (§4.2).
    ///
    /// Scans use many concurrent sequential walks (`MultiStream`): a 2 KB
    /// block still receives its 32 accesses within one burst of activity
    /// (so the STC's temporal filter sees them), but they are spaced by
    /// the other walks' references, whose traffic closes the row buffer in
    /// between. Combined with randomized page-frame placement this
    /// reproduces the post-L3 row-buffer locality regime the paper's
    /// cost-benefit arithmetic is calibrated for (K = 8: an access to a
    /// 2 KB block in M2 pays much of the 64 B read-latency gap).
    pub fn pattern(self, lines: u64, seed: u64) -> Box<dyn Pattern + Send> {
        let mut rng = seeded_rng(seed ^ 0xABCD_1234);
        match self {
            SpecProgram::Bwaves => Box::new(Mix::new(
                Box::new(MultiStream::new(lines, 24, &mut rng)),
                Box::new(Hotspot::new(lines, 1.05, DRIFT_REFS, false, &mut rng)),
                0.55,
            )),
            SpecProgram::GemsFDTD => Box::new(Mix::new(
                Box::new(MultiStream::new(lines, 28, &mut rng)),
                Box::new(Hotspot::new(lines, 1.00, DRIFT_REFS, false, &mut rng)),
                0.50,
            )),
            SpecProgram::Lbm => Box::new(Mix::new(
                Box::new(MultiStream::new(lines, 32, &mut rng)),
                Box::new(Hotspot::new(lines, 0.95, DRIFT_REFS, false, &mut rng)),
                0.45,
            )),
            SpecProgram::Leslie3d => Box::new(Mix::new(
                Box::new(MultiStream::new(lines, 20, &mut rng)),
                Box::new(Hotspot::new(lines, 1.05, DRIFT_REFS, false, &mut rng)),
                0.55,
            )),
            SpecProgram::Libquantum => Box::new(Mix::new(
                Box::new(MultiStream::new(lines, 3, &mut rng)),
                Box::new(Hotspot::new(lines, 0.60, 0, false, &mut rng)),
                0.20,
            )),
            SpecProgram::Mcf => Box::new(Mix::new(
                Box::new(PointerChase::new(lines)),
                Box::new(Hotspot::new(lines, 1.20, 2 * DRIFT_REFS, true, &mut rng)),
                0.50,
            )),
            SpecProgram::Milc => Box::new(Mix::new(
                Box::new(MultiStream::new(lines, 24, &mut rng)),
                Box::new(Hotspot::new(lines, 0.70, DRIFT_REFS, false, &mut rng)),
                0.40,
            )),
            SpecProgram::Omnetpp => Box::new(Mix::new(
                Box::new(PointerChase::new(lines)),
                Box::new(Hotspot::new(lines, 1.05, DRIFT_REFS, true, &mut rng)),
                0.50,
            )),
            SpecProgram::Soplex => Box::new(Mix::new(
                Box::new(MultiStream::new(lines, 16, &mut rng)),
                Box::new(Mix::new(
                    Box::new(PointerChase::new(lines)),
                    Box::new(Hotspot::new(lines, 1.10, DRIFT_REFS, false, &mut rng)),
                    0.70,
                )),
                0.60,
            )),
            SpecProgram::Zeusmp => Box::new(Mix::new(
                Box::new(MultiStream::new(lines, 16, &mut rng)),
                Box::new(Hotspot::new(lines, 0.95, DRIFT_REFS, false, &mut rng)),
                0.50,
            )),
            // Phase-changing: a scan phase, a skewed hot-loop phase and a
            // pointer-chase phase, each `PHASE_REFS` references long. The
            // block heat map is rewritten on every transition, so any
            // placement learned in one phase is stale in the next.
            SpecProgram::PhaseFlip => Box::new(Phased::new(
                vec![
                    Box::new(MultiStream::new(lines, 24, &mut rng)),
                    Box::new(Hotspot::new(lines, 1.15, 0, false, &mut rng)),
                    Box::new(PointerChase::new(lines)),
                ],
                PHASE_REFS,
            )),
            // Bursty arrivals over a streaming/hot mix; the on/off gating
            // lives in `burst_params`, not the address pattern.
            SpecProgram::BurstStream => Box::new(Mix::new(
                Box::new(MultiStream::new(lines, 16, &mut rng)),
                Box::new(Hotspot::new(lines, 1.00, DRIFT_REFS, false, &mut rng)),
                0.45,
            )),
            // Consolidated tenants with disjoint sub-footprints: a
            // streaming tenant over the first half (weight 2), a
            // Zipf-skewed tenant over the third quarter (weight 1) and a
            // pointer-chasing tenant over the last quarter (weight 1).
            // Smooth weighted round-robin keeps per-tenant shares exact.
            SpecProgram::TenantBlend => {
                let half = (lines / 2 / LINES_FLOOR) * LINES_FLOOR;
                let quarter = (lines / 4 / LINES_FLOOR) * LINES_FLOOR;
                Box::new(WeightedInterleave::new(vec![
                    (Box::new(Streaming::new(half.max(LINES_FLOOR))), 2, 0),
                    (
                        Box::new(Hotspot::new(
                            quarter.max(LINES_FLOOR),
                            1.10,
                            0,
                            false,
                            &mut rng,
                        )),
                        1,
                        half,
                    ),
                    (
                        Box::new(PointerChase::new(quarter.max(LINES_FLOOR))),
                        1,
                        half + quarter,
                    ),
                ]))
            }
            // Adversarial churn: eight hot 2 KB blocks absorb 85% of the
            // traffic, rotating every `CHURN_REFS` references with only
            // two survivors — promotions look profitable and never are.
            SpecProgram::HotChurn => {
                Box::new(ChurnHotSet::new(lines, 8, 2, 0.85, CHURN_REFS, &mut rng))
            }
        }
    }

    /// The program's arrival-process burst modulation, if it has one.
    pub fn burst_params(self) -> Option<BurstParams> {
        match self {
            SpecProgram::BurstStream => Some(BurstParams {
                on_ops: 2_000,
                off_gap: 200_000,
            }),
            _ => None,
        }
    }

    /// Creates a ready-to-run generator: footprint scaled by `div`, the
    /// given instruction budget, and a seed.
    pub fn generator(self, div: u64, instructions: u64, seed: u64) -> ProgramGen {
        let lines = self.footprint_lines(div);
        let params = ProgramParams {
            mpki: self.mpki(),
            lines,
            write_frac: self.write_frac(),
            instructions,
        };
        let pattern = self.pattern(lines, seed);
        match self.burst_params() {
            Some(b) => ProgramGen::with_burst(params, pattern, seed, b),
            None => ProgramGen::new(params, pattern, seed),
        }
    }

    /// Instruction budget that yields roughly `target_misses` memory
    /// operations at this program's MPKI.
    pub fn budget_for_misses(self, target_misses: u64) -> u64 {
        ((target_misses as f64) * 1000.0 / self.mpki()) as u64
    }
}

impl std::fmt::Display for SpecProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profess_cpu::OpSource;

    #[test]
    fn table9_values() {
        assert_eq!(SpecProgram::Mcf.mpki(), 60.0);
        assert_eq!(SpecProgram::Mcf.footprint_mb(), 525);
        assert_eq!(SpecProgram::Zeusmp.mpki(), 5.0);
        assert_eq!(SpecProgram::Libquantum.footprint_mb(), 32);
        assert_eq!(SpecProgram::ALL.len(), 10);
    }

    #[test]
    fn name_roundtrip() {
        for p in SpecProgram::ALL.into_iter().chain(SpecProgram::SYNTHETIC) {
            assert_eq!(SpecProgram::from_name(p.name()), Some(p));
        }
        assert_eq!(SpecProgram::from_name("nosuch"), None);
    }

    #[test]
    fn synthetic_programs_stay_out_of_table9() {
        for p in SpecProgram::SYNTHETIC {
            assert!(!SpecProgram::ALL.contains(&p));
        }
        assert_eq!(SpecProgram::SYNTHETIC.len(), 4);
    }

    #[test]
    fn synthetic_generators_produce_in_range_ops() {
        for p in SpecProgram::SYNTHETIC {
            let mut g = p.generator(64, 120_000, 17);
            let lines = g.params().lines;
            let mut n = 0u64;
            while let Some(op) = g.next_op() {
                assert!(op.line < lines, "{p}: line {} out of range", op.line);
                n += 1;
            }
            assert!(n > 0, "{p} produced no ops");
        }
    }

    #[test]
    fn burststream_carries_burst_params() {
        let b = SpecProgram::BurstStream.burst_params().unwrap();
        assert_eq!(b.on_ops, 2_000);
        // The configured duty cycle: 2000 ops at 25 MPKI = 80k on-phase
        // instructions vs a 200k idle window.
        let duty = b.duty_cycle(SpecProgram::BurstStream.mpki());
        assert!((duty - 80_000.0 / 280_000.0).abs() < 1e-12);
        for p in SpecProgram::ALL {
            assert_eq!(p.burst_params(), None, "{p} must not burst");
        }
        let g = SpecProgram::BurstStream.generator(64, 10_000, 1);
        assert_eq!(g.burst(), Some(b));
    }

    #[test]
    fn footprint_scaling() {
        // mcf at /32: 525 MB / 32 = 16.40625 MB -> lines.
        let lines = SpecProgram::Mcf.footprint_lines(32);
        let bytes = lines * 64;
        let expected = (525u64 << 20) / 32;
        assert!(bytes >= expected && bytes < expected + 4096);
        // Page aligned.
        assert_eq!(lines % 64, 0);
    }

    #[test]
    fn budget_matches_mpki() {
        let b = SpecProgram::Lbm.budget_for_misses(32_000);
        assert_eq!(b, 1_000_000);
    }

    #[test]
    fn all_generators_produce_in_range_ops() {
        for p in SpecProgram::ALL {
            let mut g = p.generator(64, 50_000, 11);
            let lines = g.params().lines;
            let mut n = 0;
            while let Some(op) = g.next_op() {
                assert!(op.line < lines, "{p}: line {} out of range", op.line);
                n += 1;
            }
            assert!(n > 0, "{p} produced no ops");
        }
    }

    #[test]
    fn irregular_programs_have_dependent_loads() {
        let mut g = SpecProgram::Mcf.generator(64, 100_000, 3);
        let mut dep = 0;
        let mut total = 0;
        while let Some(op) = g.next_op() {
            total += 1;
            if op.dependent {
                dep += 1;
            }
        }
        assert!(
            dep as f64 > 0.5 * total as f64,
            "mcf should be mostly dependent ({dep}/{total})"
        );
        let mut g = SpecProgram::Bwaves.generator(64, 100_000, 3);
        let mut dep = 0;
        while let Some(op) = g.next_op() {
            if op.dependent {
                dep += 1;
            }
        }
        assert_eq!(dep, 0, "bwaves has no dependence chains");
    }
}
