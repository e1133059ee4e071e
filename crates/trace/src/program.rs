//! The synthetic program generator: an [`OpSource`] combining an address
//! pattern with MPKI-derived instruction gaps and a write fraction.

use profess_cpu::{MemOp, MemOpKind, OpSource};
use profess_rng::Rng;

use crate::patterns::{seeded_rng, Pattern};

/// Parameters of one synthetic program instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramParams {
    /// Post-L3 misses per kilo-instruction (paper Table 9).
    pub mpki: f64,
    /// Footprint in 64 B lines.
    pub lines: u64,
    /// Fraction of memory operations that are writes.
    pub write_frac: f64,
    /// Instruction budget; the op source ends when it is exhausted.
    pub instructions: u64,
}

/// On/off burst modulation of a program's arrival process: `on_ops`
/// memory operations are emitted at the pattern's natural rate, then an
/// idle window of `off_gap` instructions is inserted before the next
/// one, and the cycle repeats. The duty cycle (fraction of instructions
/// spent in on-phases) is `on_ops * (1000 / mpki)` over that plus
/// `off_gap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstParams {
    /// Memory operations per on-phase.
    pub on_ops: u64,
    /// Idle instructions inserted between on-phases.
    pub off_gap: u32,
}

impl BurstParams {
    /// The configured duty cycle for a program running at `mpki`.
    pub fn duty_cycle(&self, mpki: f64) -> f64 {
        let on_instr = self.on_ops as f64 * (1000.0 / mpki);
        on_instr / (on_instr + f64::from(self.off_gap))
    }
}

/// A running synthetic program; implements [`OpSource`].
pub struct ProgramGen {
    params: ProgramParams,
    pattern: Box<dyn Pattern + Send>,
    rng: Rng,
    instructions_emitted: u64,
    ops_emitted: u64,
    mean_gap: f64,
    // `ln(1 - p)` of the gap distribution (see `sample_gap`), computed
    // once rather than per op.
    ln_q: f64,
    burst: Option<BurstParams>,
}

impl std::fmt::Debug for ProgramGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramGen")
            .field("params", &self.params)
            .field("instructions_emitted", &self.instructions_emitted)
            .field("ops_emitted", &self.ops_emitted)
            .finish_non_exhaustive()
    }
}

impl ProgramGen {
    /// Creates a program from parameters, a pattern and a seed.
    ///
    /// # Panics
    ///
    /// Panics if `mpki` is not positive or the footprint is empty.
    pub fn new(params: ProgramParams, pattern: Box<dyn Pattern + Send>, seed: u64) -> Self {
        assert!(params.mpki > 0.0, "mpki must be positive");
        assert!(params.lines > 0, "empty footprint");
        // Mean instructions per memory op, including the op itself.
        let per_op = 1000.0 / params.mpki;
        let mean_gap = (per_op - 1.0).max(0.0);
        // Geometric gaps: mean = (1-p)/p with p = 1/(mean+1).
        let p = 1.0 / (mean_gap + 1.0);
        ProgramGen {
            params,
            pattern,
            rng: seeded_rng(seed),
            instructions_emitted: 0,
            ops_emitted: 0,
            mean_gap,
            ln_q: (1.0 - p).ln(),
            burst: None,
        }
    }

    /// [`ProgramGen::new`] with on/off burst modulation of the arrival
    /// process. The burst logic draws nothing from the RNG, so a bursty
    /// program visits exactly the lines its non-bursty twin would —
    /// only the instruction gaps differ.
    ///
    /// # Panics
    ///
    /// Panics as [`ProgramGen::new`] does, and if `burst.on_ops` is
    /// zero.
    pub fn with_burst(
        params: ProgramParams,
        pattern: Box<dyn Pattern + Send>,
        seed: u64,
        burst: BurstParams,
    ) -> Self {
        assert!(burst.on_ops > 0, "empty on-phase");
        let mut g = ProgramGen::new(params, pattern, seed);
        g.burst = Some(burst);
        g
    }

    /// The burst modulation, if any.
    pub fn burst(&self) -> Option<BurstParams> {
        self.burst
    }

    /// The program's parameters.
    pub fn params(&self) -> &ProgramParams {
        &self.params
    }

    /// Memory operations emitted so far.
    pub fn ops_emitted(&self) -> u64 {
        self.ops_emitted
    }

    /// Samples a geometric gap with the configured mean.
    fn sample_gap(&mut self) -> u32 {
        if self.mean_gap < 1e-9 {
            return 0;
        }
        // Geometric via inverse transform.
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let g = u.ln() / self.ln_q;
        // g >= 0, so the saturating cast truncates it as floor would.
        g.min(1e9) as u32
    }
}

impl OpSource for ProgramGen {
    fn next_op(&mut self) -> Option<MemOp> {
        if self.instructions_emitted >= self.params.instructions {
            return None;
        }
        let mut gap = self.sample_gap();
        // Burst boundary: after every `on_ops` operations the next op is
        // preceded by the off-phase's idle instructions.
        if let Some(b) = self.burst {
            if self.ops_emitted > 0 && self.ops_emitted.is_multiple_of(b.on_ops) {
                gap = gap.saturating_add(b.off_gap);
            }
        }
        let r = self.pattern.next_ref(&mut self.rng);
        let is_write = self.rng.next_f64() < self.params.write_frac;
        self.instructions_emitted += u64::from(gap) + 1;
        self.ops_emitted += 1;
        Some(MemOp {
            gap,
            kind: if is_write {
                MemOpKind::Store
            } else {
                MemOpKind::Load
            },
            line: r.line,
            // Stores never carry a dependence in this model.
            dependent: r.dependent && !is_write,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{PointerChase, Streaming};

    fn params(mpki: f64, instructions: u64) -> ProgramParams {
        ProgramParams {
            mpki,
            lines: 1 << 16,
            write_frac: 0.25,
            instructions,
        }
    }

    #[test]
    fn respects_instruction_budget() {
        let p = params(20.0, 100_000);
        let mut g = ProgramGen::new(p, Box::new(Streaming::new(p.lines)), 1);
        let mut instructions = 0u64;
        while let Some(op) = g.next_op() {
            instructions += u64::from(op.gap) + 1;
        }
        assert!(instructions >= 100_000);
        // Overshoot is at most the last op's gap (tiny relative to budget).
        assert!(instructions < 110_000);
        assert_eq!(instructions, g.instructions_emitted);
    }

    #[test]
    fn mpki_is_approximated() {
        let p = params(30.0, 1_000_000);
        let mut g = ProgramGen::new(p, Box::new(Streaming::new(p.lines)), 2);
        let mut ops = 0u64;
        while g.next_op().is_some() {
            ops += 1;
        }
        let mpki = ops as f64 * 1000.0 / g.instructions_emitted as f64;
        assert!(
            (mpki - 30.0).abs() < 2.0,
            "generated MPKI {mpki} far from 30"
        );
    }

    #[test]
    fn write_fraction_is_approximated() {
        let p = params(50.0, 400_000);
        let mut g = ProgramGen::new(p, Box::new(Streaming::new(p.lines)), 3);
        let mut writes = 0u64;
        let mut ops = 0u64;
        while let Some(op) = g.next_op() {
            ops += 1;
            if op.kind == MemOpKind::Store {
                writes += 1;
            }
        }
        let frac = writes as f64 / ops as f64;
        assert!((frac - 0.25).abs() < 0.03, "write fraction {frac}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = params(10.0, 50_000);
        let mut a = ProgramGen::new(p, Box::new(PointerChase::new(p.lines)), 42);
        let mut b = ProgramGen::new(p, Box::new(PointerChase::new(p.lines)), 42);
        for _ in 0..200 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = params(10.0, 50_000);
        let mut a = ProgramGen::new(p, Box::new(PointerChase::new(p.lines)), 1);
        let mut b = ProgramGen::new(p, Box::new(PointerChase::new(p.lines)), 2);
        let same = (0..100).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 100);
    }

    #[test]
    fn burst_inserts_off_gaps_without_changing_lines() {
        let p = params(25.0, 2_000_000);
        let burst = BurstParams {
            on_ops: 100,
            off_gap: 50_000,
        };
        let mut plain = ProgramGen::new(p, Box::new(Streaming::new(p.lines)), 11);
        let mut bursty = ProgramGen::with_burst(p, Box::new(Streaming::new(p.lines)), 11, burst);
        let mut i = 0u64;
        loop {
            let (a, b) = (plain.next_op(), bursty.next_op());
            let (Some(a), Some(b)) = (a, b) else { break };
            assert_eq!(a.line, b.line, "burst must not perturb the address stream");
            assert_eq!(a.kind, b.kind);
            if i > 0 && i.is_multiple_of(burst.on_ops) {
                assert_eq!(b.gap, a.gap + burst.off_gap, "off-gap missing at op {i}");
            } else {
                assert_eq!(b.gap, a.gap);
            }
            i += 1;
        }
        assert!(i > 1000);
    }

    #[test]
    fn stores_are_never_dependent() {
        let p = ProgramParams {
            mpki: 100.0,
            lines: 1 << 12,
            write_frac: 0.9,
            instructions: 100_000,
        };
        let mut g = ProgramGen::new(p, Box::new(PointerChase::new(p.lines)), 5);
        while let Some(op) = g.next_op() {
            if op.kind == MemOpKind::Store {
                assert!(!op.dependent);
            }
        }
    }
}
