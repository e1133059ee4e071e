//! The Relative-Slowdown Monitor (RSM; paper §3.1).
//!
//! RSM compares each program's behaviour in its private region (no
//! competition for M1) against its behaviour in the shared regions, via
//! two slowdown factors:
//!
//! * `SF_A` (eq. 2): ratio of the fraction of requests served from M1 in
//!   the private region over that in the shared regions;
//! * `SF_B` (eq. 3): inverse fraction of swaps where both blocks belong to
//!   the program ("self swaps") among all swaps involving the program.
//!
//! Counters are sampled every `M_samp` served requests per program and
//! smoothed exponentially (α = 0.125) with a +1 bias to avoid zeros
//! (paper §3.1.3).

use profess_metrics::{State, StateCodec};
use profess_types::config::RsmParams;
use profess_types::ids::ProgramId;

use crate::regions::RegionClass;

/// Indices into the six Table 3 counters.
const REQ_M1_P: usize = 0;
const REQ_TOT_P: usize = 1;
const REQ_M1_S: usize = 2;
const REQ_TOT_S: usize = 3;
const SWAP_SELF: usize = 4;
const SWAP_TOT: usize = 5;

/// One sampling-period record (diagnostics; used by the Table 4 study).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SfSample {
    /// Raw SF_A computed from this period's counters alone.
    pub raw_sf_a: f64,
    /// Smoothed SF_A after this period.
    pub avg_sf_a: f64,
}

/// The outcome of one closed sampling period, returned by
/// [`Rsm::on_served`] so a tracing system can emit an `rsm_epoch` event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Program the period closed for.
    pub program: ProgramId,
    /// 1-based index of the completed period.
    pub period: u64,
    /// Raw per-period SF_A before smoothing.
    pub raw_sf_a: f64,
    /// Smoothed SF_A after this period.
    pub sf_a: f64,
    /// Smoothed SF_B after this period.
    pub sf_b: f64,
}

#[derive(Debug, Clone)]
struct ProgState {
    raw: [u64; 6],
    smoothed: Option<[f64; 6]>,
    served_this_period: u64,
    sf_a: f64,
    sf_b: f64,
    samples: Vec<SfSample>,
    periods: u64,
}

impl ProgState {
    fn new() -> Self {
        ProgState {
            raw: [0; 6],
            smoothed: None,
            served_this_period: 0,
            sf_a: 1.0,
            sf_b: 1.0,
            samples: Vec::new(),
            periods: 0,
        }
    }
}

/// The monitor: per-program Table 3 counters, sampling, and SF values.
#[derive(Debug)]
pub struct Rsm {
    params: RsmParams,
    states: Vec<ProgState>,
    keep_samples: bool,
}

impl Rsm {
    /// Creates the monitor for `num_programs` programs.
    pub fn new(params: RsmParams, num_programs: usize) -> Self {
        Rsm {
            params,
            states: (0..num_programs).map(|_| ProgState::new()).collect(),
            keep_samples: false,
        }
    }

    /// Enables recording of per-period SF_A samples (Table 4 study).
    pub fn keep_samples(&mut self, keep: bool) {
        self.keep_samples = keep;
    }

    /// Number of programs monitored.
    pub fn num_programs(&self) -> usize {
        self.states.len()
    }

    /// Current (smoothed) slowdown factors of a program.
    // Program ids are bounded by the sampler geometry fixed at construction.
    pub fn sf(&self, p: ProgramId) -> (f64, f64) {
        let s = &self.states[p.index()];
        (s.sf_a, s.sf_b)
    }

    /// Recorded per-period samples (empty unless enabled).
    pub fn samples(&self, p: ProgramId) -> &[SfSample] {
        &self.states[p.index()].samples
    }

    /// Records a served request. Returns the period report when this
    /// request closed a sampling period (tracing hooks use it; the hot
    /// path simply drops the `Option`).
    pub fn on_served(
        &mut self,
        p: ProgramId,
        class: RegionClass,
        from_m1: bool,
    ) -> Option<EpochReport> {
        let m_samp = self.params.m_samp;
        let s = &mut self.states[p.index()];
        match class {
            RegionClass::PrivateOwn => {
                s.raw[REQ_TOT_P] += 1;
                if from_m1 {
                    s.raw[REQ_M1_P] += 1;
                }
            }
            RegionClass::Shared => {
                s.raw[REQ_TOT_S] += 1;
                if from_m1 {
                    s.raw[REQ_M1_S] += 1;
                }
            }
        }
        s.served_this_period += 1;
        if s.served_this_period >= m_samp {
            Some(self.sample(p))
        } else {
            None
        }
    }

    /// Records a committed swap in a *shared* region. `promoted` is the
    /// owner of the promoted block; `demoted` the owner of the block that
    /// left M1 (`None` = unallocated victim, counted as a self swap for
    /// the promoter since no other program is involved).
    pub fn on_swap(&mut self, promoted: ProgramId, demoted: Option<ProgramId>) {
        match demoted {
            Some(d) if d != promoted => {
                self.states[promoted.index()].raw[SWAP_TOT] += 1;
                self.states[d.index()].raw[SWAP_TOT] += 1;
            }
            _ => {
                let s = &mut self.states[promoted.index()];
                s.raw[SWAP_TOT] += 1;
                s.raw[SWAP_SELF] += 1;
            }
        }
    }

    /// Closes a program's sampling period: smooths the counters, updates
    /// SF_A and SF_B, and resets the raw counters (paper §3.1.3).
    fn sample(&mut self, p: ProgramId) -> EpochReport {
        let alpha = self.params.alpha;
        let keep = self.keep_samples;
        let s = &mut self.states[p.index()];
        // +1 on every counter to avoid zeros (paper §3.1.3).
        let raw1: [f64; 6] = std::array::from_fn(|i| (s.raw[i] + 1) as f64);
        let sm = match &mut s.smoothed {
            None => s.smoothed.insert(raw1),
            Some(sm) => {
                for i in 0..6 {
                    sm[i] += alpha * (raw1[i] - sm[i]);
                }
                sm
            }
        };
        let sf_a = (sm[REQ_M1_P] / sm[REQ_TOT_P]) / (sm[REQ_M1_S] / sm[REQ_TOT_S]);
        let sf_b = sm[SWAP_TOT] / sm[SWAP_SELF];
        let raw_sf_a = (raw1[REQ_M1_P] / raw1[REQ_TOT_P]) / (raw1[REQ_M1_S] / raw1[REQ_TOT_S]);
        if keep {
            s.samples.push(SfSample {
                raw_sf_a,
                avg_sf_a: sf_a,
            });
        }
        s.sf_a = sf_a;
        s.sf_b = sf_b;
        s.raw = [0; 6];
        s.served_this_period = 0;
        s.periods += 1;
        EpochReport {
            program: p,
            period: s.periods,
            raw_sf_a,
            sf_a,
            sf_b,
        }
    }
}

/// The per-program monitor state; loading requires the same program
/// count. A monitor recording its unbounded per-period sample log (a
/// diagnostics-only mode) cannot be snapshotted.
impl State for Rsm {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        if self.keep_samples {
            return Err("RSM sample recording is not snapshotted".to_string());
        }
        c.field("states", self.states.as_mut_slice())
    }
}

impl State for ProgState {
    fn state(&mut self, c: &mut StateCodec<'_>) -> Result<(), String> {
        c.field("raw", &mut self.raw)?;
        c.field("smoothed", &mut self.smoothed)?;
        c.field("served_this_period", &mut self.served_this_period)?;
        c.field("sf_a", &mut self.sf_a)?;
        c.field("sf_b", &mut self.sf_b)?;
        c.field("periods", &mut self.periods)
    }
}

/// Eq. 4: idealized standard deviation (as a fraction of the per-region
/// mean) of the number of accesses per region, for `n` regions and `m`
/// total accesses under a uniform multinomial model.
pub fn analytic_sigma_fraction(n: u64, m: u64) -> f64 {
    let sigma = ((m as f64) * (n as f64 - 1.0)).sqrt() / n as f64;
    sigma / (m as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(m_samp: u64) -> RsmParams {
        RsmParams {
            m_samp,
            ..RsmParams::paper()
        }
    }

    #[test]
    fn analytic_sigma_matches_paper_example() {
        // N = 128, M = 2^17: sigma ~= 32 accesses per region ~= 3%.
        let f = analytic_sigma_fraction(128, 1 << 17);
        assert!((f - 0.0315).abs() < 0.002, "sigma fraction {f}");
    }

    #[test]
    fn sf_a_rises_with_shared_competition() {
        let mut rsm = Rsm::new(params(100), 2);
        let p = ProgramId(0);
        // Private region: all requests from M1. Shared: only 25% from M1.
        for i in 0..100u64 {
            if i % 10 == 0 {
                rsm.on_served(p, RegionClass::PrivateOwn, true);
            } else {
                rsm.on_served(p, RegionClass::Shared, i % 4 == 0);
            }
        }
        let (sf_a, _) = rsm.sf(p);
        assert!(sf_a > 2.0, "high competition must raise SF_A: {sf_a}");
    }

    #[test]
    fn sf_a_is_one_without_competition() {
        let mut rsm = Rsm::new(params(100), 1);
        let p = ProgramId(0);
        // Same M1 fraction (50%) in both region kinds: private events land
        // on i = 0, 10, 20, ... and `i % 4 < 2` alternates for them too.
        for i in 0..200u64 {
            let class = if i % 10 == 0 {
                RegionClass::PrivateOwn
            } else {
                RegionClass::Shared
            };
            rsm.on_served(p, class, i % 4 < 2);
        }
        let (sf_a, _) = rsm.sf(p);
        assert!((sf_a - 1.0).abs() < 0.2, "SF_A should be ~1: {sf_a}");
    }

    #[test]
    fn sf_b_counts_foreign_swaps() {
        let mut rsm = Rsm::new(params(10), 2);
        let (p0, p1) = (ProgramId(0), ProgramId(1));
        // p0 swaps itself 3 times, then 9 foreign swaps with p1.
        for _ in 0..3 {
            rsm.on_swap(p0, Some(p0));
        }
        for _ in 0..9 {
            rsm.on_swap(p0, Some(p1));
        }
        // Close the period.
        for _ in 0..10 {
            rsm.on_served(p0, RegionClass::Shared, true);
        }
        let (_, sf_b) = rsm.sf(p0);
        // Raw+1: self = 4, total = 13 -> SF_B = 3.25.
        assert!((sf_b - 13.0 / 4.0).abs() < 1e-9, "sf_b = {sf_b}");
    }

    #[test]
    fn unallocated_victim_counts_as_self_swap() {
        let mut rsm = Rsm::new(params(1), 1);
        rsm.on_swap(ProgramId(0), None);
        rsm.on_served(ProgramId(0), RegionClass::Shared, true);
        let (_, sf_b) = rsm.sf(ProgramId(0));
        // self = 2, total = 2 -> SF_B = 1 (no competition).
        assert!((sf_b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_reduces_variance() {
        let mut rsm = Rsm::new(params(10), 1);
        rsm.keep_samples(true);
        let p = ProgramId(0);
        // Alternate periods with very different raw SF_A.
        for period in 0..40 {
            for i in 0..10u64 {
                let private = i < 2;
                let from_m1 = if period % 2 == 0 { true } else { i % 2 == 0 };
                let class = if private {
                    RegionClass::PrivateOwn
                } else {
                    RegionClass::Shared
                };
                rsm.on_served(p, class, from_m1);
            }
        }
        let samples = rsm.samples(p);
        assert_eq!(samples.len(), 40);
        let var = |xs: Vec<f64>| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
        };
        let raw_var = var(samples.iter().map(|s| s.raw_sf_a).collect());
        let avg_var = var(samples.iter().skip(8).map(|s| s.avg_sf_a).collect());
        assert!(
            avg_var < raw_var / 3.0,
            "smoothing must damp variance: raw {raw_var}, avg {avg_var}"
        );
    }

    #[test]
    fn defaults_before_first_sample() {
        let rsm = Rsm::new(params(1000), 3);
        for p in 0..3 {
            assert_eq!(rsm.sf(ProgramId(p)), (1.0, 1.0));
        }
    }
}
