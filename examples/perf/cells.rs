//! The simulation cells each workload runs, and three ways to build one:
//! as the sweeps build it, with empty op sources (set-up cost only), and
//! with every op source and policy hook wrapped in sampled spans.

use std::rc::Rc;

use profess::core::policies::mdm::MdmPolicy;
use profess::core::policies::mempod::MemPodPolicy;
use profess::core::policies::pom::PomPolicy;
use profess::core::policies::profess::ProfessPolicy;
use profess::core::policies::rsm_guided::RsmGuided;
use profess::cpu::{MemOp, OpSource};
use profess::obs::TraceConfig;
use profess::prelude::*;
use profess::trace::patterns::{seeded_rng, Hotspot, Mix, MultiStream};
use profess::trace::{ProgramGen, ProgramParams};
use profess_bench::surface::{surface_cell_builder, surface_footprint_lines, SurfaceSpec};

use crate::probe::{Probe, ProbedPolicy, ProbedSource};

/// What a cell's cores run.
#[derive(Debug, Clone)]
pub enum Load {
    /// Table 9 programs sized for `target` memory operations each. A solo
    /// reference has one program and no workload; a multiprogram cell
    /// names its workload by index into the plan's workload list.
    Spec {
        programs: Vec<SpecProgram>,
        target: u64,
        workload: Option<usize>,
    },
    /// Four identical surface load generators.
    Surface {
        read_frac: f64,
        intensity: f64,
        target_ops: u64,
    },
}

/// One simulation run of a sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub policy: PolicyKind,
    pub load: Load,
}

/// The cells of a normalized sweep of `policy` against PoM, in the order
/// the public sweep enumerates them: deduplicated solo references
/// (policy-major, first-seen program order), then the PoM and `policy`
/// runs of each workload.
pub fn normalized_cells(policy: PolicyKind, target: u64, workloads: &[Workload]) -> Vec<Cell> {
    let policies = [PolicyKind::Pom, policy];
    let mut cells = Vec::new();
    let mut seen: Vec<(PolicyKind, SpecProgram)> = Vec::new();
    for &pk in &policies {
        for w in workloads {
            for &p in &w.programs {
                if !seen.contains(&(pk, p)) {
                    seen.push((pk, p));
                    cells.push(Cell {
                        label: format!("solo:{}:{}", pk.name(), p.name()),
                        policy: pk,
                        load: Load::Spec {
                            programs: vec![p],
                            target,
                            workload: None,
                        },
                    });
                }
            }
        }
    }
    cells.extend(multi_cells(&policies, target, workloads));
    cells
}

/// The cells of a surface sweep, in grid order (policy, read fraction,
/// intensity).
pub fn surface_cells(spec: &SurfaceSpec) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &pk in &spec.policies {
        for &rf in &spec.read_fracs {
            for &it in &spec.intensities {
                cells.push(Cell {
                    label: format!("surface:{}:r{rf:?}:i{it:?}", pk.name()),
                    policy: pk,
                    load: Load::Surface {
                        read_frac: rf,
                        intensity: it,
                        target_ops: spec.target_ops,
                    },
                });
            }
        }
    }
    cells
}

/// Multiprogram cells of each workload under each policy, workload-major.
pub fn multi_cells(policies: &[PolicyKind], target: u64, workloads: &[Workload]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for &pk in policies {
            cells.push(Cell {
                label: format!("{}:{}", w.id, pk.name()),
                policy: pk,
                load: Load::Spec {
                    programs: w.programs.to_vec(),
                    target,
                    workload: Some(wi),
                },
            });
        }
    }
    cells
}

/// The seed `SystemBuilder::spec_program` and `surface_cell_builder` give
/// program `idx` on its `restart`-th instance.
fn program_seed(base: u64, idx: u64, restart: u32) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(idx * 1_000_003 + u64::from(restart) * 7_919)
}

impl Cell {
    /// Core count this cell occupies.
    fn programs(&self, cfg: &SystemConfig) -> usize {
        match &self.load {
            Load::Spec { programs, .. } => programs.len(),
            Load::Surface { .. } => cfg.cpu.num_cores,
        }
    }

    fn program_name(&self, idx: usize) -> String {
        match &self.load {
            Load::Spec { programs, .. } => programs[idx].name().to_string(),
            Load::Surface { .. } => format!("load{idx}"),
        }
    }

    /// The cell exactly as the public sweeps build it, tracing off.
    pub fn builder(&self, cfg: &SystemConfig) -> SystemBuilder {
        let b = match &self.load {
            Load::Spec {
                programs, target, ..
            } => programs.iter().fold(
                SystemBuilder::new(cfg.clone()).policy(self.policy),
                |b, &p| b.spec_program(p, p.budget_for_misses(*target)),
            ),
            Load::Surface {
                read_frac,
                intensity,
                target_ops,
            } => surface_cell_builder(cfg, self.policy, *read_frac, *intensity, *target_ops),
        };
        b.trace(TraceConfig::off())
    }

    /// The same config, policy and program count with op sources that
    /// end at once: running it costs `System::new` plus the report.
    pub fn empty_builder(&self, cfg: &SystemConfig) -> SystemBuilder {
        (0..self.programs(cfg)).fold(
            SystemBuilder::new(cfg.clone())
                .policy(self.policy)
                .trace(TraceConfig::off()),
            |b, idx| {
                b.program(self.program_name(idx), |_| -> Box<dyn OpSource> {
                    Box::new(|| None::<MemOp>)
                })
            },
        )
    }

    /// The cell with its op sources and policy hooks timed into `probe`.
    /// The simulation is unchanged: the benchmark checks that its report
    /// fingerprint equals [`Cell::builder`]'s.
    pub fn probed_builder(&self, cfg: &SystemConfig, probe: &Rc<Probe>) -> SystemBuilder {
        let n = self.programs(cfg);
        let policy = ProbedPolicy::new(builtin_policy(cfg, self.policy, n), probe.clone());
        (0..n).fold(
            SystemBuilder::new(cfg.clone())
                .policy(self.policy)
                .custom_policy(Box::new(policy), self.policy.uses_private_regions())
                .trace(TraceConfig::off()),
            |b, idx| {
                let (cell, cfg, probe) = (self.clone(), cfg.clone(), probe.clone());
                b.program(self.program_name(idx), move |restart| {
                    Box::new(ProbedSource::new(
                        cell.source(&cfg, idx, restart),
                        probe.clone(),
                    ))
                })
            },
        )
    }

    /// The op source of program `idx`'s `restart`-th instance, seeded as
    /// the builders seed it.
    pub fn source(&self, cfg: &SystemConfig, idx: usize, restart: u32) -> ProgramGen {
        let seed = program_seed(cfg.seed, idx as u64, restart);
        match &self.load {
            Load::Spec {
                programs, target, ..
            } => {
                let p = programs[idx];
                p.generator(cfg.footprint_div, p.budget_for_misses(*target), seed)
            }
            Load::Surface {
                read_frac,
                intensity,
                target_ops,
            } => {
                let lines = surface_footprint_lines(cfg.footprint_div);
                let params = ProgramParams {
                    mpki: *intensity,
                    lines,
                    write_frac: 1.0 - read_frac,
                    instructions: (*target_ops as f64 * 1000.0 / intensity) as u64,
                };
                let mut rng = seeded_rng(seed ^ 0xABCD_1234);
                let pattern = Box::new(Mix::new(
                    Box::new(MultiStream::new(lines, 16, &mut rng)),
                    Box::new(Hotspot::new(lines, 1.00, 0, false, &mut rng)),
                    0.35,
                ));
                ProgramGen::new(params, pattern, seed)
            }
        }
    }
}

/// The built-in policy `SystemBuilder::policy(pk)` installs, for wrapping.
fn builtin_policy(cfg: &SystemConfig, pk: PolicyKind, n: usize) -> Box<dyn MigrationPolicy> {
    let pom = || PomPolicy::new(cfg.pom.clone(), cfg.mem.pom_k(cfg.org.lines_per_block()));
    match pk {
        PolicyKind::Pom => Box::new(pom()),
        PolicyKind::MemPod => Box::new(MemPodPolicy::new(cfg.mempod, cfg.mem.clock.ns_per_cycle)),
        PolicyKind::Mdm => Box::new(MdmPolicy::new(cfg.mdm, n)),
        PolicyKind::Profess => Box::new(ProfessPolicy::new(cfg.mdm, cfg.rsm, n)),
        PolicyKind::RsmPom => Box::new(RsmGuided::new(Box::new(pom()), cfg.rsm, n, "RSM+PoM")),
        other => panic!("no benchmark workload runs {}", other.name()),
    }
}
