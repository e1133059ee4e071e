//! Micro-benchmarks of the simulation engine itself: channel timing
//! model throughput, core model throughput, small end-to-end runs per
//! policy, and per-cell set-up (system and op generators). These guard
//! the engine's performance (the figure binaries run millions of
//! requests) rather than reproducing paper results — the paper's tables
//! and figures are regenerated by `profess-run` (see DESIGN.md).
//!
//! Runs on the in-tree [`profess_bench::harness`] runner (no criterion;
//! hermetic-build policy), so `cargo bench -p profess-bench` works with
//! the crate registry unreachable. A malformed `PROFESS_BENCH_*` count
//! is a usage error (exit 2).

use profess_bench::exit;
use profess_bench::harness::Runner;
use profess_core::system::{PolicyKind, SystemBuilder};
use profess_cpu::{MemOp, MemOpKind, OpSource};
use profess_mem::{AccessKind, ChannelSim, PhysRequest};
use profess_trace::SpecProgram;
use profess_types::config::{EnergyConfig, MemTimingConfig, SystemConfig};
use profess_types::geometry::{MemLoc, Module};
use profess_types::Cycle;

fn bench_channel(r: &mut Runner) {
    r.bench_with_setup(
        "channel_10k_requests",
        || {
            ChannelSim::new(
                MemTimingConfig::paper(),
                EnergyConfig::default_values(),
                16,
                32,
            )
        },
        |mut ch| {
            let mut served = Vec::new();
            let mut now = Cycle(0);
            let mut x = 0x12345u64;
            for i in 0..10_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let bank = ((x >> 33) % 16) as u32;
                let row = (x >> 40) % 64;
                let module = if x & 1 == 0 { Module::M1 } else { Module::M2 };
                ch.push(
                    PhysRequest {
                        id: i,
                        kind: if x & 2 == 0 {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        },
                        loc: MemLoc { module, bank, row },
                    },
                    now,
                );
                if i % 8 == 7 {
                    ch.advance(now, &mut served);
                    now = ch.next_event(now).min(now + 50);
                }
            }
            while !ch.is_idle() {
                let t = ch.next_event(now);
                ch.advance(t, &mut served);
                now = t;
            }
            served.len()
        },
    );
}

struct Chase {
    n: u64,
    i: u64,
    x: u64,
}

impl OpSource for Chase {
    fn next_op(&mut self) -> Option<MemOp> {
        if self.i >= self.n {
            return None;
        }
        self.i += 1;
        self.x = self
            .x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        Some(MemOp {
            gap: 20,
            kind: MemOpKind::Load,
            line: (self.x >> 33) % 65_536,
            dependent: self.i.is_multiple_of(3),
        })
    }
}

fn bench_end_to_end(r: &mut Runner) {
    for pk in [PolicyKind::Pom, PolicyKind::Mdm, PolicyKind::Profess] {
        r.bench(&format!("end_to_end_5k_ops/{}", pk.name()), || {
            let mut cfg = SystemConfig::scaled_single();
            cfg.rsm.m_samp = 1024;
            SystemBuilder::new(cfg)
                .policy(pk)
                .program("chase", |_| {
                    Box::new(Chase {
                        n: 5_000,
                        i: 0,
                        x: 7,
                    })
                })
                .try_run()
                .expect("the chase completes")
                .total_served
        });
    }
}

fn bench_trace_generation(r: &mut Runner) {
    r.bench("trace_gen_mcf_50k_ops", || {
        let mut gen = SpecProgram::Mcf.generator(32, 1_000_000, 3);
        let mut n = 0u64;
        while let Some(op) = gen.next_op() {
            n += op.line;
        }
        n
    });
}

/// Cell set-up: a 4-program ProFess run whose op sources end at once,
/// so it costs `System::new` (frame allocator, tables, policy) plus the
/// report.
fn bench_system_setup(r: &mut Runner) {
    r.bench("system_setup_scaled_quad", || {
        (0..4)
            .fold(
                SystemBuilder::new(SystemConfig::scaled_quad()).policy(PolicyKind::Profess),
                |b, i| {
                    b.program(format!("p{i}"), |_| -> Box<dyn OpSource> {
                        Box::new(|| None::<MemOp>)
                    })
                },
            )
            .try_run()
            .expect("an empty-source run completes")
            .elapsed_cycles
    });
}

/// Program set-up: every Table 9 and synthetic generator at the scaled
/// footprint, as each cell and program restart builds them.
fn bench_generator_build(r: &mut Runner) {
    r.bench("spec_generator_build", || {
        SpecProgram::ALL
            .iter()
            .chain(&SpecProgram::SYNTHETIC)
            .map(|p| {
                p.generator(32, 1_000_000, 3)
                    .next_op()
                    .map_or(0, |op| op.line)
            })
            .sum::<u64>()
    });
}

fn main() {
    let mut r = Runner::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(exit::USAGE)
    });
    bench_channel(&mut r);
    bench_end_to_end(&mut r);
    bench_trace_generation(&mut r);
    bench_system_setup(&mut r);
    bench_generator_build(&mut r);
    r.finish_json("engine");
}
