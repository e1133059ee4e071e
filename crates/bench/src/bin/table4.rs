//! **Table 4** — Estimates of RSM sampling accuracy (paper §3.1.3).
//!
//! For bwaves, milc and omnetpp running alone, reports — for three
//! sampling-period durations M_samp — the mean per-region request-count
//! standard deviation (σ̂_req), and the standard deviation of the raw and
//! exponentially smoothed SF_A estimates across sampling periods.
//!
//! The paper sweeps M_samp ∈ {64 K, 128 K, 256 K} requests at its scale;
//! this reproduction sweeps the scaled analogues {8 K, 16 K, 32 K}
//! (capacities and run lengths are 1/32; see DESIGN.md). The paper's
//! reference values: averaging reduces σ of SF_A several-fold (e.g. milc
//! at 128 K: raw 13% → smoothed 3.3%), and doubling M_samp shrinks σ̂_req.
//! The eq. 4 analytic lower bound is printed for context.

use profess_bench::harness::TraceCollector;
use profess_bench::{exit, init_trace_flag, target_from_args};
use profess_core::policies::rsm::analytic_sigma_fraction;
use profess_core::system::{PolicyKind, SystemBuilder};
use profess_metrics::table::TextTable;
use profess_trace::SpecProgram;
use profess_types::SystemConfig;

fn main() {
    init_trace_flag();
    let target = target_from_args(300_000);
    let mut traces = TraceCollector::from_env("table4");
    println!("Table 4: RSM sampling accuracy (scaled M_samp sweep)\n");
    println!(
        "eq. 4 analytic sigma (uniform model), N = 128 regions, M = 2^17: {:.1}%\n",
        100.0 * analytic_sigma_fraction(128, 1 << 17)
    );
    let mut t = TextTable::new(vec![
        "program",
        "M_samp",
        "mean sigma_req (%)",
        "sigma raw_SFA (%)",
        "sigma avg_SFA (%)",
        "mean raw_SFA",
        "periods",
    ]);
    for prog in [SpecProgram::Bwaves, SpecProgram::Milc, SpecProgram::Omnetpp] {
        for m_samp in [8 * 1024u64, 16 * 1024, 32 * 1024] {
            let mut cfg = SystemConfig::scaled_single();
            cfg.rsm.m_samp = m_samp;
            // RSM's private regions require the ProFess OS support; the
            // paper's Table 4 likewise measures RSM while it is active.
            let report = exit::ok_or_exit(
                SystemBuilder::new(cfg)
                    .policy(PolicyKind::Profess)
                    .sample_regions(true)
                    .spec_program(prog, prog.budget_for_misses(target))
                    .try_run(),
            );
            traces.record(&format!("{}:ProFess:msamp{m_samp}", prog.name()), &report);
            let stats = match &report.sampling[0] {
                // The SF_A sigmas are reported relative to the mean (~1
                // when running alone), matching the paper's percentage
                // convention.
                Some(s) => [
                    format!("{:.1}", 100.0 * s.mean_sigma_req),
                    format!("{:.1}", 100.0 * s.sigma_raw_sfa / s.mean_raw_sfa),
                    format!("{:.1}", 100.0 * s.sigma_avg_sfa / s.mean_raw_sfa),
                    format!("{:.3}", s.mean_raw_sfa),
                    format!("{}", s.periods),
                ],
                // No sampling period closed within the op budget.
                None => ["-", "-", "-", "-", "0"].map(String::from),
            };
            let mut row = vec![prog.name().to_string(), format!("{}K", m_samp / 1024)];
            row.extend(stats);
            t.row(row);
        }
    }
    println!("{t}");
    println!("Paper (at 32x scale, M_samp 64K/128K/256K):");
    println!("  bwaves  sigma_req 36/26/18%  raw_SFA 3/2/1%    avg_SFA 0.5/0.3/0.2%");
    println!("  milc    sigma_req 27/20/15%  raw_SFA 21/13/10% avg_SFA 5.1/3.3/2.7%");
    println!("  omnetpp sigma_req 15/12/10%  raw_SFA 6/5/4%    avg_SFA 2.1/1.6/1.4%");
    println!("Expected shape: sigma_req falls as M_samp doubles; smoothing");
    println!("cuts the SF_A sigma several-fold; mean raw SF_A ~= 1.");
    traces.finish();
}
