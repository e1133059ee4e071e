//! `profess-sim` — command-line front end to the simulator.
//!
//! ```text
//! profess-sim run  --workload w09 --policy profess [--ops 60000] [--scale quad|single|paper]
//! profess-sim solo --program mcf   --policy mdm     [--ops 120000]
//! profess-sim compare --workload w12 [--ops 60000]           # all policies side by side
//! profess-sim trace --program soplex --ops 5000 --out t.trace # export a trace file
//! profess-sim list                                            # programs, workloads, policies
//! ```

#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use std::collections::HashMap;
use std::process::ExitCode;

use profess::prelude::*;
use profess::trace::record;

fn usage() -> ExitCode {
    eprintln!(
        "usage: profess-sim <run|solo|compare|trace|list> \
         [--workload wNN] [--program NAME] [--policy NAME] \
         [--ops N] [--scale quad|single|paper] [--out FILE]"
    );
    ExitCode::FAILURE
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        let Some(v) = it.next() else {
            return Err(format!("flag --{key} needs a value"));
        };
        flags.insert(key.to_string(), v.clone());
    }
    Ok(flags)
}

fn policy_of(flags: &HashMap<String, String>) -> Result<PolicyKind, String> {
    let name = flags.get("policy").map(String::as_str).unwrap_or("profess");
    PolicyKind::from_cli_name(name)
        .ok_or_else(|| format!("unknown policy {name:?} (see `profess-sim list`)"))
}

fn config_of(flags: &HashMap<String, String>, multi: bool) -> Result<SystemConfig, String> {
    match flags.get("scale").map(String::as_str) {
        None | Some("quad") if multi => Ok(SystemConfig::scaled_quad()),
        None | Some("single") => Ok(SystemConfig::scaled_single()),
        Some("quad") => Ok(SystemConfig::scaled_quad()),
        Some("paper") => Ok(if multi {
            SystemConfig::paper_quad()
        } else {
            SystemConfig::paper_single()
        }),
        Some(other) => Err(format!("unknown scale {other:?}")),
    }
}

fn ops_of(flags: &HashMap<String, String>, default: u64) -> Result<u64, String> {
    match flags.get("ops") {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("bad --ops value {s:?}")),
    }
}

fn program_of(flags: &HashMap<String, String>) -> Result<SpecProgram, String> {
    let name = flags
        .get("program")
        .ok_or_else(|| "--program is required".to_string())?;
    SpecProgram::from_name(name).ok_or_else(|| format!("unknown program {name:?}"))
}

fn workload_of(flags: &HashMap<String, String>) -> Result<Workload, String> {
    let id = flags
        .get("workload")
        .ok_or_else(|| "--workload is required".to_string())?;
    profess::trace::workload::workload_by_id(id).map_err(|e| e.to_string())
}

fn print_report(r: &SystemReport) {
    println!(
        "policy {} | {} cycles | {} requests | {} swaps ({:.2}%) | STC hit {:.1}% | {:.1} Mreq/J",
        r.policy,
        r.elapsed_cycles,
        r.total_served,
        r.swaps,
        100.0 * r.swap_fraction(),
        100.0 * r.stc_hit_rate,
        r.requests_per_joule / 1e6
    );
    for p in &r.programs {
        println!(
            "  {:>12}: IPC {:.3} | {} instr | M1 {:.2} | read lat {:.1} cyc | restarts {}",
            p.name,
            p.ipc,
            p.instructions,
            p.m1_fraction(),
            p.read_latency_avg,
            p.restarts
        );
    }
}

fn run_multi(pk: PolicyKind, w: &Workload, cfg: &SystemConfig, ops: u64) -> Result<(), String> {
    let r = SystemBuilder::new(cfg.clone())
        .policy(pk)
        .workload(w, ops)
        .try_run()
        .map_err(|e| e.to_string())?;
    print_report(&r);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = (|| -> Result<(), String> {
        match cmd.as_str() {
            "list" => {
                println!(
                    "programs:  {}",
                    SpecProgram::ALL
                        .iter()
                        .chain(SpecProgram::SYNTHETIC.iter())
                        .map(|p| p.name())
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                println!(
                    "workloads: {}",
                    profess::trace::workload::all_workloads()
                        .iter()
                        .map(|w| w.id)
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                println!(
                    "policies:  {}",
                    PolicyKind::ALL.map(PolicyKind::cli_name).join(" ")
                );
                Ok(())
            }
            "solo" => {
                let prog = program_of(&flags)?;
                let pk = policy_of(&flags)?;
                let cfg = config_of(&flags, false)?;
                let ops = ops_of(&flags, 120_000)?;
                let r = SystemBuilder::new(cfg)
                    .policy(pk)
                    .spec_program(prog, prog.budget_for_misses(ops))
                    .try_run()
                    .map_err(|e| e.to_string())?;
                print_report(&r);
                Ok(())
            }
            "run" => {
                let w = workload_of(&flags)?;
                let pk = policy_of(&flags)?;
                let cfg = config_of(&flags, true)?;
                let ops = ops_of(&flags, 60_000)?;
                run_multi(pk, &w, &cfg, ops)
            }
            "compare" => {
                let w = workload_of(&flags)?;
                let cfg = config_of(&flags, true)?;
                let ops = ops_of(&flags, 40_000)?;
                for pk in PolicyKind::ALL {
                    run_multi(pk, &w, &cfg, ops)?;
                }
                Ok(())
            }
            "trace" => {
                let prog = program_of(&flags)?;
                let ops = ops_of(&flags, 10_000)?;
                let out = flags
                    .get("out")
                    .ok_or_else(|| "--out is required".to_string())?;
                let cfg = config_of(&flags, false)?;
                let mut gen =
                    prog.generator(cfg.footprint_div, prog.budget_for_misses(ops), cfg.seed);
                let f = std::fs::File::create(out).map_err(|e| e.to_string())?;
                let n = record::record(&mut gen, ops, std::io::BufWriter::new(f))
                    .map_err(|e| e.to_string())?;
                println!("wrote {n} ops to {out}");
                Ok(())
            }
            other => Err(format!("unknown command {other:?}")),
        }
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}
