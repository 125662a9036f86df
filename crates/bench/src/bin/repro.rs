//! `repro` — regenerate every table and figure of the PREFENDER paper.
//!
//! ```text
//! repro <experiment> [experiment ...]
//!
//! experiments:
//!   fig8      Figure 8  — attack latency panels, all defenses/challenges
//!   fig9      Figure 9  — prefetch counts over time during attacks
//!   fig10     Figure 10 — normalized total L1D miss latency
//!   fig11     Figure 11 — prefetch counts by unit per benchmark
//!   fig12     Figure 12 — protected access buffers over execution
//!   table4    Table IV  — SPEC 2006 speedups without the Record Protector
//!   table5    Table V   — SPEC 2006 speedups with the Record Protector
//!   table6    Table VI  — SPEC 2017 speedups
//!   hwcost    Section V-E — hardware resource budget
//!   ablate-buffers | ablate-threshold | ablate-unprotect | ablate-replacement
//!   sweep     full attack x defense grid through the sweep engine
//!   leakage   Figure 8 re-measured in bits: secret-sweep campaigns per
//!             panel, mutual information calibrated against a
//!             200-permutation null (* = rejects 0-bit leakage, p<0.01)
//!   forensics differential leakage forensics: re-run key leakage cells
//!             with the flight recorder armed, rank trace-feature
//!             streams (event class x cache set) by MI against the
//!             secret, and name the attacker-visible features surviving
//!             a Bonferroni-corrected permutation null; writes
//!             forensics.json in the working directory
//!   profile   span-based phase breakdown (fetch/execute/defense/settle/
//!             expiry/decode/resample) of one leakage cell and the
//!             576-scenario grid at 1 thread; writes PROFILE.json in the
//!             working directory
//!   audit     static secret-dependence audit: taint-analyze every attack
//!             and workload program, predict DataScale coverage per sink,
//!             and cross-validate against a compact measured leakage grid
//!             (zero static false negatives); writes AUDIT.json in the
//!             working directory.
//!             audit --list             list auditable programs
//!             audit --program <name>   analyze one program, no leakage run
//!   all       everything above except forensics (a deliberately slow
//!             trace-armed deep dive) and profile (whose output is
//!             timing-dependent, not a paper artifact)
//! ```
//!
//! Every grid-shaped experiment is sharded across the sweep engine's
//! worker pool; the dedicated `sweep` binary in `prefender-sweep` adds
//! grid selection and JSON/CSV artifacts on top of the same engine.

use std::env;
use std::process::ExitCode;

use prefender_bench::{ablation, audit, figures, hwcost, leakage, security, tables};

/// What `repro audit [--list | --program <name>]` should do.
enum AuditMode {
    /// Full audit: every program plus the measured cross-validation.
    Full,
    /// Print the auditable program names and exit.
    List,
    /// Analyze one named program; skips the leakage run.
    One(String),
}

/// Parses the arguments after `audit`, validating program names at parse
/// time (same conventions as the sweep CLI: `Err` carries the message,
/// `"help"` prints usage).
fn parse_audit_args(args: &[String]) -> Result<AuditMode, String> {
    let mut mode = AuditMode::Full;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => mode = AuditMode::List,
            "--program" => {
                let name = it.next().ok_or("--program needs a value; try --list")?;
                if !audit::entry_names().iter().any(|(n, _)| n == name) {
                    return Err(format!("unknown program `{name}`; try --list"));
                }
                mode = AuditMode::One(name.clone());
            }
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown audit flag `{other}`; try --help")),
        }
    }
    Ok(mode)
}

fn run_audit(args: &[String]) -> Result<(), String> {
    let mode = match parse_audit_args(args) {
        Ok(m) => m,
        Err(e) if e == "help" => {
            println!("usage: repro audit [--list | --program <name>]");
            return Ok(());
        }
        Err(e) => return Err(e),
    };
    match mode {
        AuditMode::List => {
            for (i, (name, group)) in audit::entry_names().iter().enumerate() {
                println!("{i:>6}  {name:<24} {group}");
            }
        }
        AuditMode::One(name) => {
            let entry = audit::audit_one(&name).expect("validated at parse time");
            print!("{}", entry.report.render());
        }
        AuditMode::Full => {
            println!("=== Static audit: secret-dependence across every guest program ===\n");
            let report = audit::run();
            print!("{}", report.render());
            prefender_obs::write_atomic("AUDIT.json", report.to_json())
                .map_err(|e| format!("writing AUDIT.json: {e}"))?;
            println!("\nwrote AUDIT.json");
        }
    }
    Ok(())
}

fn run_one(name: &str) -> Result<(), String> {
    match name {
        "fig8" => {
            println!("=== Figure 8: security evaluation ===\n");
            for panel in security::figure8() {
                println!("{}", panel.render());
            }
        }
        "fig9" => {
            println!("=== Figure 9: prefetches over time ===\n");
            for panel in security::figure9(2_000) {
                println!("{}", panel.render());
            }
        }
        "fig10" => {
            println!("=== Figure 10: normalized total L1D miss latency ===\n");
            println!("{}", figures::figure10(None).render());
        }
        "fig11" => {
            println!("=== Figure 11: prefetch counts by unit (ST/AT/RP) ===\n");
            println!("{}", figures::figure11(None).render());
        }
        "fig12" => {
            println!("=== Figure 12: protected access buffers over execution ===\n");
            for s in figures::figure12(None, 32) {
                let peak = s.points().iter().map(|&(_, y)| y).fold(0.0, f64::max);
                println!("{:<18} peak {:>4}  {}", s.name(), peak, s.sparkline(48));
            }
        }
        "table4" => {
            println!("=== Table IV: SPEC 2006, without Record Protector ===\n");
            println!("{}", tables::table4().render());
        }
        "table5" => {
            println!("=== Table V: SPEC 2006, with Record Protector ===\n");
            println!("{}", tables::table5().render());
        }
        "table6" => {
            println!("=== Table VI: SPEC 2017 ===\n");
            println!("{}", tables::table6().render());
        }
        "hwcost" => {
            println!("=== Section V-E: hardware resource budget ===\n");
            println!("{}", hwcost::report());
        }
        "ablate-buffers" => {
            println!("=== Ablation: access-buffer count ===\n");
            println!("{}", ablation::ablate_buffers());
        }
        "ablate-threshold" => {
            println!("=== Ablation: DiffMin prefetch threshold ===\n");
            println!("{}", ablation::ablate_threshold());
        }
        "ablate-unprotect" => {
            println!("=== Ablation: RP unprotect threshold ===\n");
            println!("{}", ablation::ablate_unprotect());
        }
        "ablate-replacement" => {
            println!("=== Ablation: cache replacement policy ===\n");
            println!("{}", ablation::ablate_replacement());
        }
        "sweep" => {
            println!("=== Sweep: full attack x defense grid ===\n");
            let report = prefender_sweep::run_sweep(
                &prefender_sweep::SweepGrid::security_full(),
                &prefender_sweep::SweepOptions::default(),
            );
            println!("{}", report.render_table());
        }
        "leakage" => {
            println!("=== Leakage map: Figure 8 measured in bits (permutation-calibrated) ===\n");
            println!("{}", leakage::leakage_map().render());
        }
        "forensics" => {
            println!("=== Leakage forensics: which mechanism carries the secret ===\n");
            let run = prefender_bench::forensics::run();
            println!("{}", run.render());
            prefender_obs::write_atomic("forensics.json", run.to_json())
                .map_err(|e| format!("writing forensics.json: {e}"))?;
            println!("wrote forensics.json");
        }
        "profile" => {
            println!("=== Phase profile: spans over one leakage cell + the 576 grid ===\n");
            let report = prefender_bench::profile::run();
            print!("{}", report.render());
            prefender_obs::write_atomic("PROFILE.json", report.to_json())
                .map_err(|e| format!("writing PROFILE.json: {e}"))?;
            println!("wrote PROFILE.json");
        }
        "all" => {
            for e in [
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "table4",
                "table5",
                "table6",
                "hwcost",
                "ablate-buffers",
                "ablate-threshold",
                "ablate-unprotect",
                "ablate-replacement",
                "sweep",
                "leakage",
            ] {
                run_one(e)?;
            }
        }
        other => return Err(format!("unknown experiment `{other}`")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: repro <fig8|fig9|fig10|fig11|fig12|table4|table5|table6|hwcost|ablate-*|sweep|leakage|forensics|audit|profile|all> ..."
        );
        return ExitCode::FAILURE;
    }
    if args[0] == "audit" {
        return match run_audit(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("repro: {e}");
                ExitCode::FAILURE
            }
        };
    }
    for a in &args {
        if let Err(e) = run_one(a) {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
