//! # prefender-bench — the experiment harness
//!
//! One runner per table and figure of the PREFENDER paper's evaluation
//! (Section V), all reachable through the `repro` binary:
//!
//! | Paper artifact | Runner | `repro` subcommand |
//! |---|---|---|
//! | Figure 8 (a)–(l) | [`security::figure8`] | `fig8` |
//! | Figure 9 (a)–(f) | [`security::figure9`] | `fig9` |
//! | Table IV | [`tables::table4`] | `table4` |
//! | Table V | [`tables::table5`] | `table5` |
//! | Table VI | [`tables::table6`] | `table6` |
//! | Figure 10 | [`figures::figure10`] | `fig10` |
//! | Figure 11 | [`figures::figure11`] | `fig11` |
//! | Figure 12 | [`figures::figure12`] | `fig12` |
//! | Section V-E | [`hwcost::report`] | `hwcost` |
//! | (extensions) | [`ablation`] | `ablate-*` |
//! | (extension: Figure 8 in bits) | [`leakage::leakage_map`] | `leakage` |
//! | (extension: static audit) | [`audit::run`] | `audit` |
//! | (extension: hot-path throughput) | [`simbench::run`] | `bench-sim` |
//! | (extension: phase profile) | [`profile::run`] | `profile` |
//!
//! Every runner is a pure function returning printable text plus
//! structured data, so the integration tests can assert the paper's
//! qualitative claims (who wins, where, by roughly what factor) while the
//! binary prints the same rows/series the paper reports.

pub mod ablation;
pub mod audit;
pub mod figures;
pub mod forensics;
pub mod hwcost;
pub mod leakage;
pub mod profile;
pub mod security;
pub mod simbench;
pub mod sweepbench;
pub mod tables;

// The performance-run machinery lives beside the sweep engine
// (`prefender_sweep::perf`); the types are flattened here for the
// harness's callers.
pub use prefender_sweep::perf::{Basic, PerfColumn, PerfResult, PrefenderKind};

/// The flight recorder is armed process-wide, so the tests in this
/// crate that arm it serialize on this gate.
#[cfg(test)]
pub(crate) static TRACE_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
