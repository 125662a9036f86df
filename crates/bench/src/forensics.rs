//! `repro forensics` — the differential leakage forensics experiment.
//!
//! Runs `prefender_leakage::run_forensics` over the four cells that
//! bracket the leakage map's story and renders `forensics.json`:
//!
//! * **fr/base** — the undefended Flush+Reload control: the probe
//!   features must both carry the secret *and* survive the visible-tier
//!   Bonferroni test (a non-empty survivor list);
//! * **pp/full32** — the full-PREFENDER Prime+Probe residual: `repro
//!   leakage` shows this cell retains significant MI, and the forensics
//!   map names the event classes and sets that carry it — the first
//!   mechanistic account of the residual;
//! * **fr/full32**, **er/full32** — sealed cells: the carrier map may
//!   rank microarchitectural features (the secret is still physically
//!   processed), but no attacker-visible feature may survive the null.

use prefender_attacks::{AttackKind, AttackSpec, DefenseConfig, Runner};
use prefender_leakage::{run_forensics, ForensicsOptions, ForensicsReport, LeakageCampaign};
use prefender_obs::Value;
use prefender_stats::Table;

/// Secrets per forensics campaign (evenly spaced in the probe window).
pub const FORENSICS_SECRETS: usize = 8;

/// Trials per secret. Per-feature permutation nulls need enough labels
/// that chance groupings are rarer than the Bonferroni threshold; 8
/// trials × 8 secrets gives 64 labels per feature stream.
pub const FORENSICS_TRIALS: u32 = 8;

/// Label permutations per tested feature: the attainable p-value floor
/// is `1/(N+1)` ≈ 3.3e-4, below the visible tier's Bonferroni threshold
/// even when every probe stream of a 64-set cache gets tested.
pub const FORENSICS_PERMUTATIONS: u32 = 2999;

/// One forensics cell: its id (`attack/defense`) and ranked map.
#[derive(Debug, Clone)]
pub struct ForensicsCell {
    /// `fr/base`-style cell id.
    pub id: String,
    /// The ranked leakage map of this cell.
    pub report: ForensicsReport,
}

/// The whole experiment: every cell's ranked map under one configuration.
#[derive(Debug, Clone)]
pub struct ForensicsRun {
    /// Cells in fixed experiment order.
    pub cells: Vec<ForensicsCell>,
}

/// The paper cells: undefended FR control, the full-PREFENDER P+P
/// residual, and the two sealed full-PREFENDER cells.
fn paper_cells() -> Vec<(String, AttackSpec)> {
    vec![
        ("fr/base".into(), AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None)),
        ("pp/full32".into(), AttackSpec::new(AttackKind::PrimeProbe, DefenseConfig::Full)),
        ("fr/full32".into(), AttackSpec::new(AttackKind::FlushReload, DefenseConfig::Full)),
        ("er/full32".into(), AttackSpec::new(AttackKind::EvictReload, DefenseConfig::Full)),
    ]
}

/// Runs the standard four-cell experiment at the module constants.
pub fn run() -> ForensicsRun {
    let opts = ForensicsOptions { permutations: FORENSICS_PERMUTATIONS, alpha: 0.05 };
    run_cells(&paper_cells(), FORENSICS_SECRETS, FORENSICS_TRIALS, &opts)
}

/// Runs forensics over arbitrary `(id, spec)` cells — the CI smoke path
/// shrinks the cell list and permutation depth through this.
///
/// # Panics
///
/// Panics if a cell's spec is invalid or a trial fails (the standard
/// cells are all valid paper configurations).
pub fn run_cells(
    cells: &[(String, AttackSpec)],
    secrets: usize,
    trials: u32,
    opts: &ForensicsOptions,
) -> ForensicsRun {
    let cells = cells
        .iter()
        .map(|(id, spec)| {
            let campaign = LeakageCampaign::new(spec.clone(), secrets, trials);
            let mut runner =
                Runner::new(&campaign.base).unwrap_or_else(|e| panic!("forensics cell {id}: {e}"));
            let report = run_forensics(&campaign, 0xC0FFEE, opts, &mut runner)
                .unwrap_or_else(|e| panic!("forensics cell {id}: {e}"));
            ForensicsCell { id: id.clone(), report }
        })
        .collect();
    ForensicsRun { cells }
}

impl ForensicsRun {
    /// The `forensics.json` document.
    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let Value::Obj(mut fields) = c.report.to_value() else {
                    unreachable!("report value is an object")
                };
                fields.insert(0, ("id".into(), Value::Str(c.id.clone())));
                Value::Obj(fields)
            })
            .collect();
        let doc = Value::Obj(vec![
            ("schema_version".into(), Value::U64(1)),
            ("cells".into(), Value::Arr(cells)),
        ]);
        doc.to_json(0) + "\n"
    }

    /// Renders the experiment: one row per cell with its top-ranked
    /// carrier, the strongest attacker-visible feature, and the survivor
    /// verdict.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Cell".into(),
            "Features".into(),
            "Top carrier".into(),
            "Top visible".into(),
            "Survivors".into(),
        ]);
        for c in &self.cells {
            let r = &c.report;
            let fmt = |f: &prefender_leakage::FeatureStat| {
                format!("{} ({:.3}b, p={:.4})", f.name, f.mi_bits, f.p_value)
            };
            let top = r.features.first().map_or_else(|| "-".into(), fmt);
            let top_vis = r.features.iter().find(|f| f.visible).map_or_else(|| "-".into(), fmt);
            let survivors = if r.survivors.is_empty() {
                "none (sealed)".into()
            } else {
                format!("{}: {}", r.survivors.len(), r.survivors.join(", "))
            };
            t.row(vec![
                c.id.clone(),
                format!("{} ({} tested visible)", r.n_features, r.n_tested_visible),
                top,
                top_vis,
                survivors,
            ]);
        }
        let head = self.cells.first().map(|c| &c.report);
        format!(
            "Per-cell trace-feature leakage map: {} secrets x {} trials, {}-permutation null \
             per feature, survivor threshold = Bonferroni over tested visible features \
             (alpha {}).\n{}",
            head.map_or(0, |r| r.secrets),
            head.map_or(0, |r| r.trials),
            head.map_or(0, |r| r.permutations),
            head.map_or(0.05, |r| r.alpha),
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_emits_control_survivors_and_sealed_cells() {
        let _g = crate::TRACE_GATE.lock().unwrap_or_else(|p| p.into_inner());
        let cells = vec![
            ("fr/base".to_string(), AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None)),
            (
                "fr/full32".to_string(),
                AttackSpec::new(AttackKind::FlushReload, DefenseConfig::Full),
            ),
        ];
        let opts = ForensicsOptions { permutations: 199, alpha: 0.05 };
        let run = run_cells(&cells, 4, 8, &opts);
        assert_eq!(run.cells.len(), 2);
        let open = &run.cells[0].report;
        assert!(!open.survivors.is_empty(), "undefended FR must have survivors");
        let sealed = &run.cells[1].report;
        assert!(sealed.survivors.is_empty(), "sealed FR must have none");
        let json = run.to_json();
        assert!(json.contains("\"id\": \"fr/base\""));
        assert!(json.contains("\"schema_version\": 1"));
        let text = run.render();
        assert!(text.contains("none (sealed)"), "{text}");
        assert!(text.contains("fr/base"), "{text}");
    }
}
