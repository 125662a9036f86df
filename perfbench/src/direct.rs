//! Direct-layer execution: runs grid scenarios by calling the layers
//! below the sweep engine — `workloads` + `cpu` for performance
//! payloads, `attacks` for attack payloads, `attacks` + `leakage` for
//! leakage cells — and builds the result rows the engine reports, so
//! the engine's rows can be checked against them field for field.
//!
//! Every call into a layer sits in a span of the caller's [`Recorder`];
//! with a disabled recorder the same code is the untraced cross-check.

use std::collections::BTreeMap;

use prefender_attacks::{AttackSpec, DefenseConfig, RunMetrics, Runner};
use prefender_cpu::Machine;
use prefender_leakage::{Channel, LeakageCampaign, LeakageResult, ResampleOptions};
use prefender_stats::Histogram;
use prefender_sweep::perf::prefender_stats;
use prefender_sweep::{AttackCase, Payload, Scenario, ScenarioResult};
use prefender_workloads::Workload;

use crate::spans::Recorder;

/// Host time and guest instructions of the innermost calls that run a
/// machine (`Machine::run` for workloads, `Runner::run_full` for attack
/// trials).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MachineCost {
    /// Host nanoseconds inside those calls.
    pub ns: u64,
    /// Guest instructions they retired.
    pub instructions: u64,
}

impl MachineCost {
    fn add(&mut self, ns: u64, instructions: u64) {
        self.ns += ns;
        self.instructions += instructions;
    }

    /// Host nanoseconds per guest instruction (0 when none ran).
    pub fn ns_per_instr(&self) -> f64 {
        crate::stats::ratio(self.ns as f64, self.instructions as f64)
    }
}

/// Machine costs overall and for the undefended and fully defended
/// columns (the `core.defense_ns_per_instr` difference).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Costs {
    /// Every machine call.
    pub all: MachineCost,
    /// Calls on `base` (no defense) scenarios.
    pub base: MachineCost,
    /// Calls on `full` (ST+AT+RP) scenarios.
    pub full: MachineCost,
}

impl Costs {
    fn add(&mut self, defense: DefenseConfig, ns: u64, instructions: u64) {
        self.all.add(ns, instructions);
        match defense {
            DefenseConfig::None => self.base.add(ns, instructions),
            DefenseConfig::Full => self.full.add(ns, instructions),
            _ => {}
        }
    }
}

/// Runs scenarios through direct layer calls, reusing one attack
/// [`Runner`] across scenarios as the engine's workers do.
pub struct Direct<'a> {
    rec: &'a Recorder,
    campaign_seed: u64,
    resample: ResampleOptions,
    catalog: BTreeMap<String, Workload>,
    runner: Option<Runner>,
    /// Machine-call costs accumulated so far.
    pub costs: Costs,
}

impl<'a> Direct<'a> {
    /// An executor for one campaign seed and resampling configuration.
    pub fn new(rec: &'a Recorder, campaign_seed: u64, resample: ResampleOptions) -> Self {
        let catalog =
            prefender_workloads::all().into_iter().map(|w| (w.name().to_string(), w)).collect();
        Direct { rec, campaign_seed, resample, catalog, runner: None, costs: Costs::default() }
    }

    /// Runs one scenario and builds its row.
    ///
    /// # Errors
    ///
    /// An unknown workload or a failed attack run.
    pub fn run(&mut self, s: &Scenario) -> Result<ScenarioResult, String> {
        let _scenario = self.rec.span("sweep.scenario");
        let seed = s.derived_seed(self.campaign_seed);
        match &s.payload {
            Payload::Workload(name) => self.workload(s, name, seed),
            Payload::Attack(case) => self.attack(s, case, seed),
            Payload::Leakage { case, n_secrets, trials, jitter } => {
                self.leakage(s, case, (*n_secrets, *trials, *jitter), seed)
            }
        }
    }

    fn workload(&mut self, s: &Scenario, name: &str, seed: u64) -> Result<ScenarioResult, String> {
        let rec = self.rec;
        let w = self.catalog.get(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        let mut m = {
            let _g = rec.span("cpu.machine_new");
            Machine::new(s.hierarchy.config(1))
        };
        {
            let _g = rec.span("core.prefetcher_new");
            if let Some(p) = s.defense.config.build_prefetcher(64, 4096, s.defense.buffers, s.basic)
            {
                m.set_prefetcher(0, p);
            }
        }
        {
            let _g = rec.span("workloads.install");
            w.install(&mut m);
        }
        let summary = {
            let g = rec.span("cpu.run");
            let summary = m.run();
            self.costs.add(s.defense.config, g.elapsed_ns(), summary.instructions);
            summary
        };
        let l1d = *m.mem().l1d(0).stats();
        let pf = prefender_stats(&m, 0).unwrap_or_default();
        Ok(ScenarioResult {
            index: s.index,
            id: s.id(),
            seed,
            leaked: None,
            anomalies: None,
            latency_hist: Vec::new(),
            truncated: summary.truncated,
            cycles: summary.cycles,
            instructions: summary.instructions,
            ipc: summary.ipc(),
            demand_accesses: l1d.demand_accesses,
            demand_misses: l1d.demand_misses,
            demand_miss_latency: l1d.demand_miss_latency,
            prefetch_issued: m.prefetcher(0).map_or(0, |p| p.issued()),
            prefetch_fills: l1d.prefetch_fills,
            prefetch_useful: l1d.prefetch_useful + l1d.prefetch_late,
            prefetch_accuracy: l1d.prefetch_accuracy(),
            st_prefetches: pf.st_prefetches,
            at_prefetches: pf.at_prefetches,
            rp_prefetches: pf.rp_prefetches,
            ..empty_row(s.index)
        })
    }

    /// One `Runner::run_full` call in an `attacks.trial` span.
    fn trial(
        &mut self,
        spec: &AttackSpec,
    ) -> Result<(prefender_attacks::AttackOutcome, RunMetrics), String> {
        let rec = self.rec;
        if self.runner.is_none() {
            let _g = rec.span("attacks.runner_new");
            self.runner = Some(Runner::new(spec).map_err(|e| e.to_string())?);
        }
        let runner = self.runner.as_mut().expect("built above");
        let g = rec.span("attacks.trial");
        let out = runner.run_full(spec).map_err(|e| e.to_string())?;
        self.costs.add(spec.defense, g.elapsed_ns(), out.1.instructions);
        Ok(out)
    }

    fn attack(
        &mut self,
        s: &Scenario,
        case: &AttackCase,
        seed: u64,
    ) -> Result<ScenarioResult, String> {
        let (outcome, metrics) = self.trial(&attack_spec(s, case, seed))?;
        let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
        for p in &outcome.samples {
            *hist.entry(p.latency).or_insert(0) += 1;
        }
        Ok(ScenarioResult {
            seed,
            leaked: Some(outcome.leaked),
            anomalies: Some(outcome.anomalies.len() as u64),
            latency_hist: hist.into_iter().collect(),
            ..metrics_row(s, &metrics)
        })
    }

    fn leakage(
        &mut self,
        s: &Scenario,
        case: &AttackCase,
        (n_secrets, trials, jitter): (u32, u32, u64),
        seed: u64,
    ) -> Result<ScenarioResult, String> {
        let rec = self.rec;
        let _cell = rec.span("leakage.cell");
        let base = attack_spec(s, case, seed).with_latency_jitter(jitter);
        let campaign = LeakageCampaign::new(base, n_secrets.max(1) as usize, trials.max(1));
        let mut channel = Channel::new(campaign.secrets.len());
        let mut totals = RunMetrics::default();
        let mut hist = Histogram::new();
        let mut spec = campaign.base.clone();
        for (slot, &secret) in campaign.secrets.iter().enumerate() {
            for trial in 0..campaign.trials.max(1) {
                spec.layout.secret = secret;
                spec.seed = campaign.trial_seed(seed, slot, trial);
                let (outcome, metrics) = self.trial(&spec)?;
                let _g = rec.span("leakage.decode");
                channel.record(slot, campaign.decoder.observe(&outcome));
                totals.cycles += metrics.cycles;
                totals.instructions += metrics.instructions;
                totals.l1d += metrics.l1d;
                totals.prefetch_issued += metrics.prefetch_issued;
                totals.prefender += metrics.prefender;
                for p in &outcome.samples {
                    hist.record(p.latency);
                }
            }
        }
        let r = {
            let _g = rec.span("leakage.resample");
            let mut r = LeakageResult::from_parts(channel, totals, hist);
            r.apply_resampling(&self.resample, seed);
            r
        };
        Ok(ScenarioResult {
            seed,
            latency_hist: r.latency_hist.counts().collect(),
            mi_bits: Some(r.mi_bits),
            mi_corrected: Some(r.mi_corrected),
            capacity_bits: Some(r.capacity_bits),
            ml_accuracy: Some(r.ml_accuracy),
            guessing_entropy: Some(r.guessing_entropy),
            secrets: Some(campaign.secrets.len() as u64),
            trials: Some(u64::from(campaign.trials)),
            mi_p_value: r.mi_null.as_ref().map(|n| n.p_value),
            mi_null_q95: r.mi_null.as_ref().map(|n| n.null_q95_bits),
            mi_ci_lo: r.mi_ci.map(|(lo, _)| lo),
            mi_ci_hi: r.mi_ci.map(|(_, hi)| hi),
            ..metrics_row(s, &r.metrics)
        })
    }
}

/// The attack spec the engine builds for a scenario.
fn attack_spec(s: &Scenario, case: &AttackCase, seed: u64) -> AttackSpec {
    let n_cores = if case.cross_core { 2 } else { 1 };
    let spec = AttackSpec::new(case.kind, s.defense.config)
        .with_noise(case.noise)
        .cross_core(case.cross_core)
        .with_seed(seed)
        .with_basic(s.basic)
        .with_hierarchy(s.hierarchy.config(n_cores));
    AttackSpec { buffers: s.defense.buffers, ..spec }
}

/// A row carrying only the machine metrics of an attack-driven run.
fn metrics_row(s: &Scenario, m: &RunMetrics) -> ScenarioResult {
    ScenarioResult {
        id: s.id(),
        cycles: m.cycles,
        instructions: m.instructions,
        ipc: m.ipc(),
        demand_accesses: m.l1d.demand_accesses,
        demand_misses: m.l1d.demand_misses,
        demand_miss_latency: m.l1d.demand_miss_latency,
        prefetch_issued: m.prefetch_issued,
        prefetch_fills: m.l1d.prefetch_fills,
        prefetch_useful: m.l1d.prefetch_useful + m.l1d.prefetch_late,
        prefetch_accuracy: m.l1d.prefetch_accuracy(),
        st_prefetches: m.prefender.st_prefetches,
        at_prefetches: m.prefender.at_prefetches,
        rp_prefetches: m.prefender.rp_prefetches,
        ..empty_row(s.index)
    }
}

/// An all-empty row for scenario `index`.
fn empty_row(index: usize) -> ScenarioResult {
    ScenarioResult {
        index,
        id: String::new(),
        seed: 0,
        leaked: None,
        anomalies: None,
        latency_hist: Vec::new(),
        truncated: false,
        cycles: 0,
        instructions: 0,
        ipc: 0.0,
        demand_accesses: 0,
        demand_misses: 0,
        demand_miss_latency: 0,
        prefetch_issued: 0,
        prefetch_fills: 0,
        prefetch_useful: 0,
        prefetch_accuracy: None,
        st_prefetches: 0,
        at_prefetches: 0,
        rp_prefetches: 0,
        mi_bits: None,
        mi_corrected: None,
        capacity_bits: None,
        ml_accuracy: None,
        guessing_entropy: None,
        secrets: None,
        trials: None,
        mi_p_value: None,
        mi_null_q95: None,
        mi_ci_lo: None,
        mi_ci_hi: None,
    }
}
