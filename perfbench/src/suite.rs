//! The two workloads and the durable-path probe: their grids, set-up,
//! untraced repetitions, output checks and traced re-executions.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use prefender_obs::ObsCounters;
use prefender_stats::speedup_pct;
use prefender_sweep::{
    decode_shard, encode_shard, fnv1a64, init_campaign, run_sweep_observed, shard_file_name,
    work_campaign, AttackCase, Basic, DefenseConfig, DefensePoint, Manifest, Scenario,
    ScenarioResult, ShardHeader, SweepGrid, SweepOptions, SweepReport, WorkEvent, WorkOptions,
    SHARD_DIR,
};

use crate::direct::{Costs, Direct};
use crate::host::{nproc, CpuTicks};
use crate::refclock::{Reading, RefClock};
use crate::spans::Recorder;

/// The seed whose artifact digests are stored with the benchmark.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// The held-out seed: never used while the benchmark was tuned.
pub const HELD_OUT_SEED: u64 = 20_220_314;

/// Secrets and trials per leakage cell (8 × 16 = 128 trials a cell).
const LEAK_SECRETS: u32 = 8;
const LEAK_TRIALS: u32 = 16;
/// Label permutations and bootstrap resamples per leakage cell.
const LEAK_PERMUTATIONS: u32 = 99;
const LEAK_BOOTSTRAP: u32 = 99;
/// Seed slots per attack point of the durable campaign, and scenarios
/// per shard: 24 cases × 6 defenses × 16 seeds = 2304 scenarios in 288
/// shards.
const DURABLE_SEEDS: u32 = 16;
const SHARD_SIZE: usize = 8;
/// Set-ups timed per repetition (the last one's grid is run): enough
/// that their median sits past the first few, cache-cold ones.
const SETUPS_PER_REP: usize = 25;
/// In untraced runs, every `SAMPLE_STRIDE`-th scenario is re-executed
/// through direct layer calls and compared with the engine's row.
const SAMPLE_STRIDE: usize = 16;
/// A durable campaign times a reference block after every
/// `SHARDS_PER_TICK`-th committed shard (9 a repetition); the in-memory
/// workloads time one after each engine chunk (8 or 9 a repetition).
const SHARDS_PER_TICK: usize = 32;

/// Artifact digests (`fnv1a64` of `SweepReport::to_json`) at
/// [`DEFAULT_SEED`], one `workload 0xdigest` pair a line.
const GOLDEN: &str = include_str!("../golden_digests.txt");

/// A benchmark workload, or the durable-path probe's grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every catalog workload × 6 defenses × 3 basic prefetchers.
    SpecPerf,
    /// Every leakage case × both scopes × base/full, with resampling.
    LeakageMap,
    /// A fresh sharded campaign of every attack case × 6 defenses. Not a
    /// workload of its own: its time is mostly fsync, which reference
    /// seconds do not measure, so it runs as a probe in the
    /// `leakage-map` traced run.
    DurableCampaign,
}

impl Kind {
    /// The workloads, in the order `BENCHMARK.json` lists them.
    pub const WORKLOADS: [Kind; 2] = [Kind::SpecPerf, Kind::LeakageMap];

    /// The workload's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SpecPerf => "spec-perf",
            Kind::LeakageMap => "leakage-map",
            Kind::DurableCampaign => "durable-campaign",
        }
    }

    /// Parses a workload's CLI name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::WORKLOADS.into_iter().find(|k| k.name() == name)
    }

    /// The workload's grid.
    pub fn grid(self) -> SweepGrid {
        match self {
            Kind::SpecPerf => SweepGrid {
                workloads: prefender_workloads::all()
                    .iter()
                    .map(|w| w.name().to_string())
                    .collect(),
                defenses: DefensePoint::figure8_legend(),
                basics: vec![Basic::None, Basic::Tagged, Basic::Stride],
                ..SweepGrid::empty()
            },
            Kind::LeakageMap => SweepGrid {
                leakages: AttackCase::all(),
                defenses: vec![
                    DefensePoint::new(DefenseConfig::None),
                    DefensePoint::new(DefenseConfig::Full),
                ],
                leakage_secrets: LEAK_SECRETS,
                leakage_trials: LEAK_TRIALS,
                leakage_permutations: LEAK_PERMUTATIONS,
                leakage_bootstrap: LEAK_BOOTSTRAP,
                ..SweepGrid::empty()
            },
            Kind::DurableCampaign => SweepGrid {
                attacks: AttackCase::all(),
                defenses: DefensePoint::figure8_legend(),
                seeds: DURABLE_SEEDS,
                ..SweepGrid::empty()
            },
        }
    }

    /// Worker threads: the durable campaign uses every CPU, the
    /// in-memory workloads one.
    pub fn threads(self) -> usize {
        match self {
            Kind::DurableCampaign => nproc(),
            _ => 1,
        }
    }

    fn golden(self) -> Option<u64> {
        GOLDEN.lines().find_map(|l| {
            let (name, digest) = l.split_once(' ')?;
            (name == self.name())
                .then(|| u64::from_str_radix(digest.trim_start_matches("0x"), 16).ok())?
        })
    }
}

/// Campaign directories under `.perfbench_tmp` in the working
/// directory, removed when dropped.
pub struct Tmp {
    root: PathBuf,
    next: usize,
}

impl Tmp {
    /// Creates the scratch root.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn new() -> std::io::Result<Tmp> {
        let root = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(Tmp { root, next: 0 })
    }

    /// A path for a new campaign directory (not yet created).
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("campaign-{}", self.next))
    }

    /// Deletes a campaign directory and waits until the filesystem has
    /// committed the deletion: the fsync of the parent forces the
    /// journal (and, with online discard, the trims) through now, so the
    /// next repetition's timed fsyncs do not pay for this clean-up.
    fn remove(&self, dir: Option<&Path>) {
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
            let _ = std::fs::File::open(&self.root).and_then(|f| f.sync_all());
        }
    }
}

impl Drop for Tmp {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Removes `.perfbench_tmp` too when no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One set-up: the workload's grid built and validated through the
/// manifest round trip and enumeration.
fn set_up(kind: Kind) -> Result<SweepGrid, String> {
    let grid = kind.grid();
    let parsed = SweepGrid::from_spec(&grid.to_spec())?;
    if parsed != grid {
        return Err("the grid does not survive its manifest round trip".into());
    }
    if grid.enumerate().len() != grid.len() {
        return Err("the grid enumerates to the wrong length".into());
    }
    Ok(grid)
}

/// One untraced repetition.
pub struct Rep {
    /// Every set-up's seconds.
    pub setup_s: Vec<f64>,
    /// Seconds `init_campaign` took (durable campaign only).
    pub init_s: Option<f64>,
    /// Seconds from the first scenario to the merged report, reference
    /// blocks excluded, and the same in reference seconds.
    pub exec: Reading,
    /// Host CPU ticks over the repetition.
    pub ticks: CpuTicks,
    /// The report, unless the repetition failed; [`check_rep`] takes it.
    pub report: Option<SweepReport>,
    /// Engine counters and runner rebuilds (in-memory workloads only).
    pub obs: Option<(ObsCounters, u64)>,
    /// What went wrong, if anything.
    pub error: Option<String>,
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// Runs one untraced repetition: set up several times, initialise the
/// campaign directory (durable campaign), then execute the grid on
/// `clock`.
///
/// `init_campaign` is timed apart from the set-up: its two fsyncs wait
/// on the disk, whose latency on the development host switched between
/// about 0.5 and 2.5 ms for tens of seconds at a time, which made the
/// median set-up of a run move by 3x between runs.
pub fn rep(kind: Kind, seed: u64, tmp: &mut Tmp, clock: &mut RefClock) -> Rep {
    let before = CpuTicks::read();
    let mut out = Rep {
        setup_s: Vec::with_capacity(SETUPS_PER_REP),
        init_s: None,
        exec: Reading::default(),
        ticks: CpuTicks::default(),
        report: None,
        obs: None,
        error: None,
    };
    let mut grid = Err(String::new());
    for _ in 0..SETUPS_PER_REP {
        let t = Instant::now();
        grid = set_up(kind);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let dir = match (kind, &grid) {
        (Kind::DurableCampaign, Ok(grid)) => {
            let dir = tmp.fresh();
            let opts = SweepOptions { threads: kind.threads(), campaign_seed: seed };
            let t = Instant::now();
            let init = init_campaign(&dir, grid, &opts, SHARD_SIZE);
            out.init_s = Some(t.elapsed().as_secs_f64());
            if let Err(e) = init {
                out.error = Some(format!("init_campaign: {e}"));
            }
            Some(dir)
        }
        _ => None,
    };
    match grid {
        Err(e) => out.error = Some(format!("set-up: {e}")),
        Ok(_) if out.error.is_some() => {}
        Ok(grid) => {
            clock.begin();
            let run = catch_unwind(AssertUnwindSafe(|| {
                execute(kind, seed, &grid, dir.as_deref(), &mut *clock)
            }));
            out.exec = clock.end();
            match run {
                Ok(Ok((report, obs))) => {
                    out.report = Some(report);
                    out.obs = obs;
                }
                Ok(Err(e)) => out.error = Some(e),
                Err(e) => out.error = Some(format!("panicked: {}", panic_text(&*e))),
            }
        }
    }
    tmp.remove(dir.as_deref());
    out.ticks = CpuTicks::read().since(&before);
    out
}

type Executed = (SweepReport, Option<(ObsCounters, u64)>);

/// Executes the grid, ticking `clock` where the caller's thread is the
/// only one running: the in-memory engine reports progress after each
/// chunk on its single worker, and `work_campaign` commits shards between
/// its parallel shard runs.
fn execute(
    kind: Kind,
    seed: u64,
    grid: &SweepGrid,
    dir: Option<&Path>,
    clock: &mut RefClock,
) -> Result<Executed, String> {
    match dir {
        None => {
            let opts = SweepOptions { threads: kind.threads(), campaign_seed: seed };
            let clock = Mutex::new(clock);
            let tick = |_: usize, _: usize| clock.lock().expect("reference clock").tick();
            let (report, obs) = run_sweep_observed(grid, &opts, Some(&tick));
            Ok((report, Some((obs.counters, obs.telemetry.rebuilds))))
        }
        Some(dir) => {
            let opts = WorkOptions { threads: kind.threads(), ..WorkOptions::default() };
            let (report, _, summary) = work_campaign(dir, &opts, &mut |e| {
                if let WorkEvent::Committed { done, .. } = e {
                    if done % SHARDS_PER_TICK == 0 {
                        clock.tick();
                    }
                }
            })
            .map_err(|e| e.to_string())?;
            check_summary(&summary)?;
            Ok((report, None))
        }
    }
}

fn check_summary(s: &prefender_sweep::WorkSummary) -> Result<(), String> {
    if s.counters.shard_quarantines != 0 || s.committed != s.shards {
        return Err(format!("durable campaign: {}", s.render()));
    }
    Ok(())
}

/// Tallies of the output checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Scenarios attempted (every repetition, cross-check and traced
    /// re-execution).
    pub attempted: u64,
    /// Distinct failed scenarios per pass, summed.
    pub failed: u64,
    /// What failed.
    pub problems: Vec<String>,
}

impl Checks {
    /// Records a pass over `attempted` scenarios, of which `failed`
    /// (scenario index → reason) failed.
    pub fn pass(&mut self, what: &str, attempted: usize, failed: BTreeMap<usize, String>) {
        self.attempted += attempted as u64;
        self.failed += failed.len() as u64;
        if let Some((i, why)) = failed.iter().next() {
            self.problems
                .push(format!("{what}: {} failed, first scenario {i}: {why}", failed.len()));
        }
    }
}

/// Indices whose rows differ between two reports (a length mismatch
/// fails every index of the longer one).
fn diff_rows(a: &[ScenarioResult], b: &[ScenarioResult], why: &str) -> BTreeMap<usize, String> {
    let n = a.len().max(b.len());
    (0..n).filter(|&i| a.get(i) != b.get(i)).map(|i| (i, why.to_string())).collect()
}

/// Checks every row of one report for what any seed must give.
fn row_checks(kind: Kind, grid: &SweepGrid, report: &SweepReport) -> BTreeMap<usize, String> {
    let mut bad = BTreeMap::new();
    if report.results.len() != grid.len() {
        bad.insert(
            report.results.len(),
            format!("{} rows for {} scenarios", report.results.len(), grid.len()),
        );
    }
    let max_bits = f64::from(LEAK_SECRETS).log2() + 1e-9;
    for (i, r) in report.results.iter().enumerate() {
        let fail = if r.index != i {
            Some("out of order".to_string())
        } else if r.truncated || r.instructions == 0 || r.cycles == 0 {
            Some("truncated or empty run".into())
        } else {
            match kind {
                Kind::SpecPerf => None,
                Kind::LeakageMap => match (r.mi_bits, r.mi_p_value, r.mi_ci_lo, r.mi_ci_hi) {
                    (Some(mi), Some(p), Some(lo), Some(hi))
                        if (0.0..=max_bits).contains(&mi)
                            && (0.0..=1.0).contains(&p)
                            && lo <= hi =>
                    {
                        // The clean undefended Flush+Reload channel carries
                        // the whole secret; full PREFENDER seals it.
                        match r.id.split('/').take(2).collect::<Vec<_>>().as_slice() {
                            ["leak:fr:8x16", "base"] if mi < max_bits - 1e-6 => {
                                Some(format!("undefended fr leaks {mi} bits, not all 3"))
                            }
                            ["leak:fr:8x16", "full32"] if mi > 0.2 => {
                                Some(format!("defended fr leaks {mi} bits"))
                            }
                            _ => None,
                        }
                    }
                    _ => Some("missing or out-of-range channel metrics".into()),
                },
                Kind::DurableCampaign => {
                    match (r.leaked, r.id.split('/').take(2).collect::<Vec<_>>().as_slice()) {
                        (None, _) => Some("no verdict".into()),
                        (Some(false), ["atk:fr", "base"]) => {
                            Some("undefended fr did not leak".into())
                        }
                        (Some(true), ["atk:fr", "full32"]) => Some("defended fr leaked".into()),
                        _ => None,
                    }
                }
            }
        };
        if let Some(why) = fail {
            bad.insert(i, why);
        }
    }
    bad
}

/// Checks one repetition's report as soon as it completes: each row's
/// invariants, and equality with the first repetition's rows. Only the
/// first report is kept (in `first`); later ones are dropped here, so
/// the process's memory does not grow with the number of repetitions.
pub fn check_rep(
    kind: Kind,
    k: usize,
    rep: &mut Rep,
    first: &mut Option<SweepReport>,
    checks: &mut Checks,
) {
    let grid = kind.grid();
    let Some(report) = rep.report.take() else {
        let why = rep.error.clone().unwrap_or_default();
        checks.pass(
            &format!("repetition {k}"),
            grid.len(),
            (0..grid.len()).map(|i| (i, why.clone())).collect(),
        );
        return;
    };
    let mut bad = row_checks(kind, &grid, &report);
    match first {
        Some(first) => bad.extend(diff_rows(
            &first.results,
            &report.results,
            "differs from the first repetition",
        )),
        None => *first = Some(report),
    }
    checks.pass(&format!("repetition {k}"), grid.len(), bad);
}

/// At the default seed, the artifact digest must equal the stored one.
pub fn check_digest(kind: Kind, seed: u64, reference: &SweepReport, checks: &mut Checks) {
    if seed != DEFAULT_SEED {
        return;
    }
    let digest = fnv1a64(reference.to_json().as_bytes());
    let mut bad = BTreeMap::new();
    if kind.golden() != Some(digest) {
        bad.insert(0, format!("artifact digest {digest:#018x} is not the stored one"));
    }
    // The digest covers the whole artifact, so a mismatch cannot be
    // pinned on one scenario: it counts as one failed check.
    checks.pass("stored digest", 1, bad);
}

/// The engine's work-list dispatch order (config-major), which keeps
/// one attack runner resetting in place instead of rebuilding.
fn dispatch_order(scenarios: &[Scenario]) -> Vec<&Scenario> {
    let mut order: Vec<&Scenario> = scenarios.iter().collect();
    order.sort_by_key(|s| s.machine_key());
    order
}

/// Re-executes the scenarios `keep` selects through direct layer calls
/// and compares each with the report's row. Returns the rows by index
/// and the machine costs.
pub fn cross_check(
    kind: Kind,
    seed: u64,
    report: &SweepReport,
    rec: &Recorder,
    keep: impl Fn(usize) -> bool,
    checks: &mut Checks,
) -> (BTreeMap<usize, ScenarioResult>, Costs) {
    let grid = kind.grid();
    let scenarios = grid.enumerate();
    let mut direct = Direct::new(rec, seed, grid.resample());
    let mut rows = BTreeMap::new();
    let mut bad = BTreeMap::new();
    let order: Vec<&Scenario> =
        dispatch_order(&scenarios).into_iter().filter(|s| keep(s.index)).collect();
    for s in &order {
        match direct.run(s) {
            Ok(row) => {
                if report.results.get(s.index) != Some(&row) {
                    bad.insert(s.index, "engine row differs from the direct-layer row".to_string());
                }
                rows.insert(s.index, row);
            }
            Err(e) => {
                bad.insert(s.index, e);
            }
        }
    }
    checks.pass("direct-layer cross-check", order.len(), bad);
    (rows, direct.costs)
}

/// Untraced cross-check on every [`SAMPLE_STRIDE`]-th scenario.
pub fn sample_check(kind: Kind, seed: u64, report: &SweepReport, checks: &mut Checks) {
    let rec = Recorder::new(false);
    let _ = cross_check(kind, seed, report, &rec, |i| i % SAMPLE_STRIDE == 0, checks);
}

/// `run_sweep` on the workload's grid at `threads`: the report, its wall
/// seconds, its counters and runner rebuilds.
pub fn in_memory(kind: Kind, seed: u64, threads: usize) -> (SweepReport, f64, ObsCounters, u64) {
    let t = Instant::now();
    let (report, obs) =
        run_sweep_observed(&kind.grid(), &SweepOptions { threads, campaign_seed: seed }, None);
    (report, t.elapsed().as_secs_f64(), obs.counters, obs.telemetry.rebuilds)
}

/// The durable campaign's artifact must equal `run_sweep`'s at one
/// thread, byte for byte.
pub fn check_durable_bytes(durable: &SweepReport, memory: &SweepReport, checks: &mut Checks) {
    let mut bad = BTreeMap::new();
    if durable.to_json() != memory.to_json() {
        bad = diff_rows(&durable.results, &memory.results, "durable row differs from in-memory");
        if bad.is_empty() {
            bad.insert(0, "artifact bytes differ from in-memory at one thread".into());
        }
    }
    checks.pass("durable vs in-memory bytes", durable.results.len(), bad);
}

/// The traced durable campaign: a fresh campaign whose shard spans
/// (claimed → committed) come from `work_campaign` events. Returns the
/// report and the campaign directory, left on disk for the codec pass.
pub fn durable_traced(
    seed: u64,
    tmp: &mut Tmp,
    rec: &Recorder,
    checks: &mut Checks,
) -> Result<(SweepReport, Manifest, PathBuf), String> {
    let kind = Kind::DurableCampaign;
    let grid = kind.grid();
    let dir = tmp.fresh();
    let _campaign = rec.span("sweep.campaign");
    let manifest = {
        let _g = rec.span("sweep.init");
        let opts = SweepOptions { threads: kind.threads(), campaign_seed: seed };
        init_campaign(&dir, &grid, &opts, SHARD_SIZE).map_err(|e| e.to_string())?
    };
    let mut claimed: BTreeMap<usize, u64> = BTreeMap::new();
    let opts = WorkOptions { threads: kind.threads(), ..WorkOptions::default() };
    let (report, _, summary) = work_campaign(&dir, &opts, &mut |e| match e {
        WorkEvent::Claimed { shard } => {
            claimed.insert(*shard, rec.now_ns());
        }
        WorkEvent::Committed { shard, .. } => {
            if let Some(t) = claimed.remove(shard) {
                rec.record("sweep.shard", t, rec.now_ns());
            }
        }
        _ => {}
    })
    .map_err(|e| e.to_string())?;
    let mut bad = BTreeMap::new();
    if let Err(e) = check_summary(&summary) {
        bad.insert(0, e);
    }
    checks.pass("traced durable campaign", grid.len(), bad);
    Ok((report, manifest, dir))
}

/// Decodes every committed shard and re-encodes the direct-layer rows
/// of its range: both must reproduce the file exactly.
pub fn codec_check(
    manifest: &Manifest,
    dir: &Path,
    rows: &BTreeMap<usize, ScenarioResult>,
    rec: &Recorder,
    checks: &mut Checks,
) {
    let plan = manifest.plan();
    let fingerprint = manifest.fingerprint();
    let mut bad = BTreeMap::new();
    for shard in 0..plan.n_shards() {
        let range = plan.range(shard);
        let header = ShardHeader {
            shard,
            start: range.start,
            end: range.end,
            campaign_seed: manifest.campaign_seed,
            fingerprint,
        };
        let direct: Vec<ScenarioResult> =
            range.clone().filter_map(|i| rows.get(&i).cloned()).collect();
        let text = match std::fs::read_to_string(dir.join(SHARD_DIR).join(shard_file_name(shard))) {
            Ok(t) => t,
            Err(e) => {
                bad.insert(range.start, format!("shard {shard}: {e}"));
                continue;
            }
        };
        let decoded = {
            let _g = rec.span("sweep.shard_decode");
            decode_shard(&text, &header)
        };
        if direct.len() != range.len() {
            bad.insert(range.start, format!("shard {shard}: direct rows missing"));
            continue;
        }
        let encoded = {
            let _g = rec.span("sweep.shard_encode");
            encode_shard(&header, &direct)
        };
        if decoded.as_ref() != Ok(&direct) || encoded != text {
            bad.insert(
                range.start,
                format!("shard {shard}: file differs from the direct-layer rows"),
            );
        }
    }
    checks.pass("shard codec", plan.n_shards(), bad);
}

/// Deterministic model sentinels of one report: the mean Prefender/32
/// speedup over baseline (spec-perf), mean MI bits of the full-PREFENDER
/// cells (leakage-map), and the defended share (durable-campaign); 0
/// where the workload does not compute one.
pub fn model(kind: Kind, report: &SweepReport) -> [f64; 3] {
    let rows = &report.results;
    match kind {
        Kind::SpecPerf => {
            let cycles: BTreeMap<&str, u64> =
                rows.iter().map(|r| (r.id.as_str(), r.cycles)).collect();
            let speedups: Vec<f64> = rows
                .iter()
                .filter(|r| r.id.contains("/base/none/"))
                .filter_map(|r| {
                    let full = cycles.get(r.id.replace("/base/none/", "/full32/none/").as_str())?;
                    Some(speedup_pct(r.cycles as f64, *full as f64))
                })
                .collect();
            [mean(&speedups), 0.0, 0.0]
        }
        Kind::LeakageMap => {
            let bits: Vec<f64> = rows
                .iter()
                .filter(|r| r.id.contains("/full32/"))
                .filter_map(|r| r.mi_bits)
                .collect();
            [0.0, mean(&bits), 0.0]
        }
        Kind::DurableCampaign => {
            let defended = rows.iter().filter(|r| r.leaked == Some(false)).count();
            [0.0, 0.0, crate::stats::ratio(defended as f64, rows.len() as f64)]
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    crate::stats::ratio(xs.iter().sum(), xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_documented_sizes() {
        let g = Kind::SpecPerf.grid();
        assert_eq!((g.len(), g.sims()), (21 * 6 * 3, 378));
        let g = Kind::LeakageMap.grid();
        assert_eq!((g.len(), g.sims()), (48, 6144));
        let g = Kind::DurableCampaign.grid();
        assert_eq!((g.len(), g.len().div_ceil(SHARD_SIZE)), (2304, 288));
    }

    #[test]
    fn every_workload_has_a_stored_digest() {
        for k in [Kind::SpecPerf, Kind::LeakageMap, Kind::DurableCampaign] {
            assert!(k.golden().is_some(), "{}", k.name());
        }
        for k in Kind::WORKLOADS {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("durable-campaign"), None);
        assert_ne!(DEFAULT_SEED, HELD_OUT_SEED);
    }
}
