//! `perfbench`: the layered benchmark of the PREFENDER simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <spec-perf|leakage-map> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Repeats the workload, untraced, for `--seconds` (at least three
//! repetitions), checks every output, and prints one JSON line per
//! repetition (with its host-noise record) followed by the result line.
//! Throughputs are per reference second (see `refclock`), which keeps
//! them steady on a shared host whose speed drifts.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` re-executes
//! the grid through direct layer calls inside spans, runs the layer
//! probes, and reports the per-layer metrics. See `perfbench/README.md`.

mod direct;
mod host;
mod probes;
mod refclock;
mod report;
mod spans;
mod stats;
mod suite;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use prefender_sweep::{ScenarioResult, SweepReport};

use crate::refclock::{Reading, RefClock};
use crate::report::{metric, result_line, Metric};
use crate::spans::{durations_ns, root_ns, self_by_layer, Recorder};
use crate::stats::{median, ratio, tail};
use crate::suite::{Checks, Kind, Rep, Tmp};

const USAGE: &str = "usage: perfbench --workload <spec-perf|leakage-map> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Repetitions made even when `--seconds` runs out sooner.
const MIN_REPS: usize = 3;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sims_per_ref_s", "1/ref_s"),
    ("guest_mips_ref", "instr/ref_us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 52] = [
    ("sim.hit_ns", "ns"),
    ("sim.storm_ns_per_op", "ns"),
    ("sim.replay_ns_per_access", "ns"),
    ("sim.l1d_miss_ratio", "ratio"),
    ("sim.mshr_high_water", "count"),
    ("core.defense_ns_per_instr", "ns"),
    ("core.prefetch_useful_ratio", "ratio"),
    ("core.diffmin_rescan_frac", "ratio"),
    ("core.at_evict_frac", "ratio"),
    ("cpu.run_ns_per_instr", "ns"),
    ("cpu.run_ns_per_instr.specrand", "ns"),
    ("cpu.run_ns_per_instr.libquantum", "ns"),
    ("cpu.run_ns_per_instr.mcf", "ns"),
    ("cpu.machine_new_us", "us"),
    ("cpu.nop_batch_share", "ratio"),
    ("cpu.ipc", "instr/cycle"),
    ("cpu.self_frac", "ratio"),
    ("workloads.install_us", "us"),
    ("workloads.self_frac", "ratio"),
    ("attacks.runner_new_us", "us"),
    ("attacks.trial_us_p50", "us"),
    ("attacks.trial_us_tail", "us"),
    ("attacks.trial_us_tail_pct", "%"),
    ("attacks.trial_n", "count"),
    ("attacks.fresh_trial_us", "us"),
    ("attacks.reuse_speedup", "ratio"),
    ("attacks.self_frac", "ratio"),
    ("leakage.resample_ms", "ms"),
    ("leakage.self_frac", "ratio"),
    ("sweep.scenario_ms_p50", "ms"),
    ("sweep.scenario_ms_tail", "ms"),
    ("sweep.scenario_ms_tail_pct", "%"),
    ("sweep.scenario_n", "count"),
    ("sweep.init_ms", "ms"),
    ("sweep.shard_ms_p50", "ms"),
    ("sweep.shard_ms_tail", "ms"),
    ("sweep.shard_ms_tail_pct", "%"),
    ("sweep.shard_n", "count"),
    ("sweep.shard_encode_us", "us"),
    ("sweep.shard_decode_us", "us"),
    ("sweep.durable_overhead", "ratio"),
    ("sweep.parallel_efficiency", "ratio"),
    ("sweep.runner_rebuilds", "count"),
    ("sweep.self_frac", "ratio"),
    ("obs.spans_armed_ratio", "ratio"),
    ("obs.trace_armed_ratio", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.wall_sims_per_s", "1/s"),
    ("bench.host_speed", "ratio"),
    ("model.prefender_speedup_pct", "%"),
    ("model.leak_bits_full", "bits"),
    ("model.defended_frac", "ratio"),
];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a whole number"));
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(suite::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn instructions(report: &SweepReport) -> u64 {
    report.results.iter().map(|r| r.instructions).sum()
}

/// Orders `values` as `list` names them.
///
/// # Panics
///
/// Panics when a listed metric was not computed (a benchmark bug).
fn ordered(list: &[(&str, &'static str)], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    list.iter()
        .map(|&(name, unit)| {
            let v = values.get(name).unwrap_or_else(|| panic!("metric {name} was not computed"));
            metric(name, *v, unit)
        })
        .collect()
}

/// The completed repetitions' execution readings.
fn execs(reps: &[Rep]) -> Vec<Reading> {
    reps.iter().filter(|r| r.error.is_none()).map(|r| r.exec).collect()
}

/// The completed repetitions' execution wall seconds.
fn exec_walls(reps: &[Rep]) -> Vec<f64> {
    execs(reps).iter().map(|r| r.wall_s).collect()
}

/// Throughput is sustained over the whole measured window: the work of
/// every completed repetition over their summed execution time, in
/// reference seconds.
fn end_to_end(kind: Kind, reps: &[Rep], reference: &SweepReport, peak_rss_mb: f64) -> Vec<Metric> {
    let execs = execs(reps);
    let ref_s: f64 = execs.iter().map(|r| r.ref_s).sum();
    let n = execs.len() as f64;
    let setup: Vec<f64> = reps.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    let values = BTreeMap::from([
        ("setup_s", median(&setup)),
        ("sims_per_ref_s", ratio(kind.grid().sims() as f64 * n, ref_s)),
        ("guest_mips_ref", ratio(instructions(reference) as f64 * n, ref_s * 1e6)),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    ordered(&END_TO_END, &values)
}

/// Sums a row field over the direct-layer rows.
fn sum(rows: &BTreeMap<usize, ScenarioResult>, f: impl Fn(&ScenarioResult) -> u64) -> f64 {
    rows.values().map(f).sum::<u64>() as f64
}

/// Durable-path metrics: measured by [`durable_probe`] in the
/// `leakage-map` traced run, 0 on `spec-perf`.
const DURABLE: [&str; 10] = [
    "sweep.init_ms",
    "sweep.shard_ms_p50",
    "sweep.shard_ms_tail",
    "sweep.shard_ms_tail_pct",
    "sweep.shard_n",
    "sweep.shard_encode_us",
    "sweep.shard_decode_us",
    "sweep.durable_overhead",
    "sweep.parallel_efficiency",
    "model.defended_frac",
];

/// The durable-path probe: the attack grid of [`Kind::DurableCampaign`]
/// as a fresh sharded campaign (`init_campaign` + `work_campaign`) at
/// `nproc` threads, once untraced and once timed from its events, and in
/// memory at 1 and `nproc` threads. Every result is checked.
fn durable_probe(
    seed: u64,
    tmp: &mut Tmp,
    clock: &mut RefClock,
    checks: &mut Checks,
) -> BTreeMap<&'static str, f64> {
    let kind = Kind::DurableCampaign;
    let mut v: BTreeMap<&str, f64> = DURABLE.iter().map(|&name| (name, 0.0)).collect();
    let mut r = suite::rep(kind, seed, tmp, clock);
    let mut untraced = None;
    suite::check_rep(kind, 0, &mut r, &mut untraced, checks);
    let Some(untraced) = untraced else {
        return v;
    };
    suite::check_digest(kind, seed, &untraced, checks);
    let (memory, one_s, _, _) = suite::in_memory(kind, seed, 1);
    suite::check_durable_bytes(&untraced, &memory, checks);
    let n = kind.threads();
    let (_, n_s, _, _) = suite::in_memory(kind, seed, n);
    v.insert("sweep.init_ms", r.init_s.unwrap_or(0.0) * 1e3);
    v.insert("sweep.durable_overhead", ratio(r.exec.wall_s, n_s));
    v.insert("sweep.parallel_efficiency", ratio(one_s, n_s) / n as f64);
    v.insert("model.defended_frac", suite::model(kind, &untraced)[2]);

    let rec = Recorder::new(true);
    match suite::durable_traced(seed, tmp, &rec, checks) {
        Ok((report, manifest, dir)) => {
            let bad = (0..untraced.results.len().max(report.results.len()))
                .filter(|&i| untraced.results.get(i) != report.results.get(i))
                .map(|i| (i, "traced campaign row differs".to_string()))
                .collect();
            checks.pass("traced vs untraced campaign rows", untraced.results.len(), bad);
            let rows = memory.results.iter().map(|r| (r.index, r.clone())).collect();
            suite::codec_check(&manifest, &dir, &rows, &rec, checks);
        }
        Err(e) => {
            checks.problems.push(format!("traced durable campaign: {e}"));
            checks.attempted += 1;
            checks.failed += 1;
        }
    }
    let spans = rec.spans();
    let scaled = |name: &str, per: f64| {
        durations_ns(&spans, name).iter().map(|x| x / per).collect::<Vec<_>>()
    };
    let t = tail(&scaled("sweep.shard", 1e6));
    v.insert("sweep.shard_ms_p50", t.p50);
    v.insert("sweep.shard_ms_tail", t.tail);
    v.insert("sweep.shard_ms_tail_pct", t.pct);
    v.insert("sweep.shard_n", t.n as f64);
    v.insert("sweep.shard_encode_us", median(&scaled("sweep.shard_encode", 1e3)));
    v.insert("sweep.shard_decode_us", median(&scaled("sweep.shard_decode", 1e3)));
    v
}

/// The traced re-execution, the durable-path probe (`leakage-map`) and
/// the layer probes.
fn traced(
    args: &Args,
    reps: &[Rep],
    reference: &SweepReport,
    tmp: &mut Tmp,
    clock: &mut RefClock,
    checks: &mut Checks,
) -> Vec<Metric> {
    let kind = args.kind;
    let rec = Recorder::new(true);
    let walls = exec_walls(reps);
    let untraced_s = ratio(walls.iter().sum(), walls.len() as f64);
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    let (rows, costs) = suite::cross_check(kind, args.seed, reference, &rec, |_| true, checks);
    let (counters, rebuilds) = reps.iter().find_map(|r| r.obs).unwrap_or_default();
    let traced_ns = root_ns(&rec.spans()) as f64;
    let spans = rec.spans();

    v.insert(
        "sim.l1d_miss_ratio",
        ratio(sum(&rows, |r| r.demand_misses), sum(&rows, |r| r.demand_accesses)),
    );
    v.insert("sim.mshr_high_water", counters.mshr_high_water as f64);
    v.insert("core.defense_ns_per_instr", costs.full.ns_per_instr() - costs.base.ns_per_instr());
    v.insert(
        "core.prefetch_useful_ratio",
        ratio(sum(&rows, |r| r.prefetch_useful), sum(&rows, |r| r.prefetch_issued)),
    );
    let diffmin = (counters.diffmin_incremental + counters.diffmin_rescans) as f64;
    v.insert("core.diffmin_rescan_frac", ratio(counters.diffmin_rescans as f64, diffmin));
    v.insert(
        "core.at_evict_frac",
        ratio(counters.at_buffer_evictions as f64, counters.at_buffer_allocs as f64),
    );
    v.insert("cpu.run_ns_per_instr", costs.all.ns_per_instr());
    v.insert(
        "cpu.nop_batch_share",
        ratio(counters.retire_fast_nops as f64, sum(&rows, |r| r.instructions)),
    );
    v.insert("cpu.ipc", ratio(sum(&rows, |r| r.instructions), sum(&rows, |r| r.cycles)));

    let total = root_ns(&spans) as f64;
    let by_layer = self_by_layer(&spans);
    for (layer, name) in [
        ("cpu", "cpu.self_frac"),
        ("workloads", "workloads.self_frac"),
        ("attacks", "attacks.self_frac"),
        ("leakage", "leakage.self_frac"),
        ("sweep", "sweep.self_frac"),
    ] {
        v.insert(name, ratio(by_layer.get(layer).copied().unwrap_or(0) as f64, total));
    }
    let scaled = |name: &str, per: f64| {
        durations_ns(&spans, name).iter().map(|x| x / per).collect::<Vec<_>>()
    };
    for (span, per, prefix) in [
        (
            "attacks.trial",
            1e3,
            [
                "attacks.trial_us_p50",
                "attacks.trial_us_tail",
                "attacks.trial_us_tail_pct",
                "attacks.trial_n",
            ],
        ),
        (
            "sweep.scenario",
            1e6,
            [
                "sweep.scenario_ms_p50",
                "sweep.scenario_ms_tail",
                "sweep.scenario_ms_tail_pct",
                "sweep.scenario_n",
            ],
        ),
    ] {
        let t = tail(&scaled(span, per));
        for (name, value) in prefix.into_iter().zip([t.p50, t.tail, t.pct, t.n as f64]) {
            v.insert(name, value);
        }
    }
    v.insert("leakage.resample_ms", median(&scaled("leakage.resample", 1e6)));
    v.insert("sweep.runner_rebuilds", rebuilds as f64);
    v.insert("bench.trace_overhead", ratio(traced_ns / 1e9, untraced_s));
    let wall_s: f64 = walls.iter().sum();
    let ref_s: f64 = execs(reps).iter().map(|e| e.ref_s).sum();
    v.insert(
        "bench.wall_sims_per_s",
        ratio(kind.grid().sims() as f64 * walls.len() as f64, wall_s),
    );
    v.insert("bench.host_speed", ratio(ref_s, wall_s));
    let [speedup, bits, defended] = suite::model(kind, reference);
    v.insert("model.prefender_speedup_pct", speedup);
    v.insert("model.leak_bits_full", bits);
    v.insert("model.defended_frac", defended);
    if kind == Kind::LeakageMap {
        v.extend(durable_probe(args.seed, tmp, clock, checks));
    } else {
        v.extend(DURABLE.iter().map(|&name| (name, 0.0)));
    }

    let (probed, compared, problems) = probes::run(&Kind::LeakageMap.grid().resample());
    checks.pass("probe comparisons", compared, problems);
    let probed: BTreeMap<String, f64> = probed.into_iter().map(|m| (m.name, m.value)).collect();
    for (name, _) in PER_LAYER {
        if let Some(x) = probed.get(name) {
            v.insert(name, *x);
        }
    }
    ordered(&PER_LAYER, &v)
}

fn run(args: &Args, tmp: &mut Tmp) -> (Checks, Vec<Metric>) {
    let kind = args.kind;
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} CPUs",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc()
    );
    let window = Instant::now();
    let mut clock = RefClock::new();
    let mut checks = Checks::default();
    let mut reference = None;
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || window.elapsed().as_secs_f64() < args.seconds as f64 {
        let mut r = suite::rep(kind, args.seed, tmp, &mut clock);
        // The host-noise record of this repetition.
        println!(
            "{{\"rep\": {}, \"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"setup_s\": {:?}, \"init_s\": {}, \
             \"exec_s\": {}, \"exec_ref_s\": {}, \"ref_blocks\": {}, \"ref_blocks_s\": {}, \
             \"user_ticks\": {}, \"steal_ticks\": {}, \"total_ticks\": {}, \"ok\": {}}}",
            reps.len(),
            kind.name(),
            args.seed,
            host::nproc(),
            r.setup_s,
            r.init_s.map_or("null".to_string(), |s| s.to_string()),
            r.exec.wall_s,
            r.exec.ref_s,
            r.exec.blocks,
            r.exec.blocks_s,
            r.ticks.user,
            r.ticks.steal,
            r.ticks.total,
            r.error.is_none()
        );
        if let Some(e) = &r.error {
            eprintln!("perfbench: repetition {} failed: {e}", reps.len());
        }
        suite::check_rep(kind, reps.len(), &mut r, &mut reference, &mut checks);
        reps.push(r);
    }
    let peak_rss = host::peak_rss_mb();
    if let Some(reference) = &reference {
        suite::check_digest(kind, args.seed, reference, &mut checks);
    }
    let metrics = match (&reference, args.trace) {
        (Some(r), false) => {
            suite::sample_check(kind, args.seed, r, &mut checks);
            end_to_end(kind, &reps, r, peak_rss)
        }
        (Some(r), true) => traced(args, &reps, r, tmp, &mut clock, &mut checks),
        // Nothing ran to completion: report zeros beside the failures.
        (None, trace) => {
            let list: &[(&str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
            list.iter().map(|&(name, unit)| metric(name, 0.0, unit)).collect()
        }
    };
    (checks, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\n{USAGE}\n(default seed {}, held-out seed {})",
                suite::DEFAULT_SEED,
                suite::HELD_OUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    let mut tmp = match Tmp::new() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: cannot create the campaign scratch directory: {e}");
            return ExitCode::from(1);
        }
    };
    let (checks, metrics) = run(&args, &mut tmp);
    drop(tmp);
    for p in &checks.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    for m in &metrics {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = checks.problems.is_empty() && checks.failed == 0;
    println!("{}", result_line(correct, checks.attempted.max(1), checks.failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload leakage-map --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a, Args { kind: Kind::LeakageMap, seed: 7, seconds: 12, trace: true });
        assert!(args("--workload nope").is_err());
        assert!(args("--workload spec-perf --trace 2").is_err());
        assert!(args("--workload spec-perf --seed").is_err());
        assert!(args("--seed 1").is_err());
    }

    #[test]
    fn metric_lists_are_well_formed_and_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (list, key) in [(&END_TO_END[..], "end_to_end"), (&PER_LAYER[..], "per_layer")] {
            let section = &json[json.find(&format!("\"{key}\"")).expect("section present")..];
            for (i, &(name, unit)) in list.iter().enumerate() {
                assert!(report::valid_name(name) && report::valid_unit(unit), "{name}");
                assert!(!list[..i].iter().any(|&(n, _)| n == name), "{name} repeated");
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(section.contains(&entry), "BENCHMARK.json lacks {entry} under {key}");
            }
        }
    }
}
