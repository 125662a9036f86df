//! Fixed-input probes of single layers, run after the traced
//! re-execution of every workload (and excluded from its wall).
//!
//! Each probe times one public call on a fixed input several times and
//! keeps the median, so the values mean the same on every workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use prefender_attacks::{run_attack_full, AttackKind, AttackSpec, DefenseConfig, Runner};
use prefender_cpu::Machine;
use prefender_leakage::{LeakageCampaign, ResampleOptions};
use prefender_obs::{
    arm_trace, disarm_trace, enable_spans, take_thread_profile, take_thread_trace,
    DEFAULT_TRACE_CAPACITY,
};
use prefender_sim::{AccessKind, Addr, Cycle, HierarchyConfig, MemorySystem, PrefetchSource};

use crate::report::{metric, Metric};
use crate::stats::median;

/// Trials of the fresh-vs-reused attack probe.
const TRIALS: usize = 50;
/// Alternations of the armed-vs-disarmed obs probes.
const OBS_ROUNDS: usize = 5;

/// Demand accesses recorded for the replay probe, at most.
const REPLAY_ACCESSES: usize = 1 << 20;

/// Workloads whose `Machine::run` cost is reported on its own: the
/// compute-only, streaming and pointer-chasing ends of the catalog.
pub const RUN_PROBE_WORKLOADS: [(&str, &str); 3] =
    [("999.specrand", "specrand"), ("462.libquantum", "libquantum"), ("429.mcf", "mcf")];

fn paper(cores: usize) -> HierarchyConfig {
    HierarchyConfig::paper_baseline(cores).expect("the paper baseline validates")
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Median of `reps` timings of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ns_since(t)
        })
        .collect();
    median(&xs)
}

/// Settled L1D hits with a far-future prefetch parked in the queue.
fn hit_ns() -> f64 {
    const N: u64 = 1_000_000;
    let mut m = MemorySystem::new(paper(1));
    let a = Addr::new(0x4000);
    m.access(0, a, AccessKind::Read, Cycle::ZERO);
    m.prefetch(0, Addr::new(0x10_0000), PrefetchSource::Other, Cycle::new(1 << 40));
    let mut now = 10;
    median_ns(5, || {
        for _ in 0..N {
            black_box(m.access(0, a, AccessKind::Read, Cycle::new(now)));
            now += 1;
        }
    }) / N as f64
}

/// Interleaved prefetches and demand accesses keeping the queues busy.
fn storm_ns_per_op() -> f64 {
    const PAIRS: u64 = 200_000;
    median_ns(5, || {
        let mut m = MemorySystem::new(paper(1));
        let mut now = 0u64;
        for k in 0..PAIRS {
            m.prefetch(
                0,
                Addr::new(0x100_0000 + (k % 4096) * 64),
                PrefetchSource::Basic,
                Cycle::new(now),
            );
            black_box(m.access(
                0,
                Addr::new(0x4000 + (k % 16) * 64),
                AccessKind::Read,
                Cycle::new(now + 2),
            ));
            now += 7;
        }
    }) / (2 * PAIRS) as f64
}

/// Records the demand accesses of catalog workloads (undefended, in
/// catalog order, up to [`REPLAY_ACCESSES`]) through the machine trace,
/// then replays each stream into a fresh hierarchy.
fn replay_ns_per_access() -> f64 {
    let mut streams = Vec::new();
    let mut total = 0usize;
    for w in prefender_workloads::all() {
        if total >= REPLAY_ACCESSES {
            break;
        }
        let mut m = Machine::new(paper(1));
        m.trace_mut().set_capacity(REPLAY_ACCESSES - total);
        m.trace_mut().set_enabled(true);
        w.install(&mut m);
        m.run();
        let entries = m.trace().entries().to_vec();
        total += entries.len();
        streams.push(entries);
    }
    let ns = median_ns(3, || {
        for entries in &streams {
            let mut mem = MemorySystem::new(paper(1));
            for e in entries {
                black_box(mem.access(e.core, e.addr, e.kind, e.at));
            }
        }
    });
    crate::stats::ratio(ns, total as f64)
}

/// `Machine::run` ns per retired instruction of one catalog workload,
/// undefended.
fn run_ns_per_instr(name: &str) -> f64 {
    let w = prefender_workloads::all()
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("catalog workload {name} exists"));
    let xs: Vec<f64> = (0..3)
        .map(|_| {
            let mut m = Machine::new(paper(1));
            w.install(&mut m);
            let t = Instant::now();
            let s = m.run();
            ns_since(t) / s.instructions.max(1) as f64
        })
        .collect();
    median(&xs)
}

/// `Workload::install` into a fresh machine, every catalog workload.
fn install_us() -> f64 {
    let mut xs = Vec::new();
    for w in prefender_workloads::all() {
        for _ in 0..3 {
            let mut m = Machine::new(paper(1));
            let t = Instant::now();
            w.install(&mut m);
            xs.push(ns_since(t) / 1e3);
        }
    }
    median(&xs)
}

/// The fixed attack sample: undefended single-core Flush+Reload with
/// the secret and seed varied per trial.
fn trial_spec(t: u32) -> AttackSpec {
    let base = AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None);
    let l = &base.layout;
    let secret = l.first_index + (t as usize % l.n_indices);
    base.clone().with_secret(secret).with_seed(0xC0FFEE ^ u64::from(t))
}

/// The leakage cell the obs probes time: undefended single-core
/// Flush+Reload, 8 secrets × 16 trials, with resampling.
fn obs_cell(resample: &ResampleOptions) -> u64 {
    let campaign =
        LeakageCampaign::new(AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None), 8, 16);
    let r = campaign.run_with(0xC0FFEE, resample).expect("the obs probe cell runs");
    r.mi_bits.to_bits() ^ r.metrics.cycles
}

/// Runs every probe. Returns the metrics, the number of result
/// comparisons made, and the failed ones by comparison number (reuse and
/// instrumentation must never change a result).
pub fn run(resample: &ResampleOptions) -> (Vec<Metric>, usize, BTreeMap<usize, String>) {
    let mut problems = BTreeMap::new();
    let mut out = vec![
        metric("sim.hit_ns", hit_ns(), "ns"),
        metric("sim.storm_ns_per_op", storm_ns_per_op(), "ns"),
        metric("sim.replay_ns_per_access", replay_ns_per_access(), "ns"),
        metric(
            "cpu.machine_new_us",
            median_ns(200, || drop(black_box(Machine::new(paper(1))))) / 1e3,
            "us",
        ),
    ];
    for (name, short) in RUN_PROBE_WORKLOADS {
        out.push(metric(&format!("cpu.run_ns_per_instr.{short}"), run_ns_per_instr(name), "ns"));
    }
    out.push(metric("workloads.install_us", install_us(), "us"));

    let spec = trial_spec(0);
    let runner_new = median_ns(50, || drop(black_box(Runner::new(&spec).expect("runner builds"))));
    let mut fresh = Vec::new();
    let mut reused = Vec::new();
    let mut runner = Runner::new(&spec).expect("runner builds");
    for t in 0..TRIALS as u32 {
        let spec = trial_spec(t);
        let start = Instant::now();
        let a = run_attack_full(&spec).expect("fresh trial runs");
        fresh.push(ns_since(start));
        let start = Instant::now();
        let b = runner.run_full(&spec).expect("reused trial runs");
        reused.push(ns_since(start));
        if a != b {
            problems.insert(t as usize, "reused runner differs from a fresh machine".to_string());
        }
    }
    let (fresh, reused) = (median(&fresh), median(&reused));
    out.push(metric("attacks.runner_new_us", runner_new / 1e3, "us"));
    out.push(metric("attacks.fresh_trial_us", fresh / 1e3, "us"));
    out.push(metric("attacks.reuse_speedup", crate::stats::ratio(fresh, reused), "ratio"));

    // Armed and disarmed runs alternate so drift hits both sides alike.
    let (mut plain, mut spans, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let reference = obs_cell(resample);
    for k in 0..OBS_ROUNDS {
        let t = Instant::now();
        let a = obs_cell(resample);
        plain.push(ns_since(t));
        enable_spans(true);
        let t = Instant::now();
        let b = obs_cell(resample);
        spans.push(ns_since(t));
        enable_spans(false);
        let _ = take_thread_profile();
        arm_trace(DEFAULT_TRACE_CAPACITY);
        let t = Instant::now();
        let c = obs_cell(resample);
        traced.push(ns_since(t));
        disarm_trace();
        let _ = take_thread_trace();
        if [a, b, c].iter().any(|&x| x != reference) {
            problems
                .insert(TRIALS + k, "arming spans or the trace changed a leakage result".into());
        }
    }
    let plain = median(&plain);
    out.push(metric("obs.spans_armed_ratio", crate::stats::ratio(median(&spans), plain), "ratio"));
    out.push(metric("obs.trace_armed_ratio", crate::stats::ratio(median(&traced), plain), "ratio"));
    (out, TRIALS + OBS_ROUNDS, problems)
}
