//! `repro profile` — span-based phase breakdown of the hot stack.
//!
//! Arms the `prefender-obs` span collector, runs two representative
//! campaigns at one thread (so the whole profile lands on the calling
//! thread), and emits `PROFILE.json`:
//!
//! * **one leakage cell** — the fully-defended Flush+Reload channel
//!   (8 secrets × 4 trials through one runner), the shape every leakage
//!   campaign repeats;
//! * **one performance workload** — a catalog workload under the full
//!   defense, the only payload kind that models instruction fetch (so
//!   the `fetch` phase appears here and nowhere else);
//! * **the CI 576-scenario grid** — the thread-scaling benchmark grid,
//!   the shape `BENCH_sweep.json` tracks.
//!
//! Phases are the span names the stack opens: `fetch` / `execute` /
//! `defense` (CPU core loop), `settle` (memory-system completion
//! drain), `expiry` (Record Protector protection expiry), `decode` /
//! `resample` (leakage campaign analysis). Per phase the profile
//! records spans closed, total wall time, and *self* time (exclusive of
//! nested spans) — self times are disjoint, so they sum to attributed
//! wall time.
//!
//! A fourth section re-runs the leakage cell with the **flight
//! recorder** armed and reports the per-event-class trace volume plus
//! p50/p95/p99 latency quantiles for the latency-carrying classes
//! (`access`, `flush`). The quantiles are simulated-cycle data and
//! deterministic; the span timings are wall-clock and host-dependent —
//! `PROFILE.json` as a whole is a timing record like `BENCH_sim.json`,
//! never a determinism-checked artifact.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use prefender_obs::{enable_spans, take_thread_profile, HostInfo, Phase, TraceEvent, Value};
use prefender_stats::Histogram;
use prefender_sweep::{
    run_sweep_observed, AttackCase, AttackKind, DefenseConfig, DefensePoint, NoiseSpec, SweepGrid,
    SweepOptions,
};

use crate::sweepbench;

/// One profiled campaign: a grid run start-to-finish with spans armed.
#[derive(Debug, Clone)]
pub struct ProfileSection {
    /// Stable section label.
    pub label: &'static str,
    /// Scenarios the grid enumerated.
    pub scenarios: usize,
    /// Machine simulations the grid fanned out into.
    pub sims: u64,
    /// Wall-clock milliseconds for the whole run.
    pub elapsed_ms: f64,
    /// Per-phase accumulations, sorted by phase name.
    pub phases: Vec<Phase>,
}

impl ProfileSection {
    /// Wall nanoseconds attributed to some phase (sum of self times —
    /// disjoint by construction, unlike totals which nest).
    pub fn attributed_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.self_ns).sum()
    }

    fn to_value(&self) -> Value {
        let attributed = self.attributed_ns();
        Value::Obj(vec![
            ("label".into(), Value::Str(self.label.into())),
            ("scenarios".into(), Value::U64(self.scenarios as u64)),
            ("sims".into(), Value::U64(self.sims)),
            ("elapsed_ms".into(), Value::F64(self.elapsed_ms)),
            ("attributed_ns".into(), Value::U64(attributed)),
            (
                "phases".into(),
                Value::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Value::Obj(vec![
                                ("phase".into(), Value::Str(p.name.into())),
                                ("count".into(), Value::U64(p.count)),
                                ("total_ns".into(), Value::U64(p.total_ns)),
                                ("self_ns".into(), Value::U64(p.self_ns)),
                                (
                                    "self_share".into(),
                                    Value::F64(if attributed == 0 {
                                        0.0
                                    } else {
                                        p.self_ns as f64 / attributed as f64
                                    }),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Per-event-class statistics of one traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceClassStat {
    /// Event class name (`TraceEvent::class`).
    pub class: String,
    /// Events of this class captured.
    pub events: u64,
    /// `(p50, p95, p99)` latency quantiles, for latency-carrying classes.
    pub latency_quantiles: Option<(u64, u64, u64)>,
}

/// The flight-recorder section: event volume and latency quantiles of a
/// trace-armed re-run of the leakage cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSection {
    /// Stable section label.
    pub label: &'static str,
    /// Events captured across the run.
    pub events: u64,
    /// Events dropped to full ring buffers.
    pub dropped: u64,
    /// Per-class stats, sorted by class name.
    pub classes: Vec<TraceClassStat>,
}

impl TraceSection {
    fn to_value(&self) -> Value {
        let classes = self
            .classes
            .iter()
            .map(|c| {
                let mut fields = vec![
                    ("class".into(), Value::Str(c.class.clone())),
                    ("events".into(), Value::U64(c.events)),
                ];
                if let Some((p50, p95, p99)) = c.latency_quantiles {
                    fields.push(("latency_p50".into(), Value::U64(p50)));
                    fields.push(("latency_p95".into(), Value::U64(p95)));
                    fields.push(("latency_p99".into(), Value::U64(p99)));
                }
                Value::Obj(fields)
            })
            .collect();
        Value::Obj(vec![
            ("label".into(), Value::Str(self.label.into())),
            ("events".into(), Value::U64(self.events)),
            ("dropped".into(), Value::U64(self.dropped)),
            ("classes".into(), Value::Arr(classes)),
        ])
    }
}

/// The full `repro profile` record.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Profiled campaigns, in run order.
    pub sections: Vec<ProfileSection>,
    /// The flight-recorder breakdown of the leakage cell.
    pub trace: TraceSection,
}

impl ProfileReport {
    /// The `PROFILE.json` body (one JSON object, trailing newline).
    pub fn to_json(&self) -> String {
        let v = Value::Obj(vec![
            ("profile".into(), Value::Str("prefender".into())),
            ("schema_version".into(), Value::U64(1)),
            ("host".into(), HostInfo::capture().to_value()),
            (
                "sections".into(),
                Value::Arr(self.sections.iter().map(ProfileSection::to_value).collect()),
            ),
            ("trace".into(), self.trace.to_value()),
        ]);
        let mut s = v.to_json(0);
        s.push('\n');
        s
    }

    /// Human-readable per-section phase tables.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for sec in &self.sections {
            let _ = writeln!(
                s,
                "{} — {} scenarios, {} sims, {:.1} ms wall",
                sec.label, sec.scenarios, sec.sims, sec.elapsed_ms
            );
            let attributed = sec.attributed_ns().max(1);
            let _ = writeln!(
                s,
                "  {:<10} {:>12} {:>12} {:>12} {:>7}",
                "phase", "spans", "total ms", "self ms", "share"
            );
            for p in &sec.phases {
                let _ = writeln!(
                    s,
                    "  {:<10} {:>12} {:>12.2} {:>12.2} {:>6.1}%",
                    p.name,
                    p.count,
                    p.total_ns as f64 / 1e6,
                    p.self_ns as f64 / 1e6,
                    100.0 * p.self_ns as f64 / attributed as f64
                );
            }
            s.push('\n');
        }
        let t = &self.trace;
        let _ = writeln!(s, "{} — {} trace events, {} dropped", t.label, t.events, t.dropped);
        let _ = writeln!(
            s,
            "  {:<18} {:>12} {:>8} {:>8} {:>8}",
            "class", "events", "p50", "p95", "p99"
        );
        for c in &t.classes {
            match c.latency_quantiles {
                Some((p50, p95, p99)) => {
                    let _ = writeln!(
                        s,
                        "  {:<18} {:>12} {:>8} {:>8} {:>8}",
                        c.class, c.events, p50, p95, p99
                    );
                }
                None => {
                    let _ = writeln!(
                        s,
                        "  {:<18} {:>12} {:>8} {:>8} {:>8}",
                        c.class, c.events, "-", "-", "-"
                    );
                }
            }
        }
        s.push('\n');
        s
    }
}

/// Runs `grid` at one thread with spans armed and drains the calling
/// thread's profile into a section.
fn profile_grid(label: &'static str, grid: &SweepGrid) -> ProfileSection {
    let scenarios = grid.len();
    let sims = grid.sims();
    // Drain any spans a previous section (or stray test) left behind so
    // the section owns exactly its own run.
    enable_spans(true);
    let _ = take_thread_profile();
    let start = Instant::now();
    let (_report, _obs) =
        run_sweep_observed(grid, &SweepOptions { threads: 1, campaign_seed: 0xC0FFEE }, None);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    enable_spans(false);
    let phases = take_thread_profile();
    ProfileSection { label, scenarios, sims, elapsed_ms, phases }
}

/// The single-cell grid: the fully-defended Flush+Reload leakage
/// campaign (8 × 4, the paper shape).
fn leakage_cell_grid() -> SweepGrid {
    let mut g = SweepGrid::empty();
    g.leakages = vec![AttackCase {
        kind: AttackKind::FlushReload,
        noise: NoiseSpec::NONE,
        cross_core: false,
    }];
    g.defenses = vec![DefensePoint::new(DefenseConfig::Full)];
    // Resampling on, so the `resample` phase shows up in the breakdown.
    g.leakage_permutations = 200;
    g.leakage_bootstrap = 100;
    g
}

/// The single-workload grid: one catalog workload under the full
/// defense — the fetch-modelled payload kind.
fn workload_grid() -> SweepGrid {
    let mut g = SweepGrid::empty();
    g.workloads = vec!["462.libquantum".to_string()];
    g.defenses = vec![DefensePoint::new(DefenseConfig::Full)];
    g
}

/// Re-runs `grid` at one thread with the flight recorder armed and
/// reduces the captured trace to per-class volumes and latency
/// quantiles (`access` load-to-use latency, `flush` completion latency).
fn trace_grid(label: &'static str, grid: &SweepGrid) -> TraceSection {
    prefender_obs::arm_trace(prefender_obs::DEFAULT_TRACE_CAPACITY);
    let (_report, obs) =
        run_sweep_observed(grid, &SweepOptions { threads: 1, campaign_seed: 0xC0FFEE }, None);
    prefender_obs::disarm_trace();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut latencies: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    for (_, buf) in &obs.traces {
        for e in &buf.events {
            *counts.entry(e.class()).or_insert(0) += 1;
            let latency = match e {
                TraceEvent::Access { latency, .. } => Some(*latency),
                TraceEvent::Flush { latency, .. } => Some(*latency),
                _ => None,
            };
            if let Some(l) = latency {
                latencies.entry(e.class()).or_default().record(l);
            }
        }
    }
    let classes = counts
        .into_iter()
        .map(|(class, events)| TraceClassStat {
            class: class.to_string(),
            events,
            latency_quantiles: latencies.get(class).map(|h| {
                let q = |q| h.quantile(q).unwrap_or(0);
                (q(0.50), q(0.95), q(0.99))
            }),
        })
        .collect();
    TraceSection { label, events: obs.trace_events(), dropped: obs.trace_dropped(), classes }
}

/// Runs the whole profile suite: one leakage cell, one workload, the
/// 576 grid, then the trace-armed leakage-cell re-run.
pub fn run() -> ProfileReport {
    ProfileReport {
        sections: vec![
            profile_grid("leakage-cell fr/full32 8x4", &leakage_cell_grid()),
            profile_grid("workload 462.libquantum/full32", &workload_grid()),
            profile_grid("sweep-grid 576 (1 thread)", &sweepbench::scaling_grid()),
        ],
        trace: trace_grid("trace leakage-cell fr/full32 8x4", &leakage_cell_grid()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leakage_cell_profile_breaks_out_the_phases() {
        let section = profile_grid("test cell", &leakage_cell_grid());
        assert_eq!(section.scenarios, 1);
        assert_eq!(section.sims, 32);
        let names: Vec<&str> = section.phases.iter().map(|p| p.name).collect();
        // Attack programs run with unmodelled fetch, so no `fetch` here —
        // the workload section covers that phase.
        for expected in ["execute", "defense", "settle", "expiry", "decode", "resample"] {
            assert!(names.contains(&expected), "missing phase {expected} in {names:?}");
        }
        // Self times are disjoint, so attributed time can't exceed wall.
        assert!(section.attributed_ns() as f64 / 1e6 <= section.elapsed_ms * 1.05);
        // Every phase's self time fits inside its total.
        for p in &section.phases {
            assert!(p.self_ns <= p.total_ns, "{}: self > total", p.name);
            assert!(p.count > 0);
        }
    }

    #[test]
    fn workload_profile_includes_the_fetch_phase() {
        let section = profile_grid("test workload", &workload_grid());
        let names: Vec<&str> = section.phases.iter().map(|p| p.name).collect();
        for expected in ["fetch", "execute", "defense"] {
            assert!(names.contains(&expected), "missing phase {expected} in {names:?}");
        }
    }

    #[test]
    fn report_json_shape() {
        let r = ProfileReport {
            sections: vec![ProfileSection {
                label: "s",
                scenarios: 1,
                sims: 2,
                elapsed_ms: 3.5,
                phases: vec![Phase { name: "fetch", count: 4, total_ns: 100, self_ns: 60 }],
            }],
            trace: TraceSection {
                label: "t",
                events: 7,
                dropped: 0,
                classes: vec![
                    TraceClassStat {
                        class: "access".into(),
                        events: 5,
                        latency_quantiles: Some((3, 20, 200)),
                    },
                    TraceClassStat { class: "eviction".into(), events: 2, latency_quantiles: None },
                ],
            },
        };
        let j = r.to_json();
        assert!(j.starts_with("{\n  \"profile\": \"prefender\""));
        assert!(j.contains("\"schema_version\": 1"));
        assert!(j.contains("\"host\""));
        assert!(j.contains("\"phase\": \"fetch\""));
        assert!(j.contains("\"self_share\": 1"));
        assert!(j.contains("\"latency_p50\": 3"));
        assert!(j.contains("\"latency_p99\": 200"));
        assert!(j.contains("\"class\": \"eviction\""));
        assert!(!j.contains("\"class\": \"eviction\", \"latency"), "no quantiles without latency");
        assert!(j.ends_with("}\n"));
        let text = r.render();
        assert!(text.contains("fetch"));
        assert!(text.contains("7 trace events"));
    }

    #[test]
    fn trace_section_quantiles_latency_classes() {
        let _g = crate::TRACE_GATE.lock().unwrap_or_else(|p| p.into_inner());
        let t = trace_grid("test trace", &leakage_cell_grid());
        assert!(!prefender_obs::trace_armed(), "recorder must be disarmed on return");
        assert!(t.events > 0);
        assert_eq!(t.dropped, 0);
        let access = t.classes.iter().find(|c| c.class == "access").expect("access class");
        let (p50, p95, p99) = access.latency_quantiles.expect("access carries latency");
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 >= 1, "L1 hit latency is at least a cycle");
        let flush = t.classes.iter().find(|c| c.class == "flush").expect("flush class");
        assert!(flush.latency_quantiles.is_some());
        // Structural classes carry no latency quantiles.
        if let Some(h) = t.classes.iter().find(|c| c.class == "demand_hit") {
            assert!(h.latency_quantiles.is_none());
        }
    }
}
