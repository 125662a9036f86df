//! The observability contract, pinned from outside the engine:
//!
//! * harvesting obs never changes an artifact byte — `run_sweep_observed`
//!   returns the same report as `run_sweep`, spans armed or not;
//! * the merged counter block is a pure function of the grid and
//!   campaign seed — identical at every thread count;
//! * the flight-recorder trace serializes to the same bytes at 1, 2 and
//!   8 threads, with spans armed or disarmed, and arming the recorder
//!   never changes an artifact byte.

mod common;

use proptest::prelude::*;

use prefender_obs::{arm_trace, disarm_trace, enable_spans, DEFAULT_TRACE_CAPACITY};
use prefender_sweep::{run_sweep, run_sweep_observed, SweepOptions};

use common::random_grid;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Counter totals are a pure function of the grid: 1, 2 and 8
    /// worker threads merge to the same block, and the artifacts the
    /// observed run returns match plain `run_sweep` byte for byte.
    #[test]
    fn counter_totals_are_thread_count_invariant(seed in 0u64..1 << 48) {
        let grid = random_grid(seed);
        prop_assert!(!grid.is_empty());
        let opts1 = SweepOptions { threads: 1, campaign_seed: 0xC0FFEE ^ seed };
        let plain = run_sweep(&grid, &opts1);
        let (report1, obs1) = run_sweep_observed(&grid, &opts1, None);
        prop_assert_eq!(&report1.to_json(), &plain.to_json());
        prop_assert_eq!(&report1.to_csv(), &plain.to_csv());
        for threads in [2usize, 8] {
            let opts = SweepOptions { threads, campaign_seed: 0xC0FFEE ^ seed };
            let (report, obs) = run_sweep_observed(&grid, &opts, None);
            prop_assert_eq!(&report.to_json(), &plain.to_json(), "threads={}", threads);
            prop_assert_eq!(obs.counters, obs1.counters, "threads={}", threads);
            // The deterministic section of the obs report serializes to
            // the same bytes too (the timing section is the only part
            // allowed to differ).
            prop_assert_eq!(
                obs.counters.to_value().to_json(0),
                obs1.counters.to_value().to_json(0),
                "threads={}",
                threads
            );
            // Every machine run is accounted for exactly once, however
            // chunks landed: attack and leakage runs go through a
            // runner `prepare` (one reset or rebuild each), workload
            // scenarios are one private build each, and on top of that
            // every worker that touched the runner paid one
            // construction rebuild — at most `threads` of those.
            let total = obs.telemetry.resets + obs.telemetry.rebuilds;
            prop_assert!(
                (grid.sims()..=grid.sims() + threads as u64).contains(&total),
                "threads={threads}: resets+rebuilds {total} outside [{}, {}]",
                grid.sims(),
                grid.sims() + threads as u64
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The flight recorder obeys the same determinism contract as the
    /// counters: trace bytes are a pure function of the grid and
    /// campaign seed — identical at 1, 2 and 8 worker threads, and
    /// identical whether the span collector (the other obs surface) is
    /// armed or not. Arming the recorder changes no artifact byte.
    #[test]
    fn trace_bytes_are_thread_count_and_span_invariant(seed in 0u64..1 << 48) {
        let grid = random_grid(seed);
        let opts1 = SweepOptions { threads: 1, campaign_seed: 0xC0FFEE ^ seed };
        let plain = run_sweep(&grid, &opts1);
        let traced = |threads: usize, spans: bool| {
            let opts = SweepOptions { threads, campaign_seed: 0xC0FFEE ^ seed };
            enable_spans(spans);
            arm_trace(DEFAULT_TRACE_CAPACITY);
            let out = run_sweep_observed(&grid, &opts, None);
            disarm_trace();
            enable_spans(false);
            out
        };
        let (report1, obs1) = traced(1, false);
        let base = obs1.trace_jsonl();
        prop_assert!(obs1.trace_events() > 0, "an attack grid must trace events");
        prop_assert_eq!(obs1.trace_dropped(), 0, "CI-sized grids fit the ring");
        prop_assert_eq!(&report1.to_json(), &plain.to_json());
        prop_assert_eq!(&report1.to_csv(), &plain.to_csv());
        for (threads, spans) in [(2usize, false), (8, false), (1, true)] {
            let (report, obs) = traced(threads, spans);
            prop_assert_eq!(
                &obs.trace_jsonl(), &base,
                "threads={} spans={}", threads, spans
            );
            prop_assert_eq!(&report.to_json(), &plain.to_json(), "threads={}", threads);
        }
    }
}

/// Arming the span collector changes no artifact byte and no counter:
/// spans only feed thread-local profiles, never results.
#[test]
fn spans_enabled_leaves_artifacts_and_counters_identical() {
    let grid = random_grid(0x0B5);
    let opts = SweepOptions { threads: 2, campaign_seed: 0xC0FFEE };
    let (report_off, obs_off) = run_sweep_observed(&grid, &opts, None);
    enable_spans(true);
    let (report_on, obs_on) = run_sweep_observed(&grid, &opts, None);
    enable_spans(false);
    assert_eq!(report_on.to_json(), report_off.to_json());
    assert_eq!(report_on.to_csv(), report_off.to_csv());
    if report_off.has_leakage() {
        assert_eq!(report_on.leakage_json(), report_off.leakage_json());
        assert_eq!(report_on.leakage_csv(), report_off.leakage_csv());
    }
    assert_eq!(obs_on.counters, obs_off.counters);
}
