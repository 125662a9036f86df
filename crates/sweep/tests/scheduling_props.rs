//! Config-major scheduling is a pure scheduling choice: `run_sweep`'s
//! output is pinned bit-for-bit against plain index-order sequential
//! execution, across random grids and thread counts.

mod common;

use proptest::prelude::*;

use prefender_sweep::{run_sweep, Payload, Scenario, SweepGrid, SweepOptions, SweepReport};

use common::random_grid;

/// Plain index-order sequential execution — the reference the scheduled
/// engine must reproduce bit-for-bit.
fn reference_report(grid: &SweepGrid, campaign_seed: u64) -> SweepReport {
    let resample = grid.resample();
    let results = grid
        .enumerate()
        .iter()
        .map(|s| prefender_sweep::run_scenario_with(s, campaign_seed, &resample))
        .collect();
    SweepReport { campaign_seed, results }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole determinism claim: config-major-scheduled `run_sweep`
    /// equals index-order execution, byte for byte, at every thread count.
    #[test]
    fn config_major_schedule_matches_index_order(seed in 0u64..1 << 48) {
        let grid = random_grid(seed);
        prop_assert!(!grid.is_empty());
        let reference = reference_report(&grid, 0xC0FFEE ^ seed);
        let ref_json = reference.to_json();
        let ref_csv = reference.to_csv();
        for threads in [1usize, 2, 3, 8] {
            let opts = SweepOptions { threads, campaign_seed: 0xC0FFEE ^ seed };
            let scheduled = run_sweep(&grid, &opts);
            prop_assert_eq!(&scheduled.to_json(), &ref_json, "threads={}", threads);
            prop_assert_eq!(&scheduled.to_csv(), &ref_csv, "threads={}", threads);
            if reference.has_leakage() {
                prop_assert_eq!(
                    &scheduled.leakage_json(),
                    &reference.leakage_json(),
                    "threads={}",
                    threads
                );
            }
        }
    }
}

/// The grouped dispatch order is a permutation of the work-list, grouped
/// by machine key, stable (index order) within groups — and every result
/// still lands at its own index.
#[test]
fn machine_key_grouping_is_stable_and_index_preserving() {
    let grid = random_grid(0x5EED);
    let scenarios = grid.enumerate();
    let mut order: Vec<&Scenario> = scenarios.iter().collect();
    order.sort_by_key(|s| s.machine_key());
    // A stable sort keeps index order inside every equal-key run.
    for w in order.windows(2) {
        if w[0].machine_key() == w[1].machine_key() {
            assert!(w[0].index < w[1].index, "stable within group");
        }
    }
    // And it is a permutation: every index appears exactly once.
    let mut seen: Vec<usize> = order.iter().map(|s| s.index).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..scenarios.len()).collect::<Vec<_>>());
    // The machine key reflects the payload's core scope.
    for s in &scenarios {
        match &s.payload {
            Payload::Attack(c) | Payload::Leakage { case: c, .. } => {
                assert_eq!(s.machine_key().0, c.cross_core, "{}", s.id());
            }
            Payload::Workload(_) => assert!(!s.machine_key().0, "{}", s.id()),
        }
    }
}
