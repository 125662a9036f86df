//! Helpers shared by the sweep property tests.

use prefender_stats::SplitMix64;
use prefender_sweep::{
    AttackCase, AttackKind, Basic, DefenseConfig, DefensePoint, Hierarchy, NoiseSpec, SweepGrid,
};

/// One of `options`, uniformly, from the test's seeded stream.
pub fn pick<T: Copy>(rng: &mut SplitMix64, options: &[T]) -> T {
    options[rng.below(options.len() as u64) as usize]
}

/// A small random grid touching every payload kind and every
/// machine-shaping axis: 1–2 attack cases, an optional workload, an
/// optional leakage campaign, 1–2 defenses, 1–2 basics, 1–2 hierarchies,
/// 1–2 seed slots. One `u64` seed drives every choice, and the grid is
/// kept small so a proptest case can run it at several thread counts.
pub fn random_grid(seed: u64) -> SweepGrid {
    let mut p = SplitMix64::new(seed);
    let kinds = [AttackKind::FlushReload, AttackKind::EvictReload, AttackKind::PrimeProbe];
    let noises = [NoiseSpec::NONE, NoiseSpec::C3, NoiseSpec::C4, NoiseSpec::C3C4];
    let mut g = SweepGrid::empty();
    g.attacks = (0..1 + p.below(2))
        .map(|_| AttackCase {
            kind: pick(&mut p, &kinds),
            noise: pick(&mut p, &noises),
            cross_core: p.below(2) == 0,
        })
        .collect();
    if p.below(2) == 0 {
        g.workloads = vec!["999.specrand".to_string()];
    }
    if p.below(2) == 0 {
        g.leakages = vec![AttackCase {
            kind: pick(&mut p, &kinds),
            noise: NoiseSpec::NONE,
            cross_core: p.below(2) == 0,
        }];
        g.leakage_secrets = 2;
        g.leakage_trials = 1;
    }
    let configs = [
        DefenseConfig::None,
        DefenseConfig::St,
        DefenseConfig::At,
        DefenseConfig::StAt,
        DefenseConfig::AtRp,
        DefenseConfig::Full,
    ];
    g.defenses = (0..1 + p.below(2))
        .map(|_| DefensePoint {
            config: pick(&mut p, &configs),
            buffers: pick(&mut p, &[16usize, 32]),
        })
        .collect();
    g.basics = match p.below(3) {
        0 => vec![Basic::None],
        1 => vec![Basic::Tagged],
        _ => vec![Basic::None, Basic::Stride],
    };
    g.hierarchies = match p.below(3) {
        0 => vec![Hierarchy::Paper],
        1 => vec![Hierarchy::Fifo],
        _ => vec![Hierarchy::Paper, Hierarchy::BigL2],
    };
    g.seeds = 1 + p.below(2) as u32;
    g
}
