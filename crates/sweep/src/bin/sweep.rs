//! `sweep` — run a scenario grid in parallel and emit artifacts.
//!
//! ```text
//! sweep [options]
//!
//! grid selection:
//!   --attacks LIST      fr,er,pp | all | none            [default: all]
//!   --noise LIST        none,c3,c4,c3c4                  [default: all four]
//!   --cross-core MODE   single | cross | both            [default: single]
//!   --defenses LIST     base,st,at,stat,atrp,full | all  [default: all]
//!   --buffers LIST      access-buffer counts             [default: 32]
//!   --basics LIST       none,tagged,stride               [default: none]
//!   --hierarchies LIST  paper,bigl2,sml1d,fifo | all     [default: paper]
//!   --workloads LIST    names | spec2006 | spec2017 | all | none [default: none]
//!   --leakage LIST      fr,er,pp | all | none — leakage campaigns [default: none]
//!   --secrets N         secrets per leakage campaign     [default: 8]
//!   --trials N          trials per secret                [default: 4]
//!   --jitter N          attacker timer noise, cycles/probe [default: 0]
//!   --permutations N    label permutations for the MI null test
//!                       (p-value + null q95 per campaign) [default: 0]
//!   --bootstrap N       bootstrap resamples for the MI confidence
//!                       interval                         [default: 0]
//!   --alpha F           bootstrap CI level, in (0,1)     [default: 0.05]
//!   --seeds N           seed repetitions per grid point  [default: 1]
//!
//! execution / output:
//!   --threads N         worker threads (0 = all CPUs)    [default: 0]
//!   --seed HEX|DEC      campaign seed                    [default: 0xC0FFEE]
//!   --out DIR           write DIR/sweep.json + DIR/sweep.csv
//!                       (+ DIR/leakage.json + DIR/leakage.csv when the
//!                       grid has leakage campaigns)      [default: .]
//!   --shard-size N      crash-safe campaign: run the grid in shards of
//!                       at most N scenarios, committing each to
//!                       DIR/shards/ atomically with a checksummed
//!                       footer, under a DIR/campaign.manifest
//!   --resume DIR        continue the sharded campaign recorded in DIR:
//!                       complete shards are loaded, truncated/corrupt/
//!                       foreign ones quarantined and re-run; the final
//!                       artifacts are byte-identical to an
//!                       uninterrupted run. Conflicts with every
//!                       grid-shaping flag (the manifest fixes the grid)
//!   --bench-json PATH   also write a throughput record (BENCH_sweep.json)
//!   --list              print the enumerated scenario grid (ids + counts,
//!                       distinct machine configs, estimated sims) and
//!                       exit without running anything
//!   --quiet             no per-scenario table, summary only
//!
//! observability (all off by default; artifacts are byte-identical
//! either way):
//!   --progress          throttled stderr progress line (rate + ETA)
//!   --obs               write DIR/obs.json: deterministic counters plus
//!                       an explicitly-marked wall-clock `timing` section
//!   --obs-out PATH      write the chunk-claim event stream as JSONL
//!   --trace             arm the flight recorder; write the per-scenario
//!                       event trace as DIR/trace.jsonl (deterministic:
//!                       byte-identical at any --threads value, and the
//!                       other artifacts are byte-identical with or
//!                       without it)
//!   --trace-out PATH    trace JSONL destination (requires --trace)
//!
//! multi-process campaigns (EXPERIMENTS.md "Multi-process campaigns"):
//!   sweep work DIR [--threads N] [--lease-ttl-ms MS] [--quiet]
//!                       one worker: claim-execute-commit over DIR's
//!                       manifest until every shard is committed. Safe
//!                       to run N at once — shards are guarded by
//!                       heartbeat leases under DIR/leases/, stale
//!                       leases (or a dead holder's) are broken, and
//!                       artifacts stay byte-identical to a 1-process run
//!   sweep serve DIR --workers N [--worker-threads N] [--restart-budget N]
//!                  [--lease-ttl-ms MS] [--stall-timeout-ms MS]
//!                  [--worker-failpoints SPEC] [--quiet] [grid flags]
//!                       spawn and supervise N `sweep work` children:
//!                       restarts dead workers (within the budget, then
//!                       degrades), kills the fleet when DIR shows no
//!                       progress for the stall timeout, heals leftovers
//!                       in-process, writes the final artifacts.
//!                       Grid/--seed/--shard-size flags initialize DIR
//!                       when it has no manifest yet; an existing
//!                       manifest fixes the grid and rejects them
//! ```
//!
//! Leakage campaigns (`--leakage`) share the noise / cross-core /
//! defense / basic / hierarchy axes with `--attacks`; each campaign runs
//! its attack for every secret × trial and reports the channel in bits
//! (see `prefender-leakage`). With `--permutations` each campaign also
//! reports the label-permutation null of its MI estimate (`mi_p_value`,
//! `mi_null_q95`) and with `--bootstrap` a `1 − alpha` confidence
//! interval (`mi_ci_lo`/`mi_ci_hi`) — both fully deterministic, so
//! artifacts stay byte-identical at any `--threads` value.

use std::process::ExitCode;
use std::time::Instant;

use prefender_obs::{write_atomic, HostInfo, ProgressReporter};
use prefender_sweep::{
    resume_sharded, run_sharded, run_sweep_observed, AttackCase, AttackKind, Basic, DefenseConfig,
    DefensePoint, Hierarchy, NoiseSpec, SweepGrid, SweepOptions, SweepReport,
};

#[derive(Debug)]
struct Args {
    grid: SweepGrid,
    threads: usize,
    campaign_seed: u64,
    out: std::path::PathBuf,
    bench_json: Option<std::path::PathBuf>,
    quiet: bool,
    list: bool,
    progress: bool,
    obs: bool,
    obs_out: Option<std::path::PathBuf>,
    trace: bool,
    trace_out: Option<std::path::PathBuf>,
    shard_size: Option<usize>,
    resume: Option<std::path::PathBuf>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("invalid number `{s}`"))
}

fn parse_list<'s, T>(
    s: &'s str,
    what: &str,
    one: impl Fn(&'s str) -> Option<T>,
) -> Result<Vec<T>, String> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| one(p.trim()).ok_or_else(|| format!("unknown {what} `{p}`")))
        .collect()
}

fn workload_names(spec: &str) -> Result<Vec<String>, String> {
    let names = |ws: Vec<prefender_workloads::Workload>| {
        ws.into_iter().map(|w| w.name().to_string()).collect::<Vec<_>>()
    };
    match spec {
        "none" => Ok(Vec::new()),
        "all" => Ok(names(prefender_workloads::all())),
        "spec2006" => Ok(names(prefender_workloads::spec2006())),
        "spec2017" => Ok(names(prefender_workloads::spec2017())),
        list => {
            let all = names(prefender_workloads::all());
            parse_list(list, "workload", |n| all.iter().any(|w| w == n).then(|| n.to_string()))
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut attacks_sel = "all".to_string();
    let mut noise_sel = "none,c3,c4,c3c4".to_string();
    let mut cross_sel = "single".to_string();
    let mut defenses_sel = "all".to_string();
    let mut buffers_sel = "32".to_string();
    let mut basics_sel = "none".to_string();
    let mut hier_sel = "paper".to_string();
    let mut workloads_sel = "none".to_string();
    let mut leakage_sel = "none".to_string();
    let mut seeds = 1u32;
    let mut args = Args {
        grid: SweepGrid::empty(),
        threads: 0,
        campaign_seed: 0xC0FFEE,
        out: ".".into(),
        bench_json: None,
        quiet: false,
        list: false,
        progress: false,
        obs: false,
        obs_out: None,
        trace: false,
        trace_out: None,
        shard_size: None,
        resume: None,
    };

    // Every option the user named, for conflict checks: a resumed
    // campaign takes its shape from the manifest, not the command line.
    let mut seen: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            seen.push(a.clone());
        }
        let mut val = |name: &str| {
            it.next().map(|s| s.to_string()).ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--attacks" => attacks_sel = val("--attacks")?,
            "--noise" => noise_sel = val("--noise")?,
            "--cross-core" => cross_sel = val("--cross-core")?,
            "--defenses" => defenses_sel = val("--defenses")?,
            "--buffers" => buffers_sel = val("--buffers")?,
            "--basics" => basics_sel = val("--basics")?,
            "--hierarchies" => hier_sel = val("--hierarchies")?,
            "--workloads" => workloads_sel = val("--workloads")?,
            "--leakage" => leakage_sel = val("--leakage")?,
            "--secrets" => {
                args.grid.leakage_secrets =
                    val("--secrets")?.parse().map_err(|_| "invalid --secrets".to_string())?
            }
            "--trials" => {
                args.grid.leakage_trials =
                    val("--trials")?.parse().map_err(|_| "invalid --trials".to_string())?
            }
            "--jitter" => {
                args.grid.leakage_jitter =
                    val("--jitter")?.parse().map_err(|_| "invalid --jitter".to_string())?
            }
            "--permutations" => {
                args.grid.leakage_permutations = val("--permutations")?
                    .parse()
                    .map_err(|_| "invalid --permutations".to_string())?
            }
            "--bootstrap" => {
                args.grid.leakage_bootstrap =
                    val("--bootstrap")?.parse().map_err(|_| "invalid --bootstrap".to_string())?
            }
            "--alpha" => {
                args.grid.leakage_alpha =
                    val("--alpha")?.parse().map_err(|_| "invalid --alpha".to_string())?
            }
            "--seeds" => {
                seeds = val("--seeds")?.parse().map_err(|_| "invalid --seeds".to_string())?
            }
            "--threads" => {
                args.threads =
                    val("--threads")?.parse().map_err(|_| "invalid --threads".to_string())?
            }
            "--seed" => args.campaign_seed = parse_u64(&val("--seed")?)?,
            "--out" => args.out = val("--out")?.into(),
            "--bench-json" => args.bench_json = Some(val("--bench-json")?.into()),
            "--list" => args.list = true,
            "--quiet" => args.quiet = true,
            "--progress" => args.progress = true,
            "--obs" => args.obs = true,
            "--obs-out" => args.obs_out = Some(val("--obs-out")?.into()),
            "--trace" => args.trace = true,
            "--trace-out" => args.trace_out = Some(val("--trace-out")?.into()),
            "--shard-size" => {
                args.shard_size = Some(
                    val("--shard-size")?.parse().map_err(|_| "invalid --shard-size".to_string())?,
                )
            }
            "--resume" => args.resume = Some(val("--resume")?.into()),
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }

    if args.resume.is_some() {
        // The manifest fixes the grid, seed and output location; the only
        // things a resume may vary are execution knobs that cannot change
        // the artifacts.
        const COMPATIBLE: [&str; 3] = ["--resume", "--threads", "--quiet"];
        if let Some(bad) = seen.iter().find(|f| !COMPATIBLE.contains(&f.as_str())) {
            return Err(format!(
                "{bad} conflicts with --resume: the campaign manifest fixes the grid, \
                 seed and output directory (only --threads/--quiet may vary)"
            ));
        }
    }
    if let Some(size) = args.shard_size {
        if size == 0 {
            return Err("--shard-size must be at least 1".to_string());
        }
        for bad in ["--obs", "--obs-out", "--trace", "--trace-out", "--progress", "--list"] {
            if seen.iter().any(|f| f == bad) {
                return Err(format!(
                    "{bad} is not available with --shard-size (sharded campaigns commit \
                     shard artifacts, not obs/trace streams)"
                ));
            }
        }
    }

    let parse_kinds = |sel: &str| -> Result<Vec<AttackKind>, String> {
        match sel {
            "none" => Ok(Vec::new()),
            "all" => {
                Ok(vec![AttackKind::FlushReload, AttackKind::EvictReload, AttackKind::PrimeProbe])
            }
            list => parse_list(list, "attack", |s| match s {
                "fr" => Some(AttackKind::FlushReload),
                "er" => Some(AttackKind::EvictReload),
                "pp" => Some(AttackKind::PrimeProbe),
                _ => None,
            }),
        }
    };
    let kinds = parse_kinds(&attacks_sel)?;
    let leak_kinds = parse_kinds(&leakage_sel)?;
    let noises: Vec<NoiseSpec> = parse_list(&noise_sel, "noise", |s| match s {
        "none" => Some(NoiseSpec::NONE),
        "c3" => Some(NoiseSpec::C3),
        "c4" => Some(NoiseSpec::C4),
        "c3c4" => Some(NoiseSpec::C3C4),
        _ => None,
    })?;
    let crosses: Vec<bool> = match cross_sel.as_str() {
        "single" => vec![false],
        "cross" => vec![true],
        "both" => vec![false, true],
        other => return Err(format!("unknown --cross-core mode `{other}`")),
    };
    args.grid.attacks.clear();
    for &kind in &kinds {
        for &noise in &noises {
            for &cross_core in &crosses {
                args.grid.attacks.push(AttackCase { kind, noise, cross_core });
            }
        }
    }
    for &kind in &leak_kinds {
        for &noise in &noises {
            for &cross_core in &crosses {
                args.grid.leakages.push(AttackCase { kind, noise, cross_core });
            }
        }
    }

    let configs: Vec<DefenseConfig> = match defenses_sel.as_str() {
        "all" => DefenseConfig::ALL.to_vec(),
        list => parse_list(list, "defense", |s| match s {
            "base" => Some(DefenseConfig::None),
            "st" => Some(DefenseConfig::St),
            "at" => Some(DefenseConfig::At),
            "stat" => Some(DefenseConfig::StAt),
            "atrp" => Some(DefenseConfig::AtRp),
            "full" => Some(DefenseConfig::Full),
            _ => None,
        })?,
    };
    let buffers: Vec<usize> = parse_list(&buffers_sel, "buffer count", |s| s.parse().ok())?;
    args.grid.defenses = configs
        .iter()
        .flat_map(|&config| buffers.iter().map(move |&buffers| DefensePoint { config, buffers }))
        .collect();

    args.grid.basics = parse_list(&basics_sel, "basic prefetcher", |s| match s {
        "none" => Some(Basic::None),
        "tagged" => Some(Basic::Tagged),
        "stride" => Some(Basic::Stride),
        _ => None,
    })?;
    args.grid.hierarchies = match hier_sel.as_str() {
        "all" => Hierarchy::ALL.to_vec(),
        list => parse_list(list, "hierarchy", |s| {
            Hierarchy::ALL.iter().copied().find(|h| h.tag() == s)
        })?,
    };
    args.grid.workloads = workload_names(&workloads_sel)?;
    args.grid.seeds = seeds.max(1);
    if !args.grid.leakages.is_empty() {
        // Secrets are placed at distinct indices of the paper probe
        // window; reject impossible campaign shapes up front.
        let window = prefender_attacks::AttackLayout::paper().n_indices as u32;
        if args.grid.leakage_secrets < 1 || args.grid.leakage_secrets > window {
            return Err(format!(
                "--secrets must be 1..={window} (the probe-window width), got {}",
                args.grid.leakage_secrets
            ));
        }
        if args.grid.leakage_trials < 1 {
            return Err("--trials must be at least 1".to_string());
        }
    }
    // Resampling knobs only make sense when a leakage campaign runs, and
    // alpha must be a usable significance level.
    args.grid.resample().validate().map_err(|e| format!("--alpha: {e}"))?;
    if args.grid.resample().is_enabled() && args.grid.leakages.is_empty() {
        return Err("--permutations/--bootstrap need at least one --leakage campaign".to_string());
    }
    if args.trace_out.is_some() && !args.trace {
        return Err("--trace-out requires --trace".to_string());
    }
    Ok(args)
}

/// Writes the final campaign artifacts (sweep + leakage when present)
/// atomically into `out`, returning the paths written as one
/// comma-separated list. Every artifact write in this binary goes
/// through [`write_atomic`] — a crash leaves either the old bytes or the
/// new bytes, never a torn file.
fn write_report_artifacts(out: &std::path::Path, report: &SweepReport) -> Result<String, String> {
    let mut pairs = vec![("sweep.json", report.to_json()), ("sweep.csv", report.to_csv())];
    if report.has_leakage() {
        pairs.push(("leakage.json", report.leakage_json()));
        pairs.push(("leakage.csv", report.leakage_csv()));
    }
    let mut wrote = Vec::with_capacity(pairs.len());
    for (name, body) in pairs {
        let path = out.join(name);
        write_atomic(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
        wrote.push(path.display().to_string());
    }
    Ok(wrote.join(", "))
}

/// Validates the output directory *before* running anything: hours of
/// compute should not be lost to an unwritable `--out` discovered at
/// artifact time.
fn ensure_writable_dir(dir: &std::path::Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let probe = dir.join(format!(".sweep-writable.tmp.{}", std::process::id()));
    std::fs::write(&probe, b"probe")
        .map_err(|e| format!("{} is not writable: {e}", dir.display()))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

fn main() -> ExitCode {
    // Fault injection for the crash-resume harness: honor
    // PREFENDER_FAILPOINTS before anything touches the filesystem.
    if let Err(e) = prefender_obs::arm_failpoints_from_env() {
        eprintln!("sweep: {}: {e}", prefender_obs::FAILPOINTS_ENV);
        return ExitCode::FAILURE;
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("work") => return subcmd::run_work(&argv[1..]),
        Some("serve") => return subcmd::run_serve(&argv[1..]),
        _ => {}
    }
    let mut args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("sweep: {e}");
            }
            eprintln!("usage: sweep [--attacks L] [--noise L] [--cross-core M] [--defenses L]");
            eprintln!("             [--buffers L] [--basics L] [--hierarchies L] [--workloads L]");
            eprintln!(
                "             [--leakage L] [--secrets N] [--trials N] [--jitter N] [--seeds N]"
            );
            eprintln!("             [--permutations N] [--bootstrap N] [--alpha F]");
            eprintln!("             [--threads N] [--seed S] [--out DIR] [--bench-json PATH]");
            eprintln!("             [--shard-size N] [--resume DIR]");
            eprintln!("             [--list] [--quiet] [--progress] [--obs] [--obs-out PATH]");
            eprintln!("             [--trace] [--trace-out PATH]");
            eprintln!("       sweep work DIR [--threads N] [--lease-ttl-ms MS] [--quiet]");
            eprintln!("       sweep serve DIR --workers N [--worker-threads N] [grid flags]");
            return if e == "help" { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
    };
    if args.resume.is_none() && args.grid.is_empty() {
        eprintln!("sweep: the selected grid is empty (no attacks, workloads or leakage campaigns)");
        return ExitCode::FAILURE;
    }

    if args.list {
        let n = args.grid.len();
        let sims = args.grid.sims();
        // Dry run: print the enumerated work-list for campaign sizing.
        let scenarios = args.grid.enumerate();
        for s in &scenarios {
            println!("{:>6}  {}", s.index, s.id());
        }
        // Distinct machine-shaping keys = the machine-rebuild floor under
        // config-major scheduling (each worker rebuilds at most once per
        // distinct configuration; everything else is an in-place reset).
        let mut keys: Vec<_> = scenarios.iter().map(|s| s.machine_key()).collect();
        keys.sort();
        keys.dedup();
        println!(
            "{n} scenarios ({sims} estimated simulations, {} distinct machine configs), \
             not executed (--list)",
            keys.len()
        );
        if args.trace {
            // Coarse planning estimate: attack/leakage sims emit on the
            // order of ~25k flight-recorder events each (demand + MSHR +
            // prefetch traffic over a paper probe schedule).
            const EST_EVENTS_PER_SIM: u64 = 25_000;
            let cap = prefender_obs::DEFAULT_TRACE_CAPACITY;
            let event_size = std::mem::size_of::<prefender_obs::TraceEvent>();
            println!(
                "trace: ~{} events estimated ({sims} sims x ~{EST_EVENTS_PER_SIM}/sim); \
                 ring buffer {cap} events ({} KiB) per worker thread",
                sims as u64 * EST_EVENTS_PER_SIM,
                cap * event_size / 1024,
            );
        }
        return ExitCode::SUCCESS;
    }
    if args.resume.is_none() {
        let (n, sims) = (args.grid.len(), args.grid.sims());
        eprintln!(
            "sweep: {n} scenarios / {sims} sims ({} attack cases, {} workloads, {} leakage campaigns) x {} defenses x {} basics x {} hierarchies x {} seeds",
            args.grid.attacks.len(),
            args.grid.workloads.len(),
            args.grid.leakages.len(),
            args.grid.defenses.len(),
            args.grid.basics.len(),
            args.grid.hierarchies.len(),
            args.grid.seeds,
        );
        // Fail fast on an unusable --out, before any compute runs.
        if let Err(e) = ensure_writable_dir(&args.out) {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    }
    let opts = SweepOptions { threads: args.threads, campaign_seed: args.campaign_seed };
    if args.trace {
        prefender_obs::arm_trace(prefender_obs::DEFAULT_TRACE_CAPACITY);
    }
    let start = Instant::now();
    let (report, obs) = if let Some(dir) = args.resume.clone() {
        // The manifest carries the grid and seed; the command line only
        // chose the directory. Rebind args so reporting below sees the
        // campaign's real shape.
        match resume_sharded(&dir, args.threads) {
            Ok((report, manifest, stats)) => {
                eprintln!("sweep: resume: {}", stats.render());
                args.grid = manifest.grid;
                args.campaign_seed = manifest.campaign_seed;
                args.out = dir;
                (report, None)
            }
            Err(e) => {
                eprintln!("sweep: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(size) = args.shard_size {
        match run_sharded(&args.out, &args.grid, &opts, size) {
            Ok((report, stats)) => {
                eprintln!("sweep: shards: {}", stats.render());
                (report, None)
            }
            Err(e) => {
                eprintln!("sweep: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        // `run_sweep` is `run_sweep_observed` minus the extras, so running
        // observed unconditionally cannot change the artifacts — the obs
        // outputs are simply dropped unless a flag asks for them.
        let total = args.grid.len() as u64;
        let reporter =
            args.progress.then(|| std::sync::Mutex::new(ProgressReporter::new("sweep", total)));
        let on_chunk = |done: usize, _total: usize| {
            if let Some(r) = &reporter {
                r.lock().expect("progress reporter").update(done as u64);
            }
        };
        let progress: Option<&(dyn Fn(usize, usize) + Sync)> =
            if args.progress { Some(&on_chunk) } else { None };
        let (report, obs) = run_sweep_observed(&args.grid, &opts, progress);
        if let Some(r) = &reporter {
            r.lock().expect("progress reporter").finish(total);
        }
        (report, Some(obs))
    };
    if args.trace {
        prefender_obs::disarm_trace();
    }
    let n = args.grid.len();
    let sims = args.grid.sims();
    let elapsed = start.elapsed();
    let per_sec = n as f64 / elapsed.as_secs_f64().max(1e-9);

    let wrote = match write_report_artifacts(&args.out, &report) {
        Ok(wrote) => wrote,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    };

    if !args.quiet {
        println!("{}", report.render_table());
    }
    let leaked = report.results.iter().filter(|r| r.leaked == Some(true)).count();
    let defended = report.results.iter().filter(|r| r.leaked == Some(false)).count();
    println!(
        "{n} scenarios / {sims} sims in {:.2?} ({per_sec:.1} scenarios/s, threads={}): {leaked} leaked, {defended} defended, {} campaigns, {} perf runs",
        elapsed,
        args.threads,
        report.results.iter().filter(|r| r.is_leakage()).count(),
        report.results.iter().filter(|r| r.leaked.is_none() && !r.is_leakage()).count(),
    );
    println!("wrote {wrote}");

    // The obs/trace flags conflict with --shard-size/--resume at parse
    // time, so `obs` is always present on these paths.
    if args.obs {
        let obs = obs.as_ref().expect("--obs runs the in-memory path");
        let path = args.out.join("obs.json");
        if let Err(e) = write_atomic(&path, obs.to_json() + "\n") {
            eprintln!("sweep: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    if let Some(path) = &args.obs_out {
        let obs = obs.as_ref().expect("--obs-out runs the in-memory path");
        if let Err(e) = write_atomic(path, obs.events_jsonl()) {
            eprintln!("sweep: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    if args.trace {
        let obs = obs.as_ref().expect("--trace runs the in-memory path");
        let path = args.trace_out.clone().unwrap_or_else(|| args.out.join("trace.jsonl"));
        if let Err(e) = write_atomic(&path, obs.trace_jsonl()) {
            eprintln!("sweep: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {} ({} events, {} dropped)",
            path.display(),
            obs.trace_events(),
            obs.trace_dropped()
        );
    }

    if let Some(path) = args.bench_json {
        let record = format!(
            "{{\"bench\": \"sweep\", \"scenarios\": {n}, \"sims\": {sims}, \"threads\": {}, \
             \"elapsed_secs\": {:.6}, \"scenarios_per_sec\": {:.3}, \"sims_per_sec\": {:.3}, \
             \"host\": {}}}\n",
            args.threads,
            elapsed.as_secs_f64(),
            per_sec,
            sims as f64 / elapsed.as_secs_f64().max(1e-9),
            HostInfo::capture().json_inline(),
        );
        if let Err(e) = write_atomic(&path, record) {
            eprintln!("sweep: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// The `work`/`serve` subcommands — the multi-process campaign modes.
mod subcmd {
    use std::path::PathBuf;
    use std::process::ExitCode;
    use std::time::Duration;

    use prefender_sweep::{
        init_campaign, load_manifest, serve_campaign, work_campaign, LeaseConfig, ServeOptions,
        SweepOptions, WorkEvent, WorkOptions, MANIFEST_NAME,
    };

    use super::{ensure_writable_dir, parse_args, write_report_artifacts};

    const WORK_USAGE: &str = "usage: sweep work DIR [--threads N] [--lease-ttl-ms MS] [--quiet]";
    const SERVE_USAGE: &str = "usage: sweep serve DIR --workers N [--worker-threads N] \
                               [--restart-budget N] [--lease-ttl-ms MS] [--stall-timeout-ms MS] \
                               [--worker-failpoints SPEC] [--quiet] [grid flags when creating]";

    pub(super) struct WorkArgs {
        pub(super) dir: PathBuf,
        pub(super) threads: usize,
        pub(super) ttl_ms: u64,
        pub(super) quiet: bool,
    }

    pub(super) fn parse_work(argv: &[String]) -> Result<WorkArgs, String> {
        let mut it = argv.iter();
        let dir: PathBuf = match it.next() {
            Some(d) if !d.starts_with("--") => d.into(),
            _ => return Err("work needs a campaign DIR as its first argument".into()),
        };
        let mut args =
            WorkArgs { dir, threads: 1, ttl_ms: LeaseConfig::default().ttl_ms, quiet: false };
        while let Some(a) = it.next() {
            let mut val =
                |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
            match a.as_str() {
                "--threads" => {
                    args.threads =
                        val("--threads")?.parse().map_err(|_| "invalid --threads".to_string())?
                }
                "--lease-ttl-ms" => {
                    args.ttl_ms = val("--lease-ttl-ms")?
                        .parse()
                        .map_err(|_| "invalid --lease-ttl-ms".to_string())?
                }
                "--quiet" => args.quiet = true,
                other => return Err(format!("unknown work option `{other}`")),
            }
        }
        Ok(args)
    }

    pub(super) fn run_work(argv: &[String]) -> ExitCode {
        let wargs = match parse_work(argv) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("sweep: {e}");
                eprintln!("{WORK_USAGE}");
                return ExitCode::FAILURE;
            }
        };
        let opts =
            WorkOptions { threads: wargs.threads, lease: LeaseConfig::with_ttl_ms(wargs.ttl_ms) };
        let quiet = wargs.quiet;
        let mut on_event = |e: &WorkEvent| match e {
            WorkEvent::Broke { shard, holder_pid, age_ms } => eprintln!(
                "sweep: work: broke stale lease on shard {shard} \
                     (holder pid {holder_pid}, heartbeat {age_ms}ms old)"
            ),
            WorkEvent::Quarantined { shard, why } => {
                eprintln!("sweep: work: quarantined invalid shard {shard}: {why}")
            }
            WorkEvent::Committed { shard, done, total } if !quiet => {
                eprintln!("sweep: work: committed shard {shard} ({done}/{total})")
            }
            _ => {}
        };
        match work_campaign(&wargs.dir, &opts, &mut on_event) {
            Ok((report, _, summary)) => {
                eprintln!("sweep: work: {}", summary.render());
                // Every worker reaching this point holds the complete
                // converged report; concurrent writers commit identical
                // bytes through the atomic-rename path.
                match write_report_artifacts(&wargs.dir, &report) {
                    Ok(wrote) => {
                        if !quiet {
                            println!("wrote {wrote}");
                        }
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("sweep: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
            Err(e) => {
                eprintln!("sweep: work: {e}");
                ExitCode::FAILURE
            }
        }
    }

    #[derive(Debug)]
    pub(super) struct ServeArgs {
        pub(super) dir: PathBuf,
        pub(super) workers: usize,
        pub(super) worker_threads: usize,
        pub(super) restart_budget: Option<usize>,
        pub(super) ttl_ms: u64,
        pub(super) stall_ms: u64,
        pub(super) worker_failpoints: Option<String>,
        pub(super) quiet: bool,
        /// Unrecognized flags, forwarded (with their values, in order)
        /// to the grid parser when the campaign is being created.
        pub(super) rest: Vec<String>,
    }

    pub(super) fn parse_serve(argv: &[String]) -> Result<ServeArgs, String> {
        let mut it = argv.iter();
        let dir: PathBuf = match it.next() {
            Some(d) if !d.starts_with("--") => d.into(),
            _ => return Err("serve needs a campaign DIR as its first argument".into()),
        };
        let mut args = ServeArgs {
            dir,
            workers: 0,
            worker_threads: 1,
            restart_budget: None,
            ttl_ms: LeaseConfig::default().ttl_ms,
            stall_ms: 60_000,
            worker_failpoints: None,
            quiet: false,
            rest: Vec::new(),
        };
        while let Some(a) = it.next() {
            let mut val =
                |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
            match a.as_str() {
                "--workers" => {
                    args.workers =
                        val("--workers")?.parse().map_err(|_| "invalid --workers".to_string())?
                }
                "--worker-threads" => {
                    args.worker_threads = val("--worker-threads")?
                        .parse()
                        .map_err(|_| "invalid --worker-threads".to_string())?
                }
                "--restart-budget" => {
                    args.restart_budget = Some(
                        val("--restart-budget")?
                            .parse()
                            .map_err(|_| "invalid --restart-budget".to_string())?,
                    )
                }
                "--lease-ttl-ms" => {
                    args.ttl_ms = val("--lease-ttl-ms")?
                        .parse()
                        .map_err(|_| "invalid --lease-ttl-ms".to_string())?
                }
                "--stall-timeout-ms" => {
                    args.stall_ms = val("--stall-timeout-ms")?
                        .parse()
                        .map_err(|_| "invalid --stall-timeout-ms".to_string())?
                }
                "--worker-failpoints" => args.worker_failpoints = Some(val("--worker-failpoints")?),
                "--quiet" => args.quiet = true,
                other => args.rest.push(other.to_string()),
            }
        }
        if args.workers == 0 {
            return Err("serve needs --workers N (at least 1)".into());
        }
        Ok(args)
    }

    pub(super) fn run_serve(argv: &[String]) -> ExitCode {
        let sargs = match parse_serve(argv) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("sweep: {e}");
                eprintln!("{SERVE_USAGE}");
                return ExitCode::FAILURE;
            }
        };
        if sargs.dir.join(MANIFEST_NAME).exists() {
            if !sargs.rest.is_empty() {
                eprintln!(
                    "sweep: serve: {} already holds a campaign; `{}` conflicts — \
                     the manifest fixes the grid, seed and shard size",
                    sargs.dir.display(),
                    sargs.rest.join(" ")
                );
                return ExitCode::FAILURE;
            }
            if let Err(e) = load_manifest(&sargs.dir) {
                eprintln!("sweep: {e}");
                return ExitCode::FAILURE;
            }
        } else {
            let gargs = match parse_args(&sargs.rest) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("sweep: serve: {e}");
                    eprintln!("{SERVE_USAGE}");
                    return ExitCode::FAILURE;
                }
            };
            if gargs.resume.is_some()
                || gargs.list
                || gargs.obs
                || gargs.trace
                || gargs.progress
                || gargs.obs_out.is_some()
                || gargs.trace_out.is_some()
                || gargs.bench_json.is_some()
            {
                eprintln!(
                    "sweep: serve: only grid/--seed/--shard-size flags apply when \
                     creating a campaign"
                );
                return ExitCode::FAILURE;
            }
            if gargs.grid.is_empty() {
                eprintln!("sweep: the selected grid is empty");
                return ExitCode::FAILURE;
            }
            if let Err(e) = ensure_writable_dir(&sargs.dir) {
                eprintln!("sweep: {e}");
                return ExitCode::FAILURE;
            }
            let n = gargs.grid.len();
            // Default to ~8 shards per worker: fine-grained enough to
            // balance, coarse enough to amortize commit overhead.
            let shard_size =
                gargs.shard_size.unwrap_or_else(|| n.div_ceil(sargs.workers * 8)).max(1);
            let opts = SweepOptions { threads: 0, campaign_seed: gargs.campaign_seed };
            match init_campaign(&sargs.dir, &gargs.grid, &opts, shard_size) {
                Ok(m) => eprintln!(
                    "sweep: serve: initialized campaign ({n} scenarios, {} shards of <= \
                     {shard_size})",
                    m.plan().n_shards()
                ),
                Err(e) => {
                    eprintln!("sweep: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => {
                eprintln!("sweep: cannot locate own binary to spawn workers: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut opts = ServeOptions::new(exe, sargs.workers);
        opts.worker_threads = sargs.worker_threads;
        if let Some(budget) = sargs.restart_budget {
            opts.restart_budget = budget;
        }
        opts.lease = LeaseConfig::with_ttl_ms(sargs.ttl_ms);
        opts.stall_timeout = Duration::from_millis(sargs.stall_ms);
        opts.worker_failpoints = sargs.worker_failpoints.clone();
        opts.quiet = sargs.quiet;
        match serve_campaign(&sargs.dir, &opts) {
            Ok((report, _, summary)) => {
                for w in &summary.per_worker {
                    eprintln!(
                        "sweep: serve: worker {}: pids {}",
                        w.worker,
                        w.pids.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(",")
                    );
                }
                eprintln!("sweep: serve: {}", summary.render());
                match write_report_artifacts(&sargs.dir, &report) {
                    Ok(wrote) => {
                        println!("wrote {wrote}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("sweep: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
            Err(e) => {
                eprintln!("sweep: serve: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(line: &str) -> Result<super::Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn resume_conflicts_with_every_grid_shaping_flag() {
        for flags in [
            "--resume d --attacks fr",
            "--resume d --noise c3",
            "--resume d --defenses full",
            "--resume d --workloads all",
            "--resume d --leakage pp",
            "--resume d --secrets 4",
            "--resume d --trials 2",
            "--resume d --seeds 3",
            "--resume d --seed 7",
            "--resume d --alpha 0.1",
            "--resume d --out elsewhere",
            "--resume d --list",
            "--resume d --shard-size 4",
            "--resume d --obs",
            "--resume d --trace",
            "--resume d --progress",
            "--resume d --bench-json b.json",
        ] {
            let err = parse(flags).expect_err(flags);
            assert!(err.contains("conflicts with --resume"), "`{flags}` -> {err}");
        }
    }

    #[test]
    fn resume_allows_execution_knobs_only() {
        let args = parse("--resume some/dir --threads 8 --quiet").expect("compatible flags");
        assert_eq!(args.resume.as_deref(), Some(std::path::Path::new("some/dir")));
        assert_eq!(args.threads, 8);
        assert!(args.quiet);
    }

    #[test]
    fn shard_size_must_be_positive() {
        let err = parse("--shard-size 0").unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse("--shard-size nope").unwrap_err();
        assert!(err.contains("invalid --shard-size"), "{err}");
        assert_eq!(parse("--shard-size 16").expect("valid").shard_size, Some(16));
    }

    #[test]
    fn shard_size_conflicts_with_obs_and_trace_streams() {
        for flags in [
            "--shard-size 4 --obs",
            "--shard-size 4 --obs-out o.jsonl",
            "--shard-size 4 --trace",
            "--shard-size 4 --trace-out t.jsonl",
            "--shard-size 4 --progress",
            "--shard-size 4 --list",
        ] {
            let err = parse(flags).expect_err(flags);
            assert!(err.contains("not available with --shard-size"), "`{flags}` -> {err}");
        }
    }

    #[test]
    fn flags_that_need_values_say_so() {
        for flag in ["--resume", "--shard-size"] {
            let err = parse(flag).unwrap_err();
            assert!(err.contains("needs a value"), "`{flag}` -> {err}");
        }
    }

    mod subcmd {
        use crate::subcmd::{parse_serve, parse_work};

        fn argv(line: &str) -> Vec<String> {
            line.split_whitespace().map(String::from).collect()
        }

        #[test]
        fn work_parses_its_flags_and_requires_a_dir() {
            let args = parse_work(&argv("camp --threads 2 --lease-ttl-ms 750 --quiet"))
                .expect("valid work line");
            assert_eq!(args.dir, std::path::Path::new("camp"));
            assert_eq!(args.threads, 2);
            assert_eq!(args.ttl_ms, 750);
            assert!(args.quiet);
            for bad in ["", "--threads 2", "camp --bogus"] {
                assert!(parse_work(&argv(bad)).is_err(), "`{bad}` must be rejected");
            }
        }

        #[test]
        fn serve_requires_workers_and_forwards_grid_flags_in_order() {
            let args = parse_serve(&argv(
                "camp --workers 4 --leakage fr --restart-budget 9 --seed 0x2A \
                 --stall-timeout-ms 500 --shard-size 6",
            ))
            .expect("valid serve line");
            assert_eq!(args.dir, std::path::Path::new("camp"));
            assert_eq!(args.workers, 4);
            assert_eq!(args.restart_budget, Some(9));
            assert_eq!(args.stall_ms, 500);
            // Unrecognized flags pass through with their values, in
            // order, for the grid parser.
            assert_eq!(args.rest, argv("--leakage fr --seed 0x2A --shard-size 6"));
            let err = parse_serve(&argv("camp --leakage fr")).unwrap_err();
            assert!(err.contains("--workers"), "{err}");
            assert!(parse_serve(&argv("--workers 2")).is_err(), "DIR must come first");
        }
    }
}
