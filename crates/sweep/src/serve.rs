//! `sweep serve`: spawn and supervise N `sweep work` child processes.
//!
//! The supervisor owns no shard state and speaks no protocol: all
//! coordination lives in the campaign directory ([`crate::lease`]). It
//! spawns the workers, waits on them, restarts children that die (up
//! to a restart budget, after which it degrades to fewer workers) and
//! heals. Each worker reports its own claims, commits, breaks,
//! quarantines and final lease counters on the inherited stderr.
//!
//! Stall detection polls the directory each tick. Progress is a child
//! exiting, or any change in the set of entry names under `shards/`,
//! `quarantine/` and `leases/` (`write_atomic` temporaries excluded): a
//! commit or quarantine adds a name, a claim adds a lease, a release or
//! break removes one and a break adds a tombstone. A heartbeat rewrites
//! a lease under the same name, so it never counts — a worker parked on
//! a hung syscall heartbeats forever, and only the supervisor can tell
//! that nothing is moving. After a stall timeout with no progress it
//! kills the fleet.
//!
//! Losing the supervisor or every worker never loses work: after the
//! fleet drains, the supervisor runs one in-process [`work_campaign`]
//! *heal pass* as the final worker. That pass breaks any leases the
//! dead children left behind, re-executes their shards, and returns the
//! merged report — so `serve_campaign` converges even if every child is
//! killed instantly, and the artifacts it writes are byte-identical to
//! a 1-process run (the convergence argument in [`crate::lease`]).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use prefender_obs::{is_atomic_tmp, ObsCounters, FAILPOINTS_ENV};

use crate::artifact::SweepReport;
use crate::checkpoint::{
    io_err, load_manifest, CampaignError, Manifest, QUARANTINE_DIR, SHARD_DIR,
};
use crate::lease::{work_campaign, LeaseConfig, WorkEvent, WorkOptions, LEASE_DIR};

/// Options for [`serve_campaign`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The `sweep` binary to spawn workers from (usually
    /// `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Worker processes to run.
    pub workers: usize,
    /// `--threads` passed to each worker.
    pub worker_threads: usize,
    /// Dead-worker restarts allowed before degrading to fewer workers.
    pub restart_budget: usize,
    /// Lease policy passed to workers and used by the heal pass.
    pub lease: LeaseConfig,
    /// Kill the fleet when the campaign directory shows no progress
    /// (commit, claim, release, break, quarantine) and no child exits
    /// for this long — hung workers heartbeat forever; stalls are
    /// visible only here.
    pub stall_timeout: Duration,
    /// Failpoint spec injected into workers (children otherwise run
    /// with the supervisor's failpoint env *removed*, so faults aimed
    /// at workers are explicit and never hit the supervisor).
    pub worker_failpoints: Option<String>,
    /// Suppress per-shard progress lines, the supervisor's and the
    /// workers' (lifecycle and break/quarantine lines always print).
    pub quiet: bool,
}

impl ServeOptions {
    /// Defaults: 1 thread per worker, restart budget `2 × workers`,
    /// default lease policy, 60 s stall timeout.
    pub fn new(exe: impl Into<PathBuf>, workers: usize) -> Self {
        ServeOptions {
            exe: exe.into(),
            workers,
            worker_threads: 1,
            restart_budget: workers.saturating_mul(2),
            lease: LeaseConfig::default(),
            stall_timeout: Duration::from_secs(60),
            worker_failpoints: None,
            quiet: false,
        }
    }
}

/// One worker slot's history across restarts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Slot index (0-based).
    pub worker: usize,
    /// Every pid that occupied this slot (restarts append).
    pub pids: Vec<u32>,
}

/// What a [`serve_campaign`] run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Worker slots requested.
    pub workers: usize,
    /// Processes spawned, including restarts.
    pub spawned: usize,
    /// Dead workers restarted.
    pub restarts: usize,
    /// Whether the restart budget ran out (finished with fewer workers).
    pub degraded: bool,
    /// Live workers killed by stall detection.
    pub stall_kills: usize,
    /// Per-slot pid history.
    pub per_worker: Vec<WorkerReport>,
    /// Shards the supervisor's own heal pass had to execute.
    pub healed: u64,
    /// Read from the directory: `lease_breaks` counts the break
    /// tombstones and `shard_quarantines` the quarantined files this run
    /// added, whichever process made them. The other lease counters are
    /// the heal pass's own; each worker prints its claims and renewals
    /// in its `sweep: work:` line.
    pub counters: ObsCounters,
}

impl ServeSummary {
    /// One telemetry line, e.g. `4 workers (6 spawned, 2 restarts),
    /// 0 healed; breaks=2 quarantines=1`.
    pub fn render(&self) -> String {
        format!(
            "{} workers ({} spawned, {} restarts{}), {} healed; breaks={} quarantines={}",
            self.workers,
            self.spawned,
            self.restarts,
            if self.degraded { ", degraded" } else { "" },
            self.healed,
            self.counters.lease_breaks,
            self.counters.shard_quarantines
        )
    }
}

/// The supervisor's progress sample: the sorted entry names under
/// `shards/`, `quarantine/` and `leases/`, `write_atomic` temporaries
/// excluded. It changes on a commit, claim, release, break or
/// quarantine, and never on a heartbeat.
fn progress_sample(dir: &Path) -> Vec<PathBuf> {
    let mut names = Vec::new();
    for sub in [SHARD_DIR, QUARANTINE_DIR, LEASE_DIR] {
        let Ok(entries) = fs::read_dir(dir.join(sub)) else { continue };
        names
            .extend(entries.filter_map(|e| e.ok()).map(|e| e.path()).filter(|p| !is_atomic_tmp(p)));
    }
    names.sort();
    names
}

/// `(break tombstones, quarantined files)` in a progress sample.
fn tally(dir: &Path, sample: &[PathBuf]) -> (u64, u64) {
    let qdir = dir.join(QUARANTINE_DIR);
    let tombstones = sample
        .iter()
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.contains(".broken.")))
        .count();
    let quarantined = sample.iter().filter(|p| p.starts_with(&qdir)).count();
    (tombstones as u64, quarantined as u64)
}

struct Slot {
    child: Option<Child>,
    pids: Vec<u32>,
}

/// Runs a campaign with `opts.workers` supervised child processes and
/// returns the merged report — the same bytes as a 1-process run. The
/// campaign manifest must already exist ([`crate::init_campaign`]).
/// Lifecycle lines go to stderr, which the workers inherit.
///
/// # Errors
///
/// Manifest/spawn failures, or the heal pass failing — but a child
/// dying is *not* an error: it is restarted (within the budget) or its
/// work reclaimed by the survivors and the heal pass.
pub fn serve_campaign(
    dir: &Path,
    opts: &ServeOptions,
) -> Result<(SweepReport, Manifest, ServeSummary), CampaignError> {
    if opts.workers == 0 {
        return Err(CampaignError::Manifest("serve needs at least one worker".into()));
    }
    load_manifest(dir)?; // fail early with the good error; workers reload it
    let mut summary = ServeSummary { workers: opts.workers, ..ServeSummary::default() };
    let log = |important: bool, line: &str| {
        if important || !opts.quiet {
            eprintln!("sweep: serve: {line}");
        }
    };

    let spawn_worker = || -> std::io::Result<Child> {
        let mut cmd = Command::new(&opts.exe);
        cmd.arg("work")
            .arg(dir)
            .args(["--threads", &opts.worker_threads.to_string()])
            .args(["--lease-ttl-ms", &opts.lease.ttl_ms.to_string()])
            .stdout(Stdio::null());
        if opts.quiet {
            cmd.arg("--quiet");
        }
        cmd.env_remove(FAILPOINTS_ENV);
        if let Some(spec) = &opts.worker_failpoints {
            cmd.env(FAILPOINTS_ENV, spec);
        }
        cmd.spawn()
    };

    let baseline = progress_sample(dir);
    let mut slots: Vec<Slot> = Vec::with_capacity(opts.workers);
    for k in 0..opts.workers {
        let child = spawn_worker().map_err(io_err(&opts.exe))?;
        summary.spawned += 1;
        log(false, &format!("worker {k}: spawned (pid {})", child.id()));
        slots.push(Slot { pids: vec![child.id()], child: Some(child) });
    }

    let mut last_sample = baseline.clone();
    let mut last_progress = Instant::now();
    loop {
        let mut live = 0usize;
        for (k, slot) in slots.iter_mut().enumerate() {
            let Some(child) = slot.child.as_mut() else { continue };
            match child.try_wait() {
                Ok(None) => live += 1,
                Ok(Some(status)) => {
                    let pid = child.id();
                    slot.child = None;
                    last_progress = Instant::now();
                    if status.success() {
                        log(false, &format!("worker {k}: finished (pid {pid})"));
                    } else if summary.restarts < opts.restart_budget {
                        summary.restarts += 1;
                        log(
                            true,
                            &format!(
                                "worker {k}: died (pid {pid}, {status}); restarting \
                                 ({}/{} restarts)",
                                summary.restarts, opts.restart_budget
                            ),
                        );
                        match spawn_worker() {
                            Ok(c) => {
                                summary.spawned += 1;
                                slot.pids.push(c.id());
                                slot.child = Some(c);
                                live += 1;
                            }
                            Err(e) => {
                                summary.degraded = true;
                                log(true, &format!("worker {k}: respawn failed ({e}); degrading"));
                            }
                        }
                    } else {
                        summary.degraded = true;
                        log(
                            true,
                            &format!(
                                "worker {k}: died (pid {pid}, {status}); restart budget \
                                 exhausted — degrading to fewer workers"
                            ),
                        );
                    }
                }
                Err(_) => {
                    slot.child = None;
                }
            }
        }
        if live == 0 {
            break;
        }
        let sample = progress_sample(dir);
        if sample != last_sample {
            last_sample = sample;
            last_progress = Instant::now();
        } else if last_progress.elapsed() > opts.stall_timeout {
            log(
                true,
                &format!(
                    "no progress for {:.1}s; killing {live} stalled worker(s)",
                    last_progress.elapsed().as_secs_f64()
                ),
            );
            for slot in &mut slots {
                if let Some(child) = slot.child.as_mut() {
                    let _ = child.kill();
                    summary.stall_kills += 1;
                }
            }
            last_progress = Instant::now();
        }
        thread::sleep(Duration::from_millis(25));
    }

    // Heal pass: the supervisor is the last worker. With a healthy
    // fleet this only validates and merges; with dead children it
    // breaks their leases and re-executes whatever is missing.
    let heal_opts = WorkOptions { threads: opts.worker_threads.max(1), lease: opts.lease };
    let mut heal_events = |event: &WorkEvent| match event {
        WorkEvent::Broke { shard, holder_pid, age_ms } => log(
            true,
            &format!(
                "heal: broke stale lease on shard {shard} \
                 (holder pid {holder_pid}, heartbeat {age_ms}ms old)"
            ),
        ),
        WorkEvent::Quarantined { shard, why } => {
            log(true, &format!("heal: quarantined invalid shard {shard}: {why}"));
        }
        WorkEvent::Committed { shard, done, total } => {
            log(false, &format!("heal: committed shard {shard} ({done}/{total})"));
        }
        _ => {}
    };
    let (report, manifest, healed) = work_campaign(dir, &heal_opts, &mut heal_events)?;
    summary.healed = healed.committed as u64;
    let (breaks_before, quarantined_before) = tally(dir, &baseline);
    let (breaks, quarantined) = tally(dir, &progress_sample(dir));
    summary.counters = ObsCounters {
        lease_breaks: breaks.saturating_sub(breaks_before),
        shard_quarantines: quarantined.saturating_sub(quarantined_before),
        ..healed.counters
    };
    summary.per_worker = slots
        .into_iter()
        .enumerate()
        .map(|(worker, slot)| WorkerReport { worker, pids: slot.pids })
        .collect();
    Ok((report, manifest, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{init_campaign, quarantine};
    use crate::engine::SweepOptions;
    use crate::grid::SweepGrid;
    use crate::lease::{claim_shard, lease_file_name, Claim, LeaseInfo};
    use crate::shard::shard_file_name;
    use prefender_obs::write_atomic;

    #[test]
    fn zero_workers_is_rejected() {
        let opts = ServeOptions::new("/bin/false", 0);
        let err = serve_campaign(Path::new("/nonexistent"), &opts).unwrap_err();
        assert!(matches!(err, CampaignError::Manifest(_)), "{err}");
    }

    #[test]
    fn progress_sample_moves_on_state_changes_and_never_on_heartbeats() {
        let dir = std::env::temp_dir().join(format!("prefender-serve-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut grid = SweepGrid::security_quick();
        grid.seeds = 1;
        let manifest = init_campaign(&dir, &grid, &SweepOptions::default(), 1).unwrap();
        let fingerprint = manifest.fingerprint();
        let cfg = LeaseConfig::default();
        let mut counters = ObsCounters::new();
        let mut sink = |_: WorkEvent| {};
        let mut last = progress_sample(&dir);
        let mut moved = |what: &str, expect: bool| {
            let now = progress_sample(&dir);
            assert_eq!(now != last, expect, "{what}: {last:?} -> {now:?}");
            last = now;
        };

        let claim = claim_shard(&dir, 0, fingerprint, &cfg, &mut counters, &mut sink).unwrap();
        let Claim::Claimed { lease, .. } = claim else { panic!("claim must win") };
        moved("claim", true);
        std::thread::sleep(Duration::from_millis(2));
        assert!(lease.renew().unwrap());
        moved("heartbeat", false);
        let shard = dir.join(SHARD_DIR).join(shard_file_name(0));
        write_atomic(&shard, "committed bytes").unwrap();
        moved("commit", true);
        lease.release();
        moved("release", true);
        let stray = dir.join(SHARD_DIR).join("shard-00001.psd.tmp.4000000000");
        fs::write(&stray, "half-written").unwrap();
        moved("stray temporary", false);
        quarantine(&dir, &shard, 0).unwrap();
        moved("quarantine", true);
        let dead =
            LeaseInfo { pid: 4_000_000_000, token: 1, fingerprint, shard: 1, heartbeat_ms: 0 };
        fs::write(dir.join(LEASE_DIR).join(lease_file_name(1)), dead.encode()).unwrap();
        moved("a dead worker's claim", true);
        let claim = claim_shard(&dir, 1, fingerprint, &cfg, &mut counters, &mut sink).unwrap();
        assert!(matches!(claim, Claim::Claimed { broke: true, .. }), "{claim:?}");
        // The broken lease's name went to a tombstone and our claim took
        // the same name back: the tombstone alone is the change.
        moved("break", true);
        assert_eq!(tally(&dir, &progress_sample(&dir)), (1, 1));
        fs::remove_dir_all(&dir).unwrap();
    }
}
