//! One function per experiment of the paper (`reproduce --help` lists
//! them). Each returns a structured result that the `reproduce` binary
//! renders as the corresponding table/figure rows and that the tests
//! assert shape properties on.

use crate::android::{
    corpus_totals, AppProfile, NotificationScenario, Phone, CYCLES_PER_SECOND,
    ESSENTIAL_APPS_CORPUS, TABLE1_PROFILES,
};
use crate::dalvik::{AppMemory, EnergyModel, PlatformMemory, ProcessBuilder, RunOutcome, Zygote};
use crate::workloads::{dining_philosophers, starvation_workload, wrapper_workload};
use dimmunix_core::json::{self, JsonValue};
use dimmunix_core::Config;

/// One row of the reproduced Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Application name.
    pub app: &'static str,
    /// Threads simulated (paper's thread count plus the main thread).
    pub threads: u32,
    /// Paper's profiled synchronization rate.
    pub paper_syncs_per_sec: u32,
    /// Measured synchronization rate in the replay (per simulated second).
    pub measured_syncs_per_sec: f64,
    /// Memory with Dimmunix, MB (measured by the memory model).
    pub dimmunix_mb: f64,
    /// Memory without Dimmunix, MB.
    pub vanilla_mb: f64,
    /// Measured relative memory overhead.
    pub overhead: f64,
    /// Overhead the paper reports for this application.
    pub paper_overhead: f64,
}

/// Reproduces Table 1 by replaying each application profile on the simulated
/// VM with and without Dimmunix. `scale` divides the 30-second window to
/// keep run time practical (the measured rate is unaffected because both the
/// work and the window shrink together).
pub fn table1(scale: u64) -> Vec<Table1Row> {
    TABLE1_PROFILES
        .iter()
        .map(|profile| table1_row(profile, scale))
        .collect()
}

pub(crate) fn table1_row(profile: &AppProfile, scale: u64) -> Table1Row {
    let run = |config: Config| {
        let (program, main) = profile.build_workload(30.0, scale);
        let mut p = ProcessBuilder::new(profile.package, program)
            .config(config)
            .baseline_bytes(profile.vanilla_bytes())
            .spawn_main(main);
        let outcome = p.run(u64::MAX / 4);
        assert_eq!(outcome, RunOutcome::Completed, "{} replay", profile.name);
        p
    };
    let with = run(Config::default());
    let without = run(Config::disabled());
    let secs = with.virtual_time() as f64 / CYCLES_PER_SECOND as f64;
    let measured_rate = with.stats().syncs as f64 / secs.max(1e-9);
    let dimmunix_bytes = with.memory_dimmunix_bytes();
    let vanilla_bytes = without.memory_vanilla_bytes();
    Table1Row {
        app: profile.name,
        threads: profile.threads,
        paper_syncs_per_sec: profile.syncs_per_sec,
        measured_syncs_per_sec: measured_rate,
        dimmunix_mb: dimmunix_bytes as f64 / (1024.0 * 1024.0),
        vanilla_mb: vanilla_bytes as f64 / (1024.0 * 1024.0),
        overhead: (dimmunix_bytes as f64 - vanilla_bytes as f64) / vanilla_bytes as f64,
        paper_overhead: profile.paper_overhead(),
    }
}

/// Platform-wide memory utilization derived from Table 1 rows (the paper's
/// "52% with Dimmunix vs 50% vanilla").
pub fn platform_memory(rows: &[Table1Row]) -> PlatformMemory {
    // The profiled applications account for roughly 160 MB of the Nexus
    // One's 512 MB; the rest of the "50% vanilla" figure is the OS and
    // native services, modelled as a fixed share.
    let mut platform = PlatformMemory::new(96 * 1024 * 1024);
    for row in rows {
        platform.add_app(AppMemory::new(
            (row.vanilla_mb * 1024.0 * 1024.0) as usize,
            (row.dimmunix_mb * 1024.0 * 1024.0) as usize,
        ));
    }
    platform
}

/// The benchmark workloads whose measured cost stands for one sync on each
/// path, in column order: a tier-1 un-nested section, a nested acquisition,
/// and the task path.
pub const OVERHEAD_PATHS: [(&str, &str); 3] = [
    ("tier 1", "flat_sections"),
    ("nested", "nested_transfers"),
    ("task", "async_clean"),
];

/// The §5 overhead question answered from the immunity-cost benchmark's own
/// numbers: Table 1's synchronization rates times the cost per operation on
/// each of [`OVERHEAD_PATHS`], as a share of one core.
#[derive(Debug, Clone, PartialEq)]
pub struct Overhead {
    /// PR that recorded the trajectory line the costs come from.
    pub pr: u64,
    /// CPUs of the host that measured them.
    pub nproc: u64,
    /// `immunity_cost_ns_per_op` per path. A benchmark operation makes at
    /// least one acquisition, so each is an upper bound on one sync's cost.
    pub cost_ns: [f64; 3],
    /// One row per Table 1 application, then one for all eight together.
    pub rows: Vec<OverheadShare>,
}

/// One application's (or the platform's) share of a core per path.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadShare {
    /// Application name, or "all eight" for the platform row.
    pub app: &'static str,
    /// The paper's profiled synchronization rate.
    pub syncs_per_sec: u32,
    /// `syncs_per_sec × cost_ns` as a fraction of one core, per path.
    pub core_share: [f64; 3],
}

/// Reads the last line of a `BENCH_TRAJECTORY.jsonl` text and multiplies its
/// costs by Table 1's rates. Pure: it spawns no thread and times nothing.
///
/// # Errors
/// The text has no line, the last line is not JSON, or it lacks `pr`,
/// `host.nproc` or one of the three costs.
pub fn overhead(trajectory: &str) -> Result<Overhead, String> {
    let line = trajectory
        .lines()
        .rev()
        .find(|line| !line.trim().is_empty())
        .ok_or("the trajectory has no line")?;
    let entry = json::parse(line).map_err(|e| format!("last trajectory line: {e}"))?;
    let pr = entry
        .get("pr")
        .and_then(JsonValue::as_u64)
        .ok_or("the last trajectory line has no `pr`")?;
    let nproc = entry
        .get("host")
        .and_then(|host| host.get("nproc"))
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("PR {pr}'s trajectory line has no `host.nproc`"))?;
    let mut cost_ns = [0.0; 3];
    for (cost, (_, workload)) in cost_ns.iter_mut().zip(OVERHEAD_PATHS) {
        *cost = entry
            .get("cost_ns")
            .and_then(|costs| costs.get(workload))
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("PR {pr}'s trajectory line has no `cost_ns.{workload}`"))?;
    }
    let row = |app, syncs_per_sec: u32| OverheadShare {
        app,
        syncs_per_sec,
        core_share: cost_ns.map(|ns| f64::from(syncs_per_sec) * ns * 1e-9),
    };
    let mut rows: Vec<OverheadShare> = TABLE1_PROFILES
        .iter()
        .map(|profile| row(profile.name, profile.syncs_per_sec))
        .collect();
    rows.push(row(
        "all eight",
        TABLE1_PROFILES.iter().map(|p| p.syncs_per_sec).sum(),
    ));
    Ok(Overhead {
        pr,
        nproc,
        cost_ns,
        rows,
    })
}

/// Result of the §5 case study (experiment E3).
#[derive(Debug, Clone)]
pub struct CaseStudyResult {
    /// Scheduler seed that exhibited the freeze.
    pub seed: u64,
    /// Launches observed, in order: `true` = frozen interface.
    pub launches_frozen: Vec<bool>,
    /// Deadlocks detected on the first (freezing) launch.
    pub first_launch_detections: u64,
    /// Signatures in the history after the first launch.
    pub signatures_recorded: usize,
}

/// Reproduces the notification/status-bar case study: freeze once, reboot,
/// never freeze again.
pub fn case_study(history_dir: &std::path::Path) -> CaseStudyResult {
    for seed in 0..500u64 {
        let dir = history_dir.join(format!("seed{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut phone = Phone::new(Config::default(), &dir);
        phone.set_scheduler_seed(seed);
        phone.install_notification_test_app(NotificationScenario::default());
        let first = phone
            .launch_and_inspect("com.example.notificationtest", 300_000)
            .expect("app installed");
        if !first.0.frozen {
            continue;
        }
        let signatures = first.1.engine().history().len();
        let mut launches_frozen = vec![true];
        phone.reboot();
        for _ in 0..5 {
            let report = phone
                .launch("com.example.notificationtest", 600_000)
                .expect("app installed");
            launches_frozen.push(report.frozen);
            if report.frozen {
                phone.reboot();
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        return CaseStudyResult {
            seed,
            launches_frozen,
            first_launch_detections: first.0.deadlocks_detected,
            signatures_recorded: signatures,
        };
    }
    panic!("no freezing interleaving found for the case study");
}

/// Result of the power experiment (E4).
#[derive(Debug, Clone, Copy)]
pub struct PowerResult {
    /// Application+OS share of energy without Dimmunix, in whole percent.
    pub vanilla_percent: u32,
    /// The same share with Dimmunix, in whole percent.
    pub dimmunix_percent: u32,
    /// The same share with Dimmunix before rounding, in percent.
    pub dimmunix_share_percent: f64,
    /// The immunity cost per sync, in ns, at which the share with Dimmunix
    /// would round up to the next whole percent: the headroom left before
    /// the battery screen could tell the two platforms apart.
    pub round_up_cost_ns: f64,
    /// The benchmark workload whose cost stood for one sync's immunity work:
    /// the dearest of [`OVERHEAD_PATHS`], so the share is an upper bound.
    pub workload: &'static str,
    /// That workload's `immunity_cost_ns_per_op`.
    pub cost_ns: f64,
}

/// Reproduces the power-consumption comparison over the Table-1 "intensive
/// usage" window (the eight profiled apps at their busiest rate for 30
/// simulated seconds). Every sync on the immune platform pays the largest of
/// `overhead`'s measured path costs, converted to the energy model's busy
/// cycles; the vanilla platform pays nothing.
pub fn power(overhead: &Overhead) -> PowerResult {
    let (cost_ns, workload) = overhead
        .cost_ns
        .into_iter()
        .zip(OVERHEAD_PATHS.map(|(_, workload)| workload))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("three paths");
    let immunity_cycles_per_sync = cost_ns * 1e-9 * CYCLES_PER_SECOND as f64;
    let total_syncs: u64 = TABLE1_PROFILES.iter().map(|p| p.total_syncs(30.0)).sum();
    let total_cycles: u64 = 30 * CYCLES_PER_SECOND;
    let model = EnergyModel::default();
    let report = |cycles_per_sync| model.report(total_cycles, total_syncs, cycles_per_sync);
    let immune = report(immunity_cycles_per_sync);
    // The share reads `dimmunix_percent + 1` once it reaches the next
    // half-percent boundary b, i.e. once app energy reaches
    // b / (1 - b) x platform energy; the extra energy over vanilla is
    // bought one busy cycle per cycle per sync.
    let boundary = (f64::from(immune.app_share_percent()) + 0.5) / 100.0;
    let app_at_boundary = boundary / (1.0 - boundary) * immune.platform_energy;
    let extra_cycles_per_sync =
        (app_at_boundary - report(0.0).app_energy) / (total_syncs as f64 * model.per_cycle);
    PowerResult {
        vanilla_percent: report(0.0).app_share_percent(),
        dimmunix_percent: immune.app_share_percent(),
        dimmunix_share_percent: immune.app_share() * 100.0,
        round_up_cost_ns: extra_cycles_per_sync / CYCLES_PER_SECOND as f64 * 1e9,
        workload,
        cost_ns,
    }
}

/// Result of the §3.2 static-corpus experiment (E5).
#[derive(Debug, Clone, Copy)]
pub struct CorpusResult {
    /// `synchronized` blocks/methods in the essential applications.
    pub synchronized_sites: u32,
    /// Explicit lock/unlock call sites.
    pub explicit_lock_sites: u32,
    /// Fraction of sites covered by handling only monitors.
    pub coverage: f64,
}

/// Regenerates the 1,050-vs-15 static statistic.
pub fn corpus() -> CorpusResult {
    let totals = corpus_totals(&ESSENTIAL_APPS_CORPUS);
    CorpusResult {
        synchronized_sites: totals.synchronized_sites,
        explicit_lock_sites: totals.explicit_lock_sites,
        coverage: totals.coverage(),
    }
}

/// Result of the per-process isolation experiment (E6, Figure 1).
#[derive(Debug, Clone)]
pub struct IsolationResult {
    /// Number of processes forked.
    pub processes: usize,
    /// Signatures recorded by the process that deadlocked.
    pub buggy_process_signatures: usize,
    /// Signatures observed by every other process (must all be 0).
    pub other_process_signatures: Vec<usize>,
}

/// Shows that Dimmunix state is per-process: one buggy app developing an
/// antibody does not perturb the engines of the other apps.
pub fn isolation() -> IsolationResult {
    let mut zygote = Zygote::new(Config::default());
    // One buggy app (two dining philosophers, i.e. AB/BA) and three healthy apps.
    let mut buggy_sigs = 0;
    for seed in 0..300u64 {
        let (program, main) = dining_philosophers(2, 2);
        let mut zy = zygote.clone().with_seed(seed);
        let mut p = zy.fork("com.example.buggy", program, main);
        let _ = p.run(200_000);
        if !p.engine().history().is_empty() {
            buggy_sigs = p.engine().history().len();
            break;
        }
    }
    let mut others = Vec::new();
    for profile in TABLE1_PROFILES.iter().take(3) {
        let (program, main) = profile.build_workload(30.0, 5_000);
        let mut p = zygote.fork(profile.package, program, main);
        let _ = p.run(u64::MAX / 4);
        others.push(p.engine().history().len());
    }
    IsolationResult {
        processes: 1 + others.len(),
        buggy_process_signatures: buggy_sigs,
        other_process_signatures: others,
    }
}

/// Result of the depth-1 ablation (A1).
#[derive(Debug, Clone, Copy)]
pub struct DepthAblationRow {
    /// Outer call-stack depth used for positions.
    pub depth: usize,
    /// Avoidance yields observed on the wrapper workload replay.
    pub yields: u64,
    /// Whether the replay completed.
    pub completed: bool,
    /// Distinct positions interned.
    pub positions: usize,
}

/// Reproduces the §3.2 wrapper discussion: with depth-1 positions the
/// `MyLock`-style wrapper workload is serialized far more aggressively than
/// with deeper positions, because every acquisition shares one location.
pub fn depth_ablation() -> Vec<DepthAblationRow> {
    // Train a depth-1 history on a deadlocking seed.
    let mut trained = None;
    for seed in 0..400u64 {
        let (program, main) = wrapper_workload(2, 2);
        let mut p = ProcessBuilder::new("wrapper", program)
            .seed(seed)
            .config(Config::builder().stack_depth(1).build())
            .spawn_main(main);
        let _ = p.run(500_000);
        if p.stats().deadlocks_detected > 0 {
            trained = Some((seed, p.engine().history().clone()));
            break;
        }
    }
    let (seed, history) = trained.expect("wrapper workload must deadlock under some schedule");
    [1usize, 2, 3]
        .iter()
        .map(|&depth| {
            let (program, main) = wrapper_workload(2, 2);
            let mut p = ProcessBuilder::new("wrapper", program)
                .seed(seed)
                .config(Config::builder().stack_depth(depth).build())
                .history(history.clone())
                .spawn_main(main);
            let outcome = p.run(5_000_000);
            DepthAblationRow {
                depth,
                yields: p.stats().yields,
                completed: outcome == RunOutcome::Completed,
                positions: p.engine().positions().len(),
            }
        })
        .collect()
}

/// Result of the starvation-handling experiment (A3).
#[derive(Debug, Clone, Copy)]
pub struct StarvationResult {
    /// Replays executed with the antibody loaded.
    pub replays: u32,
    /// Replays that completed.
    pub completed: u32,
    /// Replays in which the starvation-resolution path fired.
    pub starvations_resolved: u32,
    /// Replays that hung (must be 0).
    pub hung: u32,
}

/// Exercises the avoidance-induced-deadlock handling of §2.2: with a
/// coupling lock in place, naive avoidance could hang; Dimmunix resolves the
/// starvation and every replay terminates.
pub fn starvation_experiment() -> StarvationResult {
    let mut history = None;
    for seed in 0..400u64 {
        let (program, main) = starvation_workload();
        let mut p = ProcessBuilder::new("starvation", program)
            .seed(seed)
            .spawn_main(main);
        let _ = p.run(500_000);
        if p.stats().deadlocks_detected > 0 {
            history = Some(p.engine().history().clone());
            break;
        }
    }
    let history = history.unwrap_or_default();
    let mut result = StarvationResult {
        replays: 0,
        completed: 0,
        starvations_resolved: 0,
        hung: 0,
    };
    for seed in 0..40u64 {
        let (program, main) = starvation_workload();
        let mut p = ProcessBuilder::new("starvation", program)
            .seed(seed)
            .history(history.clone())
            .spawn_main(main);
        let outcome = p.run(3_000_000);
        result.replays += 1;
        match outcome {
            RunOutcome::Completed => result.completed += 1,
            _ => result.hung += 1,
        }
        if p.engine().stats().starvations_detected > 0 {
            result.starvations_resolved += 1;
        }
    }
    result
}
