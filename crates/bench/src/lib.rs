//! # dimmunix-bench — experiment harness
//!
//! One function per experiment of the paper (`reproduce --help` lists
//! them). Each returns a structured result that the `reproduce` binary
//! renders as the corresponding table/figure rows and that the integration
//! tests assert shape properties on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;

use android_sim::{
    corpus_totals, AppProfile, NotificationScenario, Phone, CYCLES_PER_SECOND,
    ESSENTIAL_APPS_CORPUS, TABLE1_PROFILES,
};
use dalvik_sim::{EnergyModel, PlatformMemory, ProcessBuilder, RunOutcome};
use dimmunix_core::Config;
use workloads::{run_overhead_pair, starvation_workload, wrapper_workload, MicrobenchConfig};

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

fn table1_row(profile: &AppProfile, scale: u64) -> Table1Row {
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
        platform.add_app(dalvik_sim::AppMemory::new(
            (row.vanilla_mb * 1024.0 * 1024.0) as usize,
            (row.dimmunix_mb * 1024.0 * 1024.0) as usize,
        ));
    }
    platform
}

/// One row of the §5 overhead experiment (a thread-count / history-size
/// point of the microbenchmark sweep).
pub use workloads::OverheadRow;

/// Runs the §5 microbenchmark sweep on real threads. `quick` shrinks the
/// sweep for CI-style runs.
pub fn overhead_sweep(quick: bool) -> Vec<OverheadRow> {
    let thread_counts: &[usize] = if quick {
        &[2, 8]
    } else {
        &[2, 8, 32, 128, 512]
    };
    let history_sizes: &[usize] = if quick { &[64] } else { &[64, 256] };
    let iterations = if quick { 2_000 } else { 5_000 };
    let mut rows = Vec::new();
    for &threads in thread_counts {
        for &history in history_sizes {
            // The per-sync busy work is sized so that the per-acquisition
            // hook cost is a few percent of each iteration — reproducing the
            // paper's *shape* (small single-digit overhead that does not grow
            // with thread count), not the phone's absolute rate.
            let cfg = MicrobenchConfig {
                threads,
                iterations: (iterations / threads).max(50),
                locks_per_thread: 8,
                work_inside: 2_000,
                work_outside: 6_000,
                synthetic_signatures: history,
                dimmunix_enabled: true,
                shards: 1,
            };
            rows.push(run_overhead_pair(&cfg));
        }
    }
    rows
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
}

/// Reproduces the power-consumption comparison: the applications' share of
/// energy is unchanged at whole-percent granularity.
pub fn power() -> PowerResult {
    // "Intensive usage" window: the 8 profiled apps at their busiest rate
    // for 30 simulated seconds.
    let total_syncs: u64 = TABLE1_PROFILES.iter().map(|p| p.total_syncs(30.0)).sum();
    let total_cycles: u64 = 30 * CYCLES_PER_SECOND;
    let model = EnergyModel::default();
    PowerResult {
        vanilla_percent: model
            .report(total_cycles, total_syncs, false)
            .app_share_percent(),
        dimmunix_percent: model
            .report(total_cycles, total_syncs, true)
            .app_share_percent(),
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
    use dalvik_sim::Zygote;
    let mut zygote = Zygote::new(Config::default());
    // One buggy app (two dining philosophers, i.e. AB/BA) and three healthy apps.
    let mut buggy_sigs = 0;
    for seed in 0..300u64 {
        let (program, main) = workloads::dining_philosophers(2, 2);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_matches_paper() {
        let c = corpus();
        assert_eq!(c.synchronized_sites, 1050);
        assert_eq!(c.explicit_lock_sites, 15);
    }

    #[test]
    fn power_share_is_unchanged() {
        let p = power();
        assert_eq!(p.vanilla_percent, p.dimmunix_percent);
        // The paper's battery screen reports applications + OS at 14% of
        // the platform's energy, with and without Dimmunix; the model is
        // calibrated to reproduce that figure for the Table-1 window, not
        // merely to leave some arbitrary share unchanged.
        assert_eq!(p.vanilla_percent, 14);
        assert_eq!(p.dimmunix_percent, 14);
    }

    #[test]
    fn table1_row_shape_for_one_app() {
        let profile = android_sim::profile_by_name("Camera").unwrap();
        let row = table1_row(profile, 2_000);
        assert!(row.overhead > 0.0 && row.overhead < 0.10);
        assert!(row.dimmunix_mb > row.vanilla_mb);
        assert!(row.measured_syncs_per_sec > 0.0);
    }

    #[test]
    fn isolation_keeps_other_processes_clean() {
        let iso = isolation();
        assert!(iso.other_process_signatures.iter().all(|&n| n == 0));
    }
}
