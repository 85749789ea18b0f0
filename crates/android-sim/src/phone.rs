//! A simulated phone: boot, install applications, observe freezes, reboot.
//!
//! This is the harness for the §5 case study: install the test application
//! that exercises the notification/status-bar services, watch the interface
//! freeze the first time the inversion interleaves badly, reboot the phone,
//! and observe that the deadlock never reoccurs because the per-process
//! history survived the reboot.

use crate::services::NotificationScenario;
use dalvik_sim::{MethodId, Process, Program, RunOutcome, Zygote};
use dimmunix_core::Config;
use std::collections::HashMap;
use std::path::PathBuf;

/// An application installed on the phone.
#[derive(Debug, Clone)]
pub struct InstalledApp {
    /// Package name (also names the persistent history file).
    pub package: String,
    /// The application program.
    pub program: Program,
    /// Entry method.
    pub entry: MethodId,
    /// Baseline memory footprint in bytes.
    pub baseline_bytes: usize,
}

/// Result of running one application until it finishes, freezes, or exhausts
/// its step budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppRunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// True unless the run completed: a detected deadlock, a stall, or an
    /// exhausted step budget — the user-visible "interface frozen"
    /// condition.
    pub frozen: bool,
    /// Deadlocks detected by Dimmunix during the run.
    pub deadlocks_detected: u64,
    /// Completed synchronizations.
    pub syncs: u64,
}

/// A simulated Android phone with platform-wide deadlock immunity.
#[derive(Debug)]
pub struct Phone {
    zygote: Zygote,
    apps: HashMap<String, InstalledApp>,
    boot_count: u32,
    scheduler_seed: u64,
}

impl Phone {
    /// "Flashes" a phone whose platform runs Dimmunix with the given
    /// configuration template; histories persist under `history_dir`.
    pub fn new(config: Config, history_dir: impl Into<PathBuf>) -> Self {
        let dir = history_dir.into();
        Phone {
            zygote: Zygote::new(config).with_history_dir(dir),
            apps: HashMap::new(),
            boot_count: 1,
            scheduler_seed: 0,
        }
    }

    /// A phone running the vanilla platform (no immunity) — the baseline.
    pub fn vanilla(history_dir: impl Into<PathBuf>) -> Self {
        Phone::new(Config::disabled(), history_dir)
    }

    /// Sets the scheduler seed used for application runs (deterministic
    /// interleavings).
    pub fn set_scheduler_seed(&mut self, seed: u64) {
        self.scheduler_seed = seed;
    }

    /// Number of boots so far (1 after construction).
    pub fn boot_count(&self) -> u32 {
        self.boot_count
    }

    /// Installs an application.
    pub fn install(&mut self, app: InstalledApp) {
        self.apps.insert(app.package.clone(), app);
    }

    /// Installs the §5 test application that reproduces issue 7986.
    pub fn install_notification_test_app(&mut self, scenario: NotificationScenario) {
        let (program, entry) = scenario.build();
        self.install(InstalledApp {
            package: "com.example.notificationtest".to_string(),
            program,
            entry,
            baseline_bytes: 6 * 1024 * 1024,
        });
    }

    /// Launches an installed application and runs it to completion, a
    /// freeze, or the step budget. The process's history file is loaded at
    /// launch and updated on any detection, so immunity accumulates across
    /// launches and reboots.
    pub fn launch(&mut self, package: &str, max_steps: u64) -> Option<AppRunReport> {
        let app = self.apps.get(package)?.clone();
        let mut process = self.fork(&app);
        let outcome = process.run(max_steps);
        Some(self.report(&process, outcome))
    }

    /// Launches an application and returns both the report and the process
    /// (for memory accounting and inspection).
    pub fn launch_and_inspect(
        &mut self,
        package: &str,
        max_steps: u64,
    ) -> Option<(AppRunReport, Process)> {
        let app = self.apps.get(package)?.clone();
        let mut process = self.fork(&app);
        let outcome = process.run(max_steps);
        let report = self.report(&process, outcome);
        Some((report, process))
    }

    fn fork(&mut self, app: &InstalledApp) -> Process {
        // Vary the seed per launch *and* per boot the same way a real phone's
        // timing varies, but deterministically for a given Phone history.
        let seed = self
            .scheduler_seed
            .wrapping_add(self.boot_count as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut zygote = self.zygote.clone().with_seed(seed);
        let process = zygote.fork(&app.package, app.program.clone(), app.entry);
        // Preserve the zygote's pid counter so pids stay unique.
        self.zygote = zygote;
        process
    }

    fn report(&self, process: &Process, outcome: RunOutcome) -> AppRunReport {
        let stats = process.stats();
        AppRunReport {
            outcome,
            frozen: outcome != RunOutcome::Completed,
            deadlocks_detected: stats.deadlocks_detected,
            syncs: stats.syncs,
        }
    }

    /// Reboots the phone. Running processes are discarded (their persistent
    /// histories are already on "flash"); installed applications survive.
    pub fn reboot(&mut self) {
        self.boot_count += 1;
    }

    /// Repeatedly launches `package` (rebooting after every freeze) until it
    /// completes or `max_launches` is reached. Returns the reports of every
    /// launch — the case-study expectation is: at most one frozen launch,
    /// then only clean ones.
    pub fn launch_until_immune(
        &mut self,
        package: &str,
        max_launches: u32,
        max_steps: u64,
    ) -> Vec<AppRunReport> {
        let mut reports = Vec::new();
        for _ in 0..max_launches {
            let Some(report) = self.launch(package, max_steps) else {
                break;
            };
            let frozen = report.frozen;
            reports.push(report);
            if frozen {
                self.reboot();
            } else {
                break;
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dimmunix-phone-{tag}-{}", std::process::id()))
    }

    /// The §5 case study, end to end: find a seed where the phone freezes on
    /// the first launch; after a reboot the deadlock is avoided with no user
    /// intervention, and stays avoided.
    #[test]
    fn case_study_freeze_once_then_immune() {
        let dir = temp_dir("case-study");
        let _ = std::fs::remove_dir_all(&dir);

        let mut demonstrated = false;
        for seed in 0..300u64 {
            let dir_seed = dir.join(format!("seed{seed}"));
            let mut phone = Phone::new(Config::default(), &dir_seed);
            phone.set_scheduler_seed(seed);
            phone.install_notification_test_app(NotificationScenario::default());
            let first = phone
                .launch("com.example.notificationtest", 200_000)
                .unwrap();
            if !first.frozen {
                continue; // benign interleaving; try another seed
            }
            assert!(first.deadlocks_detected >= 1);

            // Reboot; the history file persists on "flash".
            phone.reboot();
            let mut later_freezes = 0;
            for _ in 0..5 {
                let report = phone
                    .launch("com.example.notificationtest", 500_000)
                    .unwrap();
                if report.frozen {
                    later_freezes += 1;
                    phone.reboot();
                }
            }
            assert_eq!(
                later_freezes, 0,
                "seed {seed}: the deadlock must never reoccur after the first freeze"
            );
            demonstrated = true;
            break;
        }
        assert!(demonstrated, "the case-study freeze must be reproducible");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vanilla_phone_keeps_freezing() {
        // Without immunity the same seed freezes on every launch.
        let dir = temp_dir("vanilla");
        let _ = std::fs::remove_dir_all(&dir);
        // Find a freezing seed with the immune phone first (detection tells
        // us the interleaving is bad), then replay it on a vanilla phone.
        let mut freezing_seed = None;
        for seed in 0..300u64 {
            let mut phone = Phone::new(Config::default(), dir.join(format!("probe{seed}")));
            phone.set_scheduler_seed(seed);
            phone.install_notification_test_app(NotificationScenario::default());
            let r = phone
                .launch("com.example.notificationtest", 200_000)
                .unwrap();
            if r.frozen {
                freezing_seed = Some(seed);
                break;
            }
        }
        let seed = freezing_seed.expect("a freezing interleaving exists");
        let mut vanilla = Phone::vanilla(dir.join("vanilla"));
        vanilla.set_scheduler_seed(seed);
        vanilla.install_notification_test_app(NotificationScenario::default());
        for _ in 0..2 {
            let r = vanilla
                .launch("com.example.notificationtest", 200_000)
                .unwrap();
            assert!(r.frozen, "the vanilla platform has no immunity");
            assert_eq!(r.deadlocks_detected, 0, "and no detection either");
            vanilla.reboot();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn launch_until_immune_reports_at_most_one_freeze_per_signature() {
        let dir = temp_dir("until-immune");
        let _ = std::fs::remove_dir_all(&dir);
        for seed in 0..300u64 {
            let mut phone = Phone::new(Config::default(), dir.join(format!("s{seed}")));
            phone.set_scheduler_seed(seed);
            phone.install_notification_test_app(NotificationScenario::default());
            let reports = phone.launch_until_immune("com.example.notificationtest", 6, 300_000);
            let freezes = reports.iter().filter(|r| r.frozen).count();
            if freezes == 0 {
                continue;
            }
            assert!(
                freezes <= 1,
                "seed {seed}: one signature suffices for this bug, got {freezes} freezes"
            );
            assert!(!reports.last().unwrap().frozen);
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
        panic!("no freezing seed found");
    }
}
