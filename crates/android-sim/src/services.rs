//! Simulated Android system services, including the issue-7986 deadlock.
//!
//! The paper reproduces a real Android bug (issue id 7986): a thread posting
//! a notification runs `NotificationManagerService.enqueueNotificationWithTag`,
//! which takes the notification manager's monitor and then calls into the
//! status bar (taking its monitor); concurrently the status-bar expansion
//! handler `StatusBarService$H.handleMessage` takes the status bar monitor
//! and calls back into the notification manager. Opposite acquisition order
//! on the same two monitors — the whole system-UI freezes when the two
//! threads interleave badly.
//!
//! This module builds that scenario as a [`Program`] for the simulated VM.

use dalvik_sim::{lower, MethodId, ObjRef, Program, ProgramBuilder};
use dimmunix_sim::Scenario;

/// Monitor guarding `NotificationManagerService.mNotificationList`.
pub const NOTIFICATION_MANAGER_LOCK: ObjRef = ObjRef(7001);
/// Monitor guarding `StatusBarService.mBar` / the expanded dialog state.
pub const STATUS_BAR_LOCK: ObjRef = ObjRef(7002);

/// Parameters of the notification/status-bar scenario.
#[derive(Debug, Clone, Copy)]
pub struct NotificationScenario {
    /// How many notifications the app posts.
    pub notifications: u32,
    /// How many times the user expands the status bar.
    pub expansions: u32,
    /// Busy-work cycles inside each critical section.
    pub work: u64,
}

impl Default for NotificationScenario {
    fn default() -> Self {
        NotificationScenario {
            notifications: 3,
            expansions: 3,
            work: 5,
        }
    }
}

impl NotificationScenario {
    /// Builds the scenario program. Returns the program and the entry method
    /// (the "small Android application" of §5 whose two threads exercise the
    /// two services concurrently).
    pub fn build(&self) -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new("frameworks/base/services/java/StatusBar.java");

        // NotificationManagerService.enqueueNotificationWithTag:
        //   synchronized (mNotificationList) { ... mStatusBar: synchronized { addNotification } }
        let enqueue = pb
            .method("NotificationManagerService.enqueueNotificationWithTag")
            .sync(NOTIFICATION_MANAGER_LOCK, |body| {
                body.compute(self.work).sync(STATUS_BAR_LOCK, |inner| {
                    inner.compute(self.work);
                });
            })
            .finish();

        // StatusBarService$H.handleMessage (expand):
        //   synchronized (mBar) { ... mNotificationCallbacks: synchronized { ... } }
        let handle_message = pb
            .method("StatusBarService$H.handleMessage")
            .sync(STATUS_BAR_LOCK, |body| {
                body.compute(self.work)
                    .sync(NOTIFICATION_MANAGER_LOCK, |inner| {
                        inner.compute(self.work);
                    });
            })
            .finish();

        // The notifier thread of the test application: posts notifications.
        let mut notifier = pb.method("TestApp.NotifierThread.run");
        for _ in 0..self.notifications {
            notifier = notifier.compute(1).call(enqueue);
        }
        let notifier = notifier.finish();

        // The UI thread expanding the status bar.
        let mut expander = pb.method("TestApp.StatusBarExpander.run");
        for _ in 0..self.expansions {
            expander = expander.compute(1).call(handle_message);
        }
        let expander = expander.finish();

        let main = pb
            .method("TestApp.main")
            .spawn(notifier, "notifier")
            .spawn(expander, "status-bar-expander")
            .finish();
        (pb.build(), main)
    }
}

impl NotificationScenario {
    /// The case study as an explorer scenario — the program
    /// [lowered](dalvik_sim::lower()) — so it can be fuzzed, shrunk and
    /// replayed by trace hash like any catalog scenario.
    pub fn scenario(&self) -> Scenario {
        let (program, entry) = self.build();
        lower("notification-7986", &program, entry).expect("the program is loop-free")
    }
}

/// Convenience: the default scenario program.
pub fn notification_deadlock_program() -> (Program, MethodId) {
    NotificationScenario::default().build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dalvik_sim::{ProcessBuilder, RunOutcome};
    use dimmunix_core::History;
    use dimmunix_sim::corpus::replay_on;
    use dimmunix_sim::{
        fuzz, run_schedule, vaccinate, DecisionSource, FuzzConfig, MonoDriver, SimConfig,
    };

    #[test]
    fn scenario_has_four_synchronization_sites() {
        let (program, _) = notification_deadlock_program();
        assert_eq!(program.synchronization_site_count(), 4);
        assert!(program
            .method_by_name("NotificationManagerService.enqueueNotificationWithTag")
            .is_some());
        assert!(program
            .method_by_name("StatusBarService$H.handleMessage")
            .is_some());
    }

    #[test]
    fn some_schedule_freezes_the_services() {
        let mut froze = false;
        for seed in 0..300u64 {
            let (program, main) = notification_deadlock_program();
            let mut p = ProcessBuilder::new("system_server", program)
                .seed(seed)
                .spawn_main(main);
            let outcome = p.run(100_000);
            if p.stats().deadlocks_detected > 0 {
                assert_ne!(outcome, RunOutcome::Completed);
                froze = true;
                break;
            }
        }
        assert!(froze, "the lock inversion must be reachable");
    }

    #[test]
    fn benign_schedules_complete() {
        let mut completed = 0;
        for seed in 0..50u64 {
            let (program, main) = notification_deadlock_program();
            let mut p = ProcessBuilder::new("system_server", program)
                .seed(seed)
                .spawn_main(main);
            if p.run(100_000) == RunOutcome::Completed {
                completed += 1;
            }
        }
        assert!(completed > 0, "not every interleaving deadlocks");
    }

    /// The case study under the explorer's fuzzer: it finds the inversion,
    /// shrinks the schedule, the minimized trace reproduces at its hash on
    /// a fresh driver, and the vaccinated replay completes clean.
    #[test]
    fn fuzzer_finds_shrinks_and_vaccinates_the_case_study() {
        let scenario = NotificationScenario::default().scenario();
        // Four synchronization statements, each reached from three call
        // sites: twelve full stacks (four positions at stack depth 1).
        assert_eq!(scenario.sites.len(), 12);
        let report = fuzz(&scenario, &FuzzConfig::new(0x7986, 2000));
        assert!(!report.found.is_empty(), "no deadlock found");
        assert!(report.completed > 0, "benign schedules exist too");
        for f in &report.found {
            assert!(f.minimized.decisions.len() <= f.trace.decisions.len());
            assert_eq!(replay_on(&scenario, &f.minimized), None);
            let (immune, _) = vaccinate(&scenario, &f.history_text, &f.minimized, 8);
            assert_eq!(immune.outcome, RunOutcome::Completed);
            assert_eq!(immune.stats.deadlocks_detected, 0);
        }
    }

    /// A process run *is* an explorer run: same seed, same trace hash,
    /// decisions and history text on two fresh processes, and the recorded
    /// decisions replay the run exactly on the lowered scenario.
    #[test]
    fn process_runs_are_deterministic_and_replay_from_their_decisions() {
        for seed in 0..20u64 {
            let launch = || {
                let (program, main) = notification_deadlock_program();
                let mut p = ProcessBuilder::new("system_server", program)
                    .seed(seed)
                    .spawn_main(main);
                p.run(100_000);
                p
            };
            let (p, q) = (launch(), launch());
            let (a, b) = (p.last_run().unwrap(), q.last_run().unwrap());
            assert_eq!(a.sched_trace_hash, b.sched_trace_hash, "seed {seed}");
            assert_eq!(a.decisions, b.decisions, "seed {seed}");
            assert_eq!(a.history_text, b.history_text, "seed {seed}");

            let scenario = p.scenario();
            let mut driver = MonoDriver::new(scenario, History::new());
            let replay = run_schedule(
                &mut driver,
                scenario,
                &mut DecisionSource::replay(a.decisions.clone()),
                &SimConfig::for_scenario(scenario),
            );
            assert_eq!(replay.sched_trace_hash, a.sched_trace_hash, "seed {seed}");
            assert_eq!(replay.outcome, a.outcome, "seed {seed}");
            assert_eq!(replay.history_text, a.history_text, "seed {seed}");
        }
    }
}
