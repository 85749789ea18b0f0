//! A simulated Dalvik process: a program, a scheduler seed, and a
//! per-process Dimmunix instance.
//!
//! Every process owns its own [`Dimmunix`] engine (platform-wide immunity is
//! user-space and therefore per-process, §3.1). A process does not schedule
//! its threads itself: its program is [lowered](crate::lower()) to a
//! `dimmunix-sim` scenario and [`Process::run`] executes one seeded schedule
//! of it on the explorer, which calls the engine's three hooks at
//! `monitorenter` / `monitorexit` / `wait` exactly where the paper modifies
//! Dalvik's `lockMonitor`, `unlockMonitor` and `waitMonitor` routines (§4).

use crate::lower::lower;
use crate::program::{MethodId, Program};
use dimmunix_core::{Config, Dimmunix, History, ProcessId};
use dimmunix_sim::{
    run_schedule, DecisionSource, MonoDriver, RunOutcome, RunReport, Scenario, SimConfig,
};
use dimmunix_testkit::Gen;

/// Bytes the integration code adds per thread (the `stackBuffer` field, §4).
pub const STACK_BUFFER_BYTES: usize = 512;
/// Bytes the integration code adds per inflated monitor (the embedded RAG
/// node, §4).
pub const MONITOR_NODE_BYTES: usize = 64;
/// Plain VM bookkeeping per thread (id, name, frames, state, counters).
const THREAD_BYTES: usize = 112;
/// Plain VM bookkeeping per inflated monitor (owner, recursion, wait set).
const MONITOR_BYTES: usize = 48;

/// Aggregate counters of one simulated process run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Completed monitor acquisitions across all threads.
    pub syncs: u64,
    /// Busy cycles executed across all threads.
    pub cycles: u64,
    /// Deadlocks detected by Dimmunix in this run.
    pub deadlocks_detected: u64,
    /// Avoidance parks observed.
    pub yields: u64,
    /// Scheduler steps (ops) executed.
    pub steps: u64,
}

/// Builder for a [`Process`].
#[derive(Debug, Clone)]
pub struct ProcessBuilder {
    name: String,
    pid: ProcessId,
    program: Program,
    config: Config,
    history: Option<History>,
    seed: u64,
    baseline_bytes: usize,
}

impl ProcessBuilder {
    /// Starts a builder for a process running `program`.
    pub fn new(name: impl Into<String>, program: Program) -> Self {
        ProcessBuilder {
            name: name.into(),
            pid: ProcessId::new(0),
            program,
            config: Config::default(),
            history: None,
            seed: 0,
            baseline_bytes: 8 * 1024 * 1024,
        }
    }

    /// Sets the process id.
    pub fn pid(mut self, pid: ProcessId) -> Self {
        self.pid = pid;
        self
    }

    /// Sets the Dimmunix configuration for this process.
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Seeds the schedule: the same program and seed always interleave the
    /// same way.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pre-loads a deadlock history (antibodies) instead of reading it from
    /// the configured path.
    pub fn history(mut self, history: History) -> Self {
        self.history = Some(history);
        self
    }

    /// Sets the baseline (non-Dimmunix) memory footprint used by the memory
    /// model, in bytes.
    pub fn baseline_bytes(mut self, bytes: usize) -> Self {
        self.baseline_bytes = bytes;
        self
    }

    /// Builds the process with its main thread at `entry`.
    ///
    /// # Panics
    /// If the program has no finite lowering (see
    /// [`LowerError`](crate::LowerError)).
    pub fn spawn_main(self, entry: MethodId) -> Process {
        let scenario = lower(&self.name, &self.program, entry)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name));
        let engine = match self.history {
            Some(h) => Dimmunix::with_history(self.config, h),
            None => Dimmunix::new(self.config),
        };
        Process {
            pid: self.pid,
            driver: MonoDriver::from_engine(&scenario, engine),
            scenario,
            seed: self.seed,
            baseline_bytes: self.baseline_bytes,
            last_run: None,
        }
    }
}

/// A simulated Dalvik process with platform-provided deadlock immunity.
#[derive(Debug)]
pub struct Process {
    pid: ProcessId,
    scenario: Scenario,
    driver: MonoDriver,
    seed: u64,
    baseline_bytes: usize,
    last_run: Option<RunReport>,
}

impl Process {
    /// The process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The process (application) name.
    pub fn name(&self) -> &str {
        &self.scenario.name
    }

    /// The per-process Dimmunix engine.
    pub fn engine(&self) -> &Dimmunix {
        self.driver.engine()
    }

    /// The lowered program: what the explorer runs, fuzzes and shrinks.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The explorer's report of the last [`run`](Process::run) — trace
    /// hash, recorded decisions, history text.
    pub fn last_run(&self) -> Option<&RunReport> {
        self.last_run.as_ref()
    }

    /// Threads of the process: the main thread plus every spawn statement
    /// of the program.
    pub fn thread_count(&self) -> usize {
        self.scenario.tasks.len()
    }

    /// CPU time of the last run on the one simulated core: busy cycles plus
    /// one unit per executed op. (The explorer's own clock only carries
    /// `wait` deadlines.)
    pub fn virtual_time(&self) -> u64 {
        let stats = self.stats();
        stats.cycles + stats.steps
    }

    /// Aggregated run statistics.
    pub fn stats(&self) -> ProcessStats {
        let engine = self.engine().stats();
        ProcessStats {
            syncs: engine.acquisitions,
            cycles: self.last_run.as_ref().map_or(0, |r| r.work_units),
            deadlocks_detected: engine.deadlocks_detected,
            yields: engine.yields,
            steps: self.last_run.as_ref().map_or(0, |r| r.executed_ops as u64),
        }
    }

    /// Estimated memory footprint in bytes *without* Dimmunix (the vanilla
    /// platform): the configured baseline plus plain thread/monitor state.
    pub fn memory_vanilla_bytes(&self) -> usize {
        self.baseline_bytes
            + self.thread_count() * THREAD_BYTES
            + self.scenario.locks * MONITOR_BYTES
    }

    /// Estimated memory footprint in bytes *with* Dimmunix: vanilla plus the
    /// engine's structures, the per-thread stack buffers, and the per-monitor
    /// RAG nodes (§4).
    pub fn memory_dimmunix_bytes(&self) -> usize {
        self.memory_vanilla_bytes()
            + self.engine().memory_footprint_bytes()
            + self.thread_count() * STACK_BUFFER_BYTES
            + self.scenario.locks * MONITOR_NODE_BYTES
    }

    /// Runs one schedule of the program, chosen by the process seed, from
    /// the start: to completion, a freeze (a detected deadlock ends the run;
    /// a stall is a freeze no detection explains), or `max_steps` executed
    /// ops. Anything but [`RunOutcome::Completed`] is a frozen process.
    pub fn run(&mut self, max_steps: u64) -> RunOutcome {
        let cfg = SimConfig {
            fuel: usize::try_from(max_steps).unwrap_or(usize::MAX),
            ..SimConfig::for_scenario(&self.scenario)
        };
        let mut source = DecisionSource::random(Gen::new(self.seed));
        let report = run_schedule(&mut self.driver, &self.scenario, &mut source, &cfg);
        let outcome = report.outcome;
        self.last_run = Some(report);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ObjRef, ProgramBuilder};
    use dimmunix_sim::{corpus::replay_on, fuzz, vaccinate, FuzzConfig};

    /// Two workers acquire two locks in opposite order; without immunity the
    /// schedule that interleaves the outer acquisitions deadlocks.
    fn ab_ba_program() -> (Program, MethodId) {
        let a = ObjRef(1);
        let b = ObjRef(2);
        let mut pb = ProgramBuilder::new("abba.java");
        let worker1 = pb
            .method("Worker1.run")
            .sync(a, |body| {
                body.compute(3).sync(b, |inner| {
                    inner.compute(1);
                });
            })
            .finish();
        let worker2 = pb
            .method("Worker2.run")
            .sync(b, |body| {
                body.compute(3).sync(a, |inner| {
                    inner.compute(1);
                });
            })
            .finish();
        let main = pb
            .method("Main.main")
            .spawn(worker1, "w1")
            .spawn(worker2, "w2")
            .finish();
        (pb.build(), main)
    }

    /// The §3.2 example: `t1: sync(x){ sync(y){ x.wait() } }`,
    /// `t2: sync(x){ sync(y){ } }`.
    fn wait_inversion_program() -> (Program, MethodId) {
        let x = ObjRef(1);
        let y = ObjRef(2);
        let mut pb = ProgramBuilder::new("inversion.java");
        let t1 = pb
            .method("T1.run")
            .sync(x, |body| {
                body.sync(y, |inner| {
                    inner.wait(x, Some(3));
                });
            })
            .finish();
        let t2 = pb
            .method("T2.run")
            .compute(2)
            .sync(x, |body| {
                body.compute(30).sync(y, |inner| {
                    inner.compute(1);
                });
            })
            .finish();
        let main = pb
            .method("Main.main")
            .spawn(t1, "t1")
            .spawn(t2, "t2")
            .finish();
        (pb.build(), main)
    }

    fn find_deadlocking_seed(history: Option<History>) -> Option<(u64, Process)> {
        for seed in 0..200u64 {
            let (program, main) = ab_ba_program();
            let mut builder = ProcessBuilder::new("abba", program).seed(seed);
            if let Some(h) = &history {
                builder = builder.history(h.clone());
            }
            let mut p = builder.spawn_main(main);
            let outcome = p.run(10_000);
            if p.stats().deadlocks_detected > 0 || outcome == RunOutcome::Stalled {
                return Some((seed, p));
            }
        }
        None
    }

    #[test]
    fn simple_program_completes() {
        let mut pb = ProgramBuilder::new("simple.java");
        let m = pb
            .method("Main.main")
            .sync(ObjRef(1), |body| {
                body.compute(10);
            })
            .compute(5)
            .finish();
        let mut p = ProcessBuilder::new("simple", pb.build()).spawn_main(m);
        assert_eq!(p.run(1000), RunOutcome::Completed);
        assert_eq!(p.stats().syncs, 1);
        assert!(p.engine().history().is_empty());
    }

    #[test]
    fn reentrant_sync_blocks_complete() {
        let mut pb = ProgramBuilder::new("reentrant.java");
        let m = pb
            .method("Main.main")
            .sync(ObjRef(1), |body| {
                body.sync(ObjRef(1), |inner| {
                    inner.compute(1);
                });
            })
            .finish();
        let mut p = ProcessBuilder::new("reentrant", pb.build()).spawn_main(m);
        assert_eq!(p.run(1000), RunOutcome::Completed);
        assert_eq!(p.stats().syncs, 2);
    }

    #[test]
    fn ab_ba_deadlocks_without_history_and_is_detected() {
        let (seed, p) = find_deadlocking_seed(None).expect("some seed must deadlock");
        assert!(p.stats().deadlocks_detected >= 1, "seed {seed}");
        let frozen = p.last_run().expect("ran").outcome;
        assert!(matches!(frozen, RunOutcome::Deadlock { .. }), "{frozen:?}");
        assert_eq!(p.engine().history().len(), 1);
    }

    #[test]
    fn ab_ba_is_avoided_with_history() {
        // First run: find a deadlocking schedule and capture the antibody.
        let (seed, trained) = find_deadlocking_seed(None).expect("some seed must deadlock");
        let history = trained.engine().history().clone();
        // Second run ("after reboot"): same program, same schedule seed, with
        // the antibody loaded — it must complete.
        let (program, main) = ab_ba_program();
        let mut p = ProcessBuilder::new("abba", program)
            .seed(seed)
            .history(history)
            .spawn_main(main);
        let outcome = p.run(100_000);
        assert_eq!(outcome, RunOutcome::Completed, "stats: {:?}", p.stats());
        assert_eq!(p.stats().deadlocks_detected, 0);
        assert_eq!(p.stats().syncs, 4, "all four critical sections executed");
    }

    #[test]
    fn every_seed_completes_with_history() {
        let (_, trained) = find_deadlocking_seed(None).expect("some seed must deadlock");
        let history = trained.engine().history().clone();
        let (mut steps, mut yields) = (0, 0);
        for seed in 0..40u64 {
            let (program, main) = ab_ba_program();
            let mut p = ProcessBuilder::new("abba", program)
                .seed(seed)
                .history(history.clone())
                .spawn_main(main);
            let outcome = p.run(200_000);
            assert_eq!(
                outcome,
                RunOutcome::Completed,
                "seed {seed}: {:?}",
                p.stats()
            );
            assert_eq!(p.stats().deadlocks_detected, 0, "seed {seed}");
            steps += p.stats().steps;
            yields += p.stats().yields;
        }
        // Seed replay: these 40 schedules are pinned, so a change to the
        // scheduler's random stream shows up here. (PR 16 moved the program
        // onto dimmunix-sim's scheduler; the old one read (716, 36).)
        assert_eq!((steps, yields), (591, 31));
    }

    #[test]
    fn wait_notify_roundtrip_completes() {
        let flag = ObjRef(9);
        let mut pb = ProgramBuilder::new("waitnotify.java");
        let waiter = pb
            .method("Waiter.run")
            .sync(flag, |body| {
                body.wait(flag, Some(50));
            })
            .finish();
        let notifier = pb
            .method("Notifier.run")
            .compute(5)
            .sync(flag, |body| {
                body.notify_all(flag);
            })
            .finish();
        let main = pb
            .method("Main.main")
            .spawn(waiter, "waiter")
            .spawn(notifier, "notifier")
            .finish();
        let mut p = ProcessBuilder::new("waitnotify", pb.build())
            .seed(3)
            .spawn_main(main);
        assert_eq!(p.run(100_000), RunOutcome::Completed);
    }

    #[test]
    fn wait_induced_lock_inversion_deadlock_is_detected_then_avoided() {
        // The §3.2 example: t1: sync(x){ sync(y){ x.wait() } }
        //                   t2: sync(x){ sync(y){ notify-free } }
        // When t1's wait times out it must reacquire x while holding y; if t2
        // holds x and wants y, they deadlock. The reacquisition is visible to
        // Dimmunix, so the deadlock is detected and subsequently avoided.
        let build = wait_inversion_program;

        // Search for a seed where the inversion bites on the first run and
        // the antibody then steers the replay of the same seed to
        // completion. (For some interleavings — the blocked thread reaches
        // its outer position before the lock holder does — avoidance would
        // starve the holder and Dimmunix deliberately lets the thread
        // through, so not every deadlocking seed is avoidable; the paper's
        // scenario, where the inversion happens after both locks are held,
        // is, and must be found here.)
        let mut demonstrated = false;
        let mut saw_detection = false;
        for seed in 0..400u64 {
            let (program, main) = build();
            let mut trainer = ProcessBuilder::new("inversion", program)
                .seed(seed)
                .spawn_main(main);
            let _ = trainer.run(50_000);
            if trainer.stats().deadlocks_detected == 0 {
                continue;
            }
            saw_detection = true;
            let history = trainer.engine().history().clone();
            let (program, main) = build();
            let mut replay = ProcessBuilder::new("inversion", program)
                .seed(seed)
                .history(history)
                .spawn_main(main);
            let outcome = replay.run(500_000);
            if outcome == RunOutcome::Completed && replay.stats().deadlocks_detected == 0 {
                assert!(
                    replay.stats().yields > 0 || replay.stats().syncs >= 5,
                    "avoidance (or a benign schedule) must explain the completion"
                );
                demonstrated = true;
                break;
            }
        }
        assert!(
            saw_detection,
            "the wait-induced deadlock must be reproducible"
        );
        assert!(
            demonstrated,
            "some deadlocking schedule must be avoided on replay with the antibody"
        );
    }

    #[test]
    fn memory_model_charges_dimmunix_structures() {
        let (program, main) = ab_ba_program();
        let mut p = ProcessBuilder::new("abba", program)
            .baseline_bytes(10 * 1024 * 1024)
            .spawn_main(main);
        let _ = p.run(10_000);
        let vanilla = p.memory_vanilla_bytes();
        let with = p.memory_dimmunix_bytes();
        assert!(with > vanilla);
        let overhead = (with - vanilla) as f64 / vanilla as f64;
        assert!(
            overhead < 0.10,
            "dimmunix overhead should be a few percent, got {overhead}"
        );
    }

    #[test]
    fn stats_track_steps_and_cycles() {
        let mut pb = ProgramBuilder::new("s.java");
        let m = pb.method("Main.main").compute(100).compute(50).finish();
        let mut p = ProcessBuilder::new("s", pb.build()).spawn_main(m);
        assert_eq!(p.run(100), RunOutcome::Completed);
        let stats = p.stats();
        assert_eq!(stats.cycles, 150);
        assert!(stats.steps >= 2);
        assert!(p.virtual_time() >= 150);
    }

    /// Java's monitor-state rules, on the lowered form: `wait`/`notify` on
    /// a monitor the thread does not own are skipped (where Java throws
    /// `IllegalMonitorStateException`), not executed.
    #[test]
    fn wait_and_notify_without_the_monitor_are_skipped() {
        let mut pb = ProgramBuilder::new("illegal.java");
        let m = pb
            .method("Main.main")
            .wait(ObjRef(1), None)
            .notify(ObjRef(1))
            .sync(ObjRef(2), |body| {
                body.wait(ObjRef(1), None).notify_all(ObjRef(1));
            })
            .finish();
        let mut p = ProcessBuilder::new("illegal", pb.build()).spawn_main(m);
        // An executed untimed wait nobody notifies would stall the run.
        assert_eq!(p.run(1000), RunOutcome::Completed);
        assert_eq!(p.stats().syncs, 1);
        assert_eq!(p.engine().stats().releases, 1);
    }

    /// `sync(x){ sync(x){ x.wait() } }`: two syncs on the way in but one
    /// engine hold; the wait releases both levels and the reacquisition
    /// restores both, so the two exits that follow balance.
    #[test]
    fn wait_releases_and_restores_the_recursion_depth() {
        let x = ObjRef(1);
        let mut pb = ProgramBuilder::new("depth.java");
        let waiter = pb
            .method("Waiter.run")
            .sync(x, |body| {
                body.sync(x, |inner| {
                    inner.wait(x, Some(100)).compute(1);
                });
            })
            .finish();
        let notifier = pb
            .method("Notifier.run")
            .compute(5)
            .sync(x, |body| {
                body.notify(x);
            })
            .finish();
        let main = pb
            .method("Main.main")
            .spawn(waiter, "waiter")
            .spawn(notifier, "notifier")
            .finish();
        for seed in 0..20 {
            let mut p = ProcessBuilder::new("depth", pb.clone().build())
                .seed(seed)
                .spawn_main(main);
            assert_eq!(p.run(1000), RunOutcome::Completed, "seed {seed}");
            let engine = p.engine().stats();
            // Notified, or timed out because the notifier got in first:
            // either way the reacquisition is at depth two.
            assert_eq!(p.stats().syncs, 5, "2 enters + notifier + 2 restored");
            assert_eq!(engine.nested_reentries, 2, "seed {seed}");
            assert_eq!(engine.reentrant_balance(), 0, "seed {seed}");
        }
    }

    /// A lowered program + seed is one schedule: two fresh processes agree
    /// on trace hash, decisions and history text, and replaying the
    /// recorded decisions through the explorer reproduces the run exactly.
    #[test]
    fn lowered_runs_are_deterministic_and_replay_from_their_decisions() {
        for seed in 0..20u64 {
            let launch = || {
                let (program, main) = ab_ba_program();
                let mut p = ProcessBuilder::new("abba", program)
                    .seed(seed)
                    .spawn_main(main);
                p.run(10_000);
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

    /// What the merge buys: the §3.2 wait-inversion program under the
    /// explorer's fuzzer. It finds the reacquisition deadlock, shrinks the
    /// schedule, the minimized trace reproduces at its hash on a fresh
    /// driver, and the vaccinated replay completes.
    #[test]
    fn fuzzer_finds_shrinks_and_vaccinates_the_wait_inversion() {
        let (program, main) = wait_inversion_program();
        let scenario = lower("wait-inversion", &program, main).unwrap();
        let report = fuzz(&scenario, &FuzzConfig::new(0x3_2, 2000));
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
}
