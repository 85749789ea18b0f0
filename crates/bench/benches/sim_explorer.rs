//! Bench + regression report for the schedule-exploration engine.
//!
//! Three phases, all deterministic (fixed seeds, virtual time):
//!
//! 1. **Exploration rate** — 50k random schedules of the smallest catalog
//!    scenario through one reused driver; this is the figure that makes
//!    virtual-time fuzzing viable in CI (schedules/second, gated ≥ 100k).
//! 2. **Discovery** — a bounded fuzzing budget over the deadlock-prone
//!    catalog scenarios and the §5 case study (the notification/status-bar
//!    program, lowered from the Dalvik model); every distinct find must
//!    shrink to a minimized trace that reproduces on a fresh driver, and
//!    vaccination (immune replay, folding in newly exposed signatures)
//!    must converge to a completed schedule with zero detections.
//! 3. **Corpus** — full replay of the checked-in `corpus/*.trace`
//!    regression traces.
//!
//! Writes `BENCH_sim_explorer.json`; `check_bench` gates the rate, the
//! find/minimize counts, corpus cleanliness, and immune-replay deadlocks.

use dimmunix_bench::android::NotificationScenario;
use dimmunix_bench::report::{repo_root, write_bench_json, BenchJson};
use dimmunix_core::History;
use dimmunix_sim::corpus::{replay_all, replay_on};
use dimmunix_sim::scenario::{async_server, bank_transfer, dining_philosophers};
use dimmunix_sim::{fuzz_with_driver, vaccinate, FuzzConfig, MonoDriver, RunOutcome};
use std::time::Instant;

const RATE_RUNS: usize = 50_000;
const DISCOVERY_RUNS: usize = 6_000;
const SEED: u64 = 0x5eed_f02c_0001;

fn main() {
    // Phase 1: raw exploration rate, reused driver, no event recording.
    let rate_scenario = dining_philosophers(2, 1);
    let mut driver = MonoDriver::new(&rate_scenario, History::new());
    let cfg = FuzzConfig::new(SEED, RATE_RUNS);
    let start = Instant::now();
    let rate_report = fuzz_with_driver(&mut driver, &rate_scenario, &cfg);
    let elapsed = start.elapsed();
    let schedules_per_sec = rate_report.runs_executed as f64 / elapsed.as_secs_f64();
    println!(
        "exploration rate: {} schedules in {elapsed:.0?} — {schedules_per_sec:.0}/s \
         ({} distinct)",
        rate_report.runs_executed, rate_report.distinct_schedules
    );

    // Phase 2: discovery over the deadlock-prone scenarios.
    let mut found = 0u64;
    let mut minimized = 0u64;
    let mut immune_replay_deadlocks = 0u64;
    let mut discovery_runs = 0usize;
    for scenario in [
        dining_philosophers(3, 1),
        dining_philosophers(5, 1),
        bank_transfer(3, 4, 3, 0xb0ba),
        async_server(6, 3, 3, 0xa51c),
        NotificationScenario::default().scenario(),
    ] {
        let mut driver = MonoDriver::new(&scenario, History::new());
        let cfg = FuzzConfig::new(SEED, DISCOVERY_RUNS);
        let report = fuzz_with_driver(&mut driver, &scenario, &cfg);
        discovery_runs += report.runs_executed;
        for f in &report.found {
            found += 1;
            // A minimized trace must reproduce its deadlock at the pinned
            // hash on a completely fresh driver.
            match replay_on(&scenario, &f.minimized) {
                None => minimized += 1,
                Some(err) => eprintln!("{}: minimized trace broken: {err}", scenario.name),
            }
            // Vaccination converges: the final replay completes.
            let (immune, rounds) = vaccinate(&scenario, &f.history_text, &f.minimized, 8);
            immune_replay_deadlocks += immune.stats.deadlocks_detected;
            if immune.outcome != RunOutcome::Completed {
                eprintln!(
                    "{}: vaccination did not converge ({:?} after {rounds} rounds)",
                    scenario.name, immune.outcome
                );
                immune_replay_deadlocks += 1;
            }
        }
        println!(
            "{:<24} {} runs, {} distinct deadlocks found and minimized",
            scenario.name,
            report.runs_executed,
            report.found.len()
        );
    }

    // Phase 3: the checked-in regression corpus replays clean.
    let corpus = replay_all(&repo_root().join("corpus")).expect("corpus directory readable");
    for f in &corpus.failures {
        eprintln!("corpus failure: {f}");
    }
    println!(
        "corpus: {} traces replayed, {} failures",
        corpus.replayed,
        corpus.failures.len()
    );

    let report = BenchJson::new()
        .str("bench", "sim_explorer")
        .int("rate_runs", rate_report.runs_executed as u64)
        .int("discovery_runs", discovery_runs as u64)
        .num("schedules_per_sec", schedules_per_sec)
        .int("deadlocks_found", found)
        .int("deadlocks_minimized", minimized)
        .int("unminimized", found - minimized)
        .int("immune_replay_deadlocks", immune_replay_deadlocks)
        .int("corpus_replayed", corpus.replayed as u64)
        .int("corpus_failures", corpus.failures.len() as u64);
    let path = write_bench_json("sim_explorer", &report).expect("write bench report");
    println!("report: {}", path.display());
}
