//! The schedule fuzzer, end to end: break every catalog scenario, shrink
//! the evidence, prove the vaccine.
//!
//! For each scenario in the simulator's catalog this example runs a
//! bounded, fully deterministic fuzzing campaign in **virtual time** —
//! thousands of schedules per second, no real threads, no timeouts — and
//! for every distinct deadlock found it:
//!
//! 1. prints the schedule trace hash (seed + hash replays the run exactly),
//! 2. shrinks the decision trace to a minimal reproducer,
//! 3. replays the minimized schedule with the learned history seeded and
//!    shows it completing with zero deadlocks — immunity, not luck.
//!
//! Scenarios where nothing is ever found are reported too: the
//! writer-preference-gap workload deadlocks only in the lock *queuing
//! policy*, which the engine cannot see (a known gap; see ROADMAP.md) —
//! its runs complete through the simulator's fail-safe back-out instead.
//!
//! The same campaign then runs over the paper's §5 case study: the
//! notification/status-bar program of the Dalvik model, lowered to a
//! scenario (not a catalog member, so its traces are not saved).
//!
//! Run with: `cargo run --example schedule_fuzzer`
//!
//! Pass `--save <dir>` to also write each minimized trace into `<dir>` in
//! the regression-corpus format — this is how `corpus/` at the repository
//! root is (re)generated.

use dimmunix::android::NotificationScenario;
use dimmunix::sim::corpus::save_trace;
use dimmunix::sim::{catalog, fuzz, vaccinate, FuzzConfig, RunOutcome, Scenario};
use std::path::{Path, PathBuf};

/// One fixed master seed per campaign: same binary, same output, always.
const CAMPAIGN_SEED: u64 = 0xd1b0_5eed;
/// Schedules per scenario — small enough to finish in seconds, large
/// enough to corner every lock-order bug in the catalog.
const RUNS_PER_SCENARIO: usize = 6000;

fn main() {
    let save_dir: Option<PathBuf> = {
        let mut args = std::env::args().skip(1);
        match args.next().as_deref() {
            Some("--save") => Some(PathBuf::from(
                args.next().expect("--save requires a directory"),
            )),
            Some(other) => panic!("unknown argument {other:?} (expected --save <dir>)"),
            None => None,
        }
    };
    if let Some(dir) = &save_dir {
        std::fs::create_dir_all(dir).expect("create corpus directory");
    }

    println!("=== dimmunix-sim schedule fuzzer ===\n");
    let mut total_runs = 0usize;
    let mut total_found = 0usize;
    for scenario in catalog() {
        let (runs, found) = campaign(&scenario, save_dir.as_deref());
        total_runs += runs;
        total_found += found;
    }
    // The corpus resolves scenarios by catalog name, so the lowered case
    // study's traces are printed, not saved.
    let (runs, found) = campaign(&NotificationScenario::default().scenario(), None);
    total_runs += runs;
    total_found += found;

    println!(
        "=== {total_runs} schedules explored, {total_found} distinct deadlocks found, \
         minimized, and immunized ==="
    );
}

/// One campaign over `scenario`; returns (schedules run, deadlocks found).
fn campaign(scenario: &Scenario, save_dir: Option<&Path>) -> (usize, usize) {
    let cfg = FuzzConfig::new(CAMPAIGN_SEED, RUNS_PER_SCENARIO);
    let start = std::time::Instant::now();
    let report = fuzz(scenario, &cfg);
    let elapsed = start.elapsed();

    let rate = report.runs_executed as f64 / elapsed.as_secs_f64();
    println!(
        "{:<24} {:>5} runs ({:>5} distinct) in {:>6.0?} — {:>8.0} schedules/s",
        scenario.name, report.runs_executed, report.distinct_schedules, elapsed, rate
    );
    println!(
        "{:<24} completed {} / stalled {} / fuel-exhausted {}",
        "", report.completed, report.stalled, report.fuel_exhausted
    );

    if report.found.is_empty() {
        println!(
            "{:<24} no engine-visible deadlock (fail-safe territory)\n",
            ""
        );
    }
    for found in &report.found {
        println!(
            "{:<24} DEADLOCK seed={:#x} hash={:#018x} ({} decisions)",
            "",
            found.trace.seed,
            found.trace.sched_trace_hash,
            found.trace.decisions.len()
        );
        println!(
            "{:<24}   shrunk to {} decisions, hash={:#018x}",
            "",
            found.minimized.decisions.len(),
            found.minimized.sched_trace_hash
        );

        // The vaccine: replay the exact minimized schedule with the
        // learned history seeded, folding in any signature the
        // reshuffled schedule newly exposes (incremental immunization).
        let (immune, rounds) = vaccinate(scenario, &found.history_text, &found.minimized, 8);
        assert_eq!(immune.outcome, RunOutcome::Completed);
        assert_eq!(immune.stats.deadlocks_detected, 0);
        println!(
            "{:<24}   immune replay: {:?}, deadlocks=0, yields={}, extra vaccines={}",
            "", immune.outcome, immune.stats.yields, rounds
        );

        if let Some(dir) = save_dir {
            let name = save_trace(dir, &found.minimized).expect("write trace");
            println!("{:<24}   saved {}", "", name);
        }
    }
    if !report.found.is_empty() {
        println!();
    }
    (report.runs_executed, report.found.len())
}
