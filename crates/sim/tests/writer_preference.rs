//! Executable spec of the **writer-preference gap**.
//!
//! See ARCHITECTURE.md, "`ImmuneRwLock` and the multi-owner RAG", for the
//! remaining modeling gap: the engine does not model OS-level writer
//! preference — a new reader held back behind a waiting writer has no
//! reader→writer wait-for edge, so cycles that exist only in the lock
//! *queuing policy* are invisible to detection and can resolve only
//! through the fail-safe retry. The simulator models exactly that queuing
//! policy ([`Scenario::writer_preference`]), which turns the prose gap into
//! an assertion: the cycle completes via fail-safe, with **zero**
//! detections and **zero** avoidance yields — nothing was learned, nothing
//! could be. When the gap is closed (reader→writer edges in the RAG), the
//! `deadlocks_detected == 0` assertion below will fail, and this file
//! should flip into a positive detection test while that section drops the
//! gap.

use dimmunix_core::History;
use dimmunix_sim::scenario::writer_preference_gap;
use dimmunix_sim::{run_schedule, DecisionSource, MonoDriver, RunOutcome, SimConfig};
use dimmunix_testkit::Gen;

/// The deadlocking interleaving stalls silently when the fail-safe is
/// disabled: no runnable task, no detection, no yield — the engine cannot
/// see the cycle at all.
#[test]
fn queuing_policy_cycle_is_invisible_to_detection() {
    let mut scenario = writer_preference_gap();
    scenario.failsafe_budget = 0; // expose the raw stall

    let mut driver = MonoDriver::new(&scenario, History::new());
    let mut cfg = SimConfig::for_scenario(&scenario);
    cfg.record_events = true;

    // The default (lowest-index-first) schedule walks straight into the
    // trap: reader takes the rwlock shared, writer queues exclusive behind
    // it, b-holder's shared re-read parks behind the writer (queuing
    // policy only — the engine granted it), reader blocks on b-holder's
    // mutex.
    let mut src = DecisionSource::replay(Vec::new());
    let run = run_schedule(&mut driver, &scenario, &mut src, &cfg);

    assert_eq!(
        run.outcome,
        RunOutcome::Stalled,
        "events: {:#?}",
        run.events
    );
    // The known gap, pinned: detection saw nothing (shared/shared never
    // conflicts, and there is no reader→writer edge), avoidance had
    // nothing to match, nothing was learned.
    assert_eq!(run.stats.deadlocks_detected, 0);
    assert_eq!(run.stats.yields, 0);
    assert_eq!(run.deadlocks, 0);
    assert!(run.history_text.is_empty(), "no signature may be learned");
}

/// With its fail-safe budget (the scenario default), the same cycle
/// resolves by a back-out/retry — still with zero detections. This is the
/// documented fallback behaviour of the gap.
#[test]
fn cycle_resolves_only_via_failsafe_retry() {
    let scenario = writer_preference_gap();
    let mut driver = MonoDriver::new(&scenario, History::new());
    let cfg = SimConfig::for_scenario(&scenario);

    let mut src = DecisionSource::replay(Vec::new());
    let run = run_schedule(&mut driver, &scenario, &mut src, &cfg);

    assert_eq!(run.outcome, RunOutcome::Completed);
    assert!(run.failsafe_retries > 0, "must have resolved via fail-safe");
    assert_eq!(run.stats.deadlocks_detected, 0);
    assert_eq!(run.deadlocks, 0);
}

/// Across many random schedules the invariant holds globally: the gap
/// scenario NEVER produces an engine detection — every run either
/// completes (often through the fail-safe), or stalls silently when the
/// retried task walks back into the trap and exhausts its budget. A
/// single detection here means the gap was closed and this spec is stale.
#[test]
fn no_schedule_of_the_gap_scenario_is_ever_detected() {
    let scenario = writer_preference_gap();
    let mut driver = MonoDriver::new(&scenario, History::new());
    let cfg = SimConfig::for_scenario(&scenario);

    let mut completed = 0u32;
    let mut stalled = 0u32;
    let mut failsafe_resolutions = 0u32;
    for seed in 0..400u64 {
        let mut src = DecisionSource::random(Gen::new(seed));
        let run = run_schedule(&mut driver, &scenario, &mut src, &cfg);
        assert_eq!(run.deadlocks, 0, "seed {seed}: detection => gap closed");
        assert_eq!(run.stats.deadlocks_detected, 0, "seed {seed}");
        assert!(
            run.history_text.is_empty(),
            "seed {seed}: learned something"
        );
        match run.outcome {
            RunOutcome::Completed => completed += 1,
            RunOutcome::Stalled => stalled += 1,
            other => panic!("seed {seed}: unexpected outcome {other:?}"),
        }
        if run.outcome == RunOutcome::Completed && run.failsafe_retries > 0 {
            failsafe_resolutions += 1;
        }
    }
    // The sweep must actually hit the trap, not just schedule around it —
    // both resolution paths (fail-safe retry, silent budget-exhausted
    // stall) must show up, and most schedules must still complete.
    assert!(
        failsafe_resolutions > 0,
        "no random schedule exercised the queuing-policy cycle"
    );
    assert!(stalled > 0, "budget exhaustion never observed");
    assert!(
        completed > stalled,
        "completed {completed} vs stalled {stalled}"
    );
}
