//! The fleet-convergence experiment: collaborative immunity in virtual time.
//!
//! `N` simulated processes run the *same* deadlock-prone program — the
//! [`fleet_inversion`] scenario — each compiled independently, so each
//! process sees the same code at different absolute line numbers. Process 0
//! pays the first-occurrence cost: a schedule that closes the cycle, one
//! detection, one learned signature. Its history is exported as an antibody
//! pack and offered to every other process, which screens the foreign
//! signature through the [`PendingSet`] trust gate (activation only after
//! its own site stacks vouch for the outer keys) and then replays the same
//! adversarial schedule.
//!
//! Convergence means: every other process completes that schedule with
//! **zero** detections — the fleet-wide deadlock count stays at one — and
//! the contribution packs of all processes merge back to a single entry,
//! because stable fingerprints identify the bug across compilations.

use crate::scenario::fleet_inversion;
use crate::sim::{run_schedule, DecisionSource, MonoDriver, RunOutcome, SimConfig};
use crate::trace::ScheduleTrace;
use dimmunix_core::History;
use dimmunix_exchange::{Pack, PendingSet};
use dimmunix_testkit::Gen;

/// What one [`fleet_convergence`] experiment produced.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Simulated processes in the fleet.
    pub processes: usize,
    /// Detections across the whole fleet (converged fleets pay exactly 1).
    pub detections_total: u32,
    /// Detections hit by pack importers replaying the adversarial schedule
    /// (0 when the exchange works).
    pub deadlocks_after_exchange: u32,
    /// Detections a control process (no pack) hits on the same schedule —
    /// the counterfactual showing the exchange is load-bearing.
    pub control_deadlocks: u32,
    /// Every importer completed the adversarial schedule.
    pub converged: bool,
    /// Foreign antibodies activated through the trust gate, fleet-wide
    /// (one per importing process here).
    pub activated_total: usize,
    /// Entries in the union of every process's contribution pack. Stable
    /// fingerprints collapse the same bug across compilations, so a
    /// converged fleet merges to exactly 1.
    pub merged_pack_entries: usize,
    /// Decisions of the adversarial schedule process 0 found.
    pub schedule_decisions: usize,
    /// Random schedules process 0 burned before hitting the deadlock.
    pub schedules_to_first_detection: usize,
}

/// Runs the fleet-convergence experiment with `processes` members.
///
/// Deterministic by `seed`: the same seed explores the same schedules and
/// produces the same report. Panics (test/bench context) if process 0
/// cannot find a deadlocking schedule within its budget — the inversion
/// scenario deadlocks within a handful of random schedules in practice.
pub fn fleet_convergence(processes: usize, seed: u64) -> FleetReport {
    assert!(processes >= 2, "a fleet needs an exporter and an importer");
    // One independently "compiled" build per process: same program, lines
    // shifted by 100 per member.
    let builds: Vec<_> = (0..processes)
        .map(|i| fleet_inversion(i as u32 * 100))
        .collect();

    // Process 0 pays the first-occurrence cost.
    let cfg = SimConfig::for_scenario(&builds[0]);
    let mut master = Gen::new(seed);
    let mut first = None;
    let mut schedules = 0usize;
    for _ in 0..256 {
        schedules += 1;
        let mut driver = MonoDriver::new(&builds[0], History::new());
        let mut source = DecisionSource::random(Gen::new(master.next_u64()));
        let report = run_schedule(&mut driver, &builds[0], &mut source, &cfg);
        if matches!(report.outcome, RunOutcome::Deadlock { .. }) {
            first = Some(report);
            break;
        }
    }
    let first = first.expect("the inversion deadlocks within the schedule budget");
    let mut detections_total = first.deadlocks;

    // Export: process 0's learned history becomes the fleet pack.
    let h0 = History::from_text(&first.history_text).expect("learned history parses");
    let mut pack = Pack::new(builds[0].name.clone());
    for (_, sig) in h0.iter() {
        pack.add(sig.clone(), 1);
    }

    // Control: the same adversarial schedule without the pack deadlocks.
    let control_trace = |scenario_name: &str| ScheduleTrace {
        scenario: scenario_name.to_string(),
        seed,
        sched_trace_hash: first.sched_trace_hash,
        decisions: first.decisions.clone(),
    };
    let control = {
        let mut driver = MonoDriver::new(&builds[1], History::new());
        let mut source = DecisionSource::replay(control_trace(&builds[1].name).decisions);
        run_schedule(&mut driver, &builds[1], &mut source, &cfg)
    };

    // Import + gated activation + replay on every other process.
    let mut deadlocks_after_exchange = 0u32;
    let mut converged = true;
    let mut activated_total = 0usize;
    let mut merged = pack.clone();
    for build in &builds[1..] {
        let mut pending = PendingSet::new();
        let mut history = History::new();
        for (_, entry) in pack.entries() {
            for antibody in pending.admit(entry.signature.clone(), entry.detections) {
                activated_total += 1;
                history.add(antibody.signature);
            }
        }
        // The trust gate only releases the antibody once this build's own
        // positions (its site stacks, at *its* line numbers) vouch for
        // every outer site key.
        for stack in &build.sites {
            for antibody in pending.observe_position(stack) {
                activated_total += 1;
                history.add(antibody.signature);
            }
        }
        assert!(
            pending.is_empty(),
            "{}: antibody failed to activate against local sites",
            build.name
        );

        let mut driver = MonoDriver::new(build, history);
        let mut source = DecisionSource::replay(first.decisions.clone());
        let report = run_schedule(&mut driver, build, &mut source, &cfg);
        detections_total += report.deadlocks;
        deadlocks_after_exchange += report.deadlocks;
        converged &= report.outcome == RunOutcome::Completed;

        // Contribute back: this process's full history as a pack; stable
        // fingerprints must collapse it into the fleet's single entry.
        let h = History::from_text(&report.history_text).expect("replay history parses");
        let mut contribution = Pack::new(build.name.clone());
        for (_, sig) in h.iter() {
            contribution.add(sig.clone(), 1);
        }
        merged.merge(&contribution);
    }

    FleetReport {
        processes,
        detections_total,
        deadlocks_after_exchange,
        control_deadlocks: control.deadlocks,
        converged,
        activated_total,
        merged_pack_entries: merged.len(),
        schedule_decisions: first.decisions.len(),
        schedules_to_first_detection: schedules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline property: an N-process fleet pays the first-occurrence
    /// cost once, every importer avoids on its first encounter, and the
    /// merged contribution packs collapse to one entry — across simulated
    /// recompilations (per-process line shifts).
    #[test]
    fn fleet_converges_with_a_single_detection() {
        let report = fleet_convergence(4, 0xf1ee7);
        assert_eq!(report.processes, 4);
        assert_eq!(report.detections_total, 1, "{report:?}");
        assert_eq!(report.deadlocks_after_exchange, 0, "{report:?}");
        assert!(report.converged, "{report:?}");
        assert_eq!(report.activated_total, 3, "one antibody per importer");
        assert_eq!(report.merged_pack_entries, 1, "{report:?}");
        // The counterfactual: without the pack, the same schedule bites.
        assert!(report.control_deadlocks >= 1, "{report:?}");
    }

    #[test]
    fn fleet_experiment_is_deterministic() {
        let a = fleet_convergence(3, 42);
        let b = fleet_convergence(3, 42);
        assert_eq!(a.detections_total, b.detections_total);
        assert_eq!(a.schedule_decisions, b.schedule_decisions);
        assert_eq!(
            a.schedules_to_first_detection,
            b.schedules_to_first_detection
        );
    }
}
