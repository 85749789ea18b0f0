//! Eviction under detection pressure, end to end through the simulator.
//!
//! The `signature_storm` scenario is built so that every gadget that
//! deadlocks teaches the engine a distinct antibody, and — because the
//! refusal path kills the gadget's tasks — that antibody is never matched
//! again within the run. Driving it against an engine whose
//! `max_signatures` cap is far below the gadget count must therefore push
//! the history through generation-based eviction: the stale antibodies are
//! retired to make room, the engine keeps accepting new ones, and the live
//! set stays at the cap.

use dimmunix_core::{Config, History};
use dimmunix_sim::scenario::signature_storm;
use dimmunix_sim::{
    run_schedule, DecisionSource, EngineHooks, Gen, MonoDriver, OnDeadlock, SimConfig,
};

const CAP: usize = 3;
const GADGETS: usize = 6;

/// One full random schedule of the storm under `Refuse`, fresh engine,
/// capped history. Returns (deadlocks detected, signatures evicted, live).
fn storm_run(seed: u64) -> (u64, u64, usize) {
    let scenario = signature_storm(GADGETS);
    let config = Config::builder()
        .max_signatures(CAP)
        .eviction_window(1)
        .build();
    let mut driver = MonoDriver::with_config(&scenario, config, History::new());
    let mut cfg = SimConfig::for_scenario(&scenario);
    cfg.on_deadlock = OnDeadlock::Refuse;
    let mut source = DecisionSource::random(Gen::new(seed));
    let report = run_schedule(&mut driver, &scenario, &mut source, &cfg);
    (
        report.stats.deadlocks_detected,
        report.stats.signatures_evicted,
        driver.history().len(),
    )
}

/// A detection-heavy run overflows the cap and the engine responds by
/// retiring stale antibodies, not by refusing new ones.
#[test]
fn detection_storm_evicts_stale_antibodies() {
    let mut detected = 0u64;
    let mut evicted = 0u64;
    for seed in 0..4u64 {
        let (d, e, live) = storm_run(0x570_2a11 + seed);
        detected += d;
        evicted += e;
        // Eviction always finds a candidate here (dead gadgets never
        // refresh their antibody), so the live set never exceeds the cap.
        assert!(
            live <= CAP,
            "live {live} exceeds cap {CAP} (seed {seed}: {d} detected, {e} evicted)"
        );
    }
    // Six independent inversion gadgets across four seeded schedules: the
    // storm must reliably detect well past one cap's worth of distinct
    // cycles, and the overflow must have been absorbed by eviction.
    assert!(detected > CAP as u64, "storm detected only {detected}");
    assert!(
        evicted >= 1,
        "no eviction despite {detected} detections at cap {CAP}"
    );
}

/// The same storm run twice from the same seed is bit-identical — the
/// eviction path (candidate scan, index compaction, snapshot swap) is
/// deterministic and cannot destabilize replay.
#[test]
fn eviction_path_is_deterministic() {
    assert_eq!(storm_run(0xd1ce), storm_run(0xd1ce));
}
