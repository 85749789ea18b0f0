//! Equivalence of the two acquisition-site surfaces.
//!
//! The drop-in API captures sites implicitly (`#[track_caller]` +
//! `std::panic::Location`); the deterministic API passes
//! `acquire_site!()` / `AcquisitionSite::new` to the `*_at` variants. An
//! antibody learned through one surface must be matched by the other —
//! otherwise migrating a program between the styles would silently discard
//! its immunity. These tests pin that equivalence:
//!
//! * byte-identical signatures from the same source locations,
//! * identical avoidance outcomes on the same schedules (including
//!   cross-training: learn explicitly, avoid implicitly), and
//! * a deterministic proptest-style sweep over random engine schedules
//!   driven through implicit-captured vs macro-captured stacks.

use dimmunix::core::{Config, Dimmunix, RequestOutcome};
use dimmunix::rt::{
    acquire_site, AcquisitionSite, DeadlockPolicy, DimmunixRuntime, ImmuneMutex, ImmuneMutexGuard,
    LockError, CALLER_SCOPE,
};
use dimmunix::sim::Gen;
use std::sync::Arc;

mod common;

// ---------------------------------------------------------------------
// The one-line trick: both surfaces capture the same source line, so any
// divergence in how they derive site identity becomes an equality failure.
// ---------------------------------------------------------------------

/// Acquires `m` either implicitly (`lock()`) or explicitly
/// (`lock_at(acquire_site!())`). Each helper keeps both calls **on one
/// source line**, so the implicit site of the `lock()` call and the
/// explicit macro capture are the same program location by construction.
#[rustfmt::skip]
fn acquire_outer(m: &ImmuneMutex<u32>, implicit: bool) -> Result<ImmuneMutexGuard<'_, u32>, LockError> {
    if implicit { m.lock() } else { m.lock_at(acquire_site!()) }
}

#[rustfmt::skip]
fn acquire_inner(m: &ImmuneMutex<u32>, implicit: bool) -> Result<ImmuneMutexGuard<'_, u32>, LockError> {
    if implicit { m.lock() } else { m.lock_at(acquire_site!()) }
}

/// Distinct source locations captured through both surfaces at once; each
/// vector element sits on its own line, so pairs differ from each other
/// while the two members of each pair are identical.
#[rustfmt::skip]
fn site_pairs() -> Vec<(AcquisitionSite, AcquisitionSite)> {
    vec![
        (AcquisitionSite::here(), acquire_site!()),
        (AcquisitionSite::here(), acquire_site!()),
        (AcquisitionSite::here(), acquire_site!()),
        (AcquisitionSite::here(), acquire_site!()),
        (AcquisitionSite::here(), acquire_site!()),
        (AcquisitionSite::here(), acquire_site!()),
    ]
}

#[test]
fn captured_pairs_are_byte_identical_and_mutually_distinct() {
    let pairs = site_pairs();
    for (implicit, explicit) in &pairs {
        assert_eq!(implicit, explicit);
        assert_eq!(implicit.scope, CALLER_SCOPE);
        assert_eq!(implicit.to_call_stack(), explicit.to_call_stack());
        assert_eq!(implicit.to_site_id(), explicit.to_site_id());
    }
    for i in 0..pairs.len() {
        for j in (i + 1)..pairs.len() {
            assert_ne!(pairs[i].0, pairs[j].0, "lines {i} and {j} must differ");
        }
    }
}

/// Runs the AB/BA schedule through the helpers, with `implicit` selecting
/// the surface. The source locations are the same either way.
fn adversarial_run(
    rt: &Arc<DimmunixRuntime>,
    implicit: bool,
) -> (Result<(), LockError>, Result<(), LockError>) {
    let (a, b) = (ImmuneMutex::new_in(rt, 0), ImmuneMutex::new_in(rt, 0));
    let [r1, r2] = common::ab_ba(rt, [&a, &b], |m, _, inner| {
        if inner {
            acquire_inner(m, implicit)
        } else {
            acquire_outer(m, implicit)
        }
    });
    (r1, r2)
}

/// The same deadlock learned through either surface produces byte-identical
/// signatures (identical history text).
#[test]
fn learned_signatures_are_byte_identical_across_surfaces() {
    let learn = |implicit: bool| {
        let rt = DimmunixRuntime::builder()
            .deadlock_policy(DeadlockPolicy::Error)
            .build();
        let (r1, r2) = adversarial_run(&rt, implicit);
        assert!(r1.is_err() || r2.is_err(), "the schedule must deadlock");
        assert_eq!(rt.history().len(), 1);
        rt.history()
    };
    let implicit_history = learn(true);
    let explicit_history = learn(false);
    assert_eq!(
        implicit_history.to_text(),
        explicit_history.to_text(),
        "the two surfaces must learn byte-identical antibodies"
    );
}

/// Cross-training: an antibody learned through the *explicit* surface
/// protects a run that acquires through the *implicit* surface at the same
/// source locations — and vice versa. This is the property a migration
/// from the macro style to the drop-in style depends on.
#[test]
fn antibodies_transfer_between_surfaces() {
    for (learn_implicit, avoid_implicit) in [(false, true), (true, false)] {
        let trainer = DimmunixRuntime::builder()
            .deadlock_policy(DeadlockPolicy::Error)
            .build();
        let (r1, r2) = adversarial_run(&trainer, learn_implicit);
        assert!(r1.is_err() || r2.is_err(), "training must deadlock");

        let rt = DimmunixRuntime::builder()
            .deadlock_policy(DeadlockPolicy::Error)
            .history(trainer.history())
            .build();
        let (r1, r2) = adversarial_run(&rt, avoid_implicit);
        assert!(
            r1.is_ok() && r2.is_ok(),
            "learn_implicit={learn_implicit} avoid_implicit={avoid_implicit}: \
             replay must complete: {r1:?} {r2:?}"
        );
        assert_eq!(rt.stats().deadlocks_detected, 0);
        assert_eq!(rt.history().len(), 1, "no new signature on the replay");
    }
}

/// Thread 0 locks `a` then `b`, thread 1 `b` then `a`, each at implicit
/// sites of its own (one line per thread and step).
fn lock_per_thread(
    m: &ImmuneMutex<u32>,
    thread: usize,
    inner: bool,
) -> Result<ImmuneMutexGuard<'_, u32>, LockError> {
    match (thread, inner) {
        (0, false) => m.lock(),
        (0, true) => m.lock(),
        (_, false) => m.lock(),
        (_, true) => m.lock(),
    }
}

/// Learn then avoid through the implicit-site drop-in API alone: the
/// refusal names this file and the caller scope, and the same code with the
/// antibody loaded completes without learning anything new.
#[test]
fn implicit_sites_learn_and_avoid_ab_ba() {
    let run = |rt: &Arc<DimmunixRuntime>| {
        let (a, b) = (ImmuneMutex::new_in(rt, 0), ImmuneMutex::new_in(rt, 0));
        common::ab_ba(rt, [&a, &b], lock_per_thread)
    };
    let builder = || DimmunixRuntime::builder().deadlock_policy(DeadlockPolicy::Error);
    let rt = builder().build();
    let [r1, r2] = run(&rt);
    let Some(LockError::WouldDeadlock { site, .. }) = r1.err().or(r2.err()) else {
        panic!("the adversarial schedule must deadlock");
    };
    assert!(site.file.ends_with("integration_sites.rs"), "site: {site}");
    assert_eq!(site.scope, CALLER_SCOPE);
    let history = rt.history();
    assert_eq!(history.len(), 1);

    let rt = builder().history(history).build();
    let [r1, r2] = run(&rt);
    assert!(
        r1.is_ok() && r2.is_ok(),
        "replay must complete: {r1:?} {r2:?}"
    );
    assert_eq!(rt.stats().deadlocks_detected, 0);
    assert_eq!(rt.history().len(), 1, "no new signature on the replay");
}

// ---------------------------------------------------------------------
// Proptest-style schedule sweep (deterministic harness, as in
// crates/core/tests/proptests.rs): random engine schedules driven through
// implicit-captured vs macro-captured stacks must be indistinguishable.
// ---------------------------------------------------------------------

#[test]
fn prop_random_schedules_are_identical_across_surfaces() {
    use dimmunix::core::{LockId, ThreadId};
    const CASES: u64 = 150;
    const THREADS: u64 = 4;
    const LOCKS: u64 = 4;
    const STEPS: usize = 60;

    let pairs = site_pairs();
    let mut grants = 0;
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let mut implicit_engine = Dimmunix::new(Config::default());
        let mut explicit_engine = Dimmunix::new(Config::default());
        // Held locks per thread, mirrored engine-externally so the driver
        // can build a valid schedule (the engines are the system under
        // test, not the bookkeeping).
        let mut held: Vec<Vec<LockId>> = vec![Vec::new(); THREADS as usize];

        for step in 0..STEPS {
            let t_idx = g.range(0, THREADS as usize);
            let t = ThreadId::new(t_idx as u64 + 1);
            let do_release = !held[t_idx].is_empty() && g.range(0, 100) < 40;
            if do_release {
                let pick = g.range(0, held[t_idx].len());
                let l = held[t_idx].remove(pick);
                let w1 = implicit_engine.released(t, l);
                let w2 = explicit_engine.released(t, l);
                assert_eq!(w1, w2, "seed {seed} step {step}: wakeups diverged");
                continue;
            }
            let l = LockId::new(g.range(0, LOCKS as usize) as u64 + 1);
            let pair = &pairs[g.range(0, pairs.len())];
            let o1 = implicit_engine.request(t, l, &pair.0.to_call_stack());
            let o2 = explicit_engine.request(t, l, &pair.1.to_call_stack());
            assert_eq!(o1, o2, "seed {seed} step {step}: outcomes diverged");
            match o1 {
                RequestOutcome::Granted | RequestOutcome::GrantedReentrant => {
                    implicit_engine.acquired(t, l);
                    explicit_engine.acquired(t, l);
                    if !held[t_idx].contains(&l) {
                        held[t_idx].push(l);
                    }
                }
                RequestOutcome::Yield { .. } | RequestOutcome::DeadlockDetected { .. } => {
                    // Back the request out (the fail-safe substrate path);
                    // detections have already recorded their signature.
                    implicit_engine.cancel_request(t, l);
                    explicit_engine.cancel_request(t, l);
                }
            }
        }
        assert_eq!(
            implicit_engine.history().to_text(),
            explicit_engine.history().to_text(),
            "seed {seed}: histories diverged"
        );
        assert_eq!(
            implicit_engine.stats(),
            explicit_engine.stats(),
            "seed {seed}: counters diverged"
        );
        grants += implicit_engine.stats().grants;
    }
    // Seed replay: these 150 schedules are pinned, so a change to the case
    // generator's stream shows up here.
    assert_eq!(grants, 3469);
}
