//! # dimmunix-core — deadlock immunity engine
//!
//! This crate is a from-scratch Rust implementation of the Dimmunix deadlock
//! immunity core, as deployed platform-wide inside Android's Dalvik VM in
//! *"Platform-wide Deadlock Immunity for Mobile Phones"* (Jula, Rensch,
//! Candea; HotDep 2011). Dimmunix lets a process develop *antibodies*
//! (deadlock signatures) for every deadlock it encounters: the first
//! occurrence is detected and recorded in a persistent history; every later
//! execution avoids re-instantiating the signature, so the same deadlock bug
//! never bites twice.
//!
//! The crate contains only the engine — the paper's "Dimmunix core"
//! (§4) — as a deterministic, single-threaded state machine driven through
//! three hook points:
//!
//! * [`Dimmunix::request`] — before a monitor acquisition (detection +
//!   avoidance decision),
//! * [`Dimmunix::acquired`] — right after the acquisition,
//! * [`Dimmunix::released`] — right before the release (wakes threads parked
//!   on signatures).
//!
//! Substrates integrate it the way the paper integrates with the Dalvik VM:
//! `dimmunix-rt` wraps real `parking_lot` mutexes into `ImmuneMutex` /
//! `ImmuneMonitor` types (Rust has no lock interposition point, so wrapper
//! types play the role of the modified `lockMonitor`/`unlockMonitor`
//! routines), and `dimmunix-bench`'s `dalvik` model is a deterministic VM
//! simulator whose `monitorenter`/`monitorexit`/`wait` opcodes call the
//! same hooks.
//!
//! ## Quick start
//!
//! ```
//! use dimmunix_core::{CallStack, Config, Dimmunix, Frame, LockId, RequestOutcome, ThreadId};
//!
//! let mut engine = Dimmunix::new(Config::default());
//! let (t1, t2) = (ThreadId::new(1), ThreadId::new(2));
//! let (la, lb) = (LockId::new(1), LockId::new(2));
//! let site = |m: &str, line| CallStack::single(Frame::new(m, "app.rs", line));
//!
//! // t1 takes A then asks for B; t2 takes B then asks for A -> deadlock.
//! assert!(engine.request(t1, la, &site("t1.outer", 10)).is_granted());
//! engine.acquired(t1, la);
//! assert!(engine.request(t2, lb, &site("t2.outer", 20)).is_granted());
//! engine.acquired(t2, lb);
//! assert!(engine.request(t1, lb, &site("t1.inner", 11)).is_granted());
//! let outcome = engine.request(t2, la, &site("t2.inner", 21));
//! assert!(matches!(outcome, RequestOutcome::DeadlockDetected { .. }));
//! // The signature is now in the history; a fresh run of the same program
//! // through the same engine state would be steered away from the deadlock.
//! assert_eq!(engine.history().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod admission;
mod avoidance;
mod callstack;
mod config;
mod detection;
mod engine;
mod error;
mod history;
mod ids;
pub mod json;
mod position;
mod pvec;
mod rag;
mod sharded;
mod signature;
mod snapshot;
mod stats;

pub use admission::{Admission, AdmissionSummary};
pub use avoidance::{find_instantiation, signature_instantiable, Instantiation, SignatureIndex};
pub use callstack::{fnv1a, CallStack, Frame, SiteKey, FNV_OFFSET};
pub use config::{
    Config, ConfigBuilder, DEFAULT_EVICTION_WINDOW, DEFAULT_LOG_SEGMENT_RECORDS,
    DEFAULT_MAX_SIGNATURES, DEFAULT_STACK_DEPTH,
};
pub use engine::{Dimmunix, RequestOutcome};
pub use error::{DimmunixError, Result};
pub use history::{
    signature_from_json_value, signature_from_log_record, signature_to_log_record, History,
    HistoryLog, LogReplay, RecoveryReport,
};
pub use ids::{
    IdHashMap, IdHasher, LockId, OwnerId, ProcessId, SignatureId, SiteId, TaskId, ThreadId,
};
pub use position::{OwnerQueue, Position, PositionId, PositionTable, StackInterner};
pub use pvec::{PersistentMap, PersistentVec};
pub use rag::{
    find_cycle_with, AccessMode, Acquisition, AcquisitionState, CycleStep, HeldEntry, LockOwner,
    Rag, WaitEdge, YieldRecord,
};
pub use sharded::{OwnerRoute, ShardAccess, ShardedDimmunix, MAX_SHARDS};
pub use signature::{Signature, SignatureKind, SignaturePair};
pub use snapshot::{HistorySnapshot, OuterTable};
pub use stats::Stats;

#[cfg(test)]
mod engine_tests {
    use super::*;

    fn site(m: &str, line: u32) -> CallStack {
        CallStack::single(Frame::new(m, "app.rs", line))
    }

    fn t(i: u64) -> OwnerId {
        OwnerId::thread(i)
    }
    fn l(i: u64) -> LockId {
        LockId::new(i)
    }

    /// Drives the canonical AB/BA deadlock to detection and returns the
    /// engine (with one signature in its history).
    fn detect_ab_ba() -> Dimmunix {
        let mut e = Dimmunix::new(Config::default());
        assert!(e.request(t(1), l(1), &site("t1.outer", 10)).is_granted());
        e.acquired(t(1), l(1));
        assert!(e.request(t(2), l(2), &site("t2.outer", 20)).is_granted());
        e.acquired(t(2), l(2));
        assert!(e.request(t(1), l(2), &site("t1.inner", 11)).is_granted());
        let outcome = e.request(t(2), l(1), &site("t2.inner", 21));
        assert!(matches!(outcome, RequestOutcome::DeadlockDetected { .. }));
        e
    }

    #[test]
    fn detects_ab_ba_deadlock_once() {
        let e = detect_ab_ba();
        assert_eq!(e.history().len(), 1);
        assert_eq!(e.stats().deadlocks_detected, 1);
        assert_eq!(e.stats().new_deadlock_signatures, 1);
        let sig = e.history().get(SignatureId::new(0)).unwrap();
        assert_eq!(sig.kind(), SignatureKind::Deadlock);
        assert_eq!(sig.arity(), 2);
    }

    /// Replays the same interleaving against an engine that already carries
    /// the signature: the second thread must yield instead of deadlocking,
    /// and after the first thread finishes, the parked thread proceeds.
    #[test]
    fn avoids_known_deadlock_on_replay() {
        let trained = detect_ab_ba();
        let mut e = Dimmunix::with_history(Config::default(), trained.history().clone());

        // Same schedule as the deadlocking run.
        assert!(e.request(t(1), l(1), &site("t1.outer", 10)).is_granted());
        e.acquired(t(1), l(1));
        // t2 wants B at its outer position: granting would cover both outer
        // positions of the signature, so it must yield.
        let outcome = e.request(t(2), l(2), &site("t2.outer", 20));
        let parked_on = match outcome {
            RequestOutcome::Yield { signature } => signature,
            other => panic!("expected yield, got {other:?}"),
        };
        assert_eq!(e.stats().yields, 1);

        // t1 proceeds through its critical sections unhindered.
        assert!(e.request(t(1), l(2), &site("t1.inner", 11)).is_granted());
        e.acquired(t(1), l(2));
        assert!(e.released(t(1), l(2)).is_empty());
        // Releasing A (acquired at a history position) wakes the signature.
        let wake = e.released(t(1), l(1));
        assert!(wake.contains(&parked_on));

        // t2 retries and is now granted; no deadlock, no new signature.
        assert!(e.request(t(2), l(2), &site("t2.outer", 20)).is_granted());
        e.acquired(t(2), l(2));
        assert!(e.request(t(2), l(1), &site("t2.inner", 21)).is_granted());
        e.acquired(t(2), l(1));
        e.released(t(2), l(1));
        e.released(t(2), l(2));
        assert_eq!(e.stats().deadlocks_detected, 0);
        assert_eq!(e.history().len(), 1);
    }

    #[test]
    fn reentrant_acquisitions_take_fast_path() {
        let mut e = Dimmunix::default();
        assert!(e.request(t(1), l(1), &site("outer", 1)).is_granted());
        e.acquired(t(1), l(1));
        let again = e.request(t(1), l(1), &site("inner", 2));
        assert_eq!(again, RequestOutcome::GrantedReentrant);
        e.acquired(t(1), l(1));
        assert_eq!(e.stats().reentrant_grants, 1);
        // Inner release does not give up the monitor or wake anyone.
        assert!(e.released(t(1), l(1)).is_empty());
        assert_eq!(e.rag().owner(l(1)), Some(t(1)));
        assert!(e.released(t(1), l(1)).is_empty());
        assert_eq!(e.rag().owner(l(1)), None);
    }

    #[test]
    fn disabled_engine_is_pass_through() {
        let mut e = Dimmunix::new(Config::disabled());
        for round in 0..3u64 {
            assert!(e.request(t(1), l(1), &site("a", 1)).is_granted());
            e.acquired(t(1), l(1));
            assert!(e.request(t(2), l(2), &site("b", 2)).is_granted());
            e.acquired(t(2), l(2));
            assert!(e.request(t(1), l(2), &site("c", 3)).is_granted());
            assert!(e.request(t(2), l(1), &site("d", 4)).is_granted());
            // No detection happens; clean up for the next round.
            e.released(t(1), l(1));
            e.released(t(2), l(2));
            let _ = round;
        }
        assert!(e.history().is_empty());
        assert_eq!(e.stats().deadlocks_detected, 0);
    }

    #[test]
    fn starvation_is_detected_and_thread_released() {
        // Train the engine with the AB/BA signature, then create the
        // avoidance-induced deadlock of §2.2: the blocker (t1) ends up
        // waiting on a lock held by the parked thread (t2).
        let trained = detect_ab_ba();
        let mut e = Dimmunix::with_history(Config::default(), trained.history().clone());

        // t2 takes an unrelated lock C first.
        assert!(e.request(t(2), l(3), &site("t2.helper", 30)).is_granted());
        e.acquired(t(2), l(3));
        // t1 acquires A at the history position.
        assert!(e.request(t(1), l(1), &site("t1.outer", 10)).is_granted());
        e.acquired(t(1), l(1));
        // t2 asks for B at the history position -> instantiation -> parked.
        let outcome = e.request(t(2), l(2), &site("t2.outer", 20));
        assert!(matches!(outcome, RequestOutcome::Yield { .. }));
        // t1 now asks for C, which t2 holds: parking t2 has created a cycle
        // through the yield edge. The engine must classify this as
        // starvation, record a starvation signature and schedule a wake-up
        // for the parked thread rather than reporting a real deadlock.
        let outcome = e.request(t(1), l(3), &site("t1.helper", 12));
        assert!(
            outcome.is_granted() || matches!(outcome, RequestOutcome::Yield { .. }),
            "starvation must not be reported as a deadlock, got {outcome:?}"
        );
        assert_eq!(e.stats().deadlocks_detected, 0);
        assert!(e.stats().starvations_detected >= 1);
        let wakeups = e.take_pending_wakeups();
        assert!(!wakeups.is_empty(), "parked thread must be resumed");
        // The parked thread retries and is now allowed to proceed (the
        // starvation check sees the same cycle and refuses to park again).
        let retry = e.request(t(2), l(2), &site("t2.outer", 20));
        assert!(retry.is_granted(), "retry after starvation, got {retry:?}");
    }

    #[test]
    fn starvation_detected_at_yield_time() {
        // Opposite ordering: the blocker is already waiting on a lock the
        // requester holds when the yield decision is about to be taken.
        let trained = detect_ab_ba();
        let mut e = Dimmunix::with_history(Config::default(), trained.history().clone());

        // t2 holds C; t1 holds A (history position) and then blocks on C.
        assert!(e.request(t(2), l(3), &site("t2.helper", 30)).is_granted());
        e.acquired(t(2), l(3));
        assert!(e.request(t(1), l(1), &site("t1.outer", 10)).is_granted());
        e.acquired(t(1), l(1));
        assert!(e.request(t(1), l(3), &site("t1.helper", 12)).is_granted());
        // t1 is now blocked on C (granted but not acquired). t2 requests B at
        // the history position: parking t2 would starve t1 forever, so the
        // engine must let t2 through and record a starvation signature.
        let outcome = e.request(t(2), l(2), &site("t2.outer", 20));
        assert!(outcome.is_granted(), "expected grant, got {outcome:?}");
        assert!(e.stats().starvations_detected >= 1);
        assert!(e
            .history()
            .iter()
            .any(|(_, s)| s.kind() == SignatureKind::Starvation));
    }

    #[test]
    fn unregister_thread_releases_locks_and_wakes() {
        let trained = detect_ab_ba();
        let mut e = Dimmunix::with_history(Config::default(), trained.history().clone());
        assert!(e.request(t(1), l(1), &site("t1.outer", 10)).is_granted());
        e.acquired(t(1), l(1));
        let outcome = e.request(t(2), l(2), &site("t2.outer", 20));
        assert!(matches!(outcome, RequestOutcome::Yield { .. }));
        // t1 dies while holding A; the parked thread must be woken.
        let wake = e.unregister_owner(t(1));
        assert!(!wake.is_empty());
        assert!(e.request(t(2), l(2), &site("t2.outer", 20)).is_granted());
    }

    #[test]
    fn cancel_request_undoes_queue_entry() {
        let trained = detect_ab_ba();
        let mut e = Dimmunix::with_history(Config::default(), trained.history().clone());
        assert!(e.request(t(1), l(1), &site("t1.outer", 10)).is_granted());
        e.cancel_request(t(1), l(1));
        // Because t1 backed out, t2 requesting at the other history position
        // must not see an instantiation.
        assert!(e.request(t(2), l(2), &site("t2.outer", 20)).is_granted());
    }

    /// A grant occupies its position's slot from the moment it is given, so
    /// cancelling it vacates the slot exactly as a release would and owes the
    /// owners parked on the position's signatures the same wake-up. A request
    /// that was refused (parked) occupied nothing and owes none.
    #[test]
    fn cancelled_grant_schedules_the_wakeups_of_its_position() {
        let trained = detect_ab_ba();
        let mut e = Dimmunix::with_history(Config::default(), trained.history().clone());
        assert!(e.request(t(1), l(1), &site("t1.outer", 10)).is_granted());
        let outcome = e.request(t(2), l(2), &site("t2.outer", 20));
        let RequestOutcome::Yield { signature } = outcome else {
            panic!("a pending grant is a blocker, got {outcome:?}");
        };
        let wakeups_before = e.stats().wakeups;

        // The refused request backs out: no slot was held, nothing to wake.
        e.cancel_request(t(2), l(2));
        assert!(e.take_pending_wakeups().is_empty());
        assert!(matches!(
            e.request(t(2), l(2), &site("t2.outer", 20)),
            RequestOutcome::Yield { .. }
        ));

        // The granted request backs out: its slot is free again.
        e.cancel_request(t(1), l(1));
        assert_eq!(e.take_pending_wakeups(), vec![signature]);
        assert_eq!(e.stats().wakeups, wakeups_before + 1);
        assert!(e.request(t(2), l(2), &site("t2.outer", 20)).is_granted());

        // A grant at a position no signature mentions wakes nobody.
        assert!(e.request(t(1), l(3), &site("t1.helper", 12)).is_granted());
        e.cancel_request(t(1), l(3));
        assert!(!e.has_pending_wakeups());
    }

    #[test]
    fn history_persists_across_engine_restarts() {
        let dir = std::env::temp_dir().join(format!("dimmunix-engine-{}", std::process::id()));
        let path = dir.join("history.dimmu");
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(&path);

        let cfg = Config::builder().history_path(&path).build();
        {
            let mut e = Dimmunix::new(cfg.clone());
            assert!(e.request(t(1), l(1), &site("t1.outer", 10)).is_granted());
            e.acquired(t(1), l(1));
            assert!(e.request(t(2), l(2), &site("t2.outer", 20)).is_granted());
            e.acquired(t(2), l(2));
            assert!(e.request(t(1), l(2), &site("t1.inner", 11)).is_granted());
            let outcome = e.request(t(2), l(1), &site("t2.inner", 21));
            assert!(matches!(outcome, RequestOutcome::DeadlockDetected { .. }));
        }
        // "Reboot": a new engine loads the persisted antibody.
        let e2 = Dimmunix::new(cfg);
        assert_eq!(e2.history().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Detections append one record each; killing the process mid-append
    /// (simulated by truncating the log inside the final record) must
    /// restore exactly the committed prefix on replay, and the next
    /// detection must append cleanly after tail repair.
    #[test]
    fn kill_during_detection_replays_committed_prefix() {
        let dir = std::env::temp_dir().join(format!("dimmunix-kill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("history.log");
        let cfg = Config::builder().history_path(&path).build();

        // Three distinct AB/BA deadlocks -> three appended records.
        let mut e = Dimmunix::new(cfg.clone());
        for k in 0..3u64 {
            let (ta, tb) = (t(10 * k + 1), t(10 * k + 2));
            let (la, lb) = (l(10 * k + 1), l(10 * k + 2));
            assert!(e
                .request(ta, la, &site("outer.a", 100 * k as u32))
                .is_granted());
            e.acquired(ta, la);
            assert!(e
                .request(tb, lb, &site("outer.b", 100 * k as u32 + 1))
                .is_granted());
            e.acquired(tb, lb);
            assert!(e
                .request(ta, lb, &site("inner.a", 100 * k as u32 + 2))
                .is_granted());
            let outcome = e.request(tb, la, &site("inner.b", 100 * k as u32 + 3));
            assert!(matches!(outcome, RequestOutcome::DeadlockDetected { .. }));
            e.unregister_owner(ta);
            e.unregister_owner(tb);
        }
        assert_eq!(e.history().len(), 3);
        let full = e.history().clone();
        drop(e);

        // The "kill": the third append was cut short.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();

        // Replay restores an identical history for the committed prefix.
        let e2 = Dimmunix::new(cfg.clone());
        assert_eq!(e2.history().len(), 2);
        for (id, sig) in e2.history().iter() {
            assert!(full.get(id).unwrap().same_bug(sig), "replayed {id} differs");
        }
        drop(e2);

        // The next detection appends cleanly onto the repaired log.
        let mut e3 = Dimmunix::new(cfg.clone());
        assert!(e3.request(t(91), l(91), &site("late.a", 900)).is_granted());
        e3.acquired(t(91), l(91));
        assert!(e3.request(t(92), l(92), &site("late.b", 901)).is_granted());
        e3.acquired(t(92), l(92));
        assert!(e3.request(t(91), l(92), &site("late.c", 902)).is_granted());
        assert!(matches!(
            e3.request(t(92), l(91), &site("late.d", 903)),
            RequestOutcome::DeadlockDetected { .. }
        ));
        assert_eq!(e3.history().len(), 3);
        let replay = HistoryLog::new(&path).replay().unwrap();
        assert!(!replay.truncated_tail, "repair must leave a clean log");
        assert_eq!(replay.history.len(), 3);
        for (id, sig) in e3.history().iter() {
            assert!(replay.history.get(id).unwrap().same_bug(sig));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A log with interior corruption cannot be appended to (those records
    /// would be unreadable forever): the engine must quarantine it and
    /// start a fresh log that replays cleanly after the next detection.
    #[test]
    fn corrupt_log_is_quarantined_and_a_fresh_log_started() {
        let dir = std::env::temp_dir().join(format!("dimmunix-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.log");
        std::fs::write(&path, "garbage, not a record\n{\"also\": \"wrong\"}\n").unwrap();
        let cfg = Config::builder().history_path(&path).build();

        let mut e = Dimmunix::new(cfg.clone());
        assert!(e.history().is_empty(), "corrupt history must not half-load");
        assert!(
            dir.join("history.corrupt").exists(),
            "the unreadable log must be preserved for diagnosis"
        );
        // A detection appends to a brand-new log...
        assert!(e.request(t(1), l(1), &site("q.a", 1)).is_granted());
        e.acquired(t(1), l(1));
        assert!(e.request(t(2), l(2), &site("q.b", 2)).is_granted());
        e.acquired(t(2), l(2));
        assert!(e.request(t(1), l(2), &site("q.c", 3)).is_granted());
        assert!(matches!(
            e.request(t(2), l(1), &site("q.d", 4)),
            RequestOutcome::DeadlockDetected { .. }
        ));
        // ...which the next start-up replays in full.
        let e2 = Dimmunix::new(cfg);
        assert_eq!(e2.history().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_footprint_increases_with_history() {
        let empty = Dimmunix::default().memory_footprint_bytes();
        let trained = detect_ab_ba();
        assert!(trained.memory_footprint_bytes() > empty);
    }

    #[test]
    fn max_signatures_evicts_stale_antibodies_by_default() {
        fn ab(n: u32) -> Signature {
            Signature::new(
                SignatureKind::Deadlock,
                vec![SignaturePair::new(
                    site("evict.a", n * 10),
                    site("evict.b", n * 10 + 1),
                )],
            )
        }
        let mut e = Dimmunix::new(
            Config::builder()
                .max_signatures(2)
                .eviction_window(2)
                .build(),
        );
        // s0 born at epoch 1, s1 at epoch 2.
        let (s0, new0) = e.add_signature(ab(0));
        assert!(new0);
        let (_s1, new1) = e.add_signature(ab(1));
        assert!(new1);
        // At capacity but both antibodies are within the window: the history
        // overflows softly rather than evicting a recent antibody.
        let (_s2, new2) = e.add_signature(ab(2));
        assert!(new2);
        assert_eq!(e.history().len(), 3, "soft overflow when nothing is stale");
        assert_eq!(e.stats().signatures_evicted, 0);
        // By now s0 and s1 have aged out of the window; the next insert
        // retires both (oldest first) before appending.
        let (_s3, new3) = e.add_signature(ab(3));
        assert!(new3);
        assert_eq!(e.history().len(), 2);
        assert_eq!(e.stats().signatures_evicted, 2);
        assert!(e.history().get(s0).is_none(), "s0 was retired");
    }

    #[test]
    fn acquired_without_request_is_tolerated() {
        let mut e = Dimmunix::default();
        // A substrate bug (or native code) acquired a monitor the engine was
        // never told about; the engine must keep functioning.
        e.acquired(t(9), l(9));
        assert_eq!(e.rag().owner(l(9)), Some(t(9)));
        assert!(e.released(t(9), l(9)).is_empty());
        assert_eq!(e.rag().owner(l(9)), None);
    }

    /// Tentpole regression: a cycle through a **non-first** member of a
    /// reader crowd is detected at its first occurrence, and the learned
    /// signature's template position is the acquisition site of the reader
    /// actually on the cycle (not the first reader's).
    #[test]
    fn rwlock_cycle_through_second_reader_detected_with_its_own_site() {
        trait Hooks {
            fn req(
                &mut self,
                t: OwnerId,
                l: LockId,
                s: &CallStack,
                m: AccessMode,
            ) -> RequestOutcome;
            fn acq(&mut self, t: OwnerId, l: LockId);
        }
        impl Hooks for Dimmunix {
            fn req(
                &mut self,
                t: OwnerId,
                l: LockId,
                s: &CallStack,
                m: AccessMode,
            ) -> RequestOutcome {
                self.request_mode(t, l, s, m)
            }
            fn acq(&mut self, t: OwnerId, l: LockId) {
                self.acquired(t, l);
            }
        }
        impl Hooks for ShardedDimmunix {
            fn req(
                &mut self,
                t: OwnerId,
                l: LockId,
                s: &CallStack,
                m: AccessMode,
            ) -> RequestOutcome {
                self.request_mode(t, l, s, m)
            }
            fn acq(&mut self, t: OwnerId, l: LockId) {
                self.acquired(t, l);
            }
        }
        fn run(engine: &mut dyn Hooks) -> RequestOutcome {
            let (r1, r2, w) = (OwnerId::thread(1), OwnerId::thread(2), OwnerId::thread(3));
            let (la, lb) = (LockId::new(1), LockId::new(2));
            let site = |m: &str, line| CallStack::single(Frame::new(m, "app.rs", line));
            // r1 and r2 read-share A at *distinct* sites.
            assert!(engine
                .req(r1, la, &site("r1.read_a", 10), AccessMode::Shared)
                .is_granted());
            engine.acq(r1, la);
            assert!(engine
                .req(r2, la, &site("r2.read_a", 20), AccessMode::Shared)
                .is_granted());
            engine.acq(r2, la);
            // The writer owns B and requests A: waits on BOTH readers.
            assert!(engine
                .req(w, lb, &site("w.write_b", 30), AccessMode::Exclusive)
                .is_granted());
            engine.acq(w, lb);
            assert!(engine
                .req(w, la, &site("w.write_a", 31), AccessMode::Exclusive)
                .is_granted());
            // (the substrate would block here; the request edge stays)
            // r2 requests B: closes the cycle r2 -> w -> r2.
            engine.req(r2, lb, &site("r2.read_b", 21), AccessMode::Shared)
        }

        let mut e = Dimmunix::default();
        let outcome = run(&mut e);
        match &outcome {
            RequestOutcome::DeadlockDetected { owners, .. } => {
                assert!(owners.contains(&t(2)) && owners.contains(&t(3)));
                assert!(!owners.contains(&t(1)), "r1 is not on the cycle");
            }
            other => panic!("expected first-occurrence detection, got {other:?}"),
        }
        assert_eq!(e.history().len(), 1);
        let sig = e.history().get(SignatureId::new(0)).unwrap();
        let outers: Vec<String> = sig.outer_stacks().map(|s| s.to_compact()).collect();
        // Template positions come from the owners on the cycle: r2's own
        // read site and the writer's B site — never r1's site.
        assert!(
            outers.contains(&site("r2.read_a", 20).to_compact()),
            "{outers:?}"
        );
        assert!(
            outers.contains(&site("w.write_b", 30).to_compact()),
            "{outers:?}"
        );
        assert!(
            !outers.contains(&site("r1.read_a", 10).to_compact()),
            "{outers:?}"
        );

        // The sharded engine reaches the identical verdict and history.
        for shards in [1usize, 2, 3, 8] {
            let mut s = ShardedDimmunix::new(Config::default(), shards);
            let sharded_outcome = run(&mut s);
            assert_eq!(sharded_outcome, outcome, "shards {shards}");
            assert_eq!(s.history().len(), 1, "shards {shards}");
            assert!(
                s.history()
                    .get(SignatureId::new(0))
                    .unwrap()
                    .same_bug(e.history().get(SignatureId::new(0)).unwrap()),
                "shards {shards}"
            );
        }
    }

    /// Tentpole regression: a reader that released its own hold carries no
    /// stale ownership, so its next request cannot close a cycle against
    /// the crowd it left (the old representative model's false positive).
    #[test]
    fn departed_reader_is_not_part_of_any_cycle() {
        let mut e = Dimmunix::default();
        let (r1, r2, w) = (t(1), t(2), t(3));
        let (la, lb) = (l(1), l(2));
        // r1 in first, r2 joins, r1 leaves: owners(A) = {r2}.
        assert!(e
            .request_mode(r1, la, &site("r1.read_a", 10), AccessMode::Shared)
            .is_granted());
        e.acquired(r1, la);
        assert!(e
            .request_mode(r2, la, &site("r2.read_a", 20), AccessMode::Shared)
            .is_granted());
        e.acquired(r2, la);
        e.released(r1, la);
        assert_eq!(e.rag().owner(la), Some(r2));
        // w owns B, requests A (waits on r2 alone).
        assert!(e
            .request_mode(w, lb, &site("w.write_b", 30), AccessMode::Exclusive)
            .is_granted());
        e.acquired(w, lb);
        assert!(e
            .request_mode(w, la, &site("w.write_a", 31), AccessMode::Exclusive)
            .is_granted());
        // r1 requests B: r1 -> w -> r2, no edge back to r1 — must be a
        // clean grant, not a (spurious) detection.
        let outcome = e.request_mode(r1, lb, &site("r1.write_b", 11), AccessMode::Exclusive);
        assert!(outcome.is_granted(), "got {outcome:?}");
        assert_eq!(e.stats().deadlocks_detected, 0);
        assert!(e.history().is_empty());
    }

    /// Avoidance treats joining an existing reader crowd as compatible: a
    /// shared request whose only would-be blocker is a shared co-holder of
    /// the same lock is granted, while an exclusive request over the same
    /// occupancy still yields.
    #[test]
    fn crowd_join_is_compatible_for_avoidance() {
        // Antibody whose outer positions are the two read sites.
        let sig = Signature::new(
            SignatureKind::Deadlock,
            vec![
                SignaturePair::new(site("r.read_1", 10), site("r.inner_1", 11)),
                SignaturePair::new(site("r.read_2", 20), site("r.inner_2", 21)),
            ],
        );
        let mut history = History::new();
        history.add(sig);

        let mut e = Dimmunix::with_history(Config::default(), history.clone());
        let (r2, r3, t5) = (t(2), t(3), t(5));
        let (la, lb) = (l(1), l(2));
        // r2 read-holds A at the second history site.
        assert!(e
            .request_mode(r2, la, &site("r.read_2", 20), AccessMode::Shared)
            .is_granted());
        e.acquired(r2, la);
        // r3 joins A's crowd at the first history site: r2 is a crowd-mate,
        // not a blocker — the request must be granted, not parked.
        let outcome = e.request_mode(r3, la, &site("r.read_1", 10), AccessMode::Shared);
        assert!(outcome.is_granted(), "crowd join was refused: {outcome:?}");
        e.acquired(r3, la);
        // An exclusive request for a *different* lock at the same site sees
        // the same occupancy as a genuine instantiation and must yield.
        let outcome = e.request_mode(t5, lb, &site("r.read_1", 10), AccessMode::Exclusive);
        assert!(
            matches!(outcome, RequestOutcome::Yield { .. }),
            "exclusive request must still be parked: {outcome:?}"
        );
    }

    #[test]
    fn three_thread_cycle_is_detected() {
        let mut e = Dimmunix::default();
        for i in 1..=3u64 {
            assert!(e
                .request(t(i), l(i), &site(&format!("outer{i}"), i as u32))
                .is_granted());
            e.acquired(t(i), l(i));
        }
        assert!(e.request(t(1), l(2), &site("r1", 11)).is_granted());
        assert!(e.request(t(2), l(3), &site("r2", 12)).is_granted());
        let outcome = e.request(t(3), l(1), &site("r3", 13));
        match outcome {
            RequestOutcome::DeadlockDetected { owners, .. } => assert_eq!(owners.len(), 3),
            other => panic!("expected detection, got {other:?}"),
        }
        let sig = e.history().get(SignatureId::new(0)).unwrap();
        assert_eq!(sig.arity(), 3);
    }

    /// A task joining two acquisitions holds two approved grants at once;
    /// each acquisition consumes the grant for its own lock, so the
    /// position slots the grants occupied are the ones the releases vacate.
    #[test]
    fn two_outstanding_grants_are_consumed_per_lock() {
        let task = OwnerId::task(1);
        let mut e = Dimmunix::default();
        let s1 = e.intern_position(&site("join.first", 1));
        let s2 = e.intern_position(&site("join.second", 2));
        assert!(e.request_at(task, l(1), s1).is_granted());
        assert!(e.request_at(task, l(2), s2).is_granted());
        e.acquired(task, l(1));
        e.acquired(task, l(2));
        e.released(task, l(1));
        e.released(task, l(2));
        let occupants = |p| e.positions().get(p).unwrap().queue().len();
        assert_eq!((occupants(s1), occupants(s2)), (0, 0));
        assert_eq!(e.positions().len(), 2, "no anonymous position interned");
    }
}
