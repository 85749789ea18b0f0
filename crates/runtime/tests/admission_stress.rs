//! Real-thread stress test for the lock-free admission path (ISSUE 10,
//! satellite 3): OS threads hammer the no-engine fast path while other
//! threads train-and-trip an antibody so avoidance parks and wakes keep
//! flipping the degradation state underneath them.
//!
//! The deterministic schedule proptests pin the *decisions* to the
//! monolithic oracle; this test instead drives the real
//! [`DimmunixRuntime`] hooks from real threads so the admit-vs-park races
//! (seqlock reads racing summary writes, blocker counts rising while an
//! admission is in flight, fast holds being published mid-park) actually
//! happen on hardware. The assertions are the invariants that survive any
//! interleaving: no deadlock is ever detected, every acquisition is matched
//! by a release at quiescence, the parked pair really parks, and the clean
//! sites really take the fast path.
//!
//! A second test pins the counts of the clean many-thread regime, where
//! they are exact: 64 threads, shared locks, empty history, nothing nested.

use dimmunix_core::{CallStack, Dimmunix, Frame, History, LockId, RequestOutcome, ThreadId};
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, ImmuneMutex, ImmuneRwLock};
use std::sync::{Arc, Barrier};
use std::thread;

const FILE: &str = "stress.rs";

fn site(line: u32) -> AcquisitionSite {
    AcquisitionSite::new("stress", FILE, line)
}

/// A site whose [`SiteKey`] provably differs from the trained pattern's.
/// `SiteKey` hashes scope/file plus *relative* line offsets (so uniform
/// line shifts keep antibodies valid), which makes every single-frame
/// `site(n)` above one key — clean sites therefore need their own scopes.
///
/// [`SiteKey`]: dimmunix_core::SiteKey
fn clean_site(scope: &'static str) -> AcquisitionSite {
    AcquisitionSite::new(scope, FILE, 1)
}

/// Trains the AB/BA antibody whose outer sites are lines 10 and 20 of the
/// synthetic stress file, so a runtime seeded with it parks the classic
/// two-lock pattern.
fn trained_history() -> History {
    let mut trainer = Dimmunix::default();
    let stack = |line| CallStack::single(Frame::new("stress", FILE, line));
    let (t1, t2) = (ThreadId::new(1), ThreadId::new(2));
    let (la, lb) = (LockId::new(1), LockId::new(2));
    assert!(trainer.request(t1, la, &stack(10)).is_granted());
    trainer.acquired(t1, la);
    assert!(trainer.request(t2, lb, &stack(20)).is_granted());
    trainer.acquired(t2, lb);
    assert!(trainer.request(t1, lb, &stack(11)).is_granted());
    assert!(matches!(
        trainer.request(t2, la, &stack(21)),
        RequestOutcome::DeadlockDetected { .. }
    ));
    trainer.history().clone()
}

/// One hot iteration count; every iteration forces at least one avoidance
/// park deterministically (barriers order the two hot threads into the
/// trained pattern).
const HOT_ITERS: usize = 30;
/// Clean fast-path iterations per hammer thread.
const CLEAN_ITERS: usize = 1500;
/// Number of clean hammer threads.
const CLEAN_THREADS: usize = 3;

#[test]
fn fast_admissions_race_parks_without_divergence() {
    let rt = DimmunixRuntime::builder()
        .shards(4)
        .history(trained_history())
        .build();

    let lock_a = rt.allocate_lock();
    let lock_b = rt.allocate_lock();
    // Barriers sequence the hot pair into the trained pattern: b1 releases
    // the inner-lock requester only once the outer lock is held, b2 closes
    // the iteration once both have drained.
    let b1 = Arc::new(Barrier::new(2));
    let b2 = Arc::new(Barrier::new(2));

    let mut handles = Vec::new();

    // Hot thread 1: the outer-lock holder of the trained pattern.
    {
        let rt = Arc::clone(&rt);
        let (b1, b2) = (Arc::clone(&b1), Arc::clone(&b2));
        handles.push(thread::spawn(move || {
            for _ in 0..HOT_ITERS {
                // Only the hot pair ever yields, so the counter isolates the
                // partner's park below.
                let seen = rt.stats().yields;
                rt.before_acquire(lock_a, site(10)).unwrap();
                rt.after_acquire(lock_a);
                b1.wait();
                // Hold the outer lock until the partner has demonstrably
                // parked on the antibody: while this thread occupies the
                // first outer site the engine must answer the second outer
                // site with a yield, so every iteration exercises a real
                // park/wake cycle even when one CPU serializes the pair.
                while rt.stats().yields <= seen {
                    thread::yield_now();
                }
                rt.before_acquire(lock_b, site(11)).unwrap();
                rt.after_acquire(lock_b);
                rt.before_release(lock_b);
                rt.before_release(lock_a);
                b2.wait();
            }
            rt.retire_current_thread();
        }));
    }

    // Hot thread 2: requests the second outer site while the first is
    // occupied, so the engine parks it (signature instantiation) until hot
    // thread 1 releases.
    {
        let rt = Arc::clone(&rt);
        let (b1, b2) = (Arc::clone(&b1), Arc::clone(&b2));
        handles.push(thread::spawn(move || {
            for _ in 0..HOT_ITERS {
                b1.wait();
                rt.before_acquire(lock_b, site(20)).unwrap();
                rt.after_acquire(lock_b);
                rt.before_release(lock_b);
                b2.wait();
            }
            rt.retire_current_thread();
        }));
    }

    // Clean hammer threads: private locks at sites no history signature
    // mentions, racing their lock-free admissions against the park/wake
    // churn above.
    for i in 0..CLEAN_THREADS {
        let rt = Arc::clone(&rt);
        let lock = rt.allocate_lock();
        handles.push(thread::spawn(move || {
            let s = clean_site(["clean.a", "clean.b", "clean.c"][i]);
            for _ in 0..CLEAN_ITERS {
                rt.before_acquire(lock, s).unwrap();
                rt.after_acquire(lock);
                rt.before_release(lock);
            }
            rt.retire_current_thread();
        }));
    }

    // Nesting thread: a fast-admitted hold followed by a second clean
    // acquisition, so the slow path must publish the fast hold into the
    // engine while parks may be in flight.
    {
        let rt = Arc::clone(&rt);
        let c1 = rt.allocate_lock();
        let c2 = rt.allocate_lock();
        handles.push(thread::spawn(move || {
            for _ in 0..CLEAN_ITERS / 3 {
                rt.before_acquire(c1, clean_site("nest.outer")).unwrap();
                rt.after_acquire(c1);
                rt.before_acquire(c2, clean_site("nest.inner")).unwrap();
                rt.after_acquire(c2);
                rt.before_release(c2);
                rt.before_release(c1);
            }
            rt.retire_current_thread();
        }));
    }

    for h in handles {
        h.join().unwrap();
    }

    let stats = rt.stats();
    let summary = rt.admission_summary();
    assert_eq!(
        stats.deadlocks_detected, 0,
        "avoidance must keep the pattern deadlock-free"
    );
    assert_eq!(
        stats.acquisitions, stats.releases,
        "every acquisition matched by a release at quiescence"
    );
    assert!(
        stats.yields >= HOT_ITERS as u64,
        "every hot iteration parks at least once (got {} yields)",
        stats.yields
    );
    assert!(
        summary.fast_admits() > 0,
        "clean sites must take the no-engine fast path"
    );
    assert!(
        summary.published() > 0,
        "the nesting thread must publish fast holds through the slow path"
    );
}

/// Threads of the clean-contention count test.
const CONTENDED_THREADS: usize = 64;
/// Shared locks of each kind.
const CONTENDED_LOCKS: usize = 8;
/// Un-nested sections per thread, alternating mutex and rwlock.
const CONTENDED_SECTIONS: usize = 600;
/// Every eighth rwlock section takes the write side.
const WRITE_EVERY: usize = 8;

/// The counts of the many-thread regime, exact on any host: 64 threads
/// contend for 8 shared mutexes and 8 shared rwlocks with an empty history
/// and nothing nested. No signature is ever installed, so the epoch the
/// fast path reads never moves and no owner is ever a blocker: every
/// admission is a lock-free one, the engine sees no request, and nobody
/// parks. The fast-path counters are striped by owner (64 threads = 4 per
/// stripe) and summed by `stats()`; the totals are live and exact, so they
/// are read twice: once every section has run but half the threads are still
/// registered, and again once all have retired. (The timings of this regime
/// are `flat_sections` of the `benchmark/` package.)
#[test]
fn clean_contended_sections_are_all_fast_admits() {
    let rt = DimmunixRuntime::builder().shards(8).build();
    let mutexes: Vec<ImmuneMutex<u64>> = (0..CONTENDED_LOCKS)
        .map(|_| ImmuneMutex::new_in(&rt, 0))
        .collect();
    let rwlocks: Vec<ImmuneRwLock<u64>> = (0..CONTENDED_LOCKS)
        .map(|_| ImmuneRwLock::new_in(&rt, 0))
        .collect();
    let start = Barrier::new(CONTENDED_THREADS);
    // Every worker and the main thread; then the odd workers and the main
    // thread.
    let sections_done = Barrier::new(CONTENDED_THREADS + 1);
    let resume = Barrier::new(CONTENDED_THREADS / 2 + 1);
    let sections = (CONTENDED_THREADS * CONTENDED_SECTIONS) as u64;
    let assert_exact_counts = |stats: dimmunix_core::Stats| {
        assert_eq!(stats.fast_admits, sections);
        assert_eq!(stats.slow_fallbacks, 0);
        assert_eq!(stats.yields, 0);
        assert_eq!(stats.deadlocks_detected, 0);
        assert_eq!(stats.grants + stats.reentrant_grants, stats.requests);
        assert_eq!(stats.acquisitions, sections);
        assert_eq!(stats.releases, sections);
    };

    thread::scope(|scope| {
        for w in 0..CONTENDED_THREADS {
            let (rt, mutexes, rwlocks, start) = (&rt, &mutexes, &rwlocks, &start);
            let (sections_done, resume) = (&sections_done, &resume);
            scope.spawn(move || {
                let line = w as u32;
                let mutex_site = AcquisitionSite::new("contended.mutex", FILE, line);
                let read_site = AcquisitionSite::new("contended.read", FILE, line);
                let write_site = AcquisitionSite::new("contended.write", FILE, line);
                start.wait();
                for i in 0..CONTENDED_SECTIONS {
                    let (pair, slot) = (i / 2, (i / 2 + w) % CONTENDED_LOCKS);
                    if i % 2 == 0 {
                        *mutexes[slot].lock_at(mutex_site).unwrap() += 1;
                    } else if pair % WRITE_EVERY == 0 {
                        *rwlocks[slot].write_at(write_site).unwrap() += 1;
                    } else {
                        std::hint::black_box(*rwlocks[slot].read_at(read_site).unwrap());
                    }
                }
                // Even workers retire before the first read, odd ones after.
                if w % 2 == 0 {
                    rt.retire_current_thread();
                }
                sections_done.wait();
                if w % 2 == 1 {
                    resume.wait();
                    rt.retire_current_thread();
                }
            });
        }
        sections_done.wait();
        // Read, release the odd workers, then assert: a failed assertion
        // must not leave them waiting.
        let half_live = rt.stats();
        resume.wait();
        assert_exact_counts(half_live);
    });
    assert_exact_counts(rt.stats());
    // Every write landed: the sections really ran under their locks.
    let mutex_sum: u64 = mutexes.iter().map(|m| *m.lock().unwrap()).sum();
    let rwlock_sum: u64 = rwlocks.iter().map(|l| *l.read().unwrap()).sum();
    let pairs = CONTENDED_SECTIONS / 2;
    assert_eq!(mutex_sum, (CONTENDED_THREADS * pairs) as u64);
    assert_eq!(
        rwlock_sum,
        (CONTENDED_THREADS * pairs.div_ceil(WRITE_EVERY)) as u64
    );
}
