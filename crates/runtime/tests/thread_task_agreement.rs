//! The thread hooks and the task hooks are adapters around one locked
//! admission path: the same two-owner AB/BA script, driven through both,
//! must leave the same engine counters and the same learned history — on a
//! learning run (one detection, one refusal) and on a replay of the learned
//! history (one avoidance park woken by the blocker's release, then a nested
//! acquisition at a clean site). Only the hooks are driven; there are no
//! real locks to block on, so every decision is the engine's. Where the
//! adapters legitimately differ (a hold-free thread at a clean site is
//! admitted lock-free and published by its nested request; a task takes the
//! locked path from the start) `DimmunixRuntime::stats` folds both into
//! the same totals.

use dimmunix_core::{History, LockId, TaskId};
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, LockError, TaskAcquire};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::task::{Wake, Waker};

const FILE: &str = "agree.rs";
// Site keys hash scope and file, so each site needs a scope of its own.
const X_OUTER: AcquisitionSite = AcquisitionSite::new("agree.x_outer", FILE, 1);
const X_INNER: AcquisitionSite = AcquisitionSite::new("agree.x_inner", FILE, 1);
const Y_OUTER: AcquisitionSite = AcquisitionSite::new("agree.y_outer", FILE, 1);
const Y_INNER: AcquisitionSite = AcquisitionSite::new("agree.y_inner", FILE, 1);
const Y_CLEAN: AcquisitionSite = AcquisitionSite::new("agree.y_clean", FILE, 1);

/// (requests, grants, yields, deadlocks_detected, acquisitions, releases)
/// and the history's text form.
type Run = ([u64; 6], String);

fn runtime(history: History) -> (Arc<DimmunixRuntime>, [LockId; 3]) {
    let rt = DimmunixRuntime::builder()
        .shards(4)
        .history(history)
        .build();
    let locks = [rt.allocate_lock(), rt.allocate_lock(), rt.allocate_lock()];
    (rt, locks)
}

fn run_of(rt: &DimmunixRuntime) -> Run {
    let s = rt.stats();
    let totals = [
        s.requests,
        s.grants,
        s.yields,
        s.deadlocks_detected,
        s.acquisitions,
        s.releases,
    ];
    (totals, rt.history().to_text())
}

// Thread side: two OS threads, one barrier wait per script step.

fn thread_acquire(rt: &DimmunixRuntime, lock: LockId, site: AcquisitionSite) {
    rt.before_acquire(lock, site).expect("granted");
    rt.after_acquire(lock);
}

fn threads_learn() -> Run {
    let (rt, [la, lb, _]) = runtime(History::new());
    let step = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            thread_acquire(&rt, la, X_OUTER);
            step.wait(); // X holds A
            step.wait(); // Y holds B
            rt.before_acquire(lb, X_INNER).expect("granted");
            step.wait(); // X waits for B
            step.wait(); // Y was refused and released B
            rt.after_acquire(lb);
            rt.before_release(lb);
            rt.before_release(la);
        });
        s.spawn(|| {
            step.wait();
            thread_acquire(&rt, lb, Y_OUTER);
            step.wait();
            step.wait();
            let refusal = rt.before_acquire(la, Y_INNER);
            assert!(matches!(refusal, Err(LockError::WouldDeadlock { .. })));
            rt.before_release(lb);
            step.wait();
        });
    });
    run_of(&rt)
}

fn threads_replay(learned: History) -> Run {
    let (rt, [la, lb, lc]) = runtime(learned);
    let step = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            thread_acquire(&rt, la, X_OUTER);
            step.wait();
            // X holds A. Y parks inside `before_acquire`, so no barrier can
            // mark the park; the yield counter ticks at the park decision.
            while rt.stats().yields == 0 {
                std::thread::yield_now();
            }
            thread_acquire(&rt, lb, X_INNER);
            rt.before_release(lb);
            rt.before_release(la); // wakes Y
        });
        s.spawn(|| {
            step.wait();
            thread_acquire(&rt, lb, Y_OUTER); // parks until X releases A
            thread_acquire(&rt, lc, Y_CLEAN);
            rt.before_release(lc);
            rt.before_release(lb);
        });
    });
    run_of(&rt)
}

// Task side: two registered tasks driven in script order from one thread.

#[derive(Default)]
struct CountingWake(AtomicUsize);

impl Wake for CountingWake {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn task_acquire(rt: &DimmunixRuntime, w: &Waker, t: TaskId, l: LockId, at: AcquisitionSite) {
    let answer = rt.task_begin_acquire(t, l, at, w);
    assert_eq!(answer, TaskAcquire::Granted);
    rt.task_finish_acquire(t, l);
}

fn tasks_learn() -> Run {
    let (rt, [la, lb, _]) = runtime(History::new());
    let (x, y) = (rt.register_task(None), rt.register_task(None));
    let w = Waker::from(Arc::new(CountingWake::default()));
    task_acquire(&rt, &w, x, la, X_OUTER);
    task_acquire(&rt, &w, y, lb, Y_OUTER);
    let granted = rt.task_begin_acquire(x, lb, X_INNER, &w);
    assert_eq!(granted, TaskAcquire::Granted);
    let refusal = rt.task_begin_acquire(y, la, Y_INNER, &w);
    assert!(matches!(refusal, TaskAcquire::WouldDeadlock(_)));
    rt.task_release(y, lb);
    rt.task_finish_acquire(x, lb);
    rt.task_release(x, lb);
    rt.task_release(x, la);
    run_of(&rt)
}

fn tasks_replay(learned: History) -> Run {
    let (rt, [la, lb, lc]) = runtime(learned);
    let (x, y) = (rt.register_task(None), rt.register_task(None));
    let wakes = Arc::new(CountingWake::default());
    let w = Waker::from(Arc::clone(&wakes));
    task_acquire(&rt, &w, x, la, X_OUTER);
    let parked = rt.task_begin_acquire(y, lb, Y_OUTER, &w);
    assert!(matches!(parked, TaskAcquire::Parked { .. }));
    task_acquire(&rt, &w, x, lb, X_INNER);
    rt.task_release(x, lb);
    assert_eq!(wakes.0.load(Ordering::SeqCst), 0);
    rt.task_release(x, la);
    assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "A's release wakes Y");
    task_acquire(&rt, &w, y, lb, Y_OUTER);
    task_acquire(&rt, &w, y, lc, Y_CLEAN);
    rt.task_release(y, lc);
    rt.task_release(y, lb);
    run_of(&rt)
}

#[test]
fn thread_and_task_locked_paths_agree() {
    let learned = tasks_learn();
    assert_eq!(learned.0, [4, 3, 0, 1, 3, 3]);
    assert_eq!(threads_learn(), learned);
    let history = History::from_text(&learned.1).expect("learned history parses");
    assert_eq!(history.len(), 1);

    let replayed = tasks_replay(history.clone());
    assert_eq!(replayed, ([5, 4, 1, 0, 4, 4], learned.1));
    assert_eq!(threads_replay(history), replayed);
}
