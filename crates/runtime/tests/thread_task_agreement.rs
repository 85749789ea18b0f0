//! The thread hooks and the task hooks are adapters around one locked
//! admission path: the same two-owner AB/BA script, driven through both,
//! must leave the same engine counters and the same learned history — on a
//! learning run (one detection, one refusal) and on a replay of the learned
//! history (one avoidance park woken by the blocker's release, then a nested
//! acquisition at a clean site). Only the hooks are driven; there are no
//! real locks to block on, so every decision is the engine's. Where the
//! adapters legitimately differ (a hold-free owner at a clean site is
//! admitted lock-free and published by its nested request — a task's also
//! by any signature install in between) `DimmunixRuntime::stats` folds both
//! into the same totals.

use dimmunix_core::{History, LockId, Signature, SignatureKind, SignaturePair, Stats, TaskId};
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

/// Spins until the runtime has decided `n` parks. A thread parks inside
/// `before_acquire`, so no barrier can mark the park; the yield counter ticks
/// at the park decision, under the locks the waker is queued under.
fn await_yields(rt: &DimmunixRuntime, n: u64) {
    while rt.stats().yields < n {
        std::thread::yield_now();
    }
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
            await_yields(&rt, 1); // X holds A, Y is parked
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

// A signature over two sites of their own, for the park-queue scripts below.

const P_A: AcquisitionSite = AcquisitionSite::new("agree.park_a", FILE, 1);
const P_B: AcquisitionSite = AcquisitionSite::new("agree.park_b", FILE, 1);

/// History holding the one signature `(P_A, P_B)`: while someone occupies
/// `P_A`, a request at `P_B` parks.
fn park_history() -> History {
    let pair = |s: AcquisitionSite| SignaturePair::new(s.to_call_stack(), s.to_call_stack());
    let mut history = History::new();
    history.add(Signature::new(
        SignatureKind::Deadlock,
        vec![pair(P_A), pair(P_B)],
    ));
    history
}

fn counting_waker() -> (Arc<CountingWake>, Waker) {
    let count = Arc::new(CountingWake::default());
    let waker = Waker::from(Arc::clone(&count));
    (count, waker)
}

/// A grant occupies its position's slot until the acquisition is finished
/// and released — or cancelled. The cancel vacates the slot like a release,
/// so it owes the owners parked behind it the same wake-up.
#[test]
fn cancelled_grant_wakes_the_task_parked_behind_it() {
    let (rt, [la, lb, _]) = runtime(park_history());
    let (holder, waiter) = (rt.register_task(None), rt.register_task(None));
    let (wakes, w) = counting_waker();
    let granted = rt.task_begin_acquire(holder, la, P_A, &w);
    assert_eq!(granted, TaskAcquire::Granted); // never finished
    let parked = rt.task_begin_acquire(waiter, lb, P_B, &w);
    assert!(matches!(parked, TaskAcquire::Parked { .. }));
    rt.task_cancel_acquire(holder, la);
    assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "the cancel wakes W");
    task_acquire(&rt, &w, waiter, lb, P_B);
    rt.task_release(waiter, lb);
    assert_eq!(rt.stats().yields, 1);
}

/// The same through the thread hooks, where `ImmuneMutex::try_lock` reaches
/// it (grant, `WouldBlock`, `cancel_acquire`): the parked thread has nothing
/// but the cancel's wake-up to return on.
#[test]
fn cancelled_grant_wakes_the_thread_parked_behind_it() {
    let (rt, [la, lb, _]) = runtime(park_history());
    rt.before_acquire(la, P_A).expect("granted"); // never finished
    std::thread::scope(|s| {
        s.spawn(|| {
            thread_acquire(&rt, lb, P_B);
            rt.before_release(lb);
        });
        await_yields(&rt, 1);
        rt.cancel_acquire(la);
    });
    let stats = rt.stats();
    assert_eq!((stats.yields, stats.requests), (1, 3));
}

/// Threads and tasks park in one FIFO per signature: a thread and two tasks
/// queue behind one blocker in that order, and every release at a position
/// of the signature wakes exactly the front owner, of whichever kind.
#[test]
fn mixed_owners_share_one_fifo_queue() {
    let (rt, [la, lb, _]) = runtime(park_history());
    let (t1, t2) = (rt.register_task(None), rt.register_task(None));
    let (wakes1, w1) = counting_waker();
    let (wakes2, w2) = counting_waker();
    let woken = || [&wakes1, &wakes2].map(|c| c.0.load(Ordering::SeqCst));
    // 0: the thread is parked or retrying, 1: it holds B, 2: it may release.
    let stage = AtomicUsize::new(0);
    let await_stage = |n| {
        while stage.load(Ordering::SeqCst) != n {
            std::thread::yield_now();
        }
    };

    thread_acquire(&rt, la, P_A); // the blocker

    // Nothing in the scope asserts: a panic there would strand the thread.
    let (parked, after_blocker_release) = std::thread::scope(|s| {
        s.spawn(|| {
            thread_acquire(&rt, lb, P_B); // parks first
            stage.store(1, Ordering::SeqCst);
            await_stage(2);
            rt.before_release(lb); // hands the wake to the first task
        });
        await_yields(&rt, 1);
        let parked = [(t1, &w1), (t2, &w2)].map(|(t, w)| rt.task_begin_acquire(t, lb, P_B, w));
        rt.before_release(la); // wakes the thread, and only the thread
        await_stage(1);
        let after_blocker_release = woken();
        stage.store(2, Ordering::SeqCst);
        (parked, after_blocker_release)
    });
    assert!(parked
        .iter()
        .all(|p| matches!(p, TaskAcquire::Parked { .. })));
    assert_eq!(after_blocker_release, [0, 0]);
    assert_eq!(woken(), [1, 0], "the thread's release wakes the first task");
    task_acquire(&rt, &w1, t1, lb, P_B);
    rt.task_release(t1, lb);
    assert_eq!(woken(), [1, 1], "the first task's release wakes the second");
    task_acquire(&rt, &w2, t2, lb, P_B);
    rt.task_release(t2, lb);
    assert_eq!(woken(), [1, 1]);
    assert_eq!(rt.stats().yields, 3);
}

/// An owner retired while it still holds an engine-visible lock (a worker
/// that exits holding a guard, a task torn down with one) is force-released
/// like a release: the retirement wakes the owner parked behind it, which
/// then takes its lock. The thread side: X holds A at `P_A`, Y parks at
/// `P_B` behind it, and X retires without releasing A.
fn threads_retire_a_blocker() -> Stats {
    let (rt, [la, lb, _]) = runtime(park_history());
    let step = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            thread_acquire(&rt, la, P_A);
            step.wait(); // X holds A
            await_yields(&rt, 1); // Y is parked behind X
            rt.retire_current_thread();
        });
        s.spawn(|| {
            step.wait();
            thread_acquire(&rt, lb, P_B); // parks until X's retirement
            rt.before_release(lb);
        });
    });
    rt.stats()
}

/// The same script on two tasks, retired through `retire_task`.
fn tasks_retire_a_blocker() -> Stats {
    let (rt, [la, lb, _]) = runtime(park_history());
    let (x, y) = (rt.register_task(None), rt.register_task(None));
    let (wakes, w) = counting_waker();
    task_acquire(&rt, &w, x, la, P_A);
    let parked = rt.task_begin_acquire(y, lb, P_B, &w);
    assert!(matches!(parked, TaskAcquire::Parked { .. }));
    rt.retire_task(x);
    assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "X's retirement wakes Y");
    task_acquire(&rt, &w, y, lb, P_B);
    rt.task_release(y, lb);
    rt.stats()
}

#[test]
fn retiring_a_blocker_wakes_the_owner_parked_behind_it_on_both_kinds() {
    let t = tasks_retire_a_blocker();
    // X's hold is force-released by the retirement, not counted a release.
    assert_eq!(
        [t.requests, t.yields, t.acquisitions, t.releases],
        [3, 1, 2, 1]
    );
    assert_eq!(threads_retire_a_blocker(), t);
}
