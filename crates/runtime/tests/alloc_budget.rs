//! The allocation budget of the acquisition paths, counted by an allocator
//! local to this test binary: once warm, none of them allocates short of an
//! avoidance park, whose two allocations are named below. The locked
//! engine path used to allocate twelve times per nested transfer as counted
//! here (guard and engine lists, a successor list per cycle search, a cloned
//! frame per intern, a drained wake list) and five per task cycle; none of
//! that was deadlock logic. The counts repeat exactly, so they are asserted
//! exactly.

use dimmunix_core::{History, Signature, SignatureKind, SignaturePair};
use dimmunix_rt::asyncio::{yield_now, Executor, Mutex, RwLock};
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, ImmuneMutex, TaskAcquire};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Wake, Waker};

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter with a
// const initialiser and no destructor, so touching it allocates nothing and
// is valid for the whole life of a thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn the_counter_counts() {
    let buffer = || drop(std::hint::black_box(Vec::<u64>::with_capacity(8)));
    assert_eq!(allocations(buffer), 1);
}

const FILE: &str = "alloc_budget.rs";
const OUTER: AcquisitionSite = AcquisitionSite::new("budget.debit", FILE, 1);
const INNER: AcquisitionSite = AcquisitionSite::new("budget.credit", FILE, 2);
const FLAT: AcquisitionSite = AcquisitionSite::new("budget.flat", FILE, 3);

/// A 2-shard runtime whose history is not empty (so every locked request
/// runs the avoidance check) but names none of this file's sites.
fn runtime() -> Arc<DimmunixRuntime> {
    let elsewhere = |line| AcquisitionSite::new("budget.elsewhere", FILE, line).to_call_stack();
    let mut history = History::new();
    history.add(Signature::new(
        SignatureKind::Deadlock,
        vec![
            SignaturePair::new(elsewhere(10), elsewhere(11)),
            SignaturePair::new(elsewhere(20), elsewhere(21)),
        ],
    ));
    DimmunixRuntime::builder()
        .shards(2)
        .history(history)
        .build()
}

const WARM_UP: usize = 10;
const COUNTED: usize = 1000;

/// Two-lock transfers, as `nested_transfers` makes them: the first lock is
/// admitted lock-free, the second publishes it and takes the all-shard path.
/// A position's `OwnerQueue` goes from no occupant to one and back on every
/// transfer, but a `BTreeMap` keeps its emptied root leaf, so after the
/// warm-up even that is free.
#[test]
fn nested_transfer_allocates_nothing() {
    let rt = runtime();
    let accounts: Vec<ImmuneMutex<i64>> = (0..8).map(|_| ImmuneMutex::new_in(&rt, 100)).collect();
    let on = |shard: usize| {
        let mut found = accounts
            .iter()
            .filter(|a| rt.shard_of(a.lock_id()) == shard);
        (found.next().expect("first"), found.next().expect("second"))
    };
    let ((a0, b0), (a1, _)) = (on(0), on(1));
    // Same shard, and across shards in both directions.
    let pairs = [(a0, b0), (a0, a1), (a1, b0)];
    let transfer = |i: usize| {
        let (from, to) = pairs[i % pairs.len()];
        let mut from = from.lock_at(OUTER).expect("clean history");
        let mut to = to.lock_at(INNER).expect("clean history");
        *from -= 1;
        *to += 1;
    };
    (0..WARM_UP).for_each(transfer);
    let counted = allocations(|| (0..COUNTED).for_each(transfer));
    assert_eq!(counted, 0);
    assert_eq!(rt.stats().yields + rt.stats().deadlocks_detected, 0);
}

/// Un-nested sections at a clean site never reach the engine.
#[test]
fn flat_section_allocates_nothing() {
    let rt = runtime();
    let m = ImmuneMutex::new_in(&rt, 0u64);
    let section = |_| *m.lock_at(FLAT).expect("clean history") += 1;
    (0..WARM_UP).for_each(section);
    assert_eq!(allocations(|| (0..COUNTED).for_each(section)), 0);
    assert_eq!(rt.stats().fast_admits, (WARM_UP + COUNTED) as u64);
}

struct NoOp;

impl Wake for NoOp {
    fn wake(self: Arc<Self>) {}
}

/// The task hooks, which always take the locked path (home shard alone for a
/// hold-free task): no more per cycle than a nested transfer, i.e. nothing.
#[test]
fn task_cycle_allocates_nothing() {
    let rt = runtime();
    let lock = rt.allocate_lock();
    let task = rt.register_task(None);
    let waker = Waker::from(Arc::new(NoOp));
    let cycle = |_| {
        let answer = rt.task_begin_acquire(task, lock, FLAT, &waker);
        assert_eq!(answer, TaskAcquire::Granted);
        rt.task_finish_acquire(task, lock);
        rt.task_release(task, lock);
    };
    (0..WARM_UP).for_each(cycle);
    assert_eq!(allocations(|| (0..COUNTED).for_each(cycle)), 0);
}

const HOT: AcquisitionSite = AcquisitionSite::new("budget.hot", FILE, 4);
const WARM: AcquisitionSite = AcquisitionSite::new("budget.warm", FILE, 5);

/// A 2-shard runtime whose history has `HOT` co-indexed by eight signatures
/// of arity 3, `(HOT, WARM, cold_k)`, where nothing ever acquires at a
/// `cold_k`, and after them, if asked, one signature `(HOT, WARM)` that can
/// instantiate.
fn hot_runtime(instantiable: bool) -> Arc<DimmunixRuntime> {
    let pair =
        |site: AcquisitionSite| SignaturePair::new(site.to_call_stack(), site.to_call_stack());
    let mut history = History::new();
    for k in 0..8 {
        let cold = AcquisitionSite::new("budget.cold", FILE, 100 + k);
        let pairs = vec![pair(HOT), pair(WARM), pair(cold)];
        history.add(Signature::new(SignatureKind::Deadlock, pairs));
    }
    if instantiable {
        let pairs = vec![pair(HOT), pair(WARM)];
        history.add(Signature::new(SignatureKind::Deadlock, pairs));
    }
    DimmunixRuntime::builder()
        .shards(2)
        .history(history)
        .build()
}

/// The avoidance decision where it is busiest without a match: a request at
/// an in-history position takes the all-shard path and examines eight
/// signatures, each rejected by the cold-slot screen before a candidate is
/// collected; the release at that position notifies the same eight
/// signatures, on which nobody is parked, so no waker queue exists to look
/// at, let alone create.
#[test]
fn hot_position_with_cold_slots_allocates_nothing() {
    let rt = hot_runtime(false);
    let (warm, hot) = (rt.allocate_lock(), rt.allocate_lock());
    let (holder, task) = (rt.register_task(None), rt.register_task(None));
    let waker = Waker::from(Arc::new(NoOp));
    assert_eq!(
        rt.task_begin_acquire(holder, warm, WARM, &waker),
        TaskAcquire::Granted
    );
    rt.task_finish_acquire(holder, warm);
    let examined = || rt.stats().signatures_examined;
    let request = || {
        assert_eq!(
            rt.task_begin_acquire(task, hot, HOT, &waker),
            TaskAcquire::Granted
        );
        rt.task_finish_acquire(task, hot);
    };
    let release = || rt.task_release(task, hot);
    for _ in 0..WARM_UP {
        request();
        release();
    }
    let before = examined();
    let (mut requests, mut releases) = (0, 0);
    for _ in 0..COUNTED {
        requests += allocations(request);
        releases += allocations(release);
    }
    assert_eq!((requests, releases), (0, 0));
    assert_eq!(examined() - before, 8 * COUNTED as u64);
    assert_eq!(rt.stats().yields, 0);
}

/// A yield and its granted retry: the one decision that allocates. A park
/// costs exactly two allocations — the yield record's blocker list (the
/// match, its starvation probe and the record's table entry reuse warm
/// memory), and the signature's waker queue, created by the first owner to
/// park on a signature nobody is parked on and dropped with its last waiter.
/// The blocker's release that wakes the task and the retry that is granted
/// allocate nothing.
#[test]
fn yield_and_granted_retry_allocation_count() {
    let rt = hot_runtime(true);
    let (warm, hot) = (rt.allocate_lock(), rt.allocate_lock());
    let (holder, task) = (rt.register_task(None), rt.register_task(None));
    let waker = Waker::from(Arc::new(NoOp));
    let (mut parks, mut wakes, mut retries) = (0, 0, 0);
    for round in 0..WARM_UP + COUNTED {
        assert_eq!(
            rt.task_begin_acquire(holder, warm, WARM, &waker),
            TaskAcquire::Granted
        );
        rt.task_finish_acquire(holder, warm);
        let park = allocations(|| {
            let answer = rt.task_begin_acquire(task, hot, HOT, &waker);
            assert!(matches!(answer, TaskAcquire::Parked { .. }));
        });
        let wake = allocations(|| rt.task_release(holder, warm));
        let retry = allocations(|| {
            assert_eq!(
                rt.task_begin_acquire(task, hot, HOT, &waker),
                TaskAcquire::Granted
            );
            rt.task_finish_acquire(task, hot);
            rt.task_release(task, hot);
        });
        if round >= WARM_UP {
            parks += park;
            wakes += wake;
            retries += retry;
        }
    }
    assert_eq!((parks, wakes, retries), (2 * COUNTED as u64, 0, 0));
    assert_eq!(rt.stats().yields, (WARM_UP + COUNTED) as u64);
}

/// The same park made by a thread costs no more: the waker it queues is a
/// clone of its thread-local parker (allocated by the thread's first park, in
/// the warm-up), and sleeping, being unparked and the granted retry allocate
/// nothing.
#[test]
fn thread_park_allocates_no_more_than_a_task_park() {
    const ROUNDS: usize = 200;
    let rt = hot_runtime(true);
    let (warm, hot) = (rt.allocate_lock(), rt.allocate_lock());
    let holder = rt.register_task(None);
    let waker = Waker::from(Arc::new(NoOp));
    let step = std::sync::Barrier::new(2);
    let parks = std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            let mut parks = 0;
            for round in 0..WARM_UP + ROUNDS {
                step.wait(); // the holder occupies WARM
                let park = allocations(|| rt.before_acquire(hot, HOT).expect("granted"));
                rt.after_acquire(hot);
                rt.before_release(hot);
                step.wait();
                if round >= WARM_UP {
                    parks += park;
                }
            }
            parks
        });
        // No assertion in here: a panic would strand the waiter at the barrier.
        let mut granted = 0;
        for round in 0..WARM_UP + ROUNDS {
            let answer = rt.task_begin_acquire(holder, warm, WARM, &waker);
            granted += usize::from(answer == TaskAcquire::Granted);
            rt.task_finish_acquire(holder, warm);
            step.wait();
            while rt.stats().yields <= round as u64 {
                std::thread::yield_now();
            }
            rt.task_release(holder, warm); // wakes the waiter
            step.wait();
        }
        (waiter.join().expect("waiter"), granted)
    });
    assert_eq!(parks, (2 * ROUNDS as u64, WARM_UP + ROUNDS));
    assert_eq!(rt.stats().yields, (WARM_UP + ROUNDS) as u64);
}

/// A warm task's poll and wake: 1000 `yield_now`s, each a wake and a poll
/// by the executor, which lends every poll the waker built at spawn.
#[test]
fn warm_executor_poll_allocates_nothing() {
    let rt = runtime();
    let ex = Executor::new_in(&rt, 2);
    let counted = Rc::new(Cell::new(u64::MAX));
    let out = Rc::clone(&counted);
    ex.spawn(async move {
        for _ in 0..WARM_UP {
            yield_now().await;
        }
        let before = ALLOCS.with(Cell::get);
        for _ in 0..COUNTED {
            yield_now().await;
        }
        out.set(ALLOCS.with(Cell::get) - before);
    });
    assert_eq!(ex.run().completed, 1);
    assert_eq!(counted.get(), 0);
}

const HANDOFFS: usize = 100;
const WARM_HANDOFFS: usize = 20;

/// The guard drops a holder task makes of a contended async lock: how many
/// tasks wait for the lock at each, and what each allocates.
#[derive(Default)]
struct Handoffs {
    waiting: Cell<usize>,
    drops: RefCell<Vec<u64>>,
}

impl Handoffs {
    /// Awaits `acquire` as a waiter the holder's drops can see.
    async fn wait<F: Future>(&self, acquire: F) -> F::Output {
        self.waiting.set(self.waiting.get() + 1);
        let out = acquire.await;
        self.waiting.set(self.waiting.get() - 1);
        out
    }

    /// Drops `guard` with `waiters` tasks queued behind it, counting what
    /// the drop allocates.
    fn hand_off<G>(&self, guard: G, waiters: usize) {
        let at = self.drops.borrow().len();
        assert_eq!(self.waiting.get(), waiters, "hand-off {at}");
        let allocated = allocations(|| drop(guard));
        self.drops.borrow_mut().push(allocated);
    }

    /// Runs `ex` to completion and sums the warm drops' allocations.
    fn run(&self, ex: &Executor, tasks: usize) -> u64 {
        let report = ex.run();
        assert_eq!((report.completed, report.stuck), (tasks, 0));
        let drops = self.drops.borrow();
        assert_eq!(drops.len(), HANDOFFS);
        drops[WARM_HANDOFFS..].iter().sum()
    }
}

/// The holder of an `asyncio::Mutex` drops its guard with the other task
/// queued, so the drop hands the lock on.
#[test]
fn contended_mutex_hand_off_allocates_nothing() {
    let rt = runtime();
    let ex = Executor::new_in(&rt, 2);
    let (lock, log) = (
        Rc::new(Mutex::new_in(&rt, 0u64)),
        Rc::new(Handoffs::default()),
    );
    let (l, h, log2) = (Rc::clone(&lock), Rc::clone(&log), Rc::clone(&log));
    ex.spawn(async move {
        for _ in 0..HANDOFFS {
            let guard = l.lock_at(FLAT).await.expect("clean history");
            yield_now().await;
            h.hand_off(guard, 1);
            yield_now().await;
        }
    });
    ex.spawn(async move {
        for _ in 0..HANDOFFS {
            *log2.wait(lock.lock_at(FLAT)).await.expect("clean history") += 1;
            yield_now().await;
        }
    });
    assert_eq!(log.run(&ex, 2), 0);
}

/// The same on the write side of an `asyncio::RwLock`.
#[test]
fn contended_write_hand_off_allocates_nothing() {
    let rt = runtime();
    let ex = Executor::new_in(&rt, 2);
    let (lock, log) = (
        Rc::new(RwLock::new_in(&rt, 0u64)),
        Rc::new(Handoffs::default()),
    );
    let (l, h, log2) = (Rc::clone(&lock), Rc::clone(&log), Rc::clone(&log));
    ex.spawn(async move {
        for _ in 0..HANDOFFS {
            let guard = l.write_at(FLAT).await.expect("clean history");
            yield_now().await;
            h.hand_off(guard, 1);
            yield_now().await;
        }
    });
    ex.spawn(async move {
        for _ in 0..HANDOFFS {
            *log2.wait(lock.write_at(FLAT)).await.expect("clean history") += 1;
            yield_now().await;
        }
    });
    assert_eq!(log.run(&ex, 2), 0);
}

/// A write release that hands the lock to a batch of two queued readers,
/// woken one at a time with no list gathered.
#[test]
fn write_hand_off_to_a_reader_batch_allocates_nothing() {
    let rt = runtime();
    let ex = Executor::new_in(&rt, 2);
    let (lock, log) = (
        Rc::new(RwLock::new_in(&rt, 0u64)),
        Rc::new(Handoffs::default()),
    );
    let (l, h) = (Rc::clone(&lock), Rc::clone(&log));
    ex.spawn(async move {
        for _ in 0..HANDOFFS {
            let guard = l.write_at(FLAT).await.expect("clean history");
            yield_now().await;
            h.hand_off(guard, 2);
            yield_now().await;
        }
    });
    for _ in 0..2 {
        let (l, h) = (Rc::clone(&lock), Rc::clone(&log));
        ex.spawn(async move {
            for _ in 0..HANDOFFS {
                drop(h.wait(l.read_at(FLAT)).await.expect("clean history"));
                yield_now().await;
            }
        });
    }
    assert_eq!(log.run(&ex, 3), 0);
}
