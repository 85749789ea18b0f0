//! The async workloads: a request-serving server on the deterministic
//! executor. Every request locks a pair of shared resources, holds the first
//! across one `.await`, then updates a global statistics lock.
//!
//! The immune run uses `asyncio::Executor` and `asyncio::Mutex` as an
//! application would. The bare twin uses [`BareExecutor`] and a
//! [`BenchMutex`] without hooks: the same FIFO scheduling and the same
//! hand-the-lock-to-the-front-waiter discipline, minus every call into the
//! runtime (task registration included), so the difference between the two
//! is the whole cost of task-keyed immunity. The traced run puts
//! [`BenchMutex`] *with* hooks on the real executor: it calls the runtime's
//! public task hooks by hand, in the order `asyncio::Mutex` does, with a span
//! around each.

use crate::inputs::Request;
use crate::spans::{Spans, Stage};
use dimmunix_core::LockId;
use dimmunix_rt::asyncio::{self, current_task, yield_now, Executor, ExecutorReport};
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, LockError, TaskAcquire};
use std::cell::{Cell, RefCell, RefMut};
use std::collections::{HashMap, HashSet, VecDeque};
use std::future::Future;
use std::hint::black_box;
use std::ops::DerefMut;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

// One site per code path, as a server binary would have them. Canonical and
// inverted handlers are distinct paths, so a learned signature names the
// inverted pair only.
const SITE_CANON_FIRST: AcquisitionSite = AcquisitionSite::new("srv.canonical.first", "srv.rs", 1);
const SITE_CANON_SECOND: AcquisitionSite =
    AcquisitionSite::new("srv.canonical.second", "srv.rs", 2);
const SITE_INV_FIRST: AcquisitionSite = AcquisitionSite::new("srv.inverted.first", "srv.rs", 3);
const SITE_INV_SECOND: AcquisitionSite = AcquisitionSite::new("srv.inverted.second", "srv.rs", 4);
const SITE_RETRY_FIRST: AcquisitionSite = AcquisitionSite::new("srv.retry.first", "srv.rs", 5);
const SITE_RETRY_SECOND: AcquisitionSite = AcquisitionSite::new("srv.retry.second", "srv.rs", 6);
const SITE_STATS: AcquisitionSite = AcquisitionSite::new("srv.stats", "srv.rs", 7);
const SITE_SPAWN: AcquisitionSite = AcquisitionSite::new("srv.accept", "srv.rs", 8);

/// Stand-in for the request's computation inside the critical section.
fn spin(units: u32) {
    let mut x = 0x9e37_79b9u32;
    for _ in 0..units {
        x = black_box(x.wrapping_mul(0x85eb_ca6b) ^ (x >> 13));
    }
}

/// An async mutex the server can be written against.
pub trait ServerLock: 'static {
    type Guard<'a>: DerefMut<Target = u64>
    where
        Self: 'a;
    fn acquire(
        &self,
        site: AcquisitionSite,
    ) -> impl Future<Output = Result<Self::Guard<'_>, LockError>>;
    /// The protected counter, once every task is done.
    fn into_value(self) -> u64;
}

impl ServerLock for asyncio::Mutex<u64> {
    type Guard<'a> = asyncio::MutexGuard<'a, u64>;
    fn acquire(
        &self,
        site: AcquisitionSite,
    ) -> impl Future<Output = Result<Self::Guard<'_>, LockError>> {
        self.lock_at(site)
    }
    fn into_value(self) -> u64 {
        self.into_inner()
    }
}

/// Runtime hooks of a traced [`BenchMutex`].
struct Hooks {
    rt: Arc<DimmunixRuntime>,
    id: LockId,
    spans: Rc<RefCell<Spans>>,
}

/// Bench-local async mutex: bare without hooks, hand-replayed with them.
pub struct BenchMutex {
    locked: Cell<bool>,
    waiters: RefCell<VecDeque<Waker>>,
    data: RefCell<u64>,
    hooks: Option<Hooks>,
}

impl BenchMutex {
    pub fn bare() -> Self {
        BenchMutex {
            locked: Cell::new(false),
            waiters: RefCell::new(VecDeque::new()),
            data: RefCell::new(0),
            hooks: None,
        }
    }

    pub fn traced(rt: &Arc<DimmunixRuntime>, spans: &Rc<RefCell<Spans>>) -> Self {
        BenchMutex {
            hooks: Some(Hooks {
                rt: Arc::clone(rt),
                id: rt.allocate_lock(),
                spans: Rc::clone(spans),
            }),
            ..Self::bare()
        }
    }
}

pub struct BenchLockFuture<'a> {
    lock: &'a BenchMutex,
    site: AcquisitionSite,
    approved: bool,
}

impl<'a> Future for BenchLockFuture<'a> {
    type Output = Result<BenchGuard<'a>, LockError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let lock = self.lock;
        if let (Some(h), false) = (&lock.hooks, self.approved) {
            let task = current_task().expect("traced locks are polled on the real executor");
            let start = Instant::now();
            let answer = h.rt.task_begin_acquire(task, h.id, self.site, cx.waker());
            h.spans
                .borrow_mut()
                .record(Stage::TaskBeginAcquire, start, Instant::now());
            match answer {
                TaskAcquire::Granted => self.approved = true,
                TaskAcquire::Parked { .. } => return Poll::Pending,
                TaskAcquire::WouldDeadlock(err) => {
                    h.rt.task_cancel_acquire(task, h.id);
                    return Poll::Ready(Err(err));
                }
            }
        }
        if lock.locked.get() {
            lock.waiters.borrow_mut().push_back(cx.waker().clone());
            return Poll::Pending;
        }
        lock.locked.set(true);
        if let Some(h) = &lock.hooks {
            let task = current_task().expect("checked above");
            let start = Instant::now();
            h.rt.task_finish_acquire(task, h.id);
            h.spans
                .borrow_mut()
                .record(Stage::TaskFinishAcquire, start, Instant::now());
        }
        Poll::Ready(Ok(BenchGuard {
            lock,
            inner: Some(lock.data.borrow_mut()),
        }))
    }
}

pub struct BenchGuard<'a> {
    lock: &'a BenchMutex,
    inner: Option<RefMut<'a, u64>>,
}

impl std::ops::Deref for BenchGuard<'_> {
    type Target = u64;
    fn deref(&self) -> &u64 {
        self.inner.as_ref().expect("guard not yet dropped")
    }
}

impl DerefMut for BenchGuard<'_> {
    fn deref_mut(&mut self) -> &mut u64 {
        self.inner.as_mut().expect("guard not yet dropped")
    }
}

impl Drop for BenchGuard<'_> {
    fn drop(&mut self) {
        self.inner = None;
        self.lock.locked.set(false);
        let next = self.lock.waiters.borrow_mut().pop_front();
        if let Some(h) = &self.lock.hooks {
            let task = current_task().expect("guards drop inside their task");
            let start = Instant::now();
            h.rt.task_release(task, h.id);
            h.spans
                .borrow_mut()
                .record(Stage::TaskRelease, start, Instant::now());
        }
        if let Some(w) = next {
            w.wake();
        }
    }
}

impl ServerLock for BenchMutex {
    type Guard<'a> = BenchGuard<'a>;
    fn acquire(
        &self,
        site: AcquisitionSite,
    ) -> impl Future<Output = Result<Self::Guard<'_>, LockError>> {
        BenchLockFuture {
            lock: self,
            site,
            approved: false,
        }
    }
    fn into_value(self) -> u64 {
        self.data.into_inner()
    }
}

/// Something that can run the server's tasks to completion.
pub trait Exec {
    fn spawn_task(&self, future: impl Future<Output = ()> + 'static);
    fn drain(&self) -> ExecutorReport;
}

impl Exec for Executor {
    fn spawn_task(&self, future: impl Future<Output = ()> + 'static) {
        self.spawn_at(SITE_SPAWN, future);
    }
    fn drain(&self) -> ExecutorReport {
        self.run()
    }
}

#[derive(Default)]
struct ReadyQueue {
    queue: VecDeque<u64>,
    queued: HashSet<u64>,
}

struct BareWaker {
    ready: Arc<Mutex<ReadyQueue>>,
    id: u64,
}

impl Wake for BareWaker {
    fn wake(self: Arc<Self>) {
        let mut ready = self.ready.lock().expect("single-threaded");
        if ready.queued.insert(self.id) {
            ready.queue.push_back(self.id);
        }
    }
}

type Task = Pin<Box<dyn Future<Output = ()>>>;

/// The executor's bare twin: the same deduplicated FIFO ready queue, the
/// same one-waker-per-poll scheme, and no runtime.
#[derive(Default)]
pub struct BareExecutor {
    tasks: RefCell<HashMap<u64, Task>>,
    ready: Arc<Mutex<ReadyQueue>>,
    next_id: Cell<u64>,
}

impl Exec for BareExecutor {
    fn spawn_task(&self, future: impl Future<Output = ()> + 'static) {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        self.tasks.borrow_mut().insert(id, Box::pin(future));
        let mut ready = self.ready.lock().expect("single-threaded");
        ready.queued.insert(id);
        ready.queue.push_back(id);
    }

    fn drain(&self) -> ExecutorReport {
        let mut report = ExecutorReport::default();
        loop {
            let id = {
                let mut ready = self.ready.lock().expect("single-threaded");
                let Some(id) = ready.queue.pop_front() else {
                    break;
                };
                ready.queued.remove(&id);
                id
            };
            let Some(mut future) = self.tasks.borrow_mut().remove(&id) else {
                continue;
            };
            report.polls += 1;
            let waker = Waker::from(Arc::new(BareWaker {
                ready: Arc::clone(&self.ready),
                id,
            }));
            match future.as_mut().poll(&mut Context::from_waker(&waker)) {
                Poll::Ready(()) => report.completed += 1,
                Poll::Pending => {
                    self.tasks.borrow_mut().insert(id, future);
                }
            }
        }
        report.stuck = self.tasks.borrow().len();
        report
    }
}

/// The server's shared locks.
pub struct Locks<L> {
    pub resources: Vec<L>,
    pub stats: L,
}

impl<L> Locks<L> {
    pub fn new(resources: usize, mut make: impl FnMut() -> L) -> Rc<Self> {
        Rc::new(Locks {
            resources: (0..resources).map(|_| make()).collect(),
            stats: make(),
        })
    }
}

/// What one pass of the request plan did.
#[derive(Debug, Default)]
pub struct ServeOut {
    pub report: ExecutorReport,
    pub refused: u64,
    /// Spawn to completion, per completed request, in nanoseconds.
    pub latency_ns: Vec<u32>,
    pub elapsed_ns: u64,
}

#[derive(Default)]
struct Counters {
    refused: u64,
    latency_ns: Vec<u32>,
}

async fn handle<L: ServerLock>(
    locks: Rc<Locks<L>>,
    req: Request,
    hold_inverted: bool,
    counters: Rc<RefCell<Counters>>,
) {
    let started = Instant::now();
    let (first_site, second_site) = if req.inverted && hold_inverted {
        (SITE_INV_FIRST, SITE_INV_SECOND)
    } else {
        (SITE_CANON_FIRST, SITE_CANON_SECOND)
    };
    let (first, second) = if req.inverted && !hold_inverted {
        (req.second, req.first)
    } else {
        (req.first, req.second)
    };
    let res = &locks.resources;
    let mut pair = None;
    {
        let g1 = res[first]
            .acquire(first_site)
            .await
            .expect("an opening acquisition holds nothing and cannot close a cycle");
        yield_now().await;
        match res[second].acquire(second_site).await {
            Ok(g2) => pair = Some((g1, g2)),
            // Refused: completing this pair would close a task-level cycle.
            // Back off and retry below in canonical order.
            Err(_) => counters.borrow_mut().refused += 1,
        }
    }
    let (mut g1, mut g2) = match pair {
        Some(pair) => pair,
        None => loop {
            yield_now().await;
            let Ok(g1) = res[first.min(second)].acquire(SITE_RETRY_FIRST).await else {
                counters.borrow_mut().refused += 1;
                continue;
            };
            match res[first.max(second)].acquire(SITE_RETRY_SECOND).await {
                Ok(g2) => break (g1, g2),
                Err(_) => counters.borrow_mut().refused += 1,
            }
        },
    };
    *g1 += 1;
    *g2 += 1;
    spin(16);
    drop(g2);
    drop(g1);
    let mut served = locks
        .stats
        .acquire(SITE_STATS)
        .await
        .expect("the statistics lock is acquired holding nothing");
    *served += 1;
    drop(served);
    counters
        .borrow_mut()
        .latency_ns
        .push(started.elapsed().as_nanos() as u32);
}

/// Spawns every request of `plan` and runs them to completion. With
/// `hold_inverted` false, inverted requests take their pair in canonical
/// order instead (the bare twin of `async_replay`: bare locks would hang on
/// the inverted schedule).
pub fn serve<L: ServerLock, E: Exec>(
    ex: &E,
    locks: &Rc<Locks<L>>,
    plan: &[Request],
    hold_inverted: bool,
) -> ServeOut {
    let counters = Rc::new(RefCell::new(Counters::default()));
    counters.borrow_mut().latency_ns.reserve(plan.len());
    let began = Instant::now();
    for &req in plan {
        ex.spawn_task(handle(
            Rc::clone(locks),
            req,
            hold_inverted,
            Rc::clone(&counters),
        ));
    }
    let report = ex.drain();
    let elapsed_ns = began.elapsed().as_nanos() as u64;
    let mut counters = counters.borrow_mut();
    ServeOut {
        report,
        refused: counters.refused,
        latency_ns: std::mem::take(&mut counters.latency_ns),
        elapsed_ns,
    }
}
