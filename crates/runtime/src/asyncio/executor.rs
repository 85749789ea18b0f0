//! A deterministic single-OS-thread executor with simulated workers.
//!
//! The executor exists so task-level immunity can be tested and benchmarked
//! the way the core engine is: as a deterministic state machine. All
//! futures run on the calling OS thread; "workers" are simulated by
//! attributing each poll to worker `polls % workers`, which is exactly the
//! adversarial situation the task-keyed engine must survive — two tasks of
//! a deadlock cycle multiplexed over the same small pool, sometimes over
//! the *same* worker, where a thread-keyed RAG would see a reentrant
//! acquisition instead of a cycle.
//!
//! Scheduling is FIFO over a deduplicated ready queue: `spawn` enqueues the
//! task, a waker re-enqueues it (at most once until its next poll), and
//! [`Executor::run`] polls until the queue drains. Identical spawn orders
//! and wake orders therefore replay identical schedules.

use crate::runtime::DimmunixRuntime;
use crate::site::AcquisitionSite;
use crate::sync;
use dimmunix_core::{IdHashMap, IdHasher, TaskId};
use std::cell::{Cell, RefCell};
use std::collections::{HashSet, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// The deduplicated FIFO ready queue, shared with wakers. `Mutex`-guarded
/// so wakers are `Send + Sync` (a requirement of [`std::task::Wake`]) even
/// though the executor itself is single-threaded.
#[derive(Default)]
struct ReadyQueue {
    state: Mutex<ReadyState>,
}

#[derive(Default)]
struct ReadyState {
    queue: VecDeque<u64>,
    queued: HashSet<u64, std::hash::BuildHasherDefault<IdHasher>>,
}

impl ReadyQueue {
    fn push(&self, id: u64) {
        let mut state = sync::lock(&self.state);
        if state.queued.insert(id) {
            state.queue.push_back(id);
        }
    }

    fn pop(&self) -> Option<u64> {
        let mut state = sync::lock(&self.state);
        let id = state.queue.pop_front()?;
        state.queued.remove(&id);
        Some(id)
    }
}

/// Waker for one task: re-enqueues the task on the ready queue.
struct TaskWaker {
    ready: Arc<ReadyQueue>,
    id: u64,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// Identity of the task currently being polled, visible to the immune lock
/// futures through [`current_task`].
#[derive(Debug, Clone, Copy)]
struct CurrentTask {
    task: TaskId,
    worker: usize,
}

thread_local! {
    static CURRENT: Cell<Option<CurrentTask>> = const { Cell::new(None) };
}

/// The task being polled right now on this thread, if any. The `asyncio`
/// lock futures use this to learn their owner identity; it is `None`
/// outside [`Executor::run`].
pub fn current_task() -> Option<TaskId> {
    CURRENT.with(|c| c.get()).map(|c| c.task)
}

/// The simulated worker the current poll is attributed to, if any.
/// Workloads use this to contrast task-keyed immunity with what a
/// worker-thread-keyed engine would (fail to) see.
pub fn current_worker() -> Option<usize> {
    CURRENT.with(|c| c.get()).map(|c| c.worker)
}

/// Cooperatively yields the current task once: the first poll schedules a
/// wake and returns `Poll::Pending`, sending the task to the back of the
/// ready queue. Workloads use this to pin adversarial interleavings
/// deterministically.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// One spawned task: its engine identity, its future, and the waker every
/// poll of it lends out, built once at spawn so a poll allocates nothing.
struct TaskEntry {
    task: TaskId,
    future: Pin<Box<dyn Future<Output = ()>>>,
    waker: Waker,
}

/// What a [`Executor::run`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorReport {
    /// Tasks that ran to completion.
    pub completed: usize,
    /// Tasks still pending when the ready queue drained — parked on a
    /// waker that can no longer fire. Under
    /// [`DeadlockPolicy::Block`](crate::DeadlockPolicy) a genuine
    /// task-level deadlock shows up here (the paper-faithful freeze);
    /// under the default `Error` policy this stays zero.
    pub stuck: usize,
    /// Total future polls performed.
    pub polls: u64,
}

/// A deterministic, single-OS-thread async executor bound to a
/// [`DimmunixRuntime`]. See the [module docs](crate::asyncio) for the
/// scheduling model.
pub struct Executor {
    rt: Arc<DimmunixRuntime>,
    workers: usize,
    tasks: RefCell<IdHashMap<u64, TaskEntry>>,
    ready: Arc<ReadyQueue>,
    spawned: Cell<usize>,
    polls: Cell<u64>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers)
            .field("pending_tasks", &self.tasks.borrow().len())
            .finish_non_exhaustive()
    }
}

impl Executor {
    /// Creates an executor with `workers` simulated workers (clamped to at
    /// least 1), bound to `rt`: every task spawned on it is registered with
    /// that runtime under a fresh [`TaskId`].
    pub fn new_in(rt: &Arc<DimmunixRuntime>, workers: usize) -> Self {
        Executor {
            rt: Arc::clone(rt),
            workers: workers.max(1),
            tasks: RefCell::default(),
            ready: Arc::new(ReadyQueue::default()),
            spawned: Cell::new(0),
            polls: Cell::new(0),
        }
    }

    /// Creates an executor bound to the process-global runtime.
    pub fn new(workers: usize) -> Self {
        Self::new_in(&DimmunixRuntime::global(), workers)
    }

    /// The runtime this executor registers its tasks with.
    pub fn runtime(&self) -> &Arc<DimmunixRuntime> {
        &self.rt
    }

    /// Number of simulated workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Spawns a future as a new immune task and returns its engine
    /// identity. The source location of the `spawn` call is recorded as the
    /// task's spawn site (carried into
    /// [`LockError::WouldDeadlock`](crate::LockError) diagnostics).
    ///
    /// Futures need not be `Send`: everything runs on the calling thread.
    #[track_caller]
    pub fn spawn(&self, future: impl Future<Output = ()> + 'static) -> TaskId {
        self.spawn_at(AcquisitionSite::here(), future)
    }

    /// [`spawn`](Self::spawn) with an explicit spawn site, for
    /// deterministic tests that pin site identity across runs.
    pub fn spawn_at(
        &self,
        site: AcquisitionSite,
        future: impl Future<Output = ()> + 'static,
    ) -> TaskId {
        let task = self.rt.register_task(Some(site));
        let id = task.index();
        let waker = Waker::from(Arc::new(TaskWaker {
            ready: Arc::clone(&self.ready),
            id,
        }));
        self.tasks.borrow_mut().insert(
            id,
            TaskEntry {
                task,
                future: Box::pin(future),
                waker,
            },
        );
        self.spawned.set(self.spawned.get() + 1);
        self.ready.push(id);
        task
    }

    /// Polls ready tasks FIFO until the queue drains, then reports. Tasks
    /// still pending at that point are parked on wakers that can no longer
    /// fire (e.g. frozen in a deadlock under
    /// [`DeadlockPolicy::Block`](crate::DeadlockPolicy)); they stay
    /// spawned, so a later `run` continues them if something external wakes
    /// them first.
    pub fn run(&self) -> ExecutorReport {
        let mut completed = 0usize;
        while let Some(id) = self.ready.pop() {
            let Some(mut entry) = self.tasks.borrow_mut().remove(&id) else {
                continue; // woken after completion
            };
            let poll_index = self.polls.get();
            self.polls.set(poll_index + 1);
            let worker = (poll_index % self.workers as u64) as usize;
            let mut cx = Context::from_waker(&entry.waker);
            CURRENT.with(|c| {
                c.set(Some(CurrentTask {
                    task: entry.task,
                    worker,
                }))
            });
            let poll = entry.future.as_mut().poll(&mut cx);
            CURRENT.with(|c| c.set(None));
            match poll {
                Poll::Ready(()) => {
                    self.rt.retire_task(entry.task);
                    completed += 1;
                }
                Poll::Pending => {
                    self.tasks.borrow_mut().insert(id, entry);
                }
            }
        }
        ExecutorReport {
            completed,
            stuck: self.tasks.borrow().len(),
            polls: self.polls.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_run_to_completion_in_spawn_order() {
        let rt = DimmunixRuntime::builder().build();
        let ex = Executor::new_in(&rt, 2);
        let order = std::rc::Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let order = order.clone();
            ex.spawn(async move {
                order.borrow_mut().push(i);
            });
        }
        let report = ex.run();
        assert_eq!(report.completed, 4);
        assert_eq!(report.stuck, 0);
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn current_task_is_visible_during_polls_only() {
        assert!(current_task().is_none());
        let rt = DimmunixRuntime::builder().build();
        let ex = Executor::new_in(&rt, 3);
        let seen = std::rc::Rc::new(Cell::new(None));
        let seen2 = seen.clone();
        let spawned = ex.spawn(async move {
            seen2.set(current_task());
            assert!(current_worker().is_some());
        });
        ex.run();
        assert_eq!(seen.get(), Some(spawned));
        assert!(current_task().is_none());
    }

    #[test]
    fn workers_rotate_per_poll() {
        // A task that yields once is polled twice; with 2 workers the two
        // polls land on different simulated workers.
        struct YieldOnce(bool);
        impl Future for YieldOnce {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0 {
                    Poll::Ready(())
                } else {
                    self.0 = true;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        let rt = DimmunixRuntime::builder().build();
        let ex = Executor::new_in(&rt, 2);
        let workers = std::rc::Rc::new(RefCell::new(Vec::new()));
        let w = workers.clone();
        ex.spawn(async move {
            w.borrow_mut().push(current_worker().unwrap());
            YieldOnce(false).await;
            w.borrow_mut().push(current_worker().unwrap());
        });
        let report = ex.run();
        assert_eq!(report.completed, 1);
        assert_eq!(*workers.borrow(), vec![0, 1]);
    }
}
