//! The poll-based immune reader–writer lock: the one async lock, whose
//! exclusive side is also [`Mutex`](crate::asyncio::Mutex).

use crate::asyncio::executor::current_task;
use crate::runtime::{DimmunixRuntime, LockError, TaskAcquire};
use crate::site::AcquisitionSite;
use dimmunix_core::{AccessMode, LockId, TaskId};
use std::cell::{Ref, RefCell, RefMut};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// Book-keeping of the actual task-level lock, separate from the engine's
/// view: the engine *approves* acquisitions; this state serializes them.
/// Readers may contain the same task more than once (reentrant shared
/// acquisitions, which the engine grants reentrantly).
struct LockState {
    readers: Vec<TaskId>,
    writer: Option<TaskId>,
    /// Wakers of engine-approved tasks waiting for the lock itself, FIFO
    /// with the access mode they wait in and at most one entry per task —
    /// the async analogue of blocking on the raw lock after
    /// `before_acquire` returns. Their granted acquisitions stay in the RAG, so
    /// cycles through these waits remain visible.
    waiters: VecDeque<(TaskId, AccessMode, Waker)>,
}

impl LockState {
    /// Takes the lock for `task` in `mode` if it is free for that mode.
    /// Panics on the two requests that would wait on the task itself.
    fn try_take(&mut self, task: TaskId, mode: AccessMode, id: LockId) -> bool {
        if self.writer == Some(task) {
            panic!("asyncio lock {id} is not reentrant: task {task} holds it exclusively");
        }
        let shared = mode.is_shared();
        if !shared && self.readers.contains(&task) {
            panic!("task {task} holds lock {id} shared; a read→write upgrade would self-deadlock");
        }
        let free = self.writer.is_none() && (shared || self.readers.is_empty());
        match (free, shared) {
            (true, true) => self.readers.push(task),
            (true, false) => self.writer = Some(task),
            (false, _) => {}
        }
        free
    }

    /// Registers (or refreshes) `task`'s waker without duplicating its
    /// queue entry — a re-poll must not push the task to the back twice.
    fn enqueue(&mut self, task: TaskId, mode: AccessMode, waker: &Waker) {
        match self.waiters.iter_mut().find(|(t, _, _)| *t == task) {
            Some((_, m, w)) => {
                *m = mode;
                *w = waker.clone();
            }
            None => self.waiters.push_back((task, mode, waker.clone())),
        }
    }
}

/// An async reader–writer lock with deadlock immunity, keyed by task.
///
/// The async counterpart of [`ImmuneRwLock`](crate::ImmuneRwLock): shared
/// acquisitions go through the engine under
/// [`AccessMode::Shared`], so every reader of a crowd carries its own hold
/// edge and a blocked writer waits on all of them — the multi-owner RAG
/// nodes that make rwlock cycles (e.g. two readers upgrading against each
/// other's write) exact rather than approximated. A guard held across an
/// `.await` is a hold edge in the RAG for as long as it lives.
///
/// Write acquisitions are not reentrant, and a read→write upgrade by the
/// task holding the read side panics (it is a self-deadlock the engine
/// cannot rescue, exactly like `std::sync::RwLock`'s undefined behaviour,
/// made loud).
///
/// Lock futures must be polled from a task context (inside a future
/// spawned on an [`Executor`](crate::asyncio::Executor)).
pub struct RwLock<T> {
    rt: Arc<DimmunixRuntime>,
    id: LockId,
    state: RefCell<LockState>,
    data: RefCell<T>,
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("asyncio::RwLock")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl<T> RwLock<T> {
    /// Creates an immune async rwlock attached to the process-global
    /// runtime.
    pub fn new(value: T) -> Self {
        Self::new_in(&DimmunixRuntime::global(), value)
    }

    /// Creates an immune async rwlock attached to an explicit runtime.
    pub fn new_in(rt: &Arc<DimmunixRuntime>, value: T) -> Self {
        RwLock {
            rt: Arc::clone(rt),
            id: rt.allocate_lock(),
            state: RefCell::new(LockState {
                readers: Vec::new(),
                writer: None,
                waiters: VecDeque::new(),
            }),
            data: RefCell::new(value),
        }
    }

    /// The engine lock id backing this rwlock.
    pub fn lock_id(&self) -> LockId {
        self.id
    }

    /// Acquires the lock shared, capturing the caller's source location as
    /// the acquisition site.
    #[track_caller]
    pub fn read(&self) -> RwLockReadFuture<'_, T> {
        self.read_at(AcquisitionSite::here())
    }

    /// [`read`](Self::read) with an explicit acquisition site.
    pub fn read_at(&self, site: AcquisitionSite) -> RwLockReadFuture<'_, T> {
        RwLockReadFuture(Acquire::new(self, site, AccessMode::Shared))
    }

    /// Acquires the lock exclusively, capturing the caller's source
    /// location as the acquisition site.
    ///
    /// Resolves to [`LockError::WouldDeadlock`] when the acquisition would
    /// close a task-level deadlock cycle (under the `Error` policy); so does
    /// [`read`](Self::read).
    #[track_caller]
    pub fn write(&self) -> RwLockWriteFuture<'_, T> {
        self.write_at(AcquisitionSite::here())
    }

    /// [`write`](Self::write) with an explicit acquisition site
    /// (deterministic tests and schedule replays).
    pub fn write_at(&self, site: AcquisitionSite) -> RwLockWriteFuture<'_, T> {
        RwLockWriteFuture(Acquire::new(self, site, AccessMode::Exclusive))
    }

    /// Consumes the rwlock and returns the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// A guard drop: the state update, then the engine release, then — if
    /// the lock is now free — the hand-off.
    fn release(&self, task: TaskId, mode: AccessMode) {
        let free = {
            let mut state = self.state.borrow_mut();
            if mode.is_shared() {
                if let Some(i) = state.readers.iter().position(|r| *r == task) {
                    state.readers.swap_remove(i);
                }
            } else {
                state.writer = None;
            }
            state.writer.is_none() && state.readers.is_empty()
        };
        self.rt.task_release(task, self.id);
        if free {
            self.hand_off();
        }
    }

    /// Wakes who can take the lock next: the front writer alone, or the
    /// front reader and then every other queued reader, in queue order, a
    /// reader batch proceeding together. One waiter at a time is popped
    /// under the state borrow and woken outside it, so nothing allocates.
    fn hand_off(&self) {
        // Where the next reader of the batch is searched, once the front
        // waiter was a reader.
        let mut batch_from = None;
        loop {
            let (mode, waker) = {
                let mut state = self.state.borrow_mut();
                let at = match batch_from {
                    None => 0,
                    Some(from) => match state
                        .waiters
                        .range(from..)
                        .position(|(_, m, _)| m.is_shared())
                    {
                        Some(i) => from + i,
                        None => return,
                    },
                };
                let Some((_, mode, waker)) = state.waiters.remove(at) else {
                    return;
                };
                batch_from = Some(at);
                (mode, waker)
            };
            waker.wake();
            if !mode.is_shared() {
                return;
            }
        }
    }
}

/// Where an acquisition stands in the protocol — which engine state exists
/// and must be reversed if its future is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// No engine state yet.
    Init,
    /// Parked by avoidance: a parked acquisition exists.
    Parked,
    /// Engine approved; a granted acquisition exists until the acquisition
    /// completes.
    Approved,
    /// Completed (guard produced or error returned).
    Done,
}

/// One task acquisition of an [`RwLock`] in one mode: the stage machine
/// both lock futures run, and the back-out their drop makes.
#[derive(Debug)]
struct Acquire<'a, T> {
    lock: &'a RwLock<T>,
    site: AcquisitionSite,
    mode: AccessMode,
    task: Option<TaskId>,
    stage: Stage,
}

impl<'a, T> Acquire<'a, T> {
    fn new(lock: &'a RwLock<T>, site: AcquisitionSite, mode: AccessMode) -> Self {
        Acquire {
            lock,
            site,
            mode,
            task: None,
            stage: Stage::Init,
        }
    }

    /// One poll of the protocol; resolves to the task once it holds the
    /// lock. The engine decides first (grant, park or refusal); an approved
    /// task then takes the lock or queues for it.
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll<Result<TaskId, LockError>> {
        let (lock, id) = (self.lock, self.lock.id);
        let task = current_task()
            .expect("asyncio lock futures must be polled from an Executor task context");
        self.task = Some(task);
        loop {
            match self.stage {
                Stage::Init | Stage::Parked => {
                    let waker = cx.waker();
                    match lock
                        .rt
                        .task_begin_acquire_mode(task, id, self.site, self.mode, waker)
                    {
                        TaskAcquire::Granted => self.stage = Stage::Approved,
                        TaskAcquire::Parked { .. } => {
                            self.stage = Stage::Parked;
                            return Poll::Pending;
                        }
                        TaskAcquire::WouldDeadlock(err) => {
                            // The engine leaves the refused request
                            // outstanding; withdraw it.
                            lock.rt.task_cancel_acquire(task, id);
                            self.stage = Stage::Done;
                            return Poll::Ready(Err(err));
                        }
                    }
                }
                Stage::Approved => {
                    let mut state = lock.state.borrow_mut();
                    if !state.try_take(task, self.mode, id) {
                        state.enqueue(task, self.mode, cx.waker());
                        return Poll::Pending;
                    }
                    drop(state);
                    lock.rt.task_finish_acquire(task, id);
                    self.stage = Stage::Done;
                    return Poll::Ready(Ok(task));
                }
                Stage::Done => panic!("asyncio lock future polled after completion"),
            }
        }
    }
}

impl<T> Drop for Acquire<'_, T> {
    /// An abandoned future (select! lost the race, task cancelled) reverses
    /// whatever engine state the protocol accumulated. An approved one may
    /// also have consumed the single wake a hand-off gave it: it leaves the
    /// queue and, unless the lock is write-held, hands off again so that
    /// wake does not die with it. A spurious extra wake costs the woken task
    /// one re-poll.
    fn drop(&mut self) {
        let (Some(task), Stage::Parked | Stage::Approved) = (self.task, self.stage) else {
            return;
        };
        self.lock.rt.task_cancel_acquire(task, self.lock.id);
        if self.stage == Stage::Approved {
            let free = {
                let mut state = self.lock.state.borrow_mut();
                state.waiters.retain(|(t, _, _)| *t != task);
                state.writer.is_none()
            };
            if free {
                self.lock.hand_off();
            }
        }
    }
}

/// Future returned by [`RwLock::read`].
#[derive(Debug)]
pub struct RwLockReadFuture<'a, T>(Acquire<'a, T>);

impl<'a, T> Future for RwLockReadFuture<'a, T> {
    type Output = Result<RwLockReadGuard<'a, T>, LockError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let acquire = &mut self.get_mut().0;
        let lock = acquire.lock;
        acquire.poll(cx).map_ok(|task| RwLockReadGuard {
            lock,
            task,
            inner: Some(lock.data.borrow()),
        })
    }
}

/// Future returned by [`RwLock::write`] and [`Mutex::lock`](crate::asyncio::Mutex::lock).
#[derive(Debug)]
pub struct RwLockWriteFuture<'a, T>(Acquire<'a, T>);

impl<'a, T> Future for RwLockWriteFuture<'a, T> {
    type Output = Result<RwLockWriteGuard<'a, T>, LockError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let acquire = &mut self.get_mut().0;
        let lock = acquire.lock;
        acquire.poll(cx).map_ok(|task| RwLockWriteGuard {
            lock,
            task,
            inner: Some(lock.data.borrow_mut()),
        })
    }
}

/// Shared guard produced by [`RwLock::read`]; releases on drop. Held across
/// an `.await`, it is a hold edge (one of possibly many on the lock's
/// multi-owner RAG node) under the task's identity.
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
    task: TaskId,
    /// `Some` for the guard's whole life; `Option` only so `drop` can end
    /// the borrow before the lock is handed on.
    inner: Option<Ref<'a, T>>,
}

impl<T: fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("asyncio::RwLockReadGuard")
            .field("value", &**self)
            .finish()
    }
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard not yet dropped")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        self.lock.release(self.task, AccessMode::Shared);
    }
}

/// Exclusive guard produced by [`RwLock::write`] and
/// [`Mutex::lock`](crate::asyncio::Mutex::lock); releases on drop. Holding
/// it across an `.await` keeps the hold edge in the RAG — that is the
/// mechanism by which guard-across-await deadlocks become visible cycles.
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
    task: TaskId,
    /// As in [`RwLockReadGuard`].
    inner: Option<RefMut<'a, T>>,
}

impl<T: fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("asyncio::RwLockWriteGuard")
            .field("value", &**self)
            .finish()
    }
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard not yet dropped")
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard not yet dropped")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        self.lock.release(self.task, AccessMode::Exclusive);
    }
}
