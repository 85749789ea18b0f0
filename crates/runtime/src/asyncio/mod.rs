//! # `asyncio` — deadlock immunity for async tasks
//!
//! The blocking lock types ([`ImmuneMutex`](crate::ImmuneMutex) and
//! friends) key the engine by OS thread. That identity is wrong for async
//! code: an executor multiplexes thousands of tasks onto a handful of
//! worker threads, so a **task-level** deadlock — task A holds lock 1 and
//! awaits lock 2 while task B holds lock 2 and awaits lock 1 — is invisible
//! to a thread-keyed RAG whenever the two tasks share a worker (the worker
//! appears to re-enter its own lock). This module keys every engine hook by
//! [`OwnerId::Task`](dimmunix_core::OwnerId) instead:
//!
//! * [`Mutex`] and [`RwLock`] are **poll-based** immune locks: where the
//!   blocking runtime parks an OS thread until the waker it queues on the
//!   signature fires, the async lock queues the task's waker on the
//!   signature and returns `Poll::Pending`; the release path fires the
//!   waker and the future re-requests — the paper's
//!   `do { … } while (sigId >= 0)` loop, driven by the executor.
//! * There is **one async lock**. [`RwLock`] keeps the only lock state
//!   (readers, writer, one FIFO of waiting tasks) and the only hand-off;
//!   [`Mutex`] is a newtype over it whose `lock` is `write`, and
//!   [`MutexLockFuture`] / [`MutexGuard`] are the write future and guard.
//!   One private acquisition state machine drives the read and the write
//!   future alike: engine decision (grant, park, refusal), then take the
//!   lock or queue for it, and the back-out when a future is dropped.
//! * A release hands the lock on in a fixed order: the guard's state
//!   update, then the engine release, then the wake — of the front writer
//!   alone, or of the front reader and then every other queued reader, in
//!   queue order, one waker at a time and outside the state borrow, so a
//!   hand-off allocates nothing.
//! * A guard held across an `.await` **is a hold edge** in the RAG, under
//!   the task's identity: the engine records the acquisition when the guard
//!   is produced and the release when it is dropped, however many polls and
//!   worker migrations happen in between.
//! * A genuine task-level deadlock surfaces on the closing request as
//!   [`LockError::WouldDeadlock`](crate::LockError) (under
//!   [`DeadlockPolicy::Error`](crate::DeadlockPolicy)) with the refused
//!   **task** identity and its spawn site — no hang, and the signature is
//!   already in the history, so the next run avoids it.
//!
//! [`Executor`] is a deterministic single-OS-thread executor with a
//! configurable number of *simulated* workers: tasks are polled round-robin
//! from a FIFO ready queue and each poll is attributed to worker
//! `polls % workers`. Determinism makes task-level immunity testable the
//! same way the core engine is: identical schedules replay identically.
//!
//! ```
//! use dimmunix_rt::asyncio::{Executor, Mutex};
//! use dimmunix_rt::DimmunixRuntime;
//! use std::rc::Rc;
//!
//! let rt = DimmunixRuntime::builder().build();
//! let ex = Executor::new_in(&rt, 2);
//! let counter = Rc::new(Mutex::new_in(&rt, 0u32));
//! for _ in 0..10 {
//!     let counter = counter.clone();
//!     ex.spawn(async move {
//!         let mut guard = counter.lock().await.unwrap();
//!         *guard += 1;
//!     });
//! }
//! let report = ex.run();
//! assert_eq!(report.completed, 10);
//! assert_eq!(report.stuck, 0);
//! ```

mod executor;
mod mutex;
mod rwlock;

pub use executor::{current_task, current_worker, yield_now, Executor, ExecutorReport, YieldNow};
pub use mutex::{Mutex, MutexGuard, MutexLockFuture};
pub use rwlock::{RwLock, RwLockReadFuture, RwLockReadGuard, RwLockWriteFuture, RwLockWriteGuard};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{DeadlockPolicy, DimmunixRuntime, LockError};
    use crate::site::AcquisitionSite;
    use dimmunix_core::{Config, Dimmunix, OwnerId, RequestOutcome, SignatureKind};
    use std::cell::RefCell;
    use std::rc::Rc;

    const SITE_A_OUTER: AcquisitionSite = AcquisitionSite::new("fwd.outer", "srv.rs", 10);
    const SITE_A_INNER: AcquisitionSite = AcquisitionSite::new("fwd.inner", "srv.rs", 11);
    const SITE_B_OUTER: AcquisitionSite = AcquisitionSite::new("bwd.outer", "srv.rs", 20);
    const SITE_B_INNER: AcquisitionSite = AcquisitionSite::new("bwd.inner", "srv.rs", 21);

    /// One engine-relevant event of the async schedule, stamped with the
    /// simulated worker it ran on — replayable into a worker-keyed engine.
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Lock { worker: usize, lock: u8, ok: bool },
        Unlock { worker: usize, lock: u8 },
    }

    type Log = Rc<RefCell<Vec<Ev>>>;

    async fn lock_logged<'a>(
        m: &'a Mutex<i32>,
        site: AcquisitionSite,
        tag: u8,
        log: &Log,
    ) -> Result<MutexGuard<'a, i32>, LockError> {
        // Push the event at *request* time (this poll), then patch `ok`
        // when the grant lands — the log stays in request order, which is
        // the order a thread-keyed engine would observe.
        let idx = {
            let mut l = log.borrow_mut();
            l.push(Ev::Lock {
                worker: current_worker().unwrap(),
                lock: tag,
                ok: false,
            });
            l.len() - 1
        };
        let res = m.lock_at(site).await;
        if res.is_ok() {
            if let Ev::Lock { ok, .. } = &mut log.borrow_mut()[idx] {
                *ok = true;
            }
        }
        res
    }

    fn unlock_logged(g: MutexGuard<'_, i32>, tag: u8, log: &Log) {
        log.borrow_mut().push(Ev::Unlock {
            worker: current_worker().unwrap(),
            lock: tag,
        });
        drop(g);
    }

    /// Runs the AB/BA pair plus two filler tasks on a 2-worker executor.
    /// The fillers occupy the odd polls, so every lock event of the cycle
    /// pair lands on worker 0 — the exact multiplexing that blinds a
    /// thread-keyed RAG. Returns (report, error count, log).
    fn run_server_round(rt: &std::sync::Arc<DimmunixRuntime>) -> (ExecutorReport, usize, Log) {
        let ex = Executor::new_in(rt, 2);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let errors = Rc::new(RefCell::new(0usize));

        let a = Rc::new(Mutex::new_in(rt, 0));
        let b = Rc::new(Mutex::new_in(rt, 0));

        // forward: lock A, yield, lock B
        {
            let (a, b, log, errors) = (a.clone(), b.clone(), log.clone(), errors.clone());
            ex.spawn(async move {
                let ga = lock_logged(&a, SITE_A_OUTER, 0, &log).await.unwrap();
                yield_now().await;
                match lock_logged(&b, SITE_A_INNER, 1, &log).await {
                    Ok(gb) => {
                        unlock_logged(gb, 1, &log);
                        unlock_logged(ga, 0, &log);
                    }
                    Err(_) => {
                        *errors.borrow_mut() += 1;
                        unlock_logged(ga, 0, &log);
                    }
                }
            });
        }
        ex.spawn(async { yield_now().await }); // filler for odd polls
                                               // backward: lock B, yield, lock A
        {
            let (a, b, log, errors) = (a.clone(), b.clone(), log.clone(), errors.clone());
            ex.spawn(async move {
                let gb = lock_logged(&b, SITE_B_OUTER, 1, &log).await.unwrap();
                yield_now().await;
                match lock_logged(&a, SITE_B_INNER, 0, &log).await {
                    Ok(ga) => {
                        unlock_logged(ga, 0, &log);
                        unlock_logged(gb, 1, &log);
                    }
                    Err(e) => {
                        assert!(matches!(
                            e,
                            LockError::WouldDeadlock {
                                owner: OwnerId::Task(_),
                                ..
                            }
                        ));
                        *errors.borrow_mut() += 1;
                        unlock_logged(gb, 1, &log);
                    }
                }
            });
        }
        ex.spawn(async { yield_now().await }); // filler for odd polls

        let report = ex.run();
        let errs = *errors.borrow();
        (report, errs, log)
    }

    /// Tentpole acceptance: a task-level AB/BA deadlock whose four lock
    /// events all happen on ONE worker of a 2-worker pool is (a) detected on
    /// first occurrence under task identity, (b) invisible to a thread-keyed
    /// replay of the very same schedule, and (c) avoided on the next run
    /// once the learned history is loaded.
    #[test]
    fn shared_worker_task_deadlock_is_learned_then_avoided() {
        // --- Run 1: learn. ------------------------------------------------
        let rt = DimmunixRuntime::builder()
            .deadlock_policy(DeadlockPolicy::Error)
            .build();
        let (report, errors, log) = run_server_round(&rt);
        assert_eq!(report.completed, 4, "no task may hang");
        assert_eq!(report.stuck, 0);
        assert_eq!(errors, 1, "exactly one task is refused");
        assert_eq!(rt.stats().deadlocks_detected, 1);
        let history = rt.history();
        assert_eq!(history.len(), 1);
        assert_eq!(
            history.iter().next().unwrap().1.kind(),
            SignatureKind::Deadlock
        );

        // Every lock/unlock of the cycle pair ran on worker 0 even though
        // the pool has two workers — the premise of the invisibility claim.
        assert!(log.borrow().iter().all(|e| match e {
            Ev::Lock { worker, .. } | Ev::Unlock { worker, .. } => *worker == 0,
        }));

        // --- Thread-keyed replay of the same schedule sees NO cycle. ------
        let mut engine = Dimmunix::new(Config::default());
        let sites = [SITE_A_OUTER, SITE_B_OUTER]; // lock tag -> any site; see below
        let stacks = [sites[0].to_call_stack(), sites[1].to_call_stack()];
        let locks = [dimmunix_core::LockId::new(1), dimmunix_core::LockId::new(2)];
        engine.register_owner(OwnerId::thread(0));
        let mut outcomes = Vec::new();
        for ev in log.borrow().iter() {
            match *ev {
                Ev::Lock { worker, lock, ok } => {
                    let t = OwnerId::thread(worker as u64);
                    let out = engine.request(t, locks[lock as usize], &stacks[lock as usize]);
                    assert!(
                        !matches!(out, RequestOutcome::DeadlockDetected { .. }),
                        "thread-keyed replay must not see the task cycle"
                    );
                    if ok {
                        engine.acquired(t, locks[lock as usize]);
                    }
                    outcomes.push(out);
                }
                Ev::Unlock { worker, lock } => {
                    engine.released(OwnerId::thread(worker as u64), locks[lock as usize]);
                }
            }
        }
        // The request that closed the task-level cycle is a *reentrant
        // grant* under thread identity: worker 0 already "owns" the lock.
        assert!(
            outcomes
                .iter()
                .any(|o| matches!(o, RequestOutcome::GrantedReentrant)),
            "the closing request must look reentrant to a thread-keyed RAG"
        );
        assert_eq!(engine.stats().deadlocks_detected, 0);

        // --- Run 2: the antibody makes the same program immune. -----------
        let rt = DimmunixRuntime::builder()
            .deadlock_policy(DeadlockPolicy::Error)
            .history(history)
            .build();
        let (report, errors, _log) = run_server_round(&rt);
        assert_eq!(report.completed, 4, "replay must complete");
        assert_eq!(report.stuck, 0);
        assert_eq!(errors, 0, "no refusal on the immune run");
        assert_eq!(rt.stats().deadlocks_detected, 0);
        assert!(rt.stats().yields >= 1, "avoidance must have parked a task");
        assert_eq!(rt.history().len(), 1, "no new signature on the replay");
    }

    /// A guard held across an `.await` stays a hold edge: a second task
    /// requesting the lock while the first is suspended mid-await simply
    /// waits (no grant, no false release), and gets the lock when the guard
    /// drops on the far side of the await.
    #[test]
    fn guard_across_await_is_a_hold_edge() {
        let rt = DimmunixRuntime::builder().build();
        let ex = Executor::new_in(&rt, 2);
        let m = Rc::new(Mutex::new_in(&rt, Vec::<u32>::new()));
        let (m1, m2) = (m.clone(), m.clone());
        ex.spawn(async move {
            let mut g = m1.lock().await.unwrap();
            g.push(1);
            // Suspend twice while holding the guard; task 2 must not get in.
            yield_now().await;
            yield_now().await;
            g.push(2);
        });
        ex.spawn(async move {
            let mut g = m2.lock().await.unwrap();
            g.push(3);
        });
        let report = ex.run();
        assert_eq!(report.completed, 2);
        assert_eq!(report.stuck, 0);
        let m = Rc::try_unwrap(m).map_err(|_| "still shared").unwrap();
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    /// Under `DeadlockPolicy::Block` the cycle tasks freeze (paper-faithful
    /// first occurrence): the executor reports them stuck, the signature is
    /// still learned, and the remaining tasks keep running.
    #[test]
    fn block_policy_freezes_the_cycle_but_learns() {
        let rt = DimmunixRuntime::builder()
            .deadlock_policy(DeadlockPolicy::Block)
            .build();
        let (report, errors, _log) = run_server_round(&rt);
        assert_eq!(errors, 0, "Block policy surfaces no error");
        assert_eq!(report.stuck, 2, "the two cycle tasks freeze");
        assert_eq!(report.completed, 2, "the fillers still complete");
        assert_eq!(rt.stats().deadlocks_detected, 1);
        assert_eq!(rt.history().len(), 1, "the signature is still learned");
    }

    /// Read crowds on the async rwlock coexist; a writer excludes them and
    /// task-level write/write order is preserved.
    #[test]
    fn rwlock_readers_share_and_writer_excludes() {
        let rt = DimmunixRuntime::builder().build();
        let ex = Executor::new_in(&rt, 3);
        let l = Rc::new(RwLock::new_in(&rt, 7u64));
        let seen = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let (l, seen) = (l.clone(), seen.clone());
            ex.spawn(async move {
                let g = l.read().await.unwrap();
                // Hold the read across a yield: all three readers overlap.
                yield_now().await;
                seen.borrow_mut().push(*g);
            });
        }
        {
            let (l, seen) = (l.clone(), seen.clone());
            ex.spawn(async move {
                let mut g = l.write().await.unwrap();
                *g += 1;
                seen.borrow_mut().push(*g);
            });
        }
        let report = ex.run();
        assert_eq!(report.completed, 4);
        assert_eq!(report.stuck, 0);
        // Readers overlapped (all saw 7) and the writer ran after them.
        assert_eq!(*seen.borrow(), vec![7, 7, 7, 8]);
    }

    /// A lock future dropped between engine approval and completion backs
    /// out cleanly: the winner's schedule is undisturbed and later
    /// acquisitions of the same lock still work.
    #[test]
    fn dropped_lock_future_backs_out() {
        let rt = DimmunixRuntime::builder().build();
        let ex = Executor::new_in(&rt, 1);
        let m = Rc::new(Mutex::new_in(&rt, 0));
        let (m1, m2) = (m.clone(), m.clone());
        ex.spawn(async move {
            let g = m1.lock().await.unwrap();
            yield_now().await;
            drop(g);
        });
        ex.spawn(async move {
            {
                // Poll once (queues behind task 1), then abandon the future.
                let fut = m2.lock();
                futures_pending_probe(fut).await;
            }
            // A fresh acquisition still succeeds.
            let mut g = m2.lock().await.unwrap();
            *g += 1;
        });
        let report = ex.run();
        assert_eq!(report.completed, 2);
        assert_eq!(report.stuck, 0);
        let m = Rc::try_unwrap(m).map_err(|_| "still shared").unwrap();
        assert_eq!(m.into_inner(), 1);
    }

    /// Polls `fut` exactly once, then resolves (dropping `fut` regardless of
    /// its result) — a deterministic stand-in for "`select!` lost the race".
    async fn futures_pending_probe<F: std::future::Future>(fut: F) {
        use std::pin::pin;
        use std::task::Poll;
        let mut fut = pin!(fut);
        let mut polled = false;
        std::future::poll_fn(move |cx| {
            if polled {
                Poll::Ready(())
            } else {
                polled = true;
                let _ = fut.as_mut().poll(cx);
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        })
        .await;
    }
}
