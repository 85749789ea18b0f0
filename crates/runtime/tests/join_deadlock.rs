//! A task that polls two lock futures at once (`join!`) waits for both, and
//! a cycle through the second wait is a deadlock the runtime refuses.
//!
//! Task U holds l1 and l2. Task T polls a join of two `asyncio::Mutex`
//! futures, for l1 and l2: both are granted and queue behind U. U releases
//! l1, which passes to T, so T still waits for l2. U then asks for l1 again:
//! U waits for T, which waits for U. The runtime answers `WouldDeadlock`, U
//! drops l2, and both tasks finish. Were T's wait for l2 invisible, U's
//! request would be granted and both tasks would stay stuck.
//!
//! An acquisition can close such a cycle too, with no request to follow:
//! the hook-level script at the end.

use dimmunix_rt::asyncio::{yield_now, Executor, Mutex};
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, ExchangeOptions, LockError, TaskAcquire};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

const FILE: &str = "join_deadlock.rs";
const U1: AcquisitionSite = AcquisitionSite::new("join.u1", FILE, 1);
const U2: AcquisitionSite = AcquisitionSite::new("join.u2", FILE, 2);
const U3: AcquisitionSite = AcquisitionSite::new("join.u3", FILE, 3);
const T1: AcquisitionSite = AcquisitionSite::new("join.t1", FILE, 4);
const T2: AcquisitionSite = AcquisitionSite::new("join.t2", FILE, 5);

type Boxed<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// Polls both futures on every poll until both are ready, the first first.
struct Join<'a, A, B> {
    a: Option<Boxed<'a, A>>,
    b: Option<Boxed<'a, B>>,
    out: (Option<A>, Option<B>),
}

impl<A: Unpin, B: Unpin> Future for Join<'_, A, B> {
    type Output = (A, B);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<(A, B)> {
        let this = self.get_mut();
        if let Some(Poll::Ready(a)) = this.a.as_mut().map(|f| f.as_mut().poll(cx)) {
            (this.a, this.out.0) = (None, Some(a));
        }
        if let Some(Poll::Ready(b)) = this.b.as_mut().map(|f| f.as_mut().poll(cx)) {
            (this.b, this.out.1) = (None, Some(b));
        }
        match &mut this.out {
            (a @ Some(_), b @ Some(_)) => Poll::Ready((a.take().unwrap(), b.take().unwrap())),
            _ => Poll::Pending,
        }
    }
}

/// The script on a runtime with `shards` shards.
fn join_script(shards: usize) {
    let rt = DimmunixRuntime::builder()
        .shards(shards)
        .log_sync(false)
        .build();
    let ex = Executor::new_in(&rt, 2);
    let (l1, l2) = (
        Rc::new(Mutex::new_in(&rt, ())),
        Rc::new(Mutex::new_in(&rt, ())),
    );
    let refused = Rc::new(Cell::new(false));
    let homes = [l1.lock_id(), l2.lock_id()].map(|l| rt.shard_of(l));
    assert_eq!(
        homes[0] == homes[1],
        shards == 1,
        "l1 and l2 share a shard only on one"
    );

    let (u1, u2, out) = (Rc::clone(&l1), Rc::clone(&l2), Rc::clone(&refused));
    ex.spawn(async move {
        let g1 = u1.lock_at(U1).await.expect("free");
        let g2 = u2.lock_at(U2).await.expect("free");
        // T polls its join: both of its futures queue behind U.
        yield_now().await;
        drop(g1);
        // T acquires l1 and still waits for l2.
        yield_now().await;
        let again = u1.lock_at(U3).await;
        out.set(matches!(again, Err(LockError::WouldDeadlock { .. })));
        drop(g2);
    });
    ex.spawn(async move {
        let join = Join {
            a: Some(Box::pin(l1.lock_at(T1))),
            b: Some(Box::pin(l2.lock_at(T2))),
            out: (None, None),
        };
        let (g1, g2) = join.await;
        drop((g1.expect("l1"), g2.expect("l2")));
    });

    let report = ex.run();
    assert!(
        refused.get(),
        "{shards} shards: U's request for l1 closes a cycle"
    );
    assert_eq!((report.completed, report.stuck), (2, 0), "{shards} shards");
    let stats = rt.stats();
    assert_eq!(stats.deadlocks_detected, 1, "{shards} shards");
    assert_eq!(stats.acquisitions, stats.releases, "{shards} shards");
}

#[test]
fn a_cycle_through_a_joined_wait_is_refused() {
    // On one shard both of T's waits are in one RAG; on two, one per shard.
    join_script(1);
    join_script(2);
}

struct NoOp;

impl Wake for NoOp {
    fn wake(self: Arc<Self>) {}
}

/// U holds l2 and H holds l1. T's requests for l1 and l2 are granted (T
/// waits for H and for U), and so is U's for l1 (H, not T, holds it). H
/// releases, and T's acquisition of l1 closes the cycle U → T → U with no
/// request of either to follow. The task hooks record it, and the runtime
/// exports its pack as after a refused request; the acquisition stands.
fn acquisition_script(shards: usize) {
    let dir = std::env::temp_dir().join(format!(
        "dimmunix-join-acquired-{}-{shards}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let rt = DimmunixRuntime::builder()
        .shards(shards)
        .log_sync(false)
        .exchange(ExchangeOptions::new("join").export(dir.join("join.pack")))
        .build();
    let (l1, l2) = (rt.allocate_lock(), rt.allocate_lock());
    assert_eq!(rt.shard_of(l1) == rt.shard_of(l2), shards == 1);
    let [u, t, h] = [(); 3].map(|_| rt.register_task(None));
    let w = Waker::from(Arc::new(NoOp));
    let grant = |task, lock, site| {
        let answer = rt.task_begin_acquire(task, lock, site, &w);
        assert_eq!(answer, TaskAcquire::Granted, "{shards} shards");
    };
    grant(u, l2, U2);
    rt.task_finish_acquire(u, l2);
    grant(h, l1, U1);
    rt.task_finish_acquire(h, l1);
    grant(t, l1, T1);
    grant(t, l2, T2);
    grant(u, l1, U3);
    rt.task_release(h, l1);
    assert_eq!(rt.stats().deadlocks_detected, 0, "{shards} shards");
    rt.task_finish_acquire(t, l1);
    let stats = rt.stats();
    assert_eq!(stats.deadlocks_detected, 1, "{shards} shards");
    assert_eq!(rt.history().len(), 1, "{shards} shards");
    assert_eq!(rt.exchange_stats().unwrap().exported, 1, "{shards} shards");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_acquisition_that_closes_a_cycle_is_detected_and_exported() {
    acquisition_script(1);
    acquisition_script(2);
}
