//! A task's tier-1 hold is published at every signature install. A task
//! admitted lock-free at a clean site holds (or waits for) its lock unseen by
//! the engine; when a signature naming that site is installed, the install
//! publishes the hold into its home shard before anything is decided
//! against the new history. So a second task whose request would complete
//! the signature parks, and the first task's release wakes it — whether the
//! fast hold was acquired or still queued behind another holder. Without
//! the publish the second task is granted. A task that begins a second
//! acquisition while its tier-1 admission is still queued (`join!`)
//! publishes the first as a grant, and the counters fold to a tier-2 run's;
//! while that grant is outstanding the task is not admitted lock-free.

use dimmunix_core::{LockId, Signature, SignatureKind, SignaturePair, TaskId};
use dimmunix_exchange::Pack;
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, ExchangeOptions, TaskAcquire};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};

const FILE: &str = "task_fast_holds.rs";
// Site keys hash scope and file, so each site needs a scope of its own.
const S: AcquisitionSite = AcquisitionSite::new("fast.s", FILE, 1);
const S2: AcquisitionSite = AcquisitionSite::new("fast.s2", FILE, 2);
const CLEAN: AcquisitionSite = AcquisitionSite::new("fast.clean", FILE, 3);
const OTHER: AcquisitionSite = AcquisitionSite::new("fast.other", FILE, 4);

struct CountingWake(AtomicU64);

impl Wake for CountingWake {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A two-slot signature over `a` and `b`.
fn two_slot(a: AcquisitionSite, b: AcquisitionSite) -> Signature {
    Signature::new(
        SignatureKind::Deadlock,
        vec![
            SignaturePair::new(a.to_call_stack(), a.to_call_stack()),
            SignaturePair::new(b.to_call_stack(), b.to_call_stack()),
        ],
    )
}

fn granted(rt: &DimmunixRuntime, task: TaskId, lock: LockId, site: AcquisitionSite, w: &Waker) {
    assert_eq!(
        rt.task_begin_acquire(task, lock, site, w),
        TaskAcquire::Granted
    );
}

/// Task A takes `l1` at `S` on tier 1 — acquiring it at once, or only after
/// a holder `H` releases it — then `S`/`S2` is installed, and task B's
/// request at `S2` must park until A releases.
fn install_publishes_the_fast_hold(acquired_before_install: bool) {
    let rt = DimmunixRuntime::builder().shards(2).log_sync(false).build();
    let (l1, l2) = (rt.allocate_lock(), rt.allocate_lock());
    let (holder, a, b) = (
        rt.register_task(None),
        rt.register_task(None),
        rt.register_task(None),
    );
    let wakes = Arc::new(CountingWake(AtomicU64::new(0)));
    let waker = Waker::from(Arc::clone(&wakes));

    if acquired_before_install {
        granted(&rt, a, l1, S, &waker);
        rt.task_finish_acquire(a, l1);
    } else {
        // H holds l1; A is admitted and queues behind it.
        granted(&rt, holder, l1, CLEAN, &waker);
        rt.task_finish_acquire(holder, l1);
        granted(&rt, a, l1, S, &waker);
    }
    assert_eq!(rt.stats().cross_decisions, 0, "both admissions on tier 1");
    let sig = rt.add_signature(two_slot(S, S2));

    assert_eq!(
        rt.task_begin_acquire(b, l2, S2, &waker),
        TaskAcquire::Parked { signature: sig },
        "the install published A's fast hold, so B completes the signature"
    );
    if !acquired_before_install {
        rt.task_release(holder, l1);
        rt.task_finish_acquire(a, l1);
    }
    assert_eq!(wakes.0.load(Ordering::SeqCst), 0, "B waits for A");
    rt.task_release(a, l1);
    assert_eq!(wakes.0.load(Ordering::SeqCst), 1, "A's release wakes B");
    granted(&rt, b, l2, S2, &waker);
    rt.task_finish_acquire(b, l2);
    rt.task_release(b, l2);
    [holder, a, b].into_iter().for_each(|t| rt.retire_task(t));

    let stats = rt.stats();
    assert_eq!(stats.yields, 1);
    assert_eq!(stats.acquisitions, stats.releases);
    assert_eq!(
        rt.admission_summary().published_grants(),
        u64::from(!acquired_before_install)
    );
}

#[test]
fn install_publishes_an_acquired_fast_hold() {
    install_publishes_the_fast_hold(true);
}

#[test]
fn install_publishes_a_queued_fast_admission_as_a_grant() {
    install_publishes_the_fast_hold(false);
}

/// The join!-shaped script: a tier-1 section, then a task admitted at `S`
/// begins a second acquisition at `OTHER` before it holds the first lock,
/// and completes both. Returns (requests, grants, yields, acquisitions,
/// releases).
fn join_script(rt: &DimmunixRuntime) -> [u64; 5] {
    let (l1, l2) = (rt.allocate_lock(), rt.allocate_lock());
    let w = Waker::from(Arc::new(CountingWake(AtomicU64::new(0))));
    let t = rt.register_task(None);
    granted(rt, t, l1, CLEAN, &w);
    rt.task_finish_acquire(t, l1);
    rt.task_release(t, l1);
    granted(rt, t, l1, S, &w);
    granted(rt, t, l2, OTHER, &w);
    rt.task_finish_acquire(t, l1);
    rt.task_finish_acquire(t, l2);
    rt.task_release(t, l2);
    rt.task_release(t, l1);
    rt.retire_task(t);
    let s = rt.stats();
    [s.requests, s.grants, s.yields, s.acquisitions, s.releases]
}

#[test]
fn a_second_acquisition_publishes_a_queued_admission_as_a_grant() {
    let rt = DimmunixRuntime::builder().shards(2).log_sync(false).build();
    let fast = join_script(&rt);
    let summary = rt.admission_summary();
    assert_eq!((summary.fast_admits(), summary.fast_acquires()), (2, 1));
    assert_eq!((summary.published(), summary.published_grants()), (1, 1));
    assert_eq!(fast[3], fast[4], "acquisitions == releases at quiescence");

    // The same script with tier 1 declining throughout: a quarantined
    // import whose sites never run keeps the pending-import gate shut.
    let dir = std::env::temp_dir().join(format!("dimmunix-task-fast-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pack_path = dir.join("quarantine.pack");
    let mut pack = Pack::new("peer");
    pack.add(
        two_slot(
            AcquisitionSite::new("never.a", FILE, 90),
            AcquisitionSite::new("never.b", FILE, 91),
        ),
        1,
    );
    pack.save(&pack_path).unwrap();
    let locked = DimmunixRuntime::builder()
        .shards(2)
        .log_sync(false)
        .exchange(ExchangeOptions::new("local").import(&pack_path))
        .build();
    assert_eq!(locked.exchange_stats().unwrap().pending, 1);
    let tier2 = join_script(&locked);
    assert_eq!(locked.stats().fast_admits, 0);
    assert_eq!(locked.stats().local_decisions, 3, "every begin on tier 2");
    assert_eq!(fast, tier2);
    std::fs::remove_dir_all(&dir).ok();
}

/// A task holding a grant it has not acquired is known to that shard, so its
/// next acquisition is not admitted lock-free: a tier-1 hold taken while it
/// waits for the granted lock would be invisible to a cycle through that
/// wait.
#[test]
fn an_outstanding_grant_keeps_a_task_off_tier_one() {
    let rt = DimmunixRuntime::builder().shards(2).log_sync(false).build();
    let (l1, l2, l3) = (rt.allocate_lock(), rt.allocate_lock(), rt.allocate_lock());
    let w = Waker::from(Arc::new(CountingWake(AtomicU64::new(0))));
    let t = rt.register_task(None);
    granted(&rt, t, l1, CLEAN, &w);
    granted(&rt, t, l2, OTHER, &w);
    let before = rt.stats();
    granted(&rt, t, l3, S, &w);
    let after = rt.stats();
    assert_eq!(
        after.fast_admits, before.fast_admits,
        "l3 reached the engine"
    );
    assert_eq!(after.local_decisions - before.local_decisions, 1);
    for lock in [l1, l2, l3] {
        rt.task_finish_acquire(t, lock);
    }
    for lock in [l3, l2, l1] {
        rt.task_release(t, lock);
    }
    rt.retire_task(t);
    let stats = rt.stats();
    assert_eq!(stats.acquisitions, stats.releases);
}
