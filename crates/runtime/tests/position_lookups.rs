//! How often a locked acquisition hashes a call stack, as exact counts on a
//! 2-shard runtime. A site's stack is interned once per process and the
//! per-thread site cache holds that one allocation, which every shard's
//! position table keys by address: a position lookup hashes the stack's
//! contents only the first time a shard interns the site. Before address
//! keys, every nested transfer hashed twice (the publish of the outer hold
//! and the inner request). Needs the `test-util` feature
//! (`DimmunixRuntime::hashed_position_lookups`).

use dimmunix_core::LockId;
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, TaskAcquire};
use std::sync::Arc;
use std::task::{Wake, Waker};

const FILE: &str = "position_lookups.rs";
const OUTER: AcquisitionSite = AcquisitionSite::new("lookups.debit", FILE, 1);
const INNER: AcquisitionSite = AcquisitionSite::new("lookups.credit", FILE, 2);
const TASK_OUTER: AcquisitionSite = AcquisitionSite::new("lookups.task_debit", FILE, 3);
const TASK_INNER: AcquisitionSite = AcquisitionSite::new("lookups.task_credit", FILE, 4);

struct NoOp;

impl Wake for NoOp {
    fn wake(self: Arc<Self>) {}
}

/// Hashed position lookups `f` takes on `rt`.
fn lookups(rt: &DimmunixRuntime, f: impl FnOnce()) -> u64 {
    let before = rt.hashed_position_lookups();
    f();
    rt.hashed_position_lookups() - before
}

/// A 2-shard runtime and one lock on each shard, `(on shard 0, on shard 1)`.
fn runtime_with_a_lock_per_shard() -> (Arc<DimmunixRuntime>, LockId, LockId) {
    let rt = DimmunixRuntime::builder().shards(2).log_sync(false).build();
    let mut on = [None, None];
    while on.iter().any(Option::is_none) {
        let lock = rt.allocate_lock();
        on[rt.shard_of(lock)].get_or_insert(lock);
    }
    (rt, on[0].unwrap(), on[1].unwrap())
}

/// A thread's nested transfer: `from` on tier 1 at [`OUTER`], then `to` at
/// [`INNER`], whose request publishes the first hold and takes tier 3.
fn transfer(rt: &DimmunixRuntime, from: LockId, to: LockId) {
    rt.before_acquire(from, OUTER).unwrap();
    rt.after_acquire(from);
    rt.before_acquire(to, INNER).unwrap();
    rt.after_acquire(to);
    rt.before_release(to);
    rt.before_release(from);
}

#[test]
fn a_steady_state_nested_transfer_hashes_no_stack() {
    let (rt, a, b) = runtime_with_a_lock_per_shard();
    // First transfer: OUTER is interned on a's shard (by the publish) and
    // INNER on b's, one content lookup each.
    assert_eq!(lookups(&rt, || transfer(&rt, a, b)), 2, "first transfer");
    assert_eq!(lookups(&rt, || transfer(&rt, a, b)), 0, "steady state");
    // The other way round, each site reaches the shard that has not seen
    // it yet: once more per shard, then never again.
    assert_eq!(
        lookups(&rt, || transfer(&rt, b, a)),
        2,
        "sites on new shards"
    );
    assert_eq!(lookups(&rt, || transfer(&rt, b, a)), 0);
    // Another thread's cache holds the same interned stacks.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            assert_eq!(lookups(&rt, || transfer(&rt, a, b)), 0, "a second thread");
            rt.retire_current_thread();
        });
    });
    // A tier-1 section never reaches a position table.
    let section = || {
        rt.before_acquire(a, AcquisitionSite::new("lookups.flat", FILE, 5))
            .unwrap();
        rt.after_acquire(a);
        rt.before_release(a);
    };
    assert_eq!(lookups(&rt, section), 0, "tier-1 section");
    let s = rt.stats();
    assert_eq!(
        (s.acquisitions, s.releases),
        (11, 11),
        "5 transfers, 1 section"
    );
}

#[test]
fn a_site_is_hashed_once_per_shard_that_interns_it() {
    let (rt, a, b) = runtime_with_a_lock_per_shard();
    let site = AcquisitionSite::new("lookups.once", FILE, 6);
    let nested = |outer, inner| {
        rt.before_acquire(outer, OUTER).unwrap();
        rt.after_acquire(outer);
        rt.before_acquire(inner, site).unwrap();
        rt.after_acquire(inner);
        rt.before_release(inner);
        rt.before_release(outer);
    };
    nested(a, b);
    assert_eq!(lookups(&rt, || nested(a, b)), 0, "warm on b's shard");
    // `site` is new to a's shard: one lookup hashes it there, the outer
    // site's publish on b's shard is that shard's first intern of OUTER.
    assert_eq!(lookups(&rt, || nested(b, a)), 2);
    assert_eq!(lookups(&rt, || nested(b, a)), 0);
}

#[test]
fn a_tasks_nested_acquisition_hashes_no_stack() {
    let (rt, a, b) = runtime_with_a_lock_per_shard();
    let waker = Waker::from(Arc::new(NoOp));
    let nested = |task| {
        let begin = |lock, site| rt.task_begin_acquire(task, lock, site, &waker);
        assert_eq!(begin(a, TASK_OUTER), TaskAcquire::Granted);
        rt.task_finish_acquire(task, a);
        assert_eq!(begin(b, TASK_INNER), TaskAcquire::Granted);
        rt.task_finish_acquire(task, b);
        rt.task_release(task, b);
        rt.task_release(task, a);
        rt.retire_task(task);
    };
    let first = rt.register_task(None);
    assert_eq!(
        lookups(&rt, || nested(first)),
        2,
        "each site's first intern"
    );
    let task = rt.register_task(None);
    assert_eq!(lookups(&rt, || nested(task)), 0, "a warm task");
    // A task polled from another worker thread finds the same stacks.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let task = rt.register_task(None);
            assert_eq!(lookups(&rt, || nested(task)), 0, "another worker");
        });
    });
}
