//! The shard-mutex budget of every runtime hook, as exact counts on a
//! 2-shard runtime. Where `flat_sections`-style timing cannot tell two
//! builds apart, these counts can: a change to the locked admission ladder
//! that takes one more shard lock in any hook fails here. Beside each budget
//! sits the tier that decided: `Stats::local_decisions` (tier 2) and
//! `Stats::cross_decisions` (tier 3). Needs the `test-util` feature
//! (`DimmunixRuntime::shard_locks_taken`).

use dimmunix_core::{Signature, SignatureKind, SignaturePair};
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, TaskAcquire};
use std::cell::Cell;
use std::sync::Arc;
use std::task::{Wake, Waker};

const FILE: &str = "shard_locks.rs";
const OUTER: AcquisitionSite = AcquisitionSite::new("locks.debit", FILE, 1);
const INNER: AcquisitionSite = AcquisitionSite::new("locks.credit", FILE, 2);
const TASK: AcquisitionSite = AcquisitionSite::new("locks.task", FILE, 3);

struct NoOp;

impl Wake for NoOp {
    fn wake(self: Arc<Self>) {}
}

/// Shard locks `f` takes on `rt`.
fn shard_locks<R>(rt: &DimmunixRuntime, f: impl FnOnce() -> R) -> (u64, R) {
    let before = rt.shard_locks_taken();
    let out = f();
    (rt.shard_locks_taken() - before, out)
}

#[test]
fn every_hook_takes_its_pinned_number_of_shard_locks() {
    let rt = DimmunixRuntime::builder().shards(2).log_sync(false).build();
    let count = |f: &dyn Fn()| shard_locks(&rt, f).0;
    // Tier-2 and tier-3 decisions since the previous call.
    let last = Cell::new((0, 0));
    let decided = || {
        let s = rt.stats();
        let (local, cross) = last.replace((s.local_decisions, s.cross_decisions));
        (s.local_decisions - local, s.cross_decisions - cross)
    };

    assert_eq!(
        count(&|| {
            rt.current_thread();
        }),
        2,
        "first-use registration"
    );
    let (n, debit) = shard_locks(&rt, || rt.allocate_lock());
    assert_eq!(n, 1, "allocate_lock");
    let credit = rt.allocate_lock();

    // A tier-1 section, once the site cache is warm.
    let section = || {
        rt.before_acquire(debit, OUTER).unwrap();
        rt.after_acquire(debit);
        rt.before_release(debit);
    };
    section();
    decided();
    assert_eq!(count(&section), 0, "steady-state tier-1 thread section");
    assert_eq!(decided(), (0, 0), "tier 1 decides on neither locked tier");

    // A nested transfer: the outer lock is admitted on tier 1, the inner
    // request publishes it and takes tier 3, and both releases are then
    // engine releases.
    assert_eq!(count(&|| rt.before_acquire(debit, OUTER).unwrap()), 0);
    assert_eq!(count(&|| rt.after_acquire(debit)), 0);
    let nested = [
        count(&|| rt.before_acquire(credit, INNER).unwrap()),
        count(&|| rt.after_acquire(credit)),
        count(&|| rt.before_release(credit)),
        count(&|| rt.before_release(debit)),
    ];
    assert_eq!(nested, [2, 1, 1, 1], "publish + tier 3, finish, releases");
    assert_eq!(decided(), (0, 1), "a nested transfer: tier 1, then tier 3");

    // A hold-free task at a clean site: tier 1 throughout, as for a thread.
    // Registration is lazy: no shard sees the task before its first engine
    // request.
    let waker = Waker::from(Arc::new(NoOp));
    let (n, task) = shard_locks(&rt, || rt.register_task(None));
    assert_eq!(n, 0, "register_task");
    let begin = |lock, site| {
        assert_eq!(
            rt.task_begin_acquire(task, lock, site, &waker),
            TaskAcquire::Granted
        )
    };
    let task_cycle = [
        count(&|| begin(debit, TASK)),
        count(&|| rt.task_finish_acquire(task, debit)),
        count(&|| rt.task_release(task, debit)),
    ];
    assert_eq!(task_cycle, [0, 0, 0], "task begin / finish / release");
    assert_eq!(decided(), (0, 0), "a hold-free task's begin: tier 1");

    // A nested task acquisition, as the thread's above: the inner request
    // publishes the tier-1 hold and takes tier 3.
    assert_eq!(count(&|| begin(debit, TASK)), 0);
    assert_eq!(count(&|| rt.task_finish_acquire(task, debit)), 0);
    let nested = [
        count(&|| begin(credit, INNER)),
        count(&|| rt.task_finish_acquire(task, credit)),
        count(&|| rt.task_release(task, credit)),
        count(&|| rt.task_release(task, debit)),
    ];
    assert_eq!(nested, [2, 1, 1, 1], "publish + tier 3, finish, releases");
    assert_eq!(
        decided(),
        (0, 1),
        "a nested task acquisition: tier 1, then tier 3"
    );
    assert_eq!(count(&|| rt.retire_task(task)), 2, "retire_task");

    let outer = OUTER.to_call_stack();
    let sig = Signature::new(
        SignatureKind::Deadlock,
        vec![SignaturePair::new(outer.clone(), outer)],
    );
    assert_eq!(
        count(&|| {
            rt.add_signature(sig.clone());
        }),
        2,
        "add_signature"
    );
}
