//! The process-global runtime, exercised beyond the smoke test.
//!
//! `RuntimeBuilder::install_global` is fixed-at-first-use by design: the
//! drop-in constructors (`ImmuneMutex::new(value)`, …) attach to one
//! process-wide engine for the life of the process. That used to make the
//! global path nearly untestable — one install per test *binary*. The
//! test-only reset (`DimmunixRuntime::reset_global_for_tests`, compiled
//! under the `test-util` feature that this package's dev-dependencies
//! enable) lets a single test walk the whole lifecycle: configure, install,
//! use implicitly, observe the double-install error, reset, re-install.
//!
//! Everything lives in ONE `#[test]` on purpose: the global is process-wide
//! state, and the default test harness runs `#[test]`s concurrently —
//! splitting the phases into separate tests would race them against each
//! other.

use dimmunix::rt::{
    DeadlockPolicy, DimmunixRuntime, ImmuneMonitor, ImmuneMutex, ImmuneRwLock, RuntimeBuilder,
};
use std::sync::Arc;

#[test]
fn global_runtime_full_lifecycle_with_reset() {
    // --- Phase 1: install a configured global before any implicit use. ---
    let rt = RuntimeBuilder::new()
        .shards(4)
        .deadlock_policy(DeadlockPolicy::Error)
        .install_global()
        .expect("first install must succeed");
    assert_eq!(rt.shard_count(), 4);

    // The implicit constructors attach to the installed runtime.
    let counter = ImmuneMutex::new(0u32);
    *counter.lock().unwrap() += 1;
    let rw = ImmuneRwLock::new(vec![1u8, 2]);
    // Sequential reads (overlapping guards on one thread are forbidden by
    // the rwlock contract), then a write — all against the global.
    assert_eq!(rw.read().unwrap().len(), 2);
    assert_eq!(rw.read().unwrap().len(), 2);
    rw.write().unwrap().push(3);
    let mon = ImmuneMonitor::new(0i64);
    {
        let mut g = mon.enter().unwrap();
        *g += 5;
        g.notify_all();
    }
    let stats = rt.stats();
    assert!(
        stats.acquisitions >= 5,
        "implicit locks must have driven the installed global: {stats}"
    );
    assert_eq!(stats.acquisitions, stats.releases, "{stats}");

    // `global()` hands back the installed runtime, not a fresh default.
    assert!(Arc::ptr_eq(&rt, &DimmunixRuntime::global()));

    // --- Phase 2: a second install is refused while the global stands. ---
    let refused = RuntimeBuilder::new().shards(2).install_global();
    assert!(refused.is_err(), "double install must be refused");
    assert!(refused
        .unwrap_err()
        .to_string()
        .contains("already installed"));

    // --- Phase 3: reset, then a differently-configured install succeeds. ---
    DimmunixRuntime::reset_global_for_tests();
    let rt2 = RuntimeBuilder::new()
        .shards(2)
        .install_global()
        .expect("install after reset must succeed");
    assert_eq!(rt2.shard_count(), 2);
    assert!(
        !Arc::ptr_eq(&rt, &rt2),
        "the re-install must produce a fresh runtime"
    );
    assert!(Arc::ptr_eq(&rt2, &DimmunixRuntime::global()));

    // New implicit locks attach to the new global...
    let fresh = ImmuneMutex::new(0u8);
    drop(fresh.lock().unwrap());
    assert_eq!(rt2.stats().acquisitions, 1);

    // ...while locks created before the reset keep working against the
    // runtime they pinned at construction (documented reset semantics).
    let before = rt.stats().acquisitions;
    *counter.lock().unwrap() += 1;
    assert_eq!(rt.stats().acquisitions, before + 1);
    assert_eq!(rt2.stats().acquisitions, 1, "old locks must not leak over");

    // --- Phase 4: reset back to "first implicit use wins" and check the
    // default-initialization path still works. ---
    DimmunixRuntime::reset_global_for_tests();
    let implicit_first = ImmuneMutex::new("hello");
    assert_eq!(*implicit_first.lock().unwrap(), "hello");
    let defaulted = DimmunixRuntime::global();
    assert_eq!(
        defaulted.shard_count(),
        std::thread::available_parallelism().map_or(1, |n| n.get().min(dimmunix::core::MAX_SHARDS)),
    );
    assert!(
        RuntimeBuilder::new().install_global().is_err(),
        "the implicit first use fixed the global again"
    );
}
