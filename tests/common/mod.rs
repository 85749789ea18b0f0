//! Helpers shared by the repository-level integration tests.

use dimmunix::rt::{DimmunixRuntime, LockError};
use std::sync::Arc;

/// Runs the AB/BA schedule on two threads over `[a, b]`, ordered by the
/// runtime's own request count rather than by sleeps. Thread 0 locks `a`
/// then `b`, thread 1 locks `b` then `a`; `lock(l, thread, inner)` makes
/// each acquisition and returns its guard, so a caller picks the lock type
/// (mutex, rwlock, a cross-shard pair) and the sites. Each thread makes its
/// next acquisition only once `rt.stats().requests` (which folds tier-1
/// admits in) has counted the other thread's previous one:
///
/// 1. thread 0 locks `a`;
/// 2. thread 1 requests `b`;
/// 3. thread 0 requests `b`;
/// 4. thread 1 requests `a`.
///
/// Without an antibody, step 3 waits on thread 1 and step 4 closes the
/// cycle, so one of the two is refused (under `DeadlockPolicy::Error`).
/// With one, thread 1 parks at step 2; the park is a request too, so thread
/// 0 goes on, finishes, and its release wakes thread 1. Returns each
/// thread's result.
pub fn ab_ba<'a, L: Sync, G>(
    rt: &Arc<DimmunixRuntime>,
    [a, b]: [&'a L; 2],
    lock: impl Fn(&'a L, usize, bool) -> Result<G, LockError> + Sync,
) -> [Result<(), LockError>; 2] {
    let base = rt.stats().requests;
    let counted = |n: u64| {
        while rt.stats().requests < base + n {
            std::thread::yield_now();
        }
    };
    std::thread::scope(|s| {
        let first = s.spawn(|| {
            let _a = lock(a, 0, false)?;
            counted(2);
            let _b = lock(b, 0, true)?;
            Ok(())
        });
        let second = s.spawn(|| {
            counted(1);
            let _b = lock(b, 1, false)?;
            counted(3);
            let _a = lock(a, 1, true)?;
            Ok(())
        });
        [first.join().unwrap(), second.join().unwrap()]
    })
}
