//! `ImmuneMonitor` — a Java-style monitor (lock + condition) with deadlock
//! immunity, including the `wait()` reacquisition path.
//!
//! §3.2 explains why intercepting `Object.wait()` matters: when a thread
//! finishes waiting it must *reacquire* the monitor, typically while still
//! holding other locks, and that reacquisition can complete a lock-inversion
//! deadlock that bytecode instrumentation never sees. `ImmuneMonitor::wait`
//! therefore releases through Dimmunix, parks on the condition variable, and
//! reacquires through Dimmunix again.
//!
//! Because the reacquiring thread typically still holds other locks, the
//! reacquisition request usually takes the runtime's cross-shard snapshot
//! path (the held locks may live on other shards than this monitor) — which
//! is exactly the case the sharded engine's merged cycle detection exists
//! for.

use crate::runtime::{DimmunixRuntime, LockError};
use crate::site::AcquisitionSite;
use crate::sync;
use dimmunix_core::LockId;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A monitor: mutual exclusion plus `wait` / `notify`, screened by Dimmunix.
///
/// ```
/// use dimmunix_rt::ImmuneMonitor;
/// use std::sync::Arc;
///
/// let queue = Arc::new(ImmuneMonitor::new(Vec::<u32>::new()));
///
/// let producer = {
///     let queue = queue.clone();
///     std::thread::spawn(move || {
///         let mut guard = queue.enter().unwrap();
///         guard.push(42);
///         guard.notify_all();
///     })
/// };
/// producer.join().unwrap();
///
/// let mut guard = queue.enter().unwrap();
/// while guard.is_empty() {
///     guard = guard.wait_for(std::time::Duration::from_millis(10)).unwrap();
/// }
/// assert_eq!(*guard, vec![42]);
/// ```
pub struct ImmuneMonitor<T: ?Sized> {
    runtime: Arc<DimmunixRuntime>,
    lock_id: LockId,
    /// Wait-set gate: a generation counter bumped by every notification.
    /// Waiters sample the generation while still holding the monitor, so a
    /// notification issued after the monitor is released can never be lost.
    wait_gate: Mutex<u64>,
    wait_cv: Condvar,
    inner: Mutex<T>,
}

impl<T> ImmuneMonitor<T> {
    /// Creates a monitor protected by the process-global runtime
    /// ([`DimmunixRuntime::global`]) — the drop-in constructor.
    pub fn new(value: T) -> Self {
        Self::new_in(&DimmunixRuntime::global(), value)
    }

    /// Creates a monitor protected by an explicit runtime (multi-runtime
    /// tests, benches, paper experiments).
    pub fn new_in(runtime: &Arc<DimmunixRuntime>, value: T) -> Self {
        ImmuneMonitor {
            runtime: runtime.clone(),
            lock_id: runtime.allocate_lock(),
            wait_gate: Mutex::new(0),
            wait_cv: Condvar::new(),
            inner: Mutex::new(value),
        }
    }

    /// Consumes the monitor and returns the protected value.
    pub fn into_inner(self) -> T {
        sync::into_inner(self.inner)
    }
}

impl<T: ?Sized> ImmuneMonitor<T> {
    /// The engine-level identifier of this monitor.
    pub fn lock_id(&self) -> LockId {
        self.lock_id
    }

    /// Enters the monitor (the equivalent of a `synchronized` block). The
    /// acquisition site is the caller's source location (`#[track_caller]`);
    /// use [`enter_at`](ImmuneMonitor::enter_at) to pin an explicit site.
    ///
    /// # Errors
    /// Returns [`LockError::WouldDeadlock`] under the error policy if the
    /// acquisition would complete a deadlock cycle.
    #[track_caller]
    pub fn enter(&self) -> Result<MonitorGuard<'_, T>, LockError> {
        self.enter_at(AcquisitionSite::here())
    }

    /// Enters the monitor with an explicit acquisition site (use
    /// [`acquire_site!`](crate::acquire_site)).
    ///
    /// # Errors
    /// Same as [`enter`](ImmuneMonitor::enter).
    pub fn enter_at(&self, site: AcquisitionSite) -> Result<MonitorGuard<'_, T>, LockError> {
        self.runtime.before_acquire(self.lock_id, site)?;
        let guard = sync::lock(&self.inner);
        self.runtime.after_acquire(self.lock_id);
        Ok(MonitorGuard {
            monitor: self,
            guard: Some(guard),
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for ImmuneMonitor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImmuneMonitor")
            .field("lock_id", &self.lock_id)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`ImmuneMonitor::enter`].
pub struct MonitorGuard<'a, T: ?Sized> {
    monitor: &'a ImmuneMonitor<T>,
    guard: Option<MutexGuard<'a, T>>,
}

impl<'a, T: ?Sized> MonitorGuard<'a, T> {
    /// `Object.wait()`: atomically releases the monitor (through Dimmunix),
    /// waits to be notified, then reacquires the monitor (through Dimmunix —
    /// the path that catches wait-induced lock inversions). The returned
    /// guard holds the monitor again. The *reacquisition* site is the
    /// caller's source location (`#[track_caller]`); use
    /// [`wait_at`](MonitorGuard::wait_at) to pin an explicit site.
    ///
    /// # Errors
    /// Returns [`LockError::WouldDeadlock`] if the *reacquisition* would
    /// complete a deadlock cycle under the error policy.
    #[track_caller]
    pub fn wait(self) -> Result<MonitorGuard<'a, T>, LockError> {
        self.wait_inner(AcquisitionSite::here(), None)
    }

    /// [`wait`](MonitorGuard::wait) with an explicit reacquisition site.
    ///
    /// # Errors
    /// Same as [`wait`](MonitorGuard::wait).
    pub fn wait_at(
        self,
        reacquire_site: AcquisitionSite,
    ) -> Result<MonitorGuard<'a, T>, LockError> {
        self.wait_inner(reacquire_site, None)
    }

    /// `Object.wait(timeout)`: like [`wait`](MonitorGuard::wait) but resumes
    /// after `timeout` even without a notification.
    ///
    /// # Errors
    /// Same as [`wait`](MonitorGuard::wait).
    #[track_caller]
    pub fn wait_for(self, timeout: Duration) -> Result<MonitorGuard<'a, T>, LockError> {
        self.wait_inner(AcquisitionSite::here(), Some(timeout))
    }

    /// [`wait_for`](MonitorGuard::wait_for) with an explicit reacquisition
    /// site.
    ///
    /// # Errors
    /// Same as [`wait`](MonitorGuard::wait).
    pub fn wait_for_at(
        self,
        reacquire_site: AcquisitionSite,
        timeout: Duration,
    ) -> Result<MonitorGuard<'a, T>, LockError> {
        self.wait_inner(reacquire_site, Some(timeout))
    }

    fn wait_inner(
        mut self,
        reacquire_site: AcquisitionSite,
        timeout: Option<Duration>,
    ) -> Result<MonitorGuard<'a, T>, LockError> {
        let monitor = self.monitor;
        // Sample the notification generation while still inside the monitor:
        // only a notifier that runs *after* we release can bump it, so the
        // wake-up cannot be lost.
        let observed = *sync::lock(&monitor.wait_gate);
        // Release through Dimmunix, then really release the monitor. The
        // guard's Drop is bypassed because we already take the inner guard.
        monitor.runtime.before_release(monitor.lock_id);
        drop(self.guard.take());
        // `self` now holds no guard; its Drop is a no-op.
        drop(self);

        // Wait for a notification or the timeout, without holding the
        // monitor (Java wait-set semantics).
        {
            let mut gen = sync::lock(&monitor.wait_gate);
            let deadline = timeout.map(|t| std::time::Instant::now() + t);
            while *gen == observed {
                match deadline {
                    Some(d) => {
                        let remaining = d.saturating_duration_since(std::time::Instant::now());
                        if remaining.is_zero() {
                            break;
                        }
                        let (g, timed_out) = sync::wait_timeout(&monitor.wait_cv, gen, remaining);
                        gen = g;
                        if timed_out {
                            break;
                        }
                    }
                    None => gen = sync::wait(&monitor.wait_cv, gen),
                }
            }
        }

        // Reacquire the monitor through Dimmunix — the interception the
        // paper adds to waitMonitor so wait-induced inversions are covered.
        monitor
            .runtime
            .before_acquire(monitor.lock_id, reacquire_site)?;
        let guard = sync::lock(&monitor.inner);
        monitor.runtime.after_acquire(monitor.lock_id);
        Ok(MonitorGuard {
            monitor,
            guard: Some(guard),
        })
    }

    /// `Object.notify()`: wakes a thread waiting on this monitor. (Like the
    /// JVM, waiters may also wake spuriously; callers re-check their
    /// condition in a loop.)
    pub fn notify_one(&self) {
        let mut gen = sync::lock(&self.monitor.wait_gate);
        *gen += 1;
        self.monitor.wait_cv.notify_one();
    }

    /// `Object.notifyAll()`: wakes every thread waiting on this monitor.
    pub fn notify_all(&self) {
        let mut gen = sync::lock(&self.monitor.wait_gate);
        *gen += 1;
        self.monitor.wait_cv.notify_all();
    }
}

impl<T: ?Sized> Deref for MonitorGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MonitorGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for MonitorGuard<'_, T> {
    fn drop(&mut self) {
        if self.guard.is_some() {
            self.monitor.runtime.before_release(self.monitor.lock_id);
            drop(self.guard.take());
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MonitorGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorGuard").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmunix_core::Stats;

    #[test]
    fn enter_and_mutate() {
        let rt = DimmunixRuntime::new();
        let m = ImmuneMonitor::new_in(&rt, 0u32);
        {
            let mut g = m.enter().unwrap();
            *g = 7;
        }
        assert_eq!(*m.enter().unwrap(), 7);
        assert_eq!(m.into_inner(), 7);
    }

    #[test]
    fn wait_for_times_out_and_reacquires() {
        let rt = DimmunixRuntime::new();
        let m = ImmuneMonitor::new_in(&rt, 5u32);
        let g = m.enter().unwrap();
        let g = g.wait_for(Duration::from_millis(10)).unwrap();
        assert_eq!(*g, 5);
        drop(g);
        // One enter plus one reacquisition.
        assert_eq!(rt.stats().acquisitions, 2);
        assert_eq!(rt.stats().releases, 2);
    }

    /// Spins until `rt`'s `field` count reaches `n`: the threads below
    /// order their steps by the runtime's own counts, never by sleeps.
    fn counted(rt: &DimmunixRuntime, field: fn(&Stats) -> u64, n: u64) {
        while field(&rt.stats()) < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn notify_wakes_waiter() {
        let rt = DimmunixRuntime::new();
        let m = Arc::new(ImmuneMonitor::new_in(&rt, false));
        let m2 = m.clone();
        let waiter = std::thread::spawn(move || {
            let mut g = m2.enter().unwrap();
            while !*g {
                g = g.wait().unwrap();
            }
            true
        });
        // `wait` samples the notification generation before its release,
        // so once that release is counted a notification cannot be lost.
        counted(&rt, |s| s.releases, 1);
        {
            let mut g = m.enter().unwrap();
            *g = true;
            g.notify_all();
        }
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn wait_induced_inversion_is_detected() {
        // §3.2's example with real threads and the error policy: t1 holds Y
        // and waits on X; t2 enters X, notifies, and then wants Y while t1
        // requests X back. The request that closes the cycle must be
        // refused as a deadlock, not silently hang. Ordered by counts:
        // 1. t1 holds Y, enters X and waits (releasing X);
        // 2. once that release is counted, t2 enters X and notifies;
        // 3. once t1's reacquisition request is counted, t2 requests Y.
        use crate::{DeadlockPolicy, ImmuneMutex};
        let rt = DimmunixRuntime::builder()
            .deadlock_policy(DeadlockPolicy::Error)
            .build();
        let x = ImmuneMonitor::new_in(&rt, ());
        let y = ImmuneMutex::new_in(&rt, ());

        let [r1, r2] = std::thread::scope(|scope| {
            let t1 = scope.spawn(|| -> Result<(), LockError> {
                let _y_guard = y.lock_at(AcquisitionSite::new("T1.holdY", "inv.rs", 1))?;
                let x_guard = x.enter_at(AcquisitionSite::new("T1.enterX", "inv.rs", 2))?;
                let _reacquired =
                    x_guard.wait_at(AcquisitionSite::new("T1.reacquireX", "inv.rs", 3))?;
                Ok(())
            });
            let t2 = scope.spawn(|| -> Result<(), LockError> {
                counted(&rt, |s| s.releases, 1);
                let x_guard = x.enter_at(AcquisitionSite::new("T2.enterX", "inv.rs", 4))?;
                x_guard.notify_all();
                // Requests so far: t1's Y, X and reacquired X, t2's X.
                counted(&rt, |s| s.requests, 4);
                let _y_guard = y.lock_at(AcquisitionSite::new("T2.lockY", "inv.rs", 5))?;
                Ok(())
            });
            [t1.join().unwrap(), t2.join().unwrap()]
        });
        assert!(r2.is_err(), "t2's request for Y closes the cycle: {r2:?}");
        assert!(r1.is_ok(), "t1 reacquires X once t2 backs off: {r1:?}");
        assert_eq!(rt.stats().deadlocks_detected, 1);
        assert_eq!(rt.history().len(), 1);
    }
}
