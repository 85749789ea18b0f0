//! `ImmuneMutex` — a drop-in `std::sync::Mutex` with deadlock immunity.
//!
//! Rust offers no way to interpose on `std::sync::Mutex`, so immunity is
//! provided by a wrapper type: every acquisition calls the runtime's
//! `before_acquire` / `after_acquire` hooks and every release (guard drop)
//! calls `before_release`, exactly where the paper's modified Dalvik
//! routines call the Dimmunix core.
//!
//! The type is a **drop-in replacement**: [`ImmuneMutex::new`] takes only
//! the protected value (attaching to the process-global
//! [`DimmunixRuntime`]), and [`ImmuneMutex::lock`]
//! is `#[track_caller]`, deriving its acquisition site from the caller's
//! source location. Migrating a program from `std::sync` is a rename plus
//! handling [`LockError`] where a deadlock would have hung. The explicit
//! variants ([`new_in`](ImmuneMutex::new_in),
//! [`lock_at`](ImmuneMutex::lock_at)) remain for multi-runtime tests and
//! deterministic site identity.
//!
//! The lock id allocated at construction determines the engine shard whose
//! mutex guards this lock's engine state (see
//! [`RuntimeOptions::shards`](crate::RuntimeOptions::shards)). A clean
//! acquisition takes no shard mutex at all; one the lock-free tier declines
//! is decided by `dimmunix-core`'s locked ladder under that mutex alone when
//! it can be, so two `ImmuneMutex`es on different shards synchronize
//! through disjoint engine state.

use crate::runtime::{DimmunixRuntime, LockError};
use crate::site::AcquisitionSite;
use crate::sync;
use dimmunix_core::LockId;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard};

/// A mutex whose acquisitions are screened by Dimmunix.
///
/// ```
/// use dimmunix_rt::ImmuneMutex;
///
/// let counter = ImmuneMutex::new(0u32);
/// {
///     let mut guard = counter.lock()?;
///     *guard += 1;
/// }
/// assert_eq!(*counter.lock()?, 1);
/// # Ok::<(), dimmunix_rt::LockError>(())
/// ```
pub struct ImmuneMutex<T: ?Sized> {
    runtime: Arc<DimmunixRuntime>,
    lock_id: LockId,
    inner: Mutex<T>,
}

impl<T> ImmuneMutex<T> {
    /// Creates an immune mutex protected by the process-global runtime
    /// ([`DimmunixRuntime::global`]) — the drop-in constructor.
    pub fn new(value: T) -> Self {
        Self::new_in(&DimmunixRuntime::global(), value)
    }

    /// Creates an immune mutex protected by an explicit runtime
    /// (multi-runtime tests, benches, paper experiments).
    pub fn new_in(runtime: &Arc<DimmunixRuntime>, value: T) -> Self {
        ImmuneMutex {
            runtime: runtime.clone(),
            lock_id: runtime.allocate_lock(),
            inner: Mutex::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        sync::into_inner(self.inner)
    }
}

impl<T: ?Sized> ImmuneMutex<T> {
    /// The engine-level identifier of this lock.
    pub fn lock_id(&self) -> LockId {
        self.lock_id
    }

    /// Acquires the mutex. The acquisition site is the caller's source
    /// location (`#[track_caller]`); use [`lock_at`](ImmuneMutex::lock_at)
    /// to pin an explicit site.
    ///
    /// The calling thread may be parked by the avoidance module if acquiring
    /// here could re-instantiate a known deadlock signature.
    ///
    /// # Errors
    /// Returns [`LockError::WouldDeadlock`] if the acquisition would complete
    /// a deadlock cycle and the runtime's policy is
    /// [`DeadlockPolicy::Error`](crate::DeadlockPolicy::Error).
    #[track_caller]
    pub fn lock(&self) -> Result<ImmuneMutexGuard<'_, T>, LockError> {
        self.lock_at(AcquisitionSite::here())
    }

    /// Acquires the mutex, identifying the acquisition by an explicit
    /// `site` (use [`acquire_site!`](crate::acquire_site)). Deterministic
    /// tests and the paper experiments use this to keep site identity
    /// stable across refactors and runs.
    ///
    /// # Errors
    /// Same as [`lock`](ImmuneMutex::lock).
    pub fn lock_at(&self, site: AcquisitionSite) -> Result<ImmuneMutexGuard<'_, T>, LockError> {
        self.runtime.before_acquire(self.lock_id, site)?;
        let guard = sync::lock(&self.inner);
        self.runtime.after_acquire(self.lock_id);
        Ok(ImmuneMutexGuard {
            runtime: &self.runtime,
            lock_id: self.lock_id,
            guard: Some(guard),
        })
    }

    /// Attempts to acquire the mutex without blocking on the underlying
    /// lock, with the caller's source location as the site. The Dimmunix
    /// request is still issued (and may park the thread); only contention
    /// on the real mutex is non-blocking.
    ///
    /// # Errors
    /// Same as [`lock`](ImmuneMutex::lock).
    #[track_caller]
    pub fn try_lock(&self) -> Result<Option<ImmuneMutexGuard<'_, T>>, LockError> {
        self.try_lock_at(AcquisitionSite::here())
    }

    /// [`try_lock`](ImmuneMutex::try_lock) with an explicit site.
    ///
    /// # Errors
    /// Same as [`lock`](ImmuneMutex::lock).
    pub fn try_lock_at(
        &self,
        site: AcquisitionSite,
    ) -> Result<Option<ImmuneMutexGuard<'_, T>>, LockError> {
        self.runtime.before_acquire(self.lock_id, site)?;
        // Recover from poisoning like every other acquisition path (see
        // crate::sync); only genuine contention yields `None`.
        let attempt = match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        };
        match attempt {
            Some(guard) => {
                self.runtime.after_acquire(self.lock_id);
                Ok(Some(ImmuneMutexGuard {
                    runtime: &self.runtime,
                    lock_id: self.lock_id,
                    guard: Some(guard),
                }))
            }
            None => {
                // Back out of the approved-but-unused acquisition.
                self.runtime.cancel_acquire(self.lock_id);
                Ok(None)
            }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for ImmuneMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImmuneMutex")
            .field("lock_id", &self.lock_id)
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard for [`ImmuneMutex`]; releasing it notifies Dimmunix before the
/// underlying mutex is unlocked.
pub struct ImmuneMutexGuard<'a, T: ?Sized> {
    runtime: &'a Arc<DimmunixRuntime>,
    lock_id: LockId,
    guard: Option<MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for ImmuneMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for ImmuneMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for ImmuneMutexGuard<'_, T> {
    fn drop(&mut self) {
        // §4: Release() runs right before the monitor is released.
        self.runtime.before_release(self.lock_id);
        drop(self.guard.take());
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for ImmuneMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImmuneMutexGuard")
            .field("lock_id", &self.lock_id)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_provides_mutable_access() {
        let rt = DimmunixRuntime::new();
        let m = ImmuneMutex::new_in(&rt, vec![1, 2, 3]);
        {
            let mut g = m.lock().unwrap();
            g.push(4);
        }
        assert_eq!(m.lock().unwrap().len(), 4);
        assert_eq!(m.into_inner(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_increments_are_mutually_excluded() {
        let rt = DimmunixRuntime::new();
        let m = Arc::new(ImmuneMutex::new_in(&rt, 0u64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let mut g = m.lock().unwrap();
                    *g += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock().unwrap(), 8000);
        assert_eq!(rt.stats().deadlocks_detected, 0);
    }

    #[test]
    fn try_lock_returns_none_under_contention() {
        let rt = DimmunixRuntime::new();
        let m = Arc::new(ImmuneMutex::new_in(&rt, ()));
        let g = m.lock().unwrap();
        let m2 = m.clone();
        let handle = std::thread::spawn(move || m2.try_lock().unwrap().is_none());
        assert!(handle.join().unwrap());
        drop(g);
        assert!(m.try_lock().unwrap().is_some());
    }

    #[test]
    fn lock_ids_differ_between_mutexes() {
        let rt = DimmunixRuntime::new();
        let a = ImmuneMutex::new_in(&rt, ());
        let b = ImmuneMutex::new_in(&rt, ());
        assert_ne!(a.lock_id(), b.lock_id());
    }

    #[test]
    fn drop_in_constructor_uses_the_global_runtime() {
        // Only touch state that tolerates sharing with every other test in
        // this binary: a lock/unlock round trip and the lock-id allocator.
        let m = ImmuneMutex::new("global".to_string());
        assert_eq!(m.lock().unwrap().as_str(), "global");
        let n = ImmuneMutex::new(());
        assert_ne!(m.lock_id(), n.lock_id());
    }
}
