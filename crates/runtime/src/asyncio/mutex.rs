//! The poll-based immune mutex: the exclusive side of [`RwLock`].

use crate::asyncio::rwlock::{RwLock, RwLockWriteFuture, RwLockWriteGuard};
use crate::runtime::DimmunixRuntime;
use crate::site::AcquisitionSite;
use dimmunix_core::LockId;
use std::fmt;
use std::sync::Arc;

/// An async mutual-exclusion lock with deadlock immunity, keyed by task.
///
/// The async counterpart of [`ImmuneMutex`](crate::ImmuneMutex): every
/// acquisition is screened by the [`DimmunixRuntime`] under the *task's*
/// identity ([`OwnerId::Task`](dimmunix_core::OwnerId)), so lock cycles
/// among tasks are detected and avoided even when the tasks share worker
/// threads. It is an [`RwLock`] that is only ever written: `lock` is
/// [`write`](RwLock::write), with the same hooks, queue and hand-off.
///
/// Not reentrant: a task locking a mutex it already holds panics (the
/// engine reports the acquisition as reentrant, but an async mutex cannot
/// grant it without self-deadlock).
pub struct Mutex<T>(RwLock<T>);

/// Future returned by [`Mutex::lock`].
pub type MutexLockFuture<'a, T> = RwLockWriteFuture<'a, T>;

/// Guard produced by [`Mutex::lock`]; releases on drop.
pub type MutexGuard<'a, T> = RwLockWriteGuard<'a, T>;

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("asyncio::Mutex")
            .field("id", &self.lock_id())
            .finish_non_exhaustive()
    }
}

impl<T> Mutex<T> {
    /// Creates an immune async mutex attached to the process-global
    /// runtime.
    pub fn new(value: T) -> Self {
        Mutex(RwLock::new(value))
    }

    /// Creates an immune async mutex attached to an explicit runtime.
    pub fn new_in(rt: &Arc<DimmunixRuntime>, value: T) -> Self {
        Mutex(RwLock::new_in(rt, value))
    }

    /// The engine lock id backing this mutex.
    pub fn lock_id(&self) -> LockId {
        self.0.lock_id()
    }

    /// Acquires the mutex, implicitly capturing the caller's source
    /// location as the acquisition site; see [`RwLock::write`].
    #[track_caller]
    pub fn lock(&self) -> MutexLockFuture<'_, T> {
        self.lock_at(AcquisitionSite::here())
    }

    /// [`lock`](Self::lock) with an explicit acquisition site
    /// (deterministic tests and schedule replays).
    pub fn lock_at(&self, site: AcquisitionSite) -> MutexLockFuture<'_, T> {
        self.0.write_at(site)
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner()
    }
}
