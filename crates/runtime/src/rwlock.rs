//! `ImmuneRwLock` — a drop-in `std::sync::RwLock` with deadlock immunity.
//!
//! Both read and write acquisitions are screened through the same
//! shard-routed engine path as [`ImmuneMutex`](crate::ImmuneMutex): the
//! full `request` screening (RAG cycle detection **and** signature
//! avoidance) runs before the real `RwLock` is touched, so reader/writer
//! and writer/writer lock inversions develop antibodies exactly like
//! monitor inversions do.
//!
//! ## Exact shared-reader semantics
//!
//! The engine's RAG carries **multi-owner lock nodes**: every reader of a
//! crowd registers its own hold (its own acquisition site, `acqPos`, and
//! acquisition sequence number) through
//! [`DimmunixRuntime::before_acquire_shared`], and releases it itself when
//! its guard drops. A writer blocked behind the crowd has a wait-for edge
//! to **every** current reader, so a cycle through any reader — not just
//! the first one in — is detected on its first occurrence, and the
//! signature's template positions come from the reader actually on the
//! cycle. Conversely, a reader that left the section carries no stale
//! engine hold, so no cycle can be pinned on it spuriously. Readers
//! joining an existing crowd conflict with no one: the engine treats
//! shared/shared as compatible in both detection (no wait-for edge) and
//! avoidance (crowd-mates are not instantiation blockers).
//!
//! Like `std::sync::RwLock`, the lock is not reentrant and acquisitions do
//! not upgrade: a thread that already holds **any** guard on this lock
//! (read or write) must not call `read`/`write` again. A read→write
//! upgrade (`let g = rw.read()?; rw.write()?`) deadlocks the calling
//! thread exactly as it does with `std::sync::RwLock`, and the engine
//! cannot rescue it: a thread's request against a lock it already owns is
//! a self-edge the wait-for relation (correctly) ignores.
//!
//! One modeling gap remains, shared with the previous design: if the OS
//! rwlock implements writer preference, a *new* reader can block behind a
//! waiting writer; the engine does not model that reader→writer wait (it
//! sees only reader→owner conflicts), so cycles that exist purely because
//! of writer-preference queuing are handled by the paper's fail-safe
//! machinery (timeouts/retries at the substrate level), not by detection.

use crate::runtime::{DimmunixRuntime, LockError};
use crate::site::AcquisitionSite;
use crate::sync;
use dimmunix_core::LockId;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A reader–writer lock whose acquisitions are screened by Dimmunix.
///
/// ```
/// use dimmunix_rt::ImmuneRwLock;
///
/// let config = ImmuneRwLock::new(vec!["a", "b"]);
/// assert_eq!(config.read()?.len(), 2);
/// config.write()?.push("c");
/// assert_eq!(config.read()?.len(), 3);
/// # Ok::<(), dimmunix_rt::LockError>(())
/// ```
pub struct ImmuneRwLock<T: ?Sized> {
    runtime: Arc<DimmunixRuntime>,
    lock_id: LockId,
    inner: RwLock<T>,
}

impl<T> ImmuneRwLock<T> {
    /// Creates an immune reader–writer lock protected by the process-global
    /// runtime ([`DimmunixRuntime::global`]) — the drop-in constructor.
    pub fn new(value: T) -> Self {
        Self::new_in(&DimmunixRuntime::global(), value)
    }

    /// Creates an immune reader–writer lock protected by an explicit
    /// runtime (multi-runtime tests, benches, paper experiments).
    pub fn new_in(runtime: &Arc<DimmunixRuntime>, value: T) -> Self {
        ImmuneRwLock {
            runtime: runtime.clone(),
            lock_id: runtime.allocate_lock(),
            inner: RwLock::new(value),
        }
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        sync::rwlock_into_inner(self.inner)
    }
}

impl<T: ?Sized> ImmuneRwLock<T> {
    /// The engine-level identifier of this lock.
    pub fn lock_id(&self) -> LockId {
        self.lock_id
    }

    /// Acquires shared read access. The acquisition site is the caller's
    /// source location (`#[track_caller]`); use
    /// [`read_at`](ImmuneRwLock::read_at) to pin an explicit site.
    ///
    /// The calling thread registers its **own** engine-level hold (one
    /// owner among possibly many) and may be parked by the avoidance module
    /// if acquiring here could re-instantiate a known deadlock signature;
    /// joining an already-reading crowd is always compatible.
    ///
    /// # Errors
    /// Returns [`LockError::WouldDeadlock`] if the acquisition would complete
    /// a deadlock cycle and the runtime's policy is
    /// [`DeadlockPolicy::Error`](crate::DeadlockPolicy::Error).
    #[track_caller]
    pub fn read(&self) -> Result<ImmuneRwLockReadGuard<'_, T>, LockError> {
        self.read_at(AcquisitionSite::here())
    }

    /// [`read`](ImmuneRwLock::read) with an explicit acquisition site (use
    /// [`acquire_site!`](crate::acquire_site)).
    ///
    /// # Errors
    /// Same as [`read`](ImmuneRwLock::read).
    pub fn read_at(
        &self,
        site: AcquisitionSite,
    ) -> Result<ImmuneRwLockReadGuard<'_, T>, LockError> {
        self.runtime.before_acquire_shared(self.lock_id, site)?;
        let guard = sync::read(&self.inner);
        self.runtime.after_acquire(self.lock_id);
        Ok(ImmuneRwLockReadGuard {
            lock: self,
            guard: Some(guard),
        })
    }

    /// Acquires exclusive write access. The acquisition site is the
    /// caller's source location (`#[track_caller]`); use
    /// [`write_at`](ImmuneRwLock::write_at) to pin an explicit site.
    ///
    /// # Errors
    /// Same as [`read`](ImmuneRwLock::read).
    #[track_caller]
    pub fn write(&self) -> Result<ImmuneRwLockWriteGuard<'_, T>, LockError> {
        self.write_at(AcquisitionSite::here())
    }

    /// [`write`](ImmuneRwLock::write) with an explicit acquisition site.
    ///
    /// # Errors
    /// Same as [`read`](ImmuneRwLock::read).
    pub fn write_at(
        &self,
        site: AcquisitionSite,
    ) -> Result<ImmuneRwLockWriteGuard<'_, T>, LockError> {
        self.runtime.before_acquire(self.lock_id, site)?;
        let guard = sync::write(&self.inner);
        self.runtime.after_acquire(self.lock_id);
        Ok(ImmuneRwLockWriteGuard {
            lock: self,
            guard: Some(guard),
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for ImmuneRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImmuneRwLock")
            .field("lock_id", &self.lock_id)
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard for shared read access to an [`ImmuneRwLock`]; releasing it
/// notifies Dimmunix (dropping this reader's own engine hold) before the
/// underlying lock is unlocked.
pub struct ImmuneRwLockReadGuard<'a, T: ?Sized> {
    lock: &'a ImmuneRwLock<T>,
    guard: Option<RwLockReadGuard<'a, T>>,
}

impl<T: ?Sized> Deref for ImmuneRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> Drop for ImmuneRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        // §4: Release() runs right before the real lock is released. Each
        // reader releases exactly the hold it registered; co-readers keep
        // theirs.
        self.lock.runtime.before_release(self.lock.lock_id);
        drop(self.guard.take());
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for ImmuneRwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImmuneRwLockReadGuard")
            .finish_non_exhaustive()
    }
}

/// RAII guard for exclusive write access to an [`ImmuneRwLock`]; releasing
/// it notifies Dimmunix before the underlying lock is unlocked.
pub struct ImmuneRwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a ImmuneRwLock<T>,
    guard: Option<RwLockWriteGuard<'a, T>>,
}

impl<T: ?Sized> Deref for ImmuneRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for ImmuneRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present")
    }
}

impl<T: ?Sized> Drop for ImmuneRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.runtime.before_release(self.lock.lock_id);
        drop(self.guard.take());
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for ImmuneRwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImmuneRwLockWriteGuard")
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Barrier;

    /// Spins until the runtime has counted `n` acquisition requests. A
    /// thread that blocks inside the real rwlock cannot mark a rendezvous
    /// itself, but the engine counts its request — and records its request
    /// edge — under the shard lock before the block, and `stats()` never
    /// reads ahead of the engine.
    fn await_requests(rt: &DimmunixRuntime, n: u64) {
        while rt.stats().requests < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn read_write_roundtrip_balances_engine_accounting() {
        let rt = DimmunixRuntime::new();
        let rw = ImmuneRwLock::new_in(&rt, 1u32);
        {
            let g = rw.read().unwrap();
            assert_eq!(*g, 1);
        }
        {
            let mut g = rw.write().unwrap();
            *g = 2;
        }
        assert_eq!(*rw.read().unwrap(), 2);
        assert_eq!(rw.into_inner(), 2);
        let stats = rt.stats();
        assert_eq!(stats.acquisitions, 3);
        assert_eq!(stats.releases, 3);
    }

    #[test]
    fn readers_run_concurrently_each_with_their_own_hold() {
        let rt = DimmunixRuntime::new();
        let rw = Arc::new(ImmuneRwLock::new_in(&rt, 0u32));
        const READERS: usize = 4;
        // Every reader must be inside the read section at the same time
        // before any of them leaves — impossible if reads excluded each
        // other.
        let inside = Arc::new(Barrier::new(READERS));
        let mut handles = Vec::new();
        for _ in 0..READERS {
            let rw = rw.clone();
            let inside = inside.clone();
            handles.push(std::thread::spawn(move || {
                let g = rw.read().unwrap();
                inside.wait();
                *g
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 0);
        }
        let stats = rt.stats();
        // Exact multi-owner accounting: one engine acquisition and one
        // release per reader, not one per crowd.
        assert_eq!(stats.acquisitions, READERS as u64);
        assert_eq!(stats.releases, READERS as u64);
        assert_eq!(stats.deadlocks_detected, 0);
    }

    #[test]
    fn writer_excludes_readers_and_writers() {
        let rt = DimmunixRuntime::new();
        let rw = Arc::new(ImmuneRwLock::new_in(&rt, 0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rw = rw.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    *rw.write().unwrap() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*rw.read().unwrap(), 2000);
    }

    #[test]
    fn out_of_order_reader_exits_balance_exactly() {
        // The first reader in leaves first; the second reader's own engine
        // hold must survive, and accounting must balance afterwards. (Under
        // the old representative protocol the crowd's single hold stayed
        // registered in the *departed* first reader's name.)
        let rt = DimmunixRuntime::new();
        let rw = Arc::new(ImmuneRwLock::new_in(&rt, ()));
        let first_in = Arc::new(Barrier::new(2));
        let second_in = Arc::new(Barrier::new(2));

        let (rw1, fi1, si1) = (rw.clone(), first_in.clone(), second_in.clone());
        let first_reader = std::thread::spawn(move || {
            let g = rw1.read().unwrap();
            fi1.wait(); // let the second reader join the crowd
            si1.wait();
            drop(g); // first reader leaves while the crowd lives on
        });
        first_in.wait();
        let g = rw.read().unwrap();
        second_in.wait();
        first_reader.join().unwrap();
        drop(g); // last reader out releases its own hold
        let stats = rt.stats();
        assert_eq!(stats.acquisitions, stats.releases);
        // A fresh writer can still come and go cleanly.
        drop(rw.write().unwrap());
        let stats = rt.stats();
        assert_eq!(stats.acquisitions, stats.releases);
    }

    /// Regression (tentpole acceptance): a cycle through a
    /// **non-first-in** reader is caught at its first occurrence. Under the
    /// single-owner representative mapping the writer's wait-for edge
    /// pointed only at the first reader in, so this schedule was a missed
    /// detection — a genuine hang.
    #[test]
    fn cycle_through_non_representative_reader_learns_on_first_occurrence() {
        let rt = DimmunixRuntime::new(); // DeadlockPolicy::Error
        let a = Arc::new(ImmuneRwLock::new_in(&rt, 0u32));
        let b = Arc::new(ImmuneRwLock::new_in(&rt, 0u32));

        // r1 (this thread) is the first reader into `a`; r2 joins the crowd
        // second (before any writer arrives — std's RwLock may hold new
        // readers back once a writer waits).
        let r1_guard = a.read().unwrap();
        let (r2_in_tx, r2_in_rx) = mpsc::channel::<()>();
        let (r2_go_tx, r2_go_rx) = mpsc::channel::<()>();
        let (ra2, rb2) = (a.clone(), b.clone());
        let r2 = std::thread::spawn(move || {
            let ga = ra2.read().unwrap();
            r2_in_tx.send(()).unwrap();
            r2_go_rx.recv().unwrap();
            // Closes the cycle r2 -> writer -> r2 through the *second*
            // reader of `a`'s crowd; must be refused, not hang.
            let refused = rb2.read();
            drop(ga);
            refused.err()
        });
        r2_in_rx.recv().unwrap();

        // The writer takes `b`, then blocks writing `a` (two readers hold it).
        let requests = rt.stats().requests;
        let (rw, rb) = (a.clone(), b.clone());
        let writer = std::thread::spawn(move || {
            let gb = rb.write().unwrap();
            // Blocks on the real rwlock until both readers leave; the engine
            // request edge (writer -> every reader of `a`) is registered
            // before the block.
            let ga = rw.write().unwrap();
            drop(ga);
            drop(gb);
        });
        // Both writer requests counted: it holds `b` and its request edge
        // for `a` is in the RAG.
        await_requests(&rt, requests + 2);
        r2_go_tx.send(()).unwrap();

        let refusal = r2.join().unwrap();
        assert!(
            matches!(refusal, Some(LockError::WouldDeadlock { .. })),
            "the second reader's request must be refused at first occurrence, got {refusal:?}"
        );
        drop(r1_guard); // writer can now proceed
        writer.join().unwrap();

        let stats = rt.stats();
        assert_eq!(stats.deadlocks_detected, 1, "{stats}");
        assert_eq!(rt.history().len(), 1, "the antibody must be learned");
        assert_eq!(stats.acquisitions, stats.releases);
    }

    /// Regression (tentpole acceptance): the old representative
    /// false-positive schedule now acquires cleanly. Under the single-owner
    /// mapping the crowd's hold stayed registered in the first reader's
    /// name after that reader left, so the departed reader's next request
    /// could close a cycle against *its own stale hold* — a spurious
    /// refusal. With per-reader holds the departed reader owns nothing and
    /// must sail through.
    #[test]
    fn departed_first_reader_is_not_refused_spuriously() {
        let rt = DimmunixRuntime::new();
        let a = Arc::new(ImmuneRwLock::new_in(&rt, 0u32));
        let b = Arc::new(ImmuneRwLock::new_in(&rt, 0u32));

        // r1 (this thread) reads `a` first; r2 joins and holds on.
        let r1_guard = a.read().unwrap();
        let (r2_in_tx, r2_in_rx) = mpsc::channel::<()>();
        let (r2_release_tx, r2_release_rx) = mpsc::channel::<()>();
        let ra2 = a.clone();
        let r2 = std::thread::spawn(move || {
            let ga = ra2.read().unwrap();
            r2_in_tx.send(()).unwrap();
            r2_release_rx.recv().unwrap();
            drop(ga);
        });
        r2_in_rx.recv().unwrap();
        // r1 leaves the crowd: its engine hold must vanish with it.
        drop(r1_guard);

        // A writer takes `b` and blocks writing `a` (r2 still reads it).
        let requests = rt.stats().requests;
        let (rw, rb) = (a.clone(), b.clone());
        let writer = std::thread::spawn(move || {
            let gb = rb.write().unwrap();
            let ga = rw.write().unwrap();
            drop(ga);
            drop(gb);
        });
        await_requests(&rt, requests + 2);

        // r1 now writes `b`: waits behind the writer, who waits on r2 only.
        // No cycle exists — the acquisition must succeed once r2 leaves,
        // which happens only after the engine has decided r1's request.
        let rb1 = b.clone();
        let r1 = std::thread::spawn(move || rb1.write().map(|_| ()));
        await_requests(&rt, requests + 3);
        r2_release_tx.send(()).unwrap();
        r2.join().unwrap();
        writer.join().unwrap();
        r1.join()
            .unwrap()
            .expect("the departed reader must not be refused");

        let stats = rt.stats();
        assert_eq!(
            stats.deadlocks_detected, 0,
            "no cycle exists in this schedule: {stats}"
        );
        assert!(rt.history().is_empty(), "no spurious antibody");
        assert_eq!(stats.acquisitions, stats.releases);
    }

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ImmuneRwLock<Vec<u8>>>();
    }
}
