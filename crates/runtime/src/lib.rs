//! # dimmunix-rt — deadlock immunity for real Rust threads
//!
//! The paper injects Dimmunix into the Dalvik VM so that *every* monitor
//! operation on the platform is screened, with no application changes. Rust
//! has no such interposition point (a library cannot hook
//! `std::sync::Mutex`), so this crate provides the closest practical
//! substitute: **drop-in wrapper lock types**. [`ImmuneMutex`],
//! [`ImmuneRwLock`], and [`ImmuneMonitor`] mirror their `std::sync`
//! counterparts but route every acquisition and release through the
//! process-global [`DimmunixRuntime`] — one instance per process, mirroring
//! the per-process Dimmunix data of Figure 1.
//!
//! Migration from `std::sync` is mechanical:
//!
//! * `Mutex::new(v)` → [`ImmuneMutex::new(v)`](ImmuneMutex::new) — no
//!   runtime argument; the lock attaches to [`DimmunixRuntime::global`].
//! * `m.lock().unwrap()` → `m.lock()?` — acquisition sites are captured
//!   implicitly: the methods are `#[track_caller]`, so the engine sees the
//!   file/line of the call itself (the compiler-provided static identifier
//!   the paper proposes in §4, replacing `dvmGetCallStack`).
//! * handle [`LockError::WouldDeadlock`] where the program would previously
//!   have hung — back off, drop what you hold, retry.
//!
//! The global runtime is configured (shards, [`DeadlockPolicy`], history
//! path, fsync policy) with the fluent [`RuntimeBuilder`] before first use;
//! multi-runtime tests and the paper experiments keep full determinism with
//! the explicit surface: [`ImmuneMutex::new_in`], the `*_at` acquisition
//! variants, and [`acquire_site!`].
//!
//! With that in place the behaviour matches the paper: the first occurrence
//! of a deadlock is detected and its signature persisted; subsequent runs
//! park one of the threads just long enough that the signature can no longer
//! be instantiated.
//!
//! ```
//! use dimmunix_rt::ImmuneMutex;
//! use std::sync::Arc;
//!
//! let balance = Arc::new(ImmuneMutex::new(100i64));
//! let b = balance.clone();
//! let t = std::thread::spawn(move || {
//!     *b.lock().unwrap() -= 30;
//! });
//! t.join().unwrap();
//! assert_eq!(*balance.lock()?, 70);
//! # Ok::<(), dimmunix_rt::LockError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asyncio;
mod exchange;
mod monitor;
mod mutex;
mod runtime;
mod rwlock;
mod site;
mod sync;

pub use dimmunix_core::RecoveryReport;
pub use exchange::{ExchangeOptions, ExchangeStats};
pub use monitor::{ImmuneMonitor, MonitorGuard};
pub use mutex::{ImmuneMutex, ImmuneMutexGuard};
pub use runtime::{
    DeadlockPolicy, DimmunixRuntime, GlobalAlreadyInstalled, LockError, RuntimeBuilder,
    RuntimeOptions, TaskAcquire,
};
pub use rwlock::{ImmuneRwLock, ImmuneRwLockReadGuard, ImmuneRwLockWriteGuard};
pub use site::{AcquisitionSite, CALLER_SCOPE};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DimmunixRuntime>();
        assert_send_sync::<ImmuneMutex<Vec<u8>>>();
        assert_send_sync::<ImmuneRwLock<Vec<u8>>>();
        assert_send_sync::<ImmuneMonitor<Vec<u8>>>();
        assert_send_sync::<LockError>();
    }

    /// Allocates immune mutexes until two of them live on different shards
    /// of `rt`, and returns that pair.
    fn cross_shard_pair(rt: &Arc<DimmunixRuntime>) -> (ImmuneMutex<u64>, ImmuneMutex<u64>) {
        let first = ImmuneMutex::new_in(rt, 0u64);
        let home = rt.shard_of(first.lock_id());
        for _ in 0..64 {
            let other = ImmuneMutex::new_in(rt, 0u64);
            if rt.shard_of(other.lock_id()) != home {
                return (first, other);
            }
        }
        panic!("router failed to spread 64 sequential lock ids over shards");
    }

    /// Cross-shard stress: several threads hammer the trained AB/BA pattern
    /// (with A and B on different shards) from both directions, with the
    /// antibody pre-loaded. Immunity must hold in the liveness sense — the
    /// workload completes instead of freezing — with every refused
    /// acquisition backed off and retried.
    #[test]
    fn cross_shard_stress_immunity_holds_after_replay() {
        let site_fwd_outer = AcquisitionSite::new("stress.fwd_outer", "stress.rs", 1);
        let site_fwd_inner = AcquisitionSite::new("stress.fwd_inner", "stress.rs", 2);
        let site_rev_outer = AcquisitionSite::new("stress.rev_outer", "stress.rs", 3);
        let site_rev_inner = AcquisitionSite::new("stress.rev_inner", "stress.rs", 4);

        // Train the antibody pair once: both directions of the inversion.
        let trained = dimmunix_core::Signature::new(
            dimmunix_core::SignatureKind::Deadlock,
            vec![
                dimmunix_core::SignaturePair::new(
                    site_fwd_outer.to_call_stack(),
                    site_fwd_inner.to_call_stack(),
                ),
                dimmunix_core::SignaturePair::new(
                    site_rev_outer.to_call_stack(),
                    site_rev_inner.to_call_stack(),
                ),
            ],
        );

        let rt = DimmunixRuntime::builder()
            .deadlock_policy(DeadlockPolicy::Error)
            .shards(8)
            .build();
        rt.add_signature(trained);
        let (a, b) = cross_shard_pair(&rt);
        let a = Arc::new(a);
        let b = Arc::new(b);

        const WORKERS: usize = 4;
        const ITERS: usize = 60;
        let mut handles = Vec::new();
        for w in 0..WORKERS {
            let (a, b) = (a.clone(), b.clone());
            handles.push(std::thread::spawn(move || -> u64 {
                let forward = w % 2 == 0;
                let mut completed = 0u64;
                for _ in 0..ITERS {
                    // Retry on WouldDeadlock: back off (drop everything held)
                    // and try again — the fail-safe client pattern.
                    loop {
                        let result = if forward {
                            a.lock_at(site_fwd_outer).and_then(|ga| {
                                let gb = b.lock_at(site_fwd_inner)?;
                                drop(gb);
                                drop(ga);
                                Ok(())
                            })
                        } else {
                            b.lock_at(site_rev_outer).and_then(|gb| {
                                let ga = a.lock_at(site_rev_inner)?;
                                drop(ga);
                                drop(gb);
                                Ok(())
                            })
                        };
                        match result {
                            Ok(()) => break,
                            Err(LockError::WouldDeadlock { .. }) => {
                                std::thread::yield_now();
                            }
                        }
                    }
                    completed += 1;
                }
                completed
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // The strong assertion is completion itself: with plain mutexes this
        // workload deadlocks almost immediately. Every section finished, and
        // the avoidance machinery (not luck) did the serializing.
        assert_eq!(total, (WORKERS * ITERS) as u64);
        let stats = rt.stats();
        // Every acquisition at the trained outer sites runs the avoidance
        // check against the antibody (yields/detections themselves are
        // schedule-dependent — a fully serialized schedule needs none).
        assert!(
            stats.instantiation_checks > 0 && stats.signatures_examined > 0,
            "the trained sites must have exercised the avoidance index: {stats}"
        );
        assert_eq!(
            stats.acquisitions, stats.releases,
            "every completed section must balance: {stats}"
        );
    }
}
