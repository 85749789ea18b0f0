//! # dimmunix — platform-wide deadlock immunity (facade crate)
//!
//! Reproduction of *"Platform-wide Deadlock Immunity for Mobile Phones"*
//! (Jula, Rensch, Candea; HotDep 2011). This crate re-exports the public API
//! of the whole workspace so applications and the repository-level examples
//! and integration tests can depend on a single crate:
//!
//! * [`core`] — the Dimmunix engine (signatures, history, RAG, detection,
//!   avoidance, starvation handling);
//! * [`rt`] — deadlock-immune lock types for real Rust threads
//!   (`ImmuneMutex`, `ImmuneMonitor`, `DimmunixRuntime`);
//! * [`vm`] — the deterministic Dalvik-like VM substrate;
//! * [`android`] — the simulated Android platform (services, app profiles,
//!   phone lifecycle);
//! * [`workloads`] — benchmark workload generators;
//! * [`sim`] — the deterministic schedule-exploration engine (virtual-time
//!   deadlock fuzzer, trace shrinker, regression corpus);
//! * [`exchange`] — collaborative immunity: antibody packs, CRDT fleet
//!   merge, and the trust gate that quarantines foreign signatures until
//!   local execution vouches for them.
//!
//! ## Which layer should I use?
//!
//! *To protect a Rust program*: use [`rt`] — a drop-in `std::sync`
//! replacement. Swap `Mutex`/`RwLock` for [`rt::ImmuneMutex`] /
//! [`rt::ImmuneRwLock`]; no runtime plumbing, no site macros — acquisition
//! sites are captured from the caller's source location and every lock
//! attaches to the process-global [`rt::DimmunixRuntime`] (configurable
//! with [`rt::RuntimeBuilder`]).
//!
//! *To study the algorithm or reproduce the paper*: use [`vm`] and
//! [`android`] — deterministic, seed-replayable, and able to model the
//! phone's reboot/persistence lifecycle.
//!
//! ```
//! use dimmunix::rt::ImmuneMutex;
//!
//! let data = ImmuneMutex::new(vec![1, 2, 3]);
//! data.lock()?.push(4);
//! assert_eq!(data.lock()?.len(), 4);
//! # Ok::<(), dimmunix::rt::LockError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The Dimmunix engine (re-export of `dimmunix-core`).
pub mod core {
    pub use ::dimmunix_core::*;
}

/// Antibody packs, fleet merge, and trust gating (re-export of
/// `dimmunix-exchange`).
pub mod exchange {
    pub use ::dimmunix_exchange::*;
}

/// Deadlock-immune lock types for real threads (re-export of `dimmunix-rt`).
pub mod rt {
    /// Captures the current source location as an acquisition site.
    pub use ::dimmunix_rt::acquire_site;
    pub use ::dimmunix_rt::*;
}

/// The deterministic VM substrate (re-export of `dimmunix_bench::dalvik`).
pub mod vm {
    pub use ::dimmunix_bench::dalvik::*;
}

/// The simulated Android platform (re-export of `dimmunix_bench::android`).
pub mod android {
    pub use ::dimmunix_bench::android::*;
}

/// Workload generators (re-export of `dimmunix_bench::workloads`).
pub mod workloads {
    pub use ::dimmunix_bench::workloads::*;
}

/// The schedule-exploration engine (re-export of `dimmunix-sim`).
pub mod sim {
    pub use ::dimmunix_sim::*;
}

#[cfg(test)]
mod facade_tests {
    #[test]
    fn layers_are_reachable_through_the_facade() {
        let engine = crate::core::Dimmunix::default();
        assert!(engine.history().is_empty());
        let runtime = crate::rt::DimmunixRuntime::new();
        assert_eq!(runtime.stats().requests, 0);
        assert_eq!(crate::android::TABLE1_PROFILES.len(), 8);
    }
}
