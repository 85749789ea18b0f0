//! # workloads — benchmark and test workload generators
//!
//! Three families of workloads drive the evaluation harness and the tests:
//!
//! * [`synthetic`] — generators for the 64–256 synthetic deadlock
//!   signatures the paper's §5 microbenchmark loads, and for the larger
//!   histories of the platform-scale experiments;
//! * [`patterns`] — simulated-VM workloads: dining philosophers, the §3.2
//!   `MyLock` wrapper pathology (depth-1 ablation), and a forced
//!   avoidance-starvation scenario;
//! * [`async_server`] — a simulated request-serving server on the
//!   task-keyed `asyncio` substrate: 10k+ concurrent tasks on a small
//!   deterministic worker pool, fan-out/fan-in locking with seeded order
//!   inversions, compared against bare async-unaware locks.
//!
//! The §5 overhead figure is not measured here: `reproduce --exp overhead`
//! derives it from the immunity-cost benchmark's recorded costs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod async_server;
pub mod patterns;
pub mod synthetic;

pub use async_server::{
    run_bare_server, run_immune_server, AsyncServerConfig, AsyncServerResult, BareMutex,
    ImmuneServerRun,
};
pub use patterns::{dining_philosophers, starvation_workload, wrapper_workload};
pub use synthetic::{colliding_history, synthetic_history};
