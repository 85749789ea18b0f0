//! # dimmunix-sim — deterministic schedule exploration over the real engine
//!
//! The paper evaluates Dimmunix by re-running deadlock-prone programs until
//! the bug bites, learning its signature, and showing it never bites again.
//! This crate compresses that loop into virtual time: a discrete-event
//! simulator drives the *real* engine — monolithic (with snapshot-rollback
//! reuse), sharded, and the production asyncio substrate — through many
//! interleavings of declarative concurrency scenarios, in-process and
//! deterministically.
//!
//! The pieces:
//!
//! * [`scenario`] — the workload DSL: dining philosophers, bank transfers,
//!   the async-server lock-order bug, and the writer-preference-gap
//!   executable spec, as data; plus the monitor ops front ends lower to.
//! * [`sim`] — the virtual-time executor: min-heap clock, run-to-completion
//!   tasks with explicit blocking points, fuel bounds instead of wall-clock
//!   timeouts, an FNV-1a `sched_trace_hash` per run, and exact replay from
//!   a recorded decision vector.
//! * [`mod@fuzz`] — random + mutation-based schedule fuzzing, a ddmin-style
//!   shrinker, and the immune-replay check (learned history ⇒ the same
//!   schedule completes with zero detections).
//! * [`trace`] / [`corpus`] — the persisted replay-trace format and the
//!   checked-in regression corpus CI replays.
//! * [`fleet`] — the collaborative-immunity experiment: N simulated
//!   processes, one detection, antibody-pack exchange through the
//!   `dimmunix-exchange` trust gate, fleet-wide convergence to zero
//!   deadlocks.
//! * [`asyncio`] — the same scenarios on the real async executor, with
//!   textually compatible acquisition sites, for cross-substrate
//!   confirmation.
//!
//! Everything is deterministic by seed: same seed + same scenario ⇒ the
//! same schedules, the same finds, the same minimized traces, byte for
//! byte — across processes and machines.
//!
//! This is the workspace's one scheduler. `dalvik-sim` — the paper's
//! *Dalvik deployment* (monitor bytecodes, `wait`/`notify`, Zygote
//! processes) — is a front end on it: its programs are lowered to
//! [`Scenario`]s (`Compute`, `Wait`, `Notify` and `Spawn` ops, sites that
//! are whole inlined call stacks) and a process run is one
//! [`run_schedule`], so the case study can be fuzzed, shrunk and replayed
//! by trace hash like any catalog scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asyncio;
pub mod corpus;
pub mod fleet;
pub mod fuzz;
pub mod scenario;
pub mod sim;
pub mod trace;

pub use dimmunix_testkit::Gen;
pub use fleet::{fleet_convergence, FleetReport};
pub use fuzz::{
    fuzz, fuzz_with_driver, immune_replay, vaccinate, FoundDeadlock, FuzzConfig, FuzzReport,
};
pub use scenario::{by_name, catalog, Scenario, SimOp, TaskScript};
pub use sim::{
    fnv1a, run_schedule, DecisionSource, EngineHooks, MonoDriver, OnDeadlock, RunOutcome,
    RunReport, ShardedDriver, SimConfig, Tail,
};
pub use trace::ScheduleTrace;
