//! # dalvik-sim — a deterministic Dalvik-VM-like substrate
//!
//! The paper deploys Dimmunix inside Android 2.2's Dalvik VM on a Nexus One
//! phone. Neither the VM nor the phone is available to a Rust reproduction,
//! so this crate provides the substitute substrate: a small, deterministic
//! virtual machine with exactly the synchronization surface the paper needs —
//! `monitorenter` / `monitorexit` bytecodes, reentrant monitors with
//! `Object.wait()` / `notify()` semantics (including the wait-reacquisition
//! path §3.2 relies on), thread spawning, busy computation on one simulated
//! core, and a Zygote-style process factory so that every application
//! process carries its own Dimmunix instance (Figure 1).
//!
//! The crate is a *front end*: it owns the program model, the process and
//! platform models (Zygote, memory, energy) and the [lowering](lower()) of a
//! program to a `dimmunix-sim` scenario. Scheduling, monitors and the hook
//! protocol are the explorer's — there is one scheduler in the workspace —
//! so every program here can also be fuzzed, shrunk and replayed by trace
//! hash.
//!
//! Determinism is the point: a given program + seed always produces the same
//! interleaving, so the case-study deadlock can be reproduced, the antibody
//! recorded, and the avoidance demonstrated on the *same* schedule — the
//! moral equivalent of the paper's "reproduce the freeze, reboot, never see
//! it again".
//!
//! ```
//! use dalvik_sim::{ObjRef, ProcessBuilder, ProgramBuilder, RunOutcome};
//!
//! let mut pb = ProgramBuilder::new("hello.java");
//! let main = pb
//!     .method("Main.main")
//!     .sync(ObjRef(1), |body| {
//!         body.compute(10);
//!     })
//!     .finish();
//! let mut process = ProcessBuilder::new("com.example.hello", pb.build()).spawn_main(main);
//! assert_eq!(process.run(1_000), RunOutcome::Completed);
//! assert_eq!(process.stats().syncs, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod energy;
mod lower;
mod memory;
mod process;
mod program;
mod zygote;

/// How a run ended — the explorer's type; anything but `Completed` is a
/// frozen process.
pub use dimmunix_sim::RunOutcome;
pub use energy::{EnergyModel, EnergyReport};
pub use lower::{lower, LowerError};
pub use memory::{AppMemory, PlatformMemory, DEVICE_RAM_BYTES};
pub use process::{Process, ProcessBuilder, ProcessStats, MONITOR_NODE_BYTES, STACK_BUFFER_BYTES};
pub use program::{Method, MethodBuilder, MethodId, ObjRef, Op, Program, ProgramBuilder, SyncBody};
pub use zygote::Zygote;
