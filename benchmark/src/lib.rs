//! The immunity-cost benchmark. See `README.md` for what each workload and
//! metric is for; `main.rs` is the command line.

pub mod compare;
pub mod inputs;
pub mod probes;
pub mod report;
pub mod rng;
pub mod run;
pub mod server;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod threads;
pub mod workloads;
