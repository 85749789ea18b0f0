//! # dimmunix-bench — the paper's reproduction
//!
//! Everything that exists only to reproduce the paper's tables and figures:
//!
//! * [`dalvik`] — a deterministic Dalvik-VM-like front end with per-process
//!   Dimmunix engines, lowered onto `dimmunix-sim`'s scheduler;
//! * [`android`] — the simulated Android platform: the §5 case study's
//!   services, Table 1's application profiles, the phone lifecycle and the
//!   §3.2 static corpus;
//! * [`workloads`] — lock-pattern programs for the VM and synthetic
//!   histories for the benches;
//! * one function per experiment (`reproduce --help` lists them), each
//!   returning a structured result that the `reproduce` binary renders as
//!   table/figure rows;
//! * [`harness`] and [`report`], which the `[[bench]]` targets and the
//!   `check_bench` gate share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

// The modules of `dalvik`, `android` and `workloads` are declared at the
// crate root, each from its group's directory, so their paths (and with
// them the names their tests print) stay short; the three inline modules
// below are their public faces.
#[path = "dalvik/energy.rs"]
mod energy;
#[path = "dalvik/lower.rs"]
mod lower;
#[path = "dalvik/memory.rs"]
mod memory;
#[path = "dalvik/process.rs"]
mod process;
#[path = "dalvik/program.rs"]
mod program;
#[path = "dalvik/zygote.rs"]
mod zygote;

#[path = "android/corpus.rs"]
mod corpus;
#[path = "android/phone.rs"]
mod phone;
#[path = "android/profiles.rs"]
mod profiles;
#[path = "android/services.rs"]
mod services;

#[path = "workloads/patterns.rs"]
mod patterns;
#[path = "workloads/synthetic.rs"]
mod synthetic;

mod experiments;
pub mod harness;
pub mod report;

pub use experiments::*;

pub mod dalvik {
    //! A deterministic Dalvik-VM-like substrate.
    //!
    //! The paper deploys Dimmunix inside Android 2.2's Dalvik VM on a Nexus One
    //! phone. Neither the VM nor the phone is available to a Rust reproduction,
    //! so this module provides the substitute: a small, deterministic virtual
    //! machine with exactly the synchronization surface the paper needs —
    //! `monitorenter` / `monitorexit` bytecodes, reentrant monitors with
    //! `Object.wait()` / `notify()` semantics (including the wait-reacquisition
    //! path §3.2 relies on), thread spawning, busy computation on one simulated
    //! core, and a Zygote-style process factory so that every application
    //! process carries its own Dimmunix instance (Figure 1).
    //!
    //! It is a *front end*: it owns the program model, the process and
    //! platform models (Zygote, memory, energy) and the lowering of a program
    //! to a `dimmunix-sim` scenario. Scheduling, monitors and the hook protocol
    //! are the explorer's — there is one scheduler in the workspace — so every
    //! program here can also be fuzzed, shrunk and replayed by trace hash.
    //!
    //! Determinism is the point: a given program + seed always produces the
    //! same interleaving, so the case-study deadlock can be reproduced, the
    //! antibody recorded, and the avoidance demonstrated on the *same*
    //! schedule — the moral equivalent of the paper's "reproduce the freeze,
    //! reboot, never see it again".
    //!
    //! ```
    //! use dimmunix_bench::dalvik::{ObjRef, ProcessBuilder, ProgramBuilder, RunOutcome};
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

    /// How a run ended — the explorer's type; anything but `Completed` is a
    /// frozen process.
    pub use dimmunix_sim::RunOutcome;

    pub(crate) use crate::energy::EnergyModel;
    pub(crate) use crate::lower::lower;
    pub(crate) use crate::memory::AppMemory;
    pub use crate::memory::PlatformMemory;
    pub use crate::process::{Process, ProcessBuilder, ProcessStats, STACK_BUFFER_BYTES};
    pub use crate::program::{
        Method, MethodBuilder, MethodId, ObjRef, Op, Program, ProgramBuilder, SyncBody,
    };
    pub use crate::zygote::Zygote;
}

pub mod android {
    //! The simulated Android platform.
    //!
    //! Stands in for the parts of Android 2.2 that the paper's evaluation
    //! relies on but that are not available to a Rust reproduction:
    //!
    //! * the system services involved in the §5 case study (the
    //!   `NotificationManagerService` / `StatusBarService` lock inversion, issue
    //!   7986) — [`NotificationScenario`];
    //! * the eight profiled applications of Table 1, replayed from their
    //!   published thread counts, synchronization rates, and memory footprints —
    //!   [`AppProfile`], [`TABLE1_PROFILES`];
    //! * the phone itself: installing applications, launching them, observing
    //!   the frozen interface, rebooting with persistent per-application
    //!   histories — [`Phone`];
    //! * the §3.2 static corpus statistic (1,050 `synchronized` sites vs 15
    //!   explicit lock sites) — [`ESSENTIAL_APPS_CORPUS`].
    //!
    //! Everything runs on the deterministic VM of [`dalvik`](crate::dalvik), so
    //! every freeze, detection, and avoidance is replayable.

    pub use crate::corpus::{corpus_totals, ComponentSites, CorpusTotals, ESSENTIAL_APPS_CORPUS};
    pub use crate::phone::{AppRunReport, Phone};
    pub use crate::profiles::{profile_by_name, AppProfile, CYCLES_PER_SECOND, TABLE1_PROFILES};
    pub use crate::services::NotificationScenario;
}

pub mod workloads {
    //! Workload generators.
    //!
    //! * synthetic deadlock signatures for the 64–256-signature histories the
    //!   paper's §5 microbenchmark loads, and for the larger histories of the
    //!   platform-scale benches — [`synthetic_history`];
    //! * simulated-VM workloads: dining philosophers, the §3.2 `MyLock`
    //!   wrapper pathology (depth-1 ablation), and a forced
    //!   avoidance-starvation scenario.

    pub(crate) use crate::patterns::starvation_workload;
    pub use crate::patterns::{dining_philosophers, wrapper_workload};
    pub use crate::synthetic::synthetic_history;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table1_row;

    #[test]
    fn corpus_matches_paper() {
        let c = corpus();
        assert_eq!(c.synchronized_sites, 1050);
        assert_eq!(c.explicit_lock_sites, 15);
    }

    /// The checked-in trajectory's costs, as `reproduce` reads them.
    fn checked_in_overhead() -> Overhead {
        let text = std::fs::read_to_string(report::repo_root().join("BENCH_TRAJECTORY.jsonl"))
            .expect("BENCH_TRAJECTORY.jsonl is checked in");
        overhead(&text).unwrap()
    }

    /// A trajectory line with the given `flat_sections`, `nested_transfers`
    /// and `async_clean` costs, in ns.
    fn trajectory_line([flat, nested, task]: [u32; 3]) -> String {
        format!(
            r#"{{ "pr": 7, "host": {{ "nproc": 4 }}, "cost_ns": {{ "flat_sections": {flat}, "nested_transfers": {nested}, "async_clean": {task}, "history_churn": 5 }} }}"#
        )
    }

    #[test]
    fn power_share_is_unchanged() {
        let p = power(&checked_in_overhead());
        assert_eq!(p.vanilla_percent, p.dimmunix_percent);
        // The paper's battery screen reports applications + OS at 14% of
        // the platform's energy, with and without Dimmunix; the model
        // reproduces that figure for the Table-1 window at the measured
        // cost, not merely some arbitrary share left unchanged.
        assert_eq!(p.vanilla_percent, 14);
        assert_eq!(p.dimmunix_percent, 14);
    }

    /// The immune share moves with the measured cost, so the experiment can
    /// fail: 6 µs per sync still reads 14%, 7 µs reads 15%. The dearest
    /// path's cost is the one charged.
    #[test]
    fn power_share_follows_the_dearest_path_cost() {
        for (nested_ns, percent) in [(6000, 14), (7000, 15)] {
            let o = overhead(&trajectory_line([100, nested_ns, 3000])).unwrap();
            let p = power(&o);
            assert_eq!(
                (p.workload, p.cost_ns),
                ("nested_transfers", f64::from(nested_ns))
            );
            assert_eq!((p.vanilla_percent, p.dimmunix_percent), (14, percent));
        }
    }

    /// The headroom is where the share rounds up: a synthetic line charging
    /// the dearest path 3 us reads the unrounded share, and the round-up
    /// cost is the boundary — just under it still reads 14 %, just over it
    /// 15 %.
    #[test]
    fn power_headroom_is_the_round_up_boundary() {
        let p = power(&overhead(&trajectory_line([100, 700, 3000])).unwrap());
        assert_eq!((p.workload, p.dimmunix_percent), ("async_clean", 14));
        assert!(p.dimmunix_share_percent > 13.5 && p.dimmunix_share_percent < 14.5);
        assert!(p.round_up_cost_ns > 3000.0, "{}", p.round_up_cost_ns);
        let at = |ns: f64| {
            let line = trajectory_line([100, 700, ns as u32]);
            power(&overhead(&line).unwrap()).dimmunix_percent
        };
        assert_eq!(at(p.round_up_cost_ns - 1.0), 14);
        assert_eq!(at(p.round_up_cost_ns + 1.0), 15);
        // The unrounded share grows with the charged cost.
        let dearer = power(&overhead(&trajectory_line([100, 700, 4000])).unwrap());
        assert!(dearer.dimmunix_share_percent > p.dimmunix_share_percent);
        assert_eq!(dearer.round_up_cost_ns, p.round_up_cost_ns);
    }

    #[test]
    fn table1_row_shape_for_one_app() {
        let profile = android::profile_by_name("Camera").unwrap();
        let row = table1_row(profile, 2_000);
        assert!(row.overhead > 0.0 && row.overhead < 0.10);
        assert!(row.dimmunix_mb > row.vanilla_mb);
        assert!(row.measured_syncs_per_sec > 0.0);
    }

    /// A trajectory line with every cost at 100 ns: each row is its rate
    /// times 100 ns, as a fraction of one second.
    #[test]
    fn overhead_is_rate_times_cost() {
        let line = trajectory_line([100; 3]);
        let o = overhead(&format!("{{ \"pr\": 6 }}\n{line}\n")).unwrap();
        assert_eq!((o.pr, o.nproc, o.cost_ns), (7, 4, [100.0; 3]));
        assert_eq!(o.rows.len(), android::TABLE1_PROFILES.len() + 1);
        let email = &o.rows[0];
        assert_eq!((email.app, email.syncs_per_sec), ("Email", 1952));
        assert_eq!(email.core_share, [1952.0 * 100.0 * 1e-9; 3]);
        let all = o.rows.last().unwrap();
        assert_eq!((all.app, all.syncs_per_sec), ("all eight", 7373));
    }

    /// A trajectory that cannot answer is an error naming what is missing.
    #[test]
    fn overhead_names_what_the_line_lacks() {
        let line = trajectory_line([100; 3]);
        let no_nested_cost = line.replace("\"nested_transfers\"", "\"nested\"");
        for (text, reason) in [
            ("", "no line"),
            ("not json", "last trajectory line"),
            ("{ \"host\": { \"nproc\": 4 } }", "no `pr`"),
            ("{ \"pr\": 7 }", "no `host.nproc`"),
            (no_nested_cost.as_str(), "no `cost_ns.nested_transfers`"),
        ] {
            let err = overhead(text).unwrap_err();
            assert!(err.contains(reason), "{text:?}: {err}");
        }
    }

    /// The checked-in trajectory's last line carries every cost `reproduce
    /// --exp overhead` reads, and each share is a small part of one core.
    #[test]
    fn overhead_reads_the_checked_in_trajectory() {
        let o = checked_in_overhead();
        assert!(o.pr >= 29 && o.nproc >= 1);
        for row in &o.rows {
            assert!(
                row.core_share.iter().all(|&s| s > 0.0 && s < 1.0),
                "{row:?}"
            );
        }
    }

    #[test]
    fn starvation_experiment_never_hangs() {
        let result = starvation_experiment();
        assert_eq!(result.hung, 0);
        assert_eq!(result.completed, result.replays);
    }

    #[test]
    fn isolation_keeps_other_processes_clean() {
        let iso = isolation();
        assert!(iso.other_process_signatures.iter().all(|&n| n == 0));
    }
}
