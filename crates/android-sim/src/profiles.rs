//! Synchronization profiles of the 8 Android applications of Table 1.
//!
//! The applications themselves are proprietary, so the reproduction replays
//! their *published profile*: thread count, sustained synchronization rate
//! over the busiest 30-second window, and baseline (vanilla) memory
//! footprint. The replay drives the simulated VM with a workload calibrated
//! to those numbers, which is what the Table 1 harness measures with and
//! without Dimmunix.

use dalvik_sim::{MethodId, ObjRef, Program, ProgramBuilder};

/// Virtual cycles per simulated second (the Nexus One has a 1 GHz single
/// core; one virtual cycle stands for ~1 µs of work at the simulator's
/// granularity).
pub const CYCLES_PER_SECOND: u64 = 1_000_000;

/// The profile of one application from Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// Application name as it appears in the paper.
    pub name: &'static str,
    /// Android package name used for history files.
    pub package: &'static str,
    /// Number of threads observed.
    pub threads: u32,
    /// Synchronizations per second in the busiest 30 s window.
    pub syncs_per_sec: u32,
    /// Vanilla memory consumption reported by the paper, in MB.
    pub vanilla_mb: f64,
    /// Dimmunix memory consumption reported by the paper, in MB.
    pub paper_dimmunix_mb: f64,
}

/// The eight applications profiled in Table 1, with the paper's numbers.
pub const TABLE1_PROFILES: [AppProfile; 8] = [
    AppProfile {
        name: "Email",
        package: "com.android.email",
        threads: 46,
        syncs_per_sec: 1952,
        vanilla_mb: 15.0,
        paper_dimmunix_mb: 15.8,
    },
    AppProfile {
        name: "Browser",
        package: "com.android.browser",
        threads: 61,
        syncs_per_sec: 1411,
        vanilla_mb: 37.9,
        paper_dimmunix_mb: 38.9,
    },
    AppProfile {
        name: "Maps",
        package: "com.google.android.maps",
        threads: 119,
        syncs_per_sec: 1143,
        vanilla_mb: 22.9,
        paper_dimmunix_mb: 23.7,
    },
    AppProfile {
        name: "Market",
        package: "com.android.vending",
        threads: 78,
        syncs_per_sec: 891,
        vanilla_mb: 17.3,
        paper_dimmunix_mb: 17.9,
    },
    AppProfile {
        name: "Calendar",
        package: "com.android.calendar",
        threads: 26,
        syncs_per_sec: 815,
        vanilla_mb: 14.0,
        paper_dimmunix_mb: 14.4,
    },
    AppProfile {
        name: "Talk",
        package: "com.google.android.talk",
        threads: 33,
        syncs_per_sec: 527,
        vanilla_mb: 10.7,
        paper_dimmunix_mb: 11.2,
    },
    AppProfile {
        name: "Angry Birds",
        package: "com.rovio.angrybirds",
        threads: 23,
        syncs_per_sec: 325,
        vanilla_mb: 29.3,
        paper_dimmunix_mb: 29.7,
    },
    AppProfile {
        name: "Camera",
        package: "com.android.camera",
        threads: 26,
        syncs_per_sec: 309,
        vanilla_mb: 11.4,
        paper_dimmunix_mb: 11.8,
    },
];

/// Looks up a Table 1 profile by application name.
pub fn profile_by_name(name: &str) -> Option<&'static AppProfile> {
    TABLE1_PROFILES.iter().find(|p| p.name == name)
}

impl AppProfile {
    /// Baseline memory in bytes, used by the simulator's memory model.
    pub fn vanilla_bytes(&self) -> usize {
        (self.vanilla_mb * 1024.0 * 1024.0) as usize
    }

    /// Relative memory overhead the paper measured for this application.
    pub fn paper_overhead(&self) -> f64 {
        (self.paper_dimmunix_mb - self.vanilla_mb) / self.vanilla_mb
    }

    /// Total synchronizations the app performs in a window of
    /// `window_secs` seconds at its profiled rate.
    pub fn total_syncs(&self, window_secs: f64) -> u64 {
        (self.syncs_per_sec as f64 * window_secs) as u64
    }

    /// Builds a workload program replaying this profile for roughly
    /// `window_secs` simulated seconds (scaled down by `scale` to keep test
    /// runtimes practical: `scale = 10` replays a 1/10th window).
    ///
    /// The workload is deliberately contention-free (distinct lock objects
    /// per thread, round-robin over a small pool), matching the paper's
    /// microbenchmark design: contention hides overhead, and real apps'
    /// synchronizations are mostly uncontended.
    pub fn build_workload(&self, window_secs: f64, scale: u64) -> (Program, MethodId) {
        let scale = scale.max(1);
        let total_syncs = self.total_syncs(window_secs) / scale;
        let threads = self.threads.max(1) as u64;
        let syncs_per_thread = (total_syncs / threads).max(1);
        // Calibrate busy work so the aggregate rate on the single simulated
        // core approximates the profiled rate: every iteration costs roughly
        // `work_in + work_out` cycles plus a few scheduler steps.
        let per_sync_budget = CYCLES_PER_SECOND / self.syncs_per_sec.max(1) as u64;
        let work_in = (per_sync_budget / 2).saturating_sub(2).max(1);
        let work_out = per_sync_budget
            .saturating_sub(work_in)
            .saturating_sub(4)
            .max(1);

        let mut pb = ProgramBuilder::new(format!("{}.java", self.package));
        // Each worker synchronizes on its own lock object (plus a shared
        // object once in a while) — realistic and contention-free.
        let mut worker_ids = Vec::new();
        for w in 0..threads {
            let own_lock = ObjRef(1000 + w as u32);
            let mut m = pb.method(format!("{}::Worker{}.loop", self.name, w));
            for i in 0..syncs_per_thread {
                let lock = if i % 16 == 15 {
                    ObjRef(999) // occasional shared object
                } else {
                    own_lock
                };
                m = m
                    .sync(lock, |body| {
                        body.compute(work_in);
                    })
                    .compute(work_out);
            }
            worker_ids.push(m.finish());
        }
        let mut main = pb.method(format!("{}::Main.main", self.name));
        for (w, id) in worker_ids.iter().enumerate() {
            main = main.spawn(*id, format!("{}-worker-{}", self.package, w));
        }
        let main = main.finish();
        (pb.build(), main)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dalvik_sim::{ProcessBuilder, RunOutcome};

    #[test]
    fn table1_profiles_match_paper_ranges() {
        assert_eq!(TABLE1_PROFILES.len(), 8);
        for p in &TABLE1_PROFILES {
            assert!(p.threads >= 23 && p.threads <= 119, "{}", p.name);
            assert!(
                p.syncs_per_sec >= 309 && p.syncs_per_sec <= 1952,
                "{}",
                p.name
            );
            // 1.3% - 5.3% memory overhead reported by the paper.
            assert!(
                p.paper_overhead() > 0.012 && p.paper_overhead() < 0.055,
                "{}: {}",
                p.name,
                p.paper_overhead()
            );
        }
        assert_eq!(profile_by_name("Email").unwrap().threads, 46);
        assert!(profile_by_name("Nonexistent").is_none());
    }

    #[test]
    fn workload_replays_profile_thread_count_and_syncs() {
        let profile = profile_by_name("Camera").unwrap();
        // 1/100th of a 30 s window keeps the test fast.
        let (program, main) = profile.build_workload(30.0, 1000);
        let mut p = ProcessBuilder::new(profile.package, program)
            .baseline_bytes(profile.vanilla_bytes())
            .spawn_main(main);
        let outcome = p.run(10_000_000);
        assert_eq!(outcome, RunOutcome::Completed);
        // main + workers
        assert_eq!(p.thread_count() as u32, profile.threads + 1);
        let expected_syncs = profile.total_syncs(30.0) / 1000;
        let measured = p.stats().syncs;
        assert!(
            measured >= expected_syncs.saturating_sub(profile.threads as u64)
                && measured <= expected_syncs + profile.threads as u64,
            "expected ~{expected_syncs}, measured {measured}"
        );
        assert_eq!(p.stats().deadlocks_detected, 0);
    }

    #[test]
    fn measured_rate_is_in_the_profiled_ballpark() {
        let profile = profile_by_name("Email").unwrap();
        let (program, main) = profile.build_workload(30.0, 2000);
        let mut p = ProcessBuilder::new(profile.package, program)
            .baseline_bytes(profile.vanilla_bytes())
            .spawn_main(main);
        assert_eq!(p.run(50_000_000), RunOutcome::Completed);
        let secs = p.virtual_time() as f64 / CYCLES_PER_SECOND as f64;
        let rate = p.stats().syncs as f64 / secs;
        let target = profile.syncs_per_sec as f64;
        assert!(
            rate > target * 0.5 && rate < target * 2.0,
            "measured {rate:.0} syncs/s vs profiled {target}"
        );
    }
}
