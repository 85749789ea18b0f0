//! The Zygote process-forking model.
//!
//! On Android every application process is forked from the Zygote; the paper
//! hooks `Dalvik_dalvik_system_Zygote_fork` / `forkAndSpecializeCommon` so
//! that `initDimmunix` runs as soon as the child starts (§4). Here the
//! [`Zygote`] plays the same role: it stamps out [`Process`]es, each with its
//! own Dimmunix instance, its own (per-application) persistent history path,
//! and its own scheduler seed — giving exactly the per-process isolation of
//! Figure 1.

use crate::process::{Process, ProcessBuilder};
use crate::program::{MethodId, Program};
use dimmunix_core::{Config, ProcessId};
use std::path::PathBuf;

/// Factory for simulated application processes.
#[derive(Debug, Clone)]
pub struct Zygote {
    base_config: Config,
    history_dir: Option<PathBuf>,
    next_pid: u32,
    base_seed: u64,
}

impl Zygote {
    /// Creates a Zygote whose children run with the given Dimmunix
    /// configuration template.
    pub fn new(base_config: Config) -> Self {
        Zygote {
            base_config,
            history_dir: None,
            next_pid: 1,
            base_seed: 0x5eed,
        }
    }

    /// Stores per-application histories under `dir` (one file per package
    /// name), so they survive process restarts and phone reboots.
    pub fn with_history_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.history_dir = Some(dir.into());
        self
    }

    /// Changes the base scheduler seed used for forked processes.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Forks a new application process running `program`, starting at
    /// `entry`. The child gets a fresh `ProcessId`, an isolated Dimmunix
    /// instance, and (if a history directory is configured) a per-package
    /// persistent history file.
    pub fn fork(&mut self, package: &str, program: Program, entry: MethodId) -> Process {
        let pid = ProcessId::new(self.next_pid);
        self.next_pid += 1;
        let mut config = self.base_config.clone();
        if let Some(dir) = &self.history_dir {
            config.history_path = Some(dir.join(format!("{package}.history")));
        }
        ProcessBuilder::new(package, program)
            .pid(pid)
            .config(config)
            .seed(self.base_seed.wrapping_add(pid.index() as u64))
            .spawn_main(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dalvik::RunOutcome;
    use crate::program::{ObjRef, ProgramBuilder};

    fn tiny_program() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new("tiny.java");
        let m = pb
            .method("Main.main")
            .sync(ObjRef(1), |b| {
                b.compute(1);
            })
            .finish();
        (pb.build(), m)
    }

    #[test]
    fn forked_processes_have_distinct_pids_and_isolated_engines() {
        let mut zygote = Zygote::new(Config::default());
        let (prog1, m1) = tiny_program();
        let (prog2, m2) = tiny_program();
        let mut a = zygote.fork("com.example.email", prog1, m1);
        let mut b = zygote.fork("com.example.browser", prog2, m2);
        assert_ne!(a.pid(), b.pid());
        assert_eq!(a.run(1000), RunOutcome::Completed);
        assert_eq!(b.run(1000), RunOutcome::Completed);
        // Engines are isolated: each saw only its own synchronizations.
        assert_eq!(a.engine().stats().acquisitions, 1);
        assert_eq!(b.engine().stats().acquisitions, 1);
    }

    #[test]
    fn history_dir_gives_per_package_paths() {
        let dir = std::env::temp_dir().join(format!("dimmunix-zygote-{}", std::process::id()));
        let mut zygote = Zygote::new(Config::default()).with_history_dir(&dir);
        let (prog, m) = tiny_program();
        let p = zygote.fork("com.example.maps", prog, m);
        assert_eq!(
            p.engine().config().history_path,
            Some(dir.join("com.example.maps.history"))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vanilla_zygote_forks_disabled_engines() {
        let mut zygote = Zygote::new(Config::disabled());
        let (prog, m) = tiny_program();
        let p = zygote.fork("com.example.camera", prog, m);
        assert!(p.engine().config().is_disabled());
    }
}
