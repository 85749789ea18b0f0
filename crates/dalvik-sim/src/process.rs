//! A simulated Dalvik process: threads, monitors, a deterministic scheduler,
//! and a per-process Dimmunix instance.
//!
//! Every process owns its own [`Dimmunix`] engine (platform-wide immunity is
//! user-space and therefore per-process, §3.1). The interpreter calls the
//! engine's three hooks from its `monitorenter` / `monitorexit` / `wait`
//! handlers, exactly where the paper modifies Dalvik's `lockMonitor`,
//! `unlockMonitor` and `waitMonitor` routines (§4).

use crate::program::{MethodId, ObjRef, Op, Program};
use crate::thread::{FrameState, ResumeTarget, ThreadState, VmThread};
use dimmunix_core::{
    CallStack, Config, Dimmunix, Frame, History, LockId, ProcessId, RequestOutcome, SignatureId,
    ThreadId,
};
use dimmunix_testkit::Gen;
use std::collections::HashMap;

/// Bytes the integration code adds per thread (the `stackBuffer` field, §4).
pub const STACK_BUFFER_BYTES: usize = 512;
/// Bytes the integration code adds per inflated monitor (the embedded RAG
/// node, §4).
pub const MONITOR_NODE_BYTES: usize = 64;

/// State of one inflated (fat) monitor.
#[derive(Debug, Clone, Default)]
struct MonitorState {
    owner: Option<ThreadId>,
    recursion: u32,
    wait_set: Vec<ThreadId>,
}

/// Aggregate counters of one simulated process run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Completed monitor acquisitions across all threads.
    pub syncs: u64,
    /// Busy cycles executed across all threads.
    pub cycles: u64,
    /// Deadlocks detected by Dimmunix in this run.
    pub deadlocks_detected: u64,
    /// Threads currently stuck in a detected deadlock.
    pub deadlocked_threads: u64,
    /// Avoidance parks observed.
    pub yields: u64,
    /// Scheduler steps executed.
    pub steps: u64,
}

/// Outcome of [`Process::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every thread terminated.
    Completed,
    /// No thread can make progress (deadlock, starvation, or waiting forever).
    Stuck,
    /// The step budget was exhausted while threads were still runnable.
    OutOfSteps,
}

/// Builder for a [`Process`].
#[derive(Debug, Clone)]
pub struct ProcessBuilder {
    name: String,
    pid: ProcessId,
    program: Program,
    config: Config,
    history: Option<History>,
    seed: u64,
    baseline_bytes: usize,
}

impl ProcessBuilder {
    /// Starts a builder for a process running `program`.
    pub fn new(name: impl Into<String>, program: Program) -> Self {
        ProcessBuilder {
            name: name.into(),
            pid: ProcessId::new(0),
            program,
            config: Config::default(),
            history: None,
            seed: 0,
            baseline_bytes: 8 * 1024 * 1024,
        }
    }

    /// Sets the process id.
    pub fn pid(mut self, pid: ProcessId) -> Self {
        self.pid = pid;
        self
    }

    /// Sets the Dimmunix configuration for this process.
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Seeds the deterministic scheduler.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pre-loads a deadlock history (antibodies) instead of reading it from
    /// the configured path.
    pub fn history(mut self, history: History) -> Self {
        self.history = Some(history);
        self
    }

    /// Sets the baseline (non-Dimmunix) memory footprint used by the memory
    /// model, in bytes.
    pub fn baseline_bytes(mut self, bytes: usize) -> Self {
        self.baseline_bytes = bytes;
        self
    }

    /// Builds the process and starts its main thread at `entry`.
    pub fn spawn_main(self, entry: MethodId) -> Process {
        let engine = match self.history {
            Some(h) => Dimmunix::with_history(self.config, h),
            None => Dimmunix::new(self.config),
        };
        let mut process = Process {
            pid: self.pid,
            name: self.name,
            program: self.program,
            engine,
            monitors: HashMap::new(),
            threads: Vec::new(),
            rng: Gen::new(self.seed),
            virtual_time: 0,
            next_thread: 1,
            baseline_bytes: self.baseline_bytes,
            steps: 0,
        };
        process.spawn_thread("main", entry);
        process
    }
}

/// A simulated Dalvik process with platform-provided deadlock immunity.
#[derive(Debug)]
pub struct Process {
    pid: ProcessId,
    name: String,
    program: Program,
    engine: Dimmunix,
    monitors: HashMap<ObjRef, MonitorState>,
    threads: Vec<VmThread>,
    rng: Gen,
    virtual_time: u64,
    next_thread: u64,
    baseline_bytes: usize,
    steps: u64,
}

impl Process {
    /// The process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The process (application) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-process Dimmunix engine.
    pub fn engine(&self) -> &Dimmunix {
        &self.engine
    }

    /// The simulated threads.
    pub fn threads(&self) -> &[VmThread] {
        &self.threads
    }

    /// Virtual time elapsed (cycles plus one unit per scheduler step).
    pub fn virtual_time(&self) -> u64 {
        self.virtual_time
    }

    /// Spawns a new thread starting at `entry` and returns its id.
    pub fn spawn_thread(&mut self, name: impl Into<String>, entry: MethodId) -> ThreadId {
        let id = ThreadId::new(self.next_thread);
        self.next_thread += 1;
        self.engine.register_owner(id);
        self.threads.push(VmThread::new(id, name, entry));
        id
    }

    /// Aggregated run statistics.
    pub fn stats(&self) -> ProcessStats {
        ProcessStats {
            syncs: self.threads.iter().map(|t| t.syncs).sum(),
            cycles: self.threads.iter().map(|t| t.cycles).sum(),
            deadlocks_detected: self.engine.stats().deadlocks_detected,
            deadlocked_threads: self.threads.iter().filter(|t| t.is_deadlocked()).count() as u64,
            yields: self.engine.stats().yields,
            steps: self.steps,
        }
    }

    /// Estimated memory footprint in bytes *without* Dimmunix (the vanilla
    /// platform): the configured baseline plus plain thread/monitor state.
    pub fn memory_vanilla_bytes(&self) -> usize {
        self.baseline_bytes
            + self.threads.len() * std::mem::size_of::<VmThread>()
            + self.monitors.len() * std::mem::size_of::<MonitorState>()
    }

    /// Estimated memory footprint in bytes *with* Dimmunix: vanilla plus the
    /// engine's structures, the per-thread stack buffers, and the per-monitor
    /// RAG nodes (§4).
    pub fn memory_dimmunix_bytes(&self) -> usize {
        self.memory_vanilla_bytes()
            + self.engine.memory_footprint_bytes()
            + self.threads.len() * STACK_BUFFER_BYTES
            + self.monitors.len() * MONITOR_NODE_BYTES
    }

    /// True if every thread has terminated.
    pub fn is_completed(&self) -> bool {
        self.threads.iter().all(|t| t.is_terminated())
    }

    /// Threads currently stuck in a detected deadlock.
    pub fn deadlocked_threads(&self) -> Vec<ThreadId> {
        self.threads
            .iter()
            .filter(|t| t.is_deadlocked())
            .map(|t| t.id)
            .collect()
    }

    /// True if no thread can make progress and not all have terminated — the
    /// observable "the interface froze" condition of the case study.
    pub fn is_stuck(&self) -> bool {
        !self.is_completed() && self.schedulable_indices().is_empty()
    }

    /// Runs the scheduler until completion, a stuck state, or `max_steps`.
    pub fn run(&mut self, max_steps: u64) -> RunOutcome {
        for _ in 0..max_steps {
            if self.is_completed() {
                return RunOutcome::Completed;
            }
            if !self.step() {
                return if self.is_completed() {
                    RunOutcome::Completed
                } else {
                    RunOutcome::Stuck
                };
            }
        }
        if self.is_completed() {
            RunOutcome::Completed
        } else {
            RunOutcome::OutOfSteps
        }
    }

    /// Executes one scheduler step. Returns false if no thread could be
    /// scheduled (completed or stuck).
    pub fn step(&mut self) -> bool {
        let candidates = self.schedulable_indices();
        if candidates.is_empty() {
            return false;
        }
        let pick = candidates[self.rng.range(0, candidates.len())];
        self.steps += 1;
        self.virtual_time += 1;
        self.execute_thread_step(pick);
        true
    }

    fn schedulable_indices(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| match t.state {
                ThreadState::Runnable | ThreadState::ReacquiringAfterWait { .. } => true,
                // A thread contending on a monitor only becomes schedulable
                // once the monitor can actually be taken; this both avoids
                // useless polling and makes a hard deadlock observable as
                // "no thread can run" (the frozen interface of the case
                // study) even on the vanilla platform.
                ThreadState::BlockedOnMonitor { obj, .. } => self
                    .monitors
                    .get(&obj)
                    .map(|m| m.owner.is_none() || m.owner == Some(t.id))
                    .unwrap_or(true),
                ThreadState::WaitingOnObject { deadline, .. } => {
                    deadline.map(|d| self.virtual_time >= d).unwrap_or(false)
                }
                ThreadState::YieldingOnSignature { .. }
                | ThreadState::Deadlocked { .. }
                | ThreadState::Terminated => false,
            })
            .map(|(i, _)| i)
            .collect()
    }

    fn lock_id(obj: ObjRef) -> LockId {
        LockId::new(obj.0 as u64)
    }

    /// Builds the call stack of a thread, innermost frame first; the frame
    /// "line" is the pc of the synchronization statement, which gives every
    /// static site a stable position (§4's compiler-id observation).
    fn call_stack_of(&self, thread_idx: usize) -> CallStack {
        let t = &self.threads[thread_idx];
        let mut frames = Vec::with_capacity(t.frames.len());
        for fs in t.frames.iter().rev() {
            if let Some(m) = self.program.method(fs.method) {
                frames.push(Frame::new(m.name.clone(), m.file.clone(), fs.pc as u32));
            }
        }
        CallStack::from_frames(frames)
    }

    fn wake_yielders(&mut self, signatures: &[SignatureId]) {
        if signatures.is_empty() {
            return;
        }
        for t in &mut self.threads {
            if let ThreadState::YieldingOnSignature { signature, resume } = t.state {
                if signatures.contains(&signature) {
                    t.state = match resume {
                        ResumeTarget::Enter(_) => ThreadState::Runnable,
                        ResumeTarget::Reacquire { obj, recursion } => {
                            ThreadState::ReacquiringAfterWait { obj, recursion }
                        }
                    };
                }
            }
        }
    }

    fn drain_engine_wakeups(&mut self) {
        let wake = self.engine.take_pending_wakeups();
        self.wake_yielders(&wake);
    }

    fn execute_thread_step(&mut self, idx: usize) {
        // Resolve states that only need polling first.
        match self.threads[idx].state {
            ThreadState::Terminated
            | ThreadState::Deadlocked { .. }
            | ThreadState::YieldingOnSignature { .. } => return,
            ThreadState::BlockedOnMonitor {
                obj,
                restore_recursion,
            } => {
                self.try_take_monitor_after_grant(idx, obj, restore_recursion);
                return;
            }
            ThreadState::ReacquiringAfterWait { obj, recursion } => {
                self.reacquire_after_wait(idx, obj, recursion);
                return;
            }
            ThreadState::WaitingOnObject {
                obj,
                recursion,
                deadline,
            } => {
                // Only scheduled when the deadline expired: time out the wait.
                if deadline.map(|d| self.virtual_time >= d).unwrap_or(false) {
                    if let Some(m) = self.monitors.get_mut(&obj) {
                        m.wait_set.retain(|t| *t != self.threads[idx].id);
                    }
                    self.threads[idx].state = ThreadState::ReacquiringAfterWait { obj, recursion };
                }
                return;
            }
            ThreadState::Runnable => {}
        }

        // Pop finished frames.
        loop {
            match self.threads[idx].current_frame() {
                None => {
                    self.terminate_thread(idx);
                    return;
                }
                Some(frame) => {
                    let len = self
                        .program
                        .method(frame.method)
                        .map(|m| m.ops.len())
                        .unwrap_or(0);
                    if frame.pc >= len {
                        self.threads[idx].frames.pop();
                        if self.threads[idx].frames.is_empty() {
                            self.terminate_thread(idx);
                            return;
                        }
                        continue;
                    }
                    break;
                }
            }
        }

        let frame = self.threads[idx].current_frame().expect("frame exists");
        let op = self
            .program
            .method(frame.method)
            .and_then(|m| m.ops.get(frame.pc))
            .cloned()
            .expect("pc in range");

        match op {
            Op::Compute(cycles) => {
                self.threads[idx].cycles += cycles;
                self.virtual_time += cycles;
                self.advance_pc(idx);
            }
            Op::Call(method) => {
                self.advance_pc(idx);
                self.threads[idx].frames.push(FrameState { method, pc: 0 });
            }
            Op::Spawn { method, name } => {
                self.advance_pc(idx);
                self.spawn_thread(name, method);
            }
            Op::MonitorEnter(obj) => {
                self.monitor_enter(idx, obj);
            }
            Op::MonitorExit(obj) => {
                self.monitor_exit(idx, obj);
                self.advance_pc(idx);
            }
            Op::Wait { obj, timeout } => {
                self.begin_wait(idx, obj, timeout);
            }
            Op::Notify(obj) => {
                self.notify(idx, obj, false);
                self.advance_pc(idx);
            }
            Op::NotifyAll(obj) => {
                self.notify(idx, obj, true);
                self.advance_pc(idx);
            }
        }
    }

    fn advance_pc(&mut self, idx: usize) {
        if let Some(frame) = self.threads[idx].frames.last_mut() {
            frame.pc += 1;
        }
    }

    fn terminate_thread(&mut self, idx: usize) {
        let tid = self.threads[idx].id;
        // Force-release anything the thread still owns in the real monitors.
        for (_, m) in self.monitors.iter_mut() {
            if m.owner == Some(tid) {
                m.owner = None;
                m.recursion = 0;
            }
            m.wait_set.retain(|t| *t != tid);
        }
        let wake = self.engine.unregister_owner(tid);
        self.threads[idx].state = ThreadState::Terminated;
        self.wake_yielders(&wake);
    }

    /// `monitorenter`: the integration point of the paper's `lockMonitor`.
    fn monitor_enter(&mut self, idx: usize, obj: ObjRef) {
        let tid = self.threads[idx].id;
        let lock = Self::lock_id(obj);
        // Inflate the thin lock on first contention-free use (§4).
        self.monitors.entry(obj).or_default();
        self.engine.register_lock(lock);

        let stack = self.call_stack_of(idx);
        let outcome = self.engine.request(tid, lock, &stack);
        self.drain_engine_wakeups();
        match outcome {
            RequestOutcome::Granted | RequestOutcome::GrantedReentrant => {
                self.try_take_monitor_after_grant(idx, obj, None);
            }
            RequestOutcome::Yield { signature } => {
                self.threads[idx].yields += 1;
                self.threads[idx].state = ThreadState::YieldingOnSignature {
                    signature,
                    resume: ResumeTarget::Enter(obj),
                };
            }
            RequestOutcome::DeadlockDetected { .. } => {
                self.threads[idx].state = ThreadState::Deadlocked { obj };
            }
        }
    }

    /// After the engine approved the acquisition, take the real monitor if it
    /// is free; otherwise stay blocked (ordinary contention) and poll.
    fn try_take_monitor_after_grant(
        &mut self,
        idx: usize,
        obj: ObjRef,
        restore_recursion: Option<u32>,
    ) {
        let tid = self.threads[idx].id;
        let monitor = self.monitors.entry(obj).or_default();
        if monitor.owner.is_none() || monitor.owner == Some(tid) {
            let reentrant = monitor.owner == Some(tid);
            monitor.owner = Some(tid);
            monitor.recursion = match restore_recursion {
                Some(r) => r,
                None => monitor.recursion + 1,
            };
            let _ = reentrant;
            self.engine.acquired(tid, Self::lock_id(obj));
            self.threads[idx].syncs += 1;
            self.threads[idx].state = ThreadState::Runnable;
            self.advance_pc(idx);
        } else {
            // Ordinary contention: the engine already approved the request
            // (the thread occupies its position queue, "allowed to wait"),
            // so poll the real monitor without re-requesting.
            self.threads[idx].state = ThreadState::BlockedOnMonitor {
                obj,
                restore_recursion,
            };
        }
    }

    /// `monitorexit`: the integration point of the paper's `unlockMonitor`.
    fn monitor_exit(&mut self, idx: usize, obj: ObjRef) {
        let tid = self.threads[idx].id;
        let lock = Self::lock_id(obj);
        let wake = self.engine.released(tid, lock);
        if let Some(m) = self.monitors.get_mut(&obj) {
            if m.owner == Some(tid) {
                if m.recursion > 1 {
                    m.recursion -= 1;
                } else {
                    m.recursion = 0;
                    m.owner = None;
                }
            }
        }
        self.wake_yielders(&wake);
    }

    /// `Object.wait()`: release the monitor, join the wait set, and remember
    /// how to reacquire — the reacquisition will go through Dimmunix again,
    /// which is what lets Android Dimmunix catch wait-induced lock
    /// inversions (§3.2).
    fn begin_wait(&mut self, idx: usize, obj: ObjRef, timeout: Option<u64>) {
        let tid = self.threads[idx].id;
        let lock = Self::lock_id(obj);
        let owns = self
            .monitors
            .get(&obj)
            .map(|m| m.owner == Some(tid))
            .unwrap_or(false);
        if !owns {
            // IllegalMonitorStateException in Java; skip the op here.
            self.advance_pc(idx);
            return;
        }
        let recursion = self.monitors.get(&obj).map(|m| m.recursion).unwrap_or(1);
        let wake = self.engine.released(tid, lock);
        if let Some(m) = self.monitors.get_mut(&obj) {
            m.owner = None;
            m.recursion = 0;
            m.wait_set.push(tid);
        }
        self.threads[idx].state = ThreadState::WaitingOnObject {
            obj,
            recursion,
            deadline: timeout.map(|t| self.virtual_time + t),
        };
        self.wake_yielders(&wake);
    }

    /// `Object.notify()` / `notifyAll()`.
    fn notify(&mut self, idx: usize, obj: ObjRef, all: bool) {
        let tid = self.threads[idx].id;
        let owns = self
            .monitors
            .get(&obj)
            .map(|m| m.owner == Some(tid))
            .unwrap_or(false);
        if !owns {
            return;
        }
        let woken: Vec<ThreadId> = {
            let m = self.monitors.get_mut(&obj).expect("monitor exists");
            if all {
                m.wait_set.drain(..).collect()
            } else if m.wait_set.is_empty() {
                Vec::new()
            } else {
                vec![m.wait_set.remove(0)]
            }
        };
        for w in woken {
            if let Some(t) = self.threads.iter_mut().find(|t| t.id == w) {
                if let ThreadState::WaitingOnObject { obj, recursion, .. } = t.state {
                    t.state = ThreadState::ReacquiringAfterWait { obj, recursion };
                }
            }
        }
    }

    /// Reacquire the monitor after `wait()`, going through Dimmunix.
    fn reacquire_after_wait(&mut self, idx: usize, obj: ObjRef, recursion: u32) {
        let tid = self.threads[idx].id;
        let lock = Self::lock_id(obj);
        let stack = self.call_stack_of(idx);
        let outcome = self.engine.request(tid, lock, &stack);
        self.drain_engine_wakeups();
        match outcome {
            RequestOutcome::Granted | RequestOutcome::GrantedReentrant => {
                self.try_take_monitor_after_grant(idx, obj, Some(recursion));
            }
            RequestOutcome::Yield { signature } => {
                self.threads[idx].yields += 1;
                self.threads[idx].state = ThreadState::YieldingOnSignature {
                    signature,
                    resume: ResumeTarget::Reacquire { obj, recursion },
                };
            }
            RequestOutcome::DeadlockDetected { .. } => {
                self.threads[idx].state = ThreadState::Deadlocked { obj };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    /// Two workers acquire two locks in opposite order; without immunity the
    /// schedule that interleaves the outer acquisitions deadlocks.
    fn ab_ba_program() -> (Program, MethodId) {
        let a = ObjRef(1);
        let b = ObjRef(2);
        let mut pb = ProgramBuilder::new("abba.java");
        let worker1 = pb
            .method("Worker1.run")
            .sync(a, |body| {
                body.compute(3).sync(b, |inner| {
                    inner.compute(1);
                });
            })
            .finish();
        let worker2 = pb
            .method("Worker2.run")
            .sync(b, |body| {
                body.compute(3).sync(a, |inner| {
                    inner.compute(1);
                });
            })
            .finish();
        let main = pb
            .method("Main.main")
            .spawn(worker1, "w1")
            .spawn(worker2, "w2")
            .finish();
        (pb.build(), main)
    }

    fn find_deadlocking_seed(history: Option<History>) -> Option<(u64, Process)> {
        for seed in 0..200u64 {
            let (program, main) = ab_ba_program();
            let mut builder = ProcessBuilder::new("abba", program).seed(seed);
            if let Some(h) = &history {
                builder = builder.history(h.clone());
            }
            let mut p = builder.spawn_main(main);
            let outcome = p.run(10_000);
            if p.stats().deadlocks_detected > 0 || outcome == RunOutcome::Stuck {
                return Some((seed, p));
            }
        }
        None
    }

    #[test]
    fn simple_program_completes() {
        let mut pb = ProgramBuilder::new("simple.java");
        let m = pb
            .method("Main.main")
            .sync(ObjRef(1), |body| {
                body.compute(10);
            })
            .compute(5)
            .finish();
        let mut p = ProcessBuilder::new("simple", pb.build()).spawn_main(m);
        assert_eq!(p.run(1000), RunOutcome::Completed);
        assert_eq!(p.stats().syncs, 1);
        assert!(p.engine().history().is_empty());
    }

    #[test]
    fn reentrant_sync_blocks_complete() {
        let mut pb = ProgramBuilder::new("reentrant.java");
        let m = pb
            .method("Main.main")
            .sync(ObjRef(1), |body| {
                body.sync(ObjRef(1), |inner| {
                    inner.compute(1);
                });
            })
            .finish();
        let mut p = ProcessBuilder::new("reentrant", pb.build()).spawn_main(m);
        assert_eq!(p.run(1000), RunOutcome::Completed);
        assert_eq!(p.stats().syncs, 2);
    }

    #[test]
    fn ab_ba_deadlocks_without_history_and_is_detected() {
        let (seed, p) = find_deadlocking_seed(None).expect("some seed must deadlock");
        assert!(p.stats().deadlocks_detected >= 1, "seed {seed}");
        assert!(p.is_stuck() || p.stats().deadlocked_threads > 0);
        assert_eq!(p.engine().history().len(), 1);
    }

    #[test]
    fn ab_ba_is_avoided_with_history() {
        // First run: find a deadlocking schedule and capture the antibody.
        let (seed, trained) = find_deadlocking_seed(None).expect("some seed must deadlock");
        let history = trained.engine().history().clone();
        // Second run ("after reboot"): same program, same schedule seed, with
        // the antibody loaded — it must complete.
        let (program, main) = ab_ba_program();
        let mut p = ProcessBuilder::new("abba", program)
            .seed(seed)
            .history(history)
            .spawn_main(main);
        let outcome = p.run(100_000);
        assert_eq!(outcome, RunOutcome::Completed, "stats: {:?}", p.stats());
        assert_eq!(p.stats().deadlocks_detected, 0);
        assert_eq!(p.stats().syncs, 4, "all four critical sections executed");
    }

    #[test]
    fn every_seed_completes_with_history() {
        let (_, trained) = find_deadlocking_seed(None).expect("some seed must deadlock");
        let history = trained.engine().history().clone();
        let (mut steps, mut yields) = (0, 0);
        for seed in 0..40u64 {
            let (program, main) = ab_ba_program();
            let mut p = ProcessBuilder::new("abba", program)
                .seed(seed)
                .history(history.clone())
                .spawn_main(main);
            let outcome = p.run(200_000);
            assert_eq!(
                outcome,
                RunOutcome::Completed,
                "seed {seed}: {:?}",
                p.stats()
            );
            assert_eq!(p.stats().deadlocks_detected, 0, "seed {seed}");
            steps += p.stats().steps;
            yields += p.stats().yields;
        }
        // Seed replay: these 40 schedules are pinned, so a change to the
        // scheduler's random stream shows up here.
        assert_eq!((steps, yields), (716, 36));
    }

    #[test]
    fn wait_notify_roundtrip_completes() {
        let flag = ObjRef(9);
        let mut pb = ProgramBuilder::new("waitnotify.java");
        let waiter = pb
            .method("Waiter.run")
            .sync(flag, |body| {
                body.wait(flag, Some(50));
            })
            .finish();
        let notifier = pb
            .method("Notifier.run")
            .compute(5)
            .sync(flag, |body| {
                body.notify_all(flag);
            })
            .finish();
        let main = pb
            .method("Main.main")
            .spawn(waiter, "waiter")
            .spawn(notifier, "notifier")
            .finish();
        let mut p = ProcessBuilder::new("waitnotify", pb.build())
            .seed(3)
            .spawn_main(main);
        assert_eq!(p.run(100_000), RunOutcome::Completed);
    }

    #[test]
    fn wait_induced_lock_inversion_deadlock_is_detected_then_avoided() {
        // The §3.2 example: t1: sync(x){ sync(y){ x.wait() } }
        //                   t2: sync(x){ sync(y){ notify-free } }
        // When t1's wait times out it must reacquire x while holding y; if t2
        // holds x and wants y, they deadlock. The reacquisition is visible to
        // Dimmunix, so the deadlock is detected and subsequently avoided.
        let x = ObjRef(1);
        let y = ObjRef(2);
        let build = || {
            let mut pb = ProgramBuilder::new("inversion.java");
            let t1 = pb
                .method("T1.run")
                .sync(x, |body| {
                    body.sync(y, |inner| {
                        inner.wait(x, Some(3));
                    });
                })
                .finish();
            let t2 = pb
                .method("T2.run")
                .compute(2)
                .sync(x, |body| {
                    body.compute(30).sync(y, |inner| {
                        inner.compute(1);
                    });
                })
                .finish();
            let main = pb
                .method("Main.main")
                .spawn(t1, "t1")
                .spawn(t2, "t2")
                .finish();
            (pb.build(), main)
        };

        // Search for a seed where the inversion bites on the first run and
        // the antibody then steers the replay of the same seed to
        // completion. (For some interleavings — the blocked thread reaches
        // its outer position before the lock holder does — avoidance would
        // starve the holder and Dimmunix deliberately lets the thread
        // through, so not every deadlocking seed is avoidable; the paper's
        // scenario, where the inversion happens after both locks are held,
        // is, and must be found here.)
        let mut demonstrated = false;
        let mut saw_detection = false;
        for seed in 0..400u64 {
            let (program, main) = build();
            let mut trainer = ProcessBuilder::new("inversion", program)
                .seed(seed)
                .spawn_main(main);
            let _ = trainer.run(50_000);
            if trainer.stats().deadlocks_detected == 0 {
                continue;
            }
            saw_detection = true;
            let history = trainer.engine().history().clone();
            let (program, main) = build();
            let mut replay = ProcessBuilder::new("inversion", program)
                .seed(seed)
                .history(history)
                .spawn_main(main);
            let outcome = replay.run(500_000);
            if outcome == RunOutcome::Completed && replay.stats().deadlocks_detected == 0 {
                assert!(
                    replay.stats().yields > 0 || replay.stats().syncs >= 5,
                    "avoidance (or a benign schedule) must explain the completion"
                );
                demonstrated = true;
                break;
            }
        }
        assert!(
            saw_detection,
            "the wait-induced deadlock must be reproducible"
        );
        assert!(
            demonstrated,
            "some deadlocking schedule must be avoided on replay with the antibody"
        );
    }

    #[test]
    fn memory_model_charges_dimmunix_structures() {
        let (program, main) = ab_ba_program();
        let mut p = ProcessBuilder::new("abba", program)
            .baseline_bytes(10 * 1024 * 1024)
            .spawn_main(main);
        let _ = p.run(10_000);
        let vanilla = p.memory_vanilla_bytes();
        let with = p.memory_dimmunix_bytes();
        assert!(with > vanilla);
        let overhead = (with - vanilla) as f64 / vanilla as f64;
        assert!(
            overhead < 0.10,
            "dimmunix overhead should be a few percent, got {overhead}"
        );
    }

    #[test]
    fn stats_track_steps_and_cycles() {
        let mut pb = ProgramBuilder::new("s.java");
        let m = pb.method("Main.main").compute(100).compute(50).finish();
        let mut p = ProcessBuilder::new("s", pb.build()).spawn_main(m);
        assert_eq!(p.run(100), RunOutcome::Completed);
        let stats = p.stats();
        assert_eq!(stats.cycles, 150);
        assert!(stats.steps >= 2);
        assert!(p.virtual_time() >= 150);
    }
}
