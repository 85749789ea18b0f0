//! The discrete-event simulator: virtual time over the real engine.
//!
//! [`run_schedule`] executes a [`Scenario`] against a real Dimmunix engine
//! (monolithic or sharded, behind [`EngineHooks`]) under an explicit
//! scheduling policy ([`DecisionSource`]). Tasks run to completion between
//! *blocking points* — `Work` ops (virtual sleeps on a min-heap clock),
//! `Compute` ops (serial busy work that leaves the task runnable),
//! substrate lock waits, avoidance parks, and monitor `Wait`s — and
//! whenever more than one task is runnable the decision source picks which
//! runs next. Every
//! decision and engine-visible event is folded into an FNV-1a
//! `sched_trace_hash`, so any run replays exactly from its recorded
//! decision trace, and fuel (an executed-op bound) replaces wall-clock
//! timeouts.
//!
//! The substrate model mirrors, op for op, the validated blocking-lock
//! protocol of the async substrate (the oracle of the sync/async
//! equivalence suite): FIFO lock handoff with barging, release-driven
//! avoidance wake-one per signature, wake-all broadcasts after requests and
//! retirements, and the refusal path on detection. On top it adds what the
//! engine deliberately does not model: reader/writer admission (including
//! optional writer preference — see [`Scenario::writer_preference`]) and a
//! budgeted fail-safe retry for stalls the engine cannot see.

use crate::scenario::{Scenario, SimOp};
use dimmunix_core::{
    AccessMode, CallStack, Config, Dimmunix, History, LockId, OwnerId, PositionId, RequestOutcome,
    ShardedDimmunix, SignatureId, Stats, FNV_OFFSET,
};
use dimmunix_testkit::Gen;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Trace hashing
// ---------------------------------------------------------------------------

/// FNV-1a over a byte slice; used for history fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    dimmunix_core::fnv1a(FNV_OFFSET, bytes)
}

/// Incremental FNV-1a over tagged event words — the `sched_trace_hash`.
#[derive(Clone, Copy, Debug)]
struct TraceHash(u64);

impl TraceHash {
    fn new() -> Self {
        TraceHash(FNV_OFFSET)
    }

    fn push(&mut self, words: &[u64]) {
        for w in words {
            self.0 = dimmunix_core::fnv1a(self.0, &w.to_le_bytes());
        }
    }
}

// Event tags folded into the trace hash. Any semantic change to the
// simulator that alters observable behaviour changes the hash stream.
const TAG_DECISION: u64 = 1;
const TAG_OUTCOME: u64 = 2;
const TAG_TAKE: u64 = 3;
const TAG_RELEASE: u64 = 4;
const TAG_WORK: u64 = 5;
const TAG_FINISH: u64 = 6;
const TAG_BACKOUT: u64 = 7;
const TAG_FINAL: u64 = 8;
// Tags of the ops the Dalvik front end brought (PR 16). New ops fold under
// new tags, so a scenario that uses none of them hashes exactly as before.
const TAG_COMPUTE: u64 = 9;
const TAG_WAIT: u64 = 10;
const TAG_NOTIFY: u64 = 11;
const TAG_SPAWN: u64 = 12;

// ---------------------------------------------------------------------------
// Decision sources
// ---------------------------------------------------------------------------

/// How the scheduler behaves past the recorded decision prefix.
#[derive(Clone, Debug)]
pub enum Tail {
    /// Always pick the lowest-indexed runnable task — the deterministic
    /// "default schedule". Replays use this, so a shrunk prefix still
    /// defines a complete schedule.
    First,
    /// Draw uniformly from the runnable set (seeded; fuzzing).
    Random(Gen),
}

/// The scheduling policy of one run: a recorded decision prefix (possibly
/// empty) followed by a [`Tail`]. Decisions are consumed only at points
/// with more than one runnable task and are interpreted modulo the runnable
/// count, so any `u32` sequence is a valid schedule.
#[derive(Clone, Debug)]
pub struct DecisionSource {
    prefix: Vec<u32>,
    at: usize,
    tail: Tail,
}

impl DecisionSource {
    /// Pure random exploration.
    pub fn random(g: Gen) -> Self {
        DecisionSource {
            prefix: Vec::new(),
            at: 0,
            tail: Tail::Random(g),
        }
    }

    /// Exact replay of a recorded trace; past its end, the default
    /// schedule.
    pub fn replay(decisions: Vec<u32>) -> Self {
        DecisionSource {
            prefix: decisions,
            at: 0,
            tail: Tail::First,
        }
    }

    /// Targeted mutation: replay `prefix`, then explore randomly — the
    /// fuzzer's lock-order mutation of an interesting parent schedule.
    pub fn with_prefix(prefix: Vec<u32>, g: Gen) -> Self {
        DecisionSource {
            prefix,
            at: 0,
            tail: Tail::Random(g),
        }
    }

    /// Draws the next decision for a point with `n ≥ 2` candidates,
    /// already reduced modulo `n`. Exposed for alternate schedulers (the
    /// asyncio driver); [`run_schedule`] calls it internally.
    pub fn next_decision(&mut self, n: usize) -> u32 {
        debug_assert!(n >= 2);
        if let Some(&d) = self.prefix.get(self.at) {
            self.at += 1;
            d % n as u32
        } else {
            match &mut self.tail {
                Tail::First => 0,
                Tail::Random(g) => g.range(0, n) as u32,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Engine drivers
// ---------------------------------------------------------------------------

/// The engine surface the simulator drives: the real hook points, keyed by
/// task index and scenario site index. Implemented for the monolithic
/// engine (with snapshot-rollback reuse) and the sharded engine.
pub trait EngineHooks {
    /// Restore the engine to its pre-run state (the seeded history, empty
    /// RAG). Called at the start of every run, so one driver executes many
    /// schedules.
    fn reset(&mut self);
    /// The `request` hook for `task` acquiring `lock` at scenario site
    /// `site` in `mode`.
    fn request(
        &mut self,
        task: usize,
        lock: usize,
        site: usize,
        mode: AccessMode,
    ) -> RequestOutcome;
    /// The `acquired` hook.
    fn acquired(&mut self, task: usize, lock: usize);
    /// The `released` hook; signatures to wake-one land in `wake`.
    fn released_into(&mut self, task: usize, lock: usize, wake: &mut Vec<SignatureId>);
    /// Withdraw an outstanding (granted-but-unacquired or refused) request.
    fn cancel_request(&mut self, task: usize, lock: usize);
    /// Retire a task; returns signatures to wake-all.
    fn unregister_owner(&mut self, task: usize) -> Vec<SignatureId>;
    /// Wake-ups the engine scheduled while processing earlier hooks.
    fn take_pending_wakeups(&mut self) -> Vec<SignatureId>;
    /// Engine counters.
    fn stats(&self) -> Stats;
    /// The learned history, textual form.
    fn history_text(&self) -> String;
    /// The learned history.
    fn history(&self) -> History;
}

fn owner(task: usize) -> OwnerId {
    OwnerId::thread(task as u64)
}

/// Monolithic-engine driver. Sites are pre-interned once; [`reset`] rolls
/// the engine back to its construction snapshot via
/// [`Dimmunix::reset_to_snapshot`] instead of rebuilding it, which is what
/// makes high schedule throughput possible (the whole position table and
/// history survive across runs).
///
/// [`reset`]: EngineHooks::reset
pub struct MonoDriver {
    engine: Dimmunix,
    base: Arc<dimmunix_core::HistorySnapshot>,
    site_pos: Vec<PositionId>,
}

impl std::fmt::Debug for MonoDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonoDriver")
            .field("sites", &self.site_pos.len())
            .field("base_outers", &self.base.outer_len())
            .finish_non_exhaustive()
    }
}

impl MonoDriver {
    /// Builds a driver for `scenario` with `history` pre-seeded (empty for
    /// learning runs, a learned history for immune replays).
    pub fn new(scenario: &Scenario, history: History) -> Self {
        Self::with_config(scenario, Config::default(), history)
    }

    /// [`new`](MonoDriver::new) with an explicit engine configuration —
    /// eviction-pressure tests cap `max_signatures` far below the default
    /// so a detection-heavy scenario overflows it in a single run.
    pub fn with_config(scenario: &Scenario, config: Config, history: History) -> Self {
        Self::from_engine(scenario, Dimmunix::with_history(config, history))
    }

    /// Wraps an already-built engine — a process front end constructs its
    /// own (replaying the configured history log, as [`Dimmunix::new`]
    /// does) and keeps reading it through [`engine`](MonoDriver::engine)
    /// after the run.
    pub fn from_engine(scenario: &Scenario, mut engine: Dimmunix) -> Self {
        let base = Arc::clone(engine.history_snapshot());
        let site_pos = scenario
            .sites
            .iter()
            .map(|s| engine.intern_position(s))
            .collect();
        MonoDriver {
            engine,
            base,
            site_pos,
        }
    }

    /// The engine, as the last run left it.
    pub fn engine(&self) -> &Dimmunix {
        &self.engine
    }
}

impl EngineHooks for MonoDriver {
    fn reset(&mut self) {
        self.engine.reset_to_snapshot(&self.base);
    }

    fn request(
        &mut self,
        task: usize,
        lock: usize,
        site: usize,
        mode: AccessMode,
    ) -> RequestOutcome {
        self.engine.request_at_mode(
            owner(task),
            LockId::new(lock as u64),
            self.site_pos[site],
            mode,
        )
    }

    fn acquired(&mut self, task: usize, lock: usize) {
        self.engine.acquired(owner(task), LockId::new(lock as u64));
    }

    fn released_into(&mut self, task: usize, lock: usize, wake: &mut Vec<SignatureId>) {
        self.engine
            .released_into(owner(task), LockId::new(lock as u64), wake);
    }

    fn cancel_request(&mut self, task: usize, lock: usize) {
        self.engine
            .cancel_request(owner(task), LockId::new(lock as u64));
    }

    fn unregister_owner(&mut self, task: usize) -> Vec<SignatureId> {
        self.engine.unregister_owner(owner(task))
    }

    fn take_pending_wakeups(&mut self) -> Vec<SignatureId> {
        self.engine.take_pending_wakeups()
    }

    fn stats(&self) -> Stats {
        *self.engine.stats()
    }

    fn history_text(&self) -> String {
        self.engine.history().to_text()
    }

    fn history(&self) -> History {
        self.engine.history().clone()
    }
}

/// Sharded-engine driver. The sharded engine has no snapshot rollback, so
/// [`reset`](EngineHooks::reset) rebuilds it from the seeded history —
/// slower, but it proves the explorer drives the lock-striped deployment
/// shape through the identical protocol.
pub struct ShardedDriver {
    engine: ShardedDimmunix,
    shards: usize,
    seeded: History,
    site_stacks: Vec<CallStack>,
}

impl std::fmt::Debug for ShardedDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDriver")
            .field("shards", &self.shards)
            .field("sites", &self.site_stacks.len())
            .finish_non_exhaustive()
    }
}

impl ShardedDriver {
    /// Builds a `shards`-way driver for `scenario` seeded with `history`.
    pub fn new(scenario: &Scenario, shards: usize, history: History) -> Self {
        ShardedDriver {
            engine: ShardedDimmunix::with_history(Config::default(), shards, history.clone()),
            shards,
            seeded: history,
            site_stacks: scenario.sites.clone(),
        }
    }
}

impl EngineHooks for ShardedDriver {
    fn reset(&mut self) {
        self.engine =
            ShardedDimmunix::with_history(Config::default(), self.shards, self.seeded.clone());
    }

    fn request(
        &mut self,
        task: usize,
        lock: usize,
        site: usize,
        mode: AccessMode,
    ) -> RequestOutcome {
        self.engine.request_mode(
            owner(task),
            LockId::new(lock as u64),
            &self.site_stacks[site],
            mode,
        )
    }

    fn acquired(&mut self, task: usize, lock: usize) {
        self.engine.acquired(owner(task), LockId::new(lock as u64));
    }

    fn released_into(&mut self, task: usize, lock: usize, wake: &mut Vec<SignatureId>) {
        self.engine
            .released_into(owner(task), LockId::new(lock as u64), wake);
    }

    fn cancel_request(&mut self, task: usize, lock: usize) {
        self.engine
            .cancel_request(owner(task), LockId::new(lock as u64));
    }

    fn unregister_owner(&mut self, task: usize) -> Vec<SignatureId> {
        self.engine.unregister_owner(owner(task))
    }

    fn take_pending_wakeups(&mut self) -> Vec<SignatureId> {
        self.engine.take_pending_wakeups()
    }

    fn stats(&self) -> Stats {
        self.engine.stats()
    }

    fn history_text(&self) -> String {
        self.engine.history().to_text()
    }

    fn history(&self) -> History {
        self.engine.history().clone()
    }
}

// ---------------------------------------------------------------------------
// Run configuration and reports
// ---------------------------------------------------------------------------

/// What to do when the engine detects a real deadlock cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnDeadlock {
    /// End the run immediately with [`RunOutcome::Deadlock`] — the fuzzer's
    /// mode: the first detection is the find.
    Stop,
    /// The refusal path of the substrates' `Error` policy: the detected
    /// victim cancels, drops its holds, and dies; the run continues.
    Refuse,
}

/// Per-run knobs.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Executed-op bound replacing wall-clock timeouts. A run that executes
    /// this many ops ends as [`RunOutcome::FuelExhausted`].
    pub fuel: usize,
    /// Detection policy.
    pub on_deadlock: OnDeadlock,
    /// Record a human-readable event line per simulator step (determinism
    /// tests and diagnostics; costs allocation, off in the fuzz loop).
    pub record_events: bool,
}

impl SimConfig {
    /// Defaults sized for `scenario`: fuel covers several full executions
    /// plus retry slack, stop on first detection, no event recording.
    pub fn for_scenario(scenario: &Scenario) -> Self {
        SimConfig {
            fuel: scenario.total_ops() * 8 + 64,
            on_deadlock: OnDeadlock::Stop,
            record_events: false,
        }
    }
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every task finished (or died on the refusal path).
    Completed,
    /// The engine detected a real cycle ([`OnDeadlock::Stop`]).
    Deadlock {
        /// The learned signature.
        signature: SignatureId,
        /// First observation of this bug.
        new_signature: bool,
    },
    /// No task runnable or sleeping, no fail-safe budget left, and the
    /// engine saw no cycle — a stall invisible to detection (the
    /// writer-preference gap shape).
    Stalled,
    /// The fuel bound fired.
    FuelExhausted,
}

impl RunOutcome {
    fn code(&self) -> u64 {
        match self {
            RunOutcome::Completed => 0,
            RunOutcome::Deadlock { .. } => 1,
            RunOutcome::Stalled => 2,
            RunOutcome::FuelExhausted => 3,
        }
    }
}

/// Everything one simulated run produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Terminal state.
    pub outcome: RunOutcome,
    /// FNV-1a over every decision and engine-visible event; two runs with
    /// equal hashes executed the identical schedule.
    pub sched_trace_hash: u64,
    /// Canonical decisions consumed at >1-runnable points;
    /// [`DecisionSource::replay`] of this vector reproduces the run.
    pub decisions: Vec<u32>,
    /// Ops executed (the fuel spent).
    pub executed_ops: usize,
    /// Final virtual-clock reading.
    pub virtual_time: u64,
    /// Busy time: the summed `cost` of every executed `Work` and `Compute`
    /// op. With `executed_ops` this is the CPU time of a one-core front
    /// end, whatever the (parallel) clock read.
    pub work_units: u64,
    /// Peak count of simultaneously blocked tasks that held at least one
    /// lock — the near-miss metric the fuzzer's mutation pool keys on.
    pub max_blocked: usize,
    /// Fail-safe back-out/restart count.
    pub failsafe_retries: u32,
    /// Engine detections observed (0 or 1 under [`OnDeadlock::Stop`]).
    pub deadlocks: u32,
    /// Learned history, textual form, at run end.
    pub history_text: String,
    /// Engine counters at run end.
    pub stats: Stats,
    /// Event lines (empty unless [`SimConfig::record_events`]).
    pub events: Vec<String>,
}

// ---------------------------------------------------------------------------
// The simulator
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Target of a `Spawn` that has not executed yet.
    Dormant,
    Runnable,
    Sleeping,
    LockWait,
    Parked,
    /// In a lock's wait set (`Wait`), until notified or timed out.
    Waiting,
    Finished,
    Refused,
}

/// What a runnable task does when scheduled, before (or instead of) its
/// next script op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pending {
    Op,
    /// Engine approved; waiting for substrate admission (the oracle's
    /// `LockWait`): acquisition completes without a new engine request.
    /// `depth` is the number of holds the acquisition establishes: 1, or
    /// the recursion depth a `Wait` released and must restore.
    Take {
        lock: usize,
        mode: AccessMode,
        depth: usize,
    },
    /// Avoidance-parked, or leaving a `Wait`: (re)issues the full engine
    /// request when woken.
    Retry {
        lock: usize,
        mode: AccessMode,
        site: usize,
        depth: usize,
    },
}

struct SimLock {
    /// Current holders: one exclusive entry, or any number of shared ones
    /// (plus reentrant duplicates).
    owners: Vec<(usize, AccessMode)>,
    /// FIFO of engine-approved tasks waiting for admission.
    waiters: VecDeque<(usize, AccessMode)>,
    /// FIFO of tasks inside `Wait` on this lock.
    wait_set: VecDeque<usize>,
}

struct Sim<'a, E: EngineHooks> {
    driver: &'a mut E,
    scenario: &'a Scenario,
    cfg: &'a SimConfig,
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    runnable: Vec<usize>,
    state: Vec<State>,
    pending: Vec<Pending>,
    pc: Vec<usize>,
    held: Vec<Vec<usize>>,
    locks: Vec<SimLock>,
    parked: HashMap<SignatureId, VecDeque<usize>>,
    budget: Vec<u32>,
    hash: TraceHash,
    decisions: Vec<u32>,
    executed: usize,
    work_units: u64,
    max_blocked: usize,
    failsafe_retries: u32,
    deadlocks: u32,
    events: Vec<String>,
    wake_buf: Vec<SignatureId>,
}

/// Executes one schedule of `scenario` through `driver` under `source`.
/// Resets the driver first, so call sites never leak state between runs.
pub fn run_schedule<E: EngineHooks>(
    driver: &mut E,
    scenario: &Scenario,
    source: &mut DecisionSource,
    cfg: &SimConfig,
) -> RunReport {
    driver.reset();
    let n = scenario.tasks.len();
    // A task some `Spawn` names starts dormant (derived, not declared).
    let mut state = vec![State::Runnable; n];
    for op in scenario.tasks.iter().flat_map(|t| &t.ops) {
        if let SimOp::Spawn { task } = *op {
            state[task] = State::Dormant;
        }
    }
    let mut sim = Sim {
        driver,
        scenario,
        cfg,
        now: 0,
        seq: 0,
        heap: BinaryHeap::new(),
        runnable: (0..n).filter(|&t| state[t] == State::Runnable).collect(),
        state,
        pending: vec![Pending::Op; n],
        pc: vec![0; n],
        held: vec![Vec::new(); n],
        locks: (0..scenario.locks)
            .map(|_| SimLock {
                owners: Vec::new(),
                waiters: VecDeque::new(),
                wait_set: VecDeque::new(),
            })
            .collect(),
        parked: HashMap::new(),
        budget: vec![scenario.failsafe_budget; n],
        hash: TraceHash::new(),
        decisions: Vec::new(),
        executed: 0,
        work_units: 0,
        max_blocked: 0,
        failsafe_retries: 0,
        deadlocks: 0,
        events: Vec::new(),
        wake_buf: Vec::new(),
    };
    sim.run(source)
}

impl<E: EngineHooks> Sim<'_, E> {
    fn run(&mut self, source: &mut DecisionSource) -> RunReport {
        let outcome = loop {
            // Everything due by now becomes runnable together (and competes
            // for the next decision). Only a serial `Compute` moves the
            // clock while tasks are runnable; otherwise nothing is due
            // until the branch below advances it.
            while let Some(&Reverse((due, _, task))) = self.heap.peek() {
                if due > self.now {
                    break;
                }
                self.heap.pop();
                self.wake_timer(task);
            }
            if self.runnable.is_empty() {
                if let Some(&Reverse((t, _, _))) = self.heap.peek() {
                    // Advance virtual time to the next deadline.
                    self.now = t;
                    continue;
                }
                if self.all_terminal() {
                    break RunOutcome::Completed;
                }
                // Stall: blocked tasks, empty clock. The engine saw no
                // cycle (else the run would have ended) — fail safe if
                // budget remains, report otherwise.
                match self.failsafe_victim() {
                    Some(victim) => {
                        self.event(format!(
                            "t={} failsafe task={}",
                            self.now, self.scenario.tasks[victim].name
                        ));
                        self.back_out(victim, true);
                        continue;
                    }
                    None => break RunOutcome::Stalled,
                }
            }

            if self.executed >= self.cfg.fuel {
                break RunOutcome::FuelExhausted;
            }

            let idx = if self.runnable.len() == 1 {
                0
            } else {
                let d = source.next_decision(self.runnable.len());
                self.decisions.push(d);
                self.hash
                    .push(&[TAG_DECISION, self.runnable.len() as u64, d as u64]);
                d as usize
            };
            let task = self.runnable.remove(idx);
            if let Some(dl) = self.step_task(task) {
                break dl;
            }
        };

        self.hash
            .push(&[TAG_FINAL, outcome.code(), self.executed as u64, self.now]);
        RunReport {
            outcome,
            sched_trace_hash: self.hash.0,
            decisions: std::mem::take(&mut self.decisions),
            executed_ops: self.executed,
            virtual_time: self.now,
            work_units: self.work_units,
            max_blocked: self.max_blocked,
            failsafe_retries: self.failsafe_retries,
            deadlocks: self.deadlocks,
            history_text: self.driver.history_text(),
            stats: self.driver.stats(),
            events: std::mem::take(&mut self.events),
        }
    }

    /// Runs `task` to its next blocking point. Returns a terminal outcome
    /// on engine detection under [`OnDeadlock::Stop`].
    fn step_task(&mut self, task: usize) -> Option<RunOutcome> {
        loop {
            match self.pending[task] {
                Pending::Take { lock, mode, depth } => {
                    // Woken as a lock waiter: admission needs only owner
                    // compatibility (it already reached the queue front;
                    // writer preference gates fresh arrivals, not handoffs).
                    if self.compatible(lock, task, mode) {
                        self.pending[task] = Pending::Op;
                        self.take(task, lock, mode, depth);
                    } else {
                        // Barged by an avoidance-woken or fresh owner:
                        // re-join at the back, exactly like the oracle.
                        self.locks[lock].waiters.push_back((task, mode));
                        self.block(task, State::LockWait);
                        return None;
                    }
                }
                Pending::Retry {
                    lock,
                    mode,
                    site,
                    depth,
                } => {
                    self.pending[task] = Pending::Op;
                    self.executed += 1;
                    match self.begin_acquire(task, lock, mode, site, depth) {
                        AcquireStep::Continue => {}
                        AcquireStep::Blocked => return None,
                        AcquireStep::Terminal(o) => return Some(o),
                    }
                }
                Pending::Op => {
                    let Some(&op) = self.scenario.tasks[task].ops.get(self.pc[task]) else {
                        self.finish(task);
                        return None;
                    };
                    self.pc[task] += 1;
                    self.executed += 1;
                    match op {
                        SimOp::Work { cost } => {
                            let due = self.now + cost.max(1);
                            self.work_units += cost;
                            self.seq += 1;
                            self.heap.push(Reverse((due, self.seq, task)));
                            self.state[task] = State::Sleeping;
                            self.hash.push(&[TAG_WORK, task as u64, due]);
                            self.event(format!(
                                "t={} task={} work until {due}",
                                self.now, self.scenario.tasks[task].name
                            ));
                            return None;
                        }
                        SimOp::Release { lock } => {
                            self.release(task, lock);
                        }
                        SimOp::Acquire { lock, mode, site } => {
                            match self.begin_acquire(task, lock, mode, site, 1) {
                                AcquireStep::Continue => {}
                                AcquireStep::Blocked => return None,
                                AcquireStep::Terminal(o) => return Some(o),
                            }
                        }
                        SimOp::Compute { cost } => {
                            self.now += cost;
                            self.work_units += cost;
                            self.hash.push(&[TAG_COMPUTE, task as u64, self.now]);
                            self.event(format!(
                                "t={} task={} computed {cost}",
                                self.now, self.scenario.tasks[task].name
                            ));
                            self.make_runnable(task);
                            return None;
                        }
                        SimOp::Wait {
                            lock,
                            timeout,
                            site,
                        } => {
                            if self.wait(task, lock, timeout, site) {
                                return None;
                            }
                        }
                        SimOp::Notify { lock, all } => self.notify(task, lock, all),
                        SimOp::Spawn { task: child } => {
                            if self.state[child] == State::Dormant {
                                self.make_runnable(child);
                            }
                            self.hash.push(&[TAG_SPAWN, task as u64, child as u64]);
                            self.event(format!(
                                "t={} task={} spawned {}",
                                self.now,
                                self.scenario.tasks[task].name,
                                self.scenario.tasks[child].name
                            ));
                        }
                    }
                }
            }
            if self.executed >= self.cfg.fuel {
                // Let the main loop convert this into FuelExhausted.
                if self.state[task] == State::Runnable && matches!(self.pending[task], Pending::Op)
                {
                    self.make_runnable(task);
                }
                return None;
            }
        }
    }

    fn begin_acquire(
        &mut self,
        task: usize,
        lock: usize,
        mode: AccessMode,
        site: usize,
        depth: usize,
    ) -> AcquireStep {
        let outcome = self.driver.request(task, lock, site, mode);
        // Mirrors `task_begin_acquire`: pending wake-ups scheduled while the
        // engine processed the request are broadcast before acting on it.
        let pending = self.driver.take_pending_wakeups();
        self.wake_all_each(&pending);
        match outcome {
            RequestOutcome::Granted | RequestOutcome::GrantedReentrant => {
                self.hash.push(&[TAG_OUTCOME, task as u64, lock as u64, 0]);
                if self.admissible_fresh(lock, task, mode) {
                    self.take(task, lock, mode, depth);
                    AcquireStep::Continue
                } else {
                    self.event(format!(
                        "t={} task={} waits lock={lock}",
                        self.now, self.scenario.tasks[task].name
                    ));
                    self.locks[lock].waiters.push_back((task, mode));
                    self.pending[task] = Pending::Take { lock, mode, depth };
                    self.block(task, State::LockWait);
                    AcquireStep::Blocked
                }
            }
            RequestOutcome::Yield { signature } => {
                self.hash.push(&[
                    TAG_OUTCOME,
                    task as u64,
                    lock as u64,
                    2 + signature.index() as u64,
                ]);
                self.event(format!(
                    "t={} task={} parked sig={} lock={lock}",
                    self.now,
                    self.scenario.tasks[task].name,
                    signature.index()
                ));
                let q = self.parked.entry(signature).or_default();
                if !q.contains(&task) {
                    q.push_back(task);
                }
                self.pending[task] = Pending::Retry {
                    lock,
                    mode,
                    site,
                    depth,
                };
                self.block(task, State::Parked);
                AcquireStep::Blocked
            }
            RequestOutcome::DeadlockDetected {
                signature,
                new_signature,
                ..
            } => {
                self.deadlocks += 1;
                self.hash.push(&[TAG_OUTCOME, task as u64, lock as u64, 1]);
                self.event(format!(
                    "t={} task={} DEADLOCK sig={} new={new_signature}",
                    self.now,
                    self.scenario.tasks[task].name,
                    signature.index()
                ));
                match self.cfg.on_deadlock {
                    OnDeadlock::Stop => AcquireStep::Terminal(RunOutcome::Deadlock {
                        signature,
                        new_signature,
                    }),
                    OnDeadlock::Refuse => {
                        self.driver.cancel_request(task, lock);
                        self.back_out_holds(task);
                        let wake = self.driver.unregister_owner(task);
                        self.wake_all_each(&wake);
                        self.state[task] = State::Refused;
                        self.hash.push(&[TAG_BACKOUT, task as u64, 0]);
                        AcquireStep::Blocked
                    }
                }
            }
        }
    }

    /// Owner-compatibility only (handoff admission).
    fn compatible(&self, lock: usize, task: usize, mode: AccessMode) -> bool {
        let l = &self.locks[lock];
        if l.owners.iter().any(|&(o, _)| o == task) {
            return true; // reentrant
        }
        match mode {
            AccessMode::Shared => l.owners.iter().all(|&(_, m)| m == AccessMode::Shared),
            AccessMode::Exclusive => l.owners.is_empty(),
        }
    }

    /// Fresh-arrival admission: owner compatibility, plus — under writer
    /// preference — no queued exclusive waiter may be overtaken by a new
    /// reader. This is the queuing policy the engine has no wait-for edge
    /// for (the modeling gap in ARCHITECTURE.md, "`ImmuneRwLock` and the
    /// multi-owner RAG").
    fn admissible_fresh(&self, lock: usize, task: usize, mode: AccessMode) -> bool {
        if !self.compatible(lock, task, mode) {
            return false;
        }
        if self.scenario.writer_preference && mode == AccessMode::Shared {
            return !self.locks[lock]
                .waiters
                .iter()
                .any(|&(_, m)| m == AccessMode::Exclusive);
        }
        true
    }

    /// Takes `lock` `depth` times over: once for an ordinary acquisition,
    /// more when the reacquisition after a `Wait` restores the recursion
    /// depth it released (the engine counts the re-entries itself).
    fn take(&mut self, task: usize, lock: usize, mode: AccessMode, depth: usize) {
        for _ in 0..depth {
            self.locks[lock].owners.push((task, mode));
            self.driver.acquired(task, lock);
            self.held[task].push(lock);
            self.hash.push(&[TAG_TAKE, task as u64, lock as u64]);
        }
        self.event(format!(
            "t={} task={} acquired lock={lock}",
            self.now, self.scenario.tasks[task].name
        ));
    }

    /// `Object.wait()`. Returns false — the op is skipped — when `task`
    /// does not own `lock`.
    fn wait(&mut self, task: usize, lock: usize, timeout: Option<u64>, site: usize) -> bool {
        let mut holds = self.locks[lock].owners.iter().filter(|&&(o, _)| o == task);
        let Some(&(_, mode)) = holds.next() else {
            return false;
        };
        let depth = 1 + holds.count();
        // Every hold goes back through the `released` hook (the engine
        // counts recursion itself; only the last release frees the lock).
        for _ in 0..depth {
            self.release(task, lock);
        }
        self.locks[lock].wait_set.push_back(task);
        let deadline = timeout.map(|t| self.now + t);
        if let Some(due) = deadline {
            self.seq += 1;
            self.heap.push(Reverse((due, self.seq, task)));
        }
        // Waking re-requests through the engine — the §3.2 path.
        self.pending[task] = Pending::Retry {
            lock,
            mode,
            site,
            depth,
        };
        self.state[task] = State::Waiting;
        self.hash.push(&[
            TAG_WAIT,
            task as u64,
            lock as u64,
            depth as u64,
            deadline.map_or(0, |d| d + 1),
        ]);
        self.event(format!(
            "t={} task={} waits on lock={lock} until {deadline:?}",
            self.now, self.scenario.tasks[task].name
        ));
        true
    }

    /// `Object.notify()` / `notifyAll()`; skipped when `task` does not own
    /// `lock`.
    fn notify(&mut self, task: usize, lock: usize, all: bool) {
        if !self.locks[lock].owners.iter().any(|&(o, _)| o == task) {
            return;
        }
        let mut woken = 0u64;
        while let Some(w) = self.locks[lock].wait_set.pop_front() {
            // A timed waiter leaves its deadline on the clock; drop it, or
            // it would cut short whatever the task sleeps on next.
            self.heap.retain(|&Reverse((_, _, t))| t != w);
            self.make_runnable(w);
            woken += 1;
            if !all {
                break;
            }
        }
        self.hash
            .push(&[TAG_NOTIFY, task as u64, lock as u64, woken]);
        self.event(format!(
            "t={} task={} notified {woken} on lock={lock}",
            self.now, self.scenario.tasks[task].name
        ));
    }

    /// A clock entry came due: a `Work` sleeper resumes, a timed `Wait`
    /// times out (leaves the wait set and goes to reacquire).
    fn wake_timer(&mut self, task: usize) {
        if self.state[task] == State::Waiting {
            if let Pending::Retry { lock, .. } = self.pending[task] {
                self.locks[lock].wait_set.retain(|&w| w != task);
            }
        }
        self.make_runnable(task);
    }

    /// Mirrors `MutexGuard::drop`: substrate first (drop the owner entry,
    /// pop admissible waiters), then the engine (whose release wakes one
    /// parked owner per signature), then hand the popped waiters their
    /// wake.
    fn release(&mut self, task: usize, lock: usize) {
        if let Some(i) = self.held[task].iter().rposition(|&l| l == lock) {
            self.held[task].remove(i);
        }
        let l = &mut self.locks[lock];
        if let Some(i) = l.owners.iter().rposition(|&(o, _)| o == task) {
            l.owners.remove(i);
        }
        let mut admitted = Vec::new();
        if l.owners.is_empty() {
            if let Some((w, m)) = l.waiters.pop_front() {
                admitted.push(w);
                if m == AccessMode::Shared {
                    // A reader handoff admits the contiguous reader run
                    // behind it (standard rwlock wake semantics).
                    while l
                        .waiters
                        .front()
                        .is_some_and(|&(_, m)| m == AccessMode::Shared)
                    {
                        let (w, _) = l.waiters.pop_front().expect("front checked");
                        admitted.push(w);
                    }
                }
            }
        }
        let mut wake = std::mem::take(&mut self.wake_buf);
        self.driver.released_into(task, lock, &mut wake);
        self.wake_one_each(&wake);
        self.wake_buf = wake;
        for w in admitted {
            self.make_runnable(w);
        }
        self.hash.push(&[TAG_RELEASE, task as u64, lock as u64]);
        self.event(format!(
            "t={} task={} released lock={lock}",
            self.now, self.scenario.tasks[task].name
        ));
    }

    fn finish(&mut self, task: usize) {
        // A script that ends holding locks drops them, as a terminating
        // thread does (well-formed scenarios hold none here).
        self.back_out_holds(task);
        let wake = self.driver.unregister_owner(task);
        self.wake_all_each(&wake);
        self.state[task] = State::Finished;
        self.hash.push(&[TAG_FINISH, task as u64]);
        self.event(format!(
            "t={} task={} finished",
            self.now, self.scenario.tasks[task].name
        ));
    }

    /// Fail-safe back-out (`restart`) or refusal death: withdraw the
    /// blocked request, leave any wait queue, drop every hold (waking
    /// waiters/parked owners), then restart the script from the top or
    /// die.
    fn back_out(&mut self, task: usize, restart: bool) {
        match self.pending[task] {
            Pending::Take { lock, .. } | Pending::Retry { lock, .. } => {
                self.driver.cancel_request(task, lock);
                self.locks[lock].waiters.retain(|&(w, _)| w != task);
            }
            Pending::Op => {}
        }
        for q in self.parked.values_mut() {
            q.retain(|&w| w != task);
        }
        self.parked.retain(|_, q| !q.is_empty());
        self.back_out_holds(task);
        let pending = self.driver.take_pending_wakeups();
        self.wake_all_each(&pending);
        self.hash
            .push(&[TAG_BACKOUT, task as u64, u64::from(restart)]);
        if restart {
            self.pc[task] = 0;
            self.pending[task] = Pending::Op;
            self.budget[task] -= 1;
            self.failsafe_retries += 1;
            self.make_runnable(task);
        } else {
            let wake = self.driver.unregister_owner(task);
            self.wake_all_each(&wake);
            self.state[task] = State::Refused;
        }
    }

    fn back_out_holds(&mut self, task: usize) {
        let held = self.held[task].clone();
        for lock in held {
            self.release(task, lock);
        }
    }

    /// Lowest-indexed blocked task with fail-safe budget remaining.
    fn failsafe_victim(&self) -> Option<usize> {
        (0..self.state.len()).find(|&t| {
            matches!(self.state[t], State::LockWait | State::Parked) && self.budget[t] > 0
        })
    }

    fn all_terminal(&self) -> bool {
        self.state
            .iter()
            .all(|s| matches!(s, State::Finished | State::Refused | State::Dormant))
    }

    fn block(&mut self, task: usize, state: State) {
        self.state[task] = state;
        let blocked_holding = (0..self.state.len())
            .filter(|&t| {
                matches!(self.state[t], State::LockWait | State::Parked) && !self.held[t].is_empty()
            })
            .count();
        self.max_blocked = self.max_blocked.max(blocked_holding);
    }

    fn make_runnable(&mut self, task: usize) {
        if matches!(self.state[task], State::Finished | State::Refused) {
            return;
        }
        self.state[task] = State::Runnable;
        if let Err(i) = self.runnable.binary_search(&task) {
            self.runnable.insert(i, task);
        }
    }

    /// Mirrors `notify_signatures_released`: one wake per signature, FIFO.
    fn wake_one_each(&mut self, sigs: &[SignatureId]) {
        for sig in sigs {
            if let Some(q) = self.parked.get_mut(sig) {
                if let Some(w) = q.pop_front() {
                    self.make_runnable(w);
                }
                if self.parked.get(sig).is_some_and(VecDeque::is_empty) {
                    self.parked.remove(sig);
                }
            }
        }
    }

    /// Mirrors `notify_signatures` (wake-all broadcasts).
    fn wake_all_each(&mut self, sigs: &[SignatureId]) {
        for sig in sigs {
            if let Some(q) = self.parked.remove(sig) {
                for w in q {
                    self.make_runnable(w);
                }
            }
        }
    }

    fn event(&mut self, line: String) {
        if self.cfg.record_events {
            self.events.push(line);
        }
    }
}

enum AcquireStep {
    Continue,
    Blocked,
    Terminal(RunOutcome),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{catalog, dining_philosophers, writer_preference_gap};

    fn first_schedule(scenario: &Scenario) -> RunReport {
        let mut driver = MonoDriver::new(scenario, History::new());
        let mut src = DecisionSource::replay(Vec::new());
        run_schedule(
            &mut driver,
            scenario,
            &mut src,
            &SimConfig::for_scenario(scenario),
        )
    }

    /// The default (lowest-index-first) schedule of every catalog scenario
    /// terminates: completes, or — for the gap scenario and unlucky seeds —
    /// resolves within its fail-safe budget; never fuel exhaustion.
    #[test]
    fn default_schedules_terminate() {
        for s in catalog() {
            let report = first_schedule(&s);
            assert_ne!(
                report.outcome,
                RunOutcome::FuelExhausted,
                "{}: burned all fuel",
                s.name
            );
        }
    }

    /// Same seed, same scenario ⇒ identical hash, decisions, and stats.
    #[test]
    fn random_schedules_are_deterministic_by_seed() {
        let s = dining_philosophers(3, 2);
        let cfg = SimConfig::for_scenario(&s);
        for seed in 0..20u64 {
            let mut d1 = MonoDriver::new(&s, History::new());
            let mut d2 = MonoDriver::new(&s, History::new());
            let mut s1 = DecisionSource::random(Gen::new(seed));
            let mut s2 = DecisionSource::random(Gen::new(seed));
            let a = run_schedule(&mut d1, &s, &mut s1, &cfg);
            let b = run_schedule(&mut d2, &s, &mut s2, &cfg);
            assert_eq!(a.sched_trace_hash, b.sched_trace_hash, "seed {seed}");
            assert_eq!(a.decisions, b.decisions, "seed {seed}");
            assert_eq!(a.outcome, b.outcome, "seed {seed}");
            assert_eq!(a.stats, b.stats, "seed {seed}");
        }
    }

    /// Replaying a run's recorded decisions reproduces its hash exactly —
    /// the seed + trace-hash replay guarantee.
    #[test]
    fn recorded_decisions_replay_exactly() {
        let s = dining_philosophers(3, 2);
        let cfg = SimConfig::for_scenario(&s);
        let mut driver = MonoDriver::new(&s, History::new());
        for seed in 0..20u64 {
            let mut src = DecisionSource::random(Gen::new(seed));
            let a = run_schedule(&mut driver, &s, &mut src, &cfg);
            let mut replay = DecisionSource::replay(a.decisions.clone());
            let b = run_schedule(&mut driver, &s, &mut replay, &cfg);
            assert_eq!(a.sched_trace_hash, b.sched_trace_hash, "seed {seed}");
            assert_eq!(a.outcome, b.outcome, "seed {seed}");
        }
    }

    /// Engine reuse is sound: a driver that has executed (and rolled back)
    /// many schedules behaves identically to a fresh one.
    #[test]
    fn reused_driver_matches_fresh_driver() {
        let s = dining_philosophers(3, 2);
        let cfg = SimConfig::for_scenario(&s);
        let mut reused = MonoDriver::new(&s, History::new());
        for seed in 0..40u64 {
            let mut fresh = MonoDriver::new(&s, History::new());
            let mut s1 = DecisionSource::random(Gen::new(seed * 31 + 7));
            let mut s2 = DecisionSource::random(Gen::new(seed * 31 + 7));
            let a = run_schedule(&mut reused, &s, &mut s1, &cfg);
            let b = run_schedule(&mut fresh, &s, &mut s2, &cfg);
            assert_eq!(a.sched_trace_hash, b.sched_trace_hash, "seed {seed}");
            assert_eq!(a.stats, b.stats, "seed {seed}");
            assert_eq!(a.history_text, b.history_text, "seed {seed}");
        }
    }

    /// The monolithic and sharded engines drive identical schedules to
    /// identical outcomes, hashes, and learned histories.
    #[test]
    fn mono_and_sharded_drivers_agree() {
        let s = dining_philosophers(3, 1);
        let cfg = SimConfig::for_scenario(&s);
        let mut mono = MonoDriver::new(&s, History::new());
        let mut sharded = ShardedDriver::new(&s, 4, History::new());
        for seed in 0..30u64 {
            let mut s1 = DecisionSource::random(Gen::new(seed));
            let mut s2 = DecisionSource::random(Gen::new(seed));
            let a = run_schedule(&mut mono, &s, &mut s1, &cfg);
            let b = run_schedule(&mut sharded, &s, &mut s2, &cfg);
            assert_eq!(a.sched_trace_hash, b.sched_trace_hash, "seed {seed}");
            assert_eq!(a.outcome, b.outcome, "seed {seed}");
            assert_eq!(a.history_text, b.history_text, "seed {seed}");
        }
    }

    fn script(name: &str, ops: Vec<SimOp>) -> crate::scenario::TaskScript {
        crate::scenario::TaskScript {
            name: name.into(),
            ops,
        }
    }

    fn acquire(lock: usize, site: usize) -> SimOp {
        SimOp::Acquire {
            lock,
            mode: AccessMode::Exclusive,
            site,
        }
    }

    fn scenario(
        name: &str,
        locks: usize,
        sites: usize,
        tasks: Vec<crate::scenario::TaskScript>,
    ) -> Scenario {
        Scenario {
            name: name.into(),
            locks,
            sites: (0..sites)
                .map(|i| crate::scenario::site("test.site", i as u32 + 1))
                .collect(),
            tasks,
            writer_preference: false,
            failsafe_budget: 0,
        }
    }

    /// A timed `Wait` that is notified early must not leave its deadline on
    /// the clock: `wait(50)` at t=0, notified at t=5, then `Work{100}` — the
    /// task resumes at t=105, not at the stale t=50.
    #[test]
    fn a_notified_wait_leaves_no_stale_timer() {
        let s = scenario(
            "stale-timer",
            1,
            3,
            vec![
                script(
                    "waiter",
                    vec![
                        acquire(0, 0),
                        SimOp::Wait {
                            lock: 0,
                            timeout: Some(50),
                            site: 1,
                        },
                        SimOp::Release { lock: 0 },
                        SimOp::Work { cost: 100 },
                    ],
                ),
                script(
                    "notifier",
                    vec![
                        SimOp::Work { cost: 5 },
                        acquire(0, 2),
                        SimOp::Notify {
                            lock: 0,
                            all: false,
                        },
                        SimOp::Release { lock: 0 },
                    ],
                ),
            ],
        );
        let cfg = SimConfig {
            record_events: true,
            ..SimConfig::for_scenario(&s)
        };
        let mut driver = MonoDriver::new(&s, History::new());
        let run = run_schedule(&mut driver, &s, &mut DecisionSource::replay(vec![]), &cfg);
        assert_eq!(run.outcome, RunOutcome::Completed, "{:?}", run.events);
        assert!(
            run.events
                .contains(&"t=105 task=waiter finished".to_string()),
            "{:?}",
            run.events
        );
        assert_eq!(run.stats.acquisitions, 3, "enter, reacquire, notifier");
        let again = run_schedule(
            &mut driver,
            &s,
            &mut DecisionSource::replay(run.decisions.clone()),
            &cfg,
        );
        assert_eq!(again.sched_trace_hash, run.sched_trace_hash);
    }

    /// The §3.2 shape in the DSL: `holder` waits on lock 0 while holding
    /// lock 1, `inverter` takes 0 then 1, `notifier` ends the wait early on
    /// some schedules. Spawned from a main task, so every new op is in play.
    fn wait_inversion() -> Scenario {
        scenario(
            "wait-inversion",
            2,
            6,
            vec![
                script(
                    "main",
                    vec![
                        SimOp::Spawn { task: 1 },
                        SimOp::Spawn { task: 2 },
                        SimOp::Spawn { task: 3 },
                    ],
                ),
                script(
                    "holder",
                    vec![
                        acquire(0, 0),
                        acquire(0, 0),
                        acquire(1, 1),
                        SimOp::Wait {
                            lock: 0,
                            timeout: Some(3),
                            site: 2,
                        },
                        SimOp::Release { lock: 1 },
                        SimOp::Release { lock: 0 },
                        SimOp::Release { lock: 0 },
                    ],
                ),
                script(
                    "inverter",
                    vec![
                        SimOp::Compute { cost: 2 },
                        acquire(0, 3),
                        SimOp::Compute { cost: 30 },
                        acquire(1, 4),
                        SimOp::Release { lock: 1 },
                        SimOp::Release { lock: 0 },
                    ],
                ),
                script(
                    "notifier",
                    vec![
                        SimOp::Compute { cost: 1 },
                        acquire(0, 5),
                        SimOp::Notify { lock: 0, all: true },
                        SimOp::Release { lock: 0 },
                    ],
                ),
            ],
        )
    }

    /// The monolithic and sharded drivers agree on a scenario that spawns,
    /// waits, notifies and computes — and the schedules do exercise the
    /// reacquisition both ways (some deadlock there, some complete).
    #[test]
    fn mono_and_sharded_drivers_agree_on_wait_notify() {
        let s = wait_inversion();
        let cfg = SimConfig::for_scenario(&s);
        let mut mono = MonoDriver::new(&s, History::new());
        let mut sharded = ShardedDriver::new(&s, 4, History::new());
        let (mut deadlocked, mut completed) = (0, 0);
        for seed in 0..30u64 {
            let a = run_schedule(
                &mut mono,
                &s,
                &mut DecisionSource::random(Gen::new(seed)),
                &cfg,
            );
            let b = run_schedule(
                &mut sharded,
                &s,
                &mut DecisionSource::random(Gen::new(seed)),
                &cfg,
            );
            assert_eq!(a.sched_trace_hash, b.sched_trace_hash, "seed {seed}");
            assert_eq!(a.outcome, b.outcome, "seed {seed}");
            assert_eq!(a.history_text, b.history_text, "seed {seed}");
            match a.outcome {
                RunOutcome::Deadlock { .. } => deadlocked += 1,
                RunOutcome::Completed => {
                    // Re-entered twice, released by the wait, restored by
                    // the reacquisition: the engine's hold balance closes.
                    assert_eq!(a.stats.reentrant_balance(), 0, "seed {seed}");
                    completed += 1;
                }
                other => panic!("seed {seed}: {other:?}"),
            }
        }
        assert!(
            deadlocked > 0 && completed > 0,
            "{deadlocked} / {completed}"
        );
    }

    /// `Wait` and `Notify` on a lock the task does not own are skipped, and
    /// a dormant task nobody spawns never runs.
    #[test]
    fn unowned_wait_and_notify_are_skipped() {
        let s = scenario(
            "unowned",
            1,
            1,
            vec![
                script(
                    "main",
                    vec![
                        SimOp::Wait {
                            lock: 0,
                            timeout: None,
                            site: 0,
                        },
                        SimOp::Notify { lock: 0, all: true },
                    ],
                ),
                script("never", vec![acquire(0, 0), SimOp::Spawn { task: 1 }]),
            ],
        );
        let run = first_schedule(&s);
        assert_eq!(run.outcome, RunOutcome::Completed);
        assert_eq!((run.executed_ops, run.stats.requests), (2, 0));
    }

    /// The writer-preference-gap scenario stalls without a detection and
    /// resolves through the fail-safe under its default schedule.
    #[test]
    fn gap_scenario_resolves_via_failsafe_on_default_schedule() {
        let s = writer_preference_gap();
        let report = first_schedule(&s);
        assert_eq!(report.outcome, RunOutcome::Completed, "{:?}", report.events);
        assert_eq!(report.deadlocks, 0);
        assert!(report.failsafe_retries > 0);
        assert_eq!(report.stats.deadlocks_detected, 0);
    }
}
