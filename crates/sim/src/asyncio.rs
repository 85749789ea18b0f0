//! Scenario execution on the *real* asyncio substrate.
//!
//! [`run_async`] runs a [`Scenario`] as actual tasks on the deterministic
//! single-threaded [`Executor`] with `asyncio::RwLock`s over a
//! `DimmunixRuntime` — the same substrate the sync/async equivalence suite
//! validates — serialized by a turnstile so that a [`DecisionSource`]
//! chooses which parked task runs next. `Work` and `Compute` ops become one
//! turnstile pass (the executor has no clock; interleaving freedom is what
//! matters), and every scenario site — one frame deep, as
//! [`crate::scenario::site`] builds them — maps to an [`AcquisitionSite`]
//! with the *same* scope/file/line the engine drivers show as a
//! [`CallStack`] frame — so a history learned by the virtual-time fuzzer
//! parses and textually matches on this substrate, and vice versa. The
//! substrate has no condition variable and spawns every task up front, so
//! scenarios with `Wait`, `Notify` or `Spawn` ops are rejected.
//!
//! This is the cross-substrate leg of the explorer: a deadlock found by
//! [`crate::fuzz::fuzz`] in virtual time is confirmed against the real
//! task runtime, and an immune replay here exercises the production yield
//! and wake paths rather than the simulator's model of them.
//!
//! [`CallStack`]: dimmunix_core::CallStack

use crate::scenario::{Scenario, SimOp};
use crate::sim::{fnv1a, DecisionSource};
use dimmunix_core::AccessMode;
use dimmunix_core::{History, Stats};
use dimmunix_rt::asyncio::{Executor, RwLock, RwLockReadGuard, RwLockWriteGuard};
use dimmunix_rt::{AcquisitionSite, DeadlockPolicy, DimmunixRuntime, LockError};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Mutex;
use std::task::{Context, Poll, Waker};

/// `AcquisitionSite` names its scope and file by `&'static str`; scenario
/// sites are owned call stacks. Each distinct string is leaked once per
/// process.
fn leak_once(s: &str) -> &'static str {
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut set = INTERNED.lock().expect("interner poisoned");
    if let Some(&interned) = set.get(s) {
        return interned;
    }
    let leaked: &'static str = Box::leak(s.into());
    set.insert(leaked);
    leaked
}

/// What one substrate run produced.
#[derive(Clone, Debug)]
pub struct AsyncRunReport {
    /// Per-task: ran its whole script.
    pub completed: Vec<bool>,
    /// Per-task: died on the `Error`-policy refusal path.
    pub dead: Vec<bool>,
    /// FNV-1a over decisions and task events (the substrate analogue of
    /// the simulator's `sched_trace_hash`).
    pub sched_trace_hash: u64,
    /// Decisions consumed at >1-grantable points.
    pub decisions: Vec<u32>,
    /// Event lines, in execution order.
    pub events: Vec<String>,
    /// Learned history, textual form.
    pub history_text: String,
    /// Engine counters.
    pub stats: Stats,
}

struct Coord {
    at_turn: Vec<bool>,
    granted: Vec<bool>,
    wakers: Vec<Option<Waker>>,
    events: Vec<String>,
    completed: Vec<bool>,
    dead: Vec<bool>,
}

struct Turn {
    coord: Rc<RefCell<Coord>>,
    me: usize,
}

impl Future for Turn {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut c = self.coord.borrow_mut();
        if c.granted[self.me] {
            c.granted[self.me] = false;
            c.at_turn[self.me] = false;
            Poll::Ready(())
        } else {
            c.at_turn[self.me] = true;
            c.wakers[self.me] = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Held only for its `Drop` (the release protocol); never read.
enum Guard<'a> {
    #[allow(dead_code)]
    Read(RwLockReadGuard<'a, u64>),
    #[allow(dead_code)]
    Write(RwLockWriteGuard<'a, u64>),
}

/// Runs `scenario` on the asyncio substrate with `history` pre-seeded,
/// scheduling via `source`. Single-sharded runtime, `Error` deadlock
/// policy: a detected cycle refuses the victim, which drops its guards and
/// dies — everyone else completes.
///
/// # Panics
/// If the scenario uses `Wait`, `Notify` or `Spawn` (no condvar, no dormant
/// tasks on this substrate) or a site deeper than one frame.
pub fn run_async(
    scenario: &Scenario,
    history: History,
    source: &mut DecisionSource,
) -> AsyncRunReport {
    let n = scenario.tasks.len();
    let unsupported = |op: &SimOp| {
        matches!(
            op,
            SimOp::Wait { .. } | SimOp::Notify { .. } | SimOp::Spawn { .. }
        )
    };
    assert!(
        !scenario.tasks.iter().flat_map(|t| &t.ops).any(unsupported),
        "{}: the asyncio substrate has no wait/notify/spawn",
        scenario.name
    );
    let rt = DimmunixRuntime::builder()
        .shards(1)
        .deadlock_policy(DeadlockPolicy::Error)
        .history(history)
        .build();
    let ex = Executor::new_in(&rt, 2);
    let coord = Rc::new(RefCell::new(Coord {
        at_turn: vec![false; n],
        granted: vec![false; n],
        wakers: vec![None; n],
        events: Vec::new(),
        completed: vec![false; n],
        dead: vec![false; n],
    }));
    let locks: Rc<Vec<RwLock<u64>>> = Rc::new(
        (0..scenario.locks)
            .map(|_| RwLock::new_in(&rt, 0))
            .collect(),
    );
    let sites: Vec<AcquisitionSite> = scenario
        .sites
        .iter()
        .map(|s| match s.frames() {
            [f] => AcquisitionSite::new(leak_once(f.method()), leak_once(f.file()), f.line()),
            _ => panic!("{}: asyncio sites are one frame deep", scenario.name),
        })
        .collect();

    for (t, task) in scenario.tasks.iter().enumerate() {
        let ops = task.ops.clone();
        let name = task.name.clone();
        let coord = Rc::clone(&coord);
        let locks = Rc::clone(&locks);
        let sites = sites.clone();
        ex.spawn(async move {
            let locks = &*locks;
            let mut held: Vec<(usize, Guard<'_>)> = Vec::new();
            for (i, &op) in ops.iter().enumerate() {
                Turn {
                    coord: Rc::clone(&coord),
                    me: t,
                }
                .await;
                match op {
                    SimOp::Work { .. } | SimOp::Compute { .. } => {
                        // The executor has no virtual clock; a work op is
                        // one extra pass through the turnstile.
                    }
                    SimOp::Wait { .. } | SimOp::Notify { .. } | SimOp::Spawn { .. } => {
                        unreachable!("rejected before any task was spawned")
                    }
                    SimOp::Acquire { lock, mode, site } => {
                        let result = match mode {
                            AccessMode::Shared => {
                                locks[lock].read_at(sites[site]).await.map(Guard::Read)
                            }
                            AccessMode::Exclusive => {
                                locks[lock].write_at(sites[site]).await.map(Guard::Write)
                            }
                        };
                        match result {
                            Ok(g) => {
                                coord
                                    .borrow_mut()
                                    .events
                                    .push(format!("{name} op={i} acquired lock={lock}"));
                                held.push((lock, g));
                            }
                            Err(LockError::WouldDeadlock { .. }) => {
                                held.clear();
                                let mut c = coord.borrow_mut();
                                c.events.push(format!("{name} op={i} refused lock={lock}"));
                                c.dead[t] = true;
                                return;
                            }
                            Err(e) => panic!("unexpected lock error: {e}"),
                        }
                    }
                    SimOp::Release { lock } => {
                        let idx = held
                            .iter()
                            .rposition(|&(l, _)| l == lock)
                            .expect("scenario releases only held locks");
                        held.remove(idx);
                        coord
                            .borrow_mut()
                            .events
                            .push(format!("{name} op={i} released lock={lock}"));
                    }
                }
            }
            coord.borrow_mut().completed[t] = true;
        });
    }
    // Park every task at its first turnstile.
    ex.run();

    let mut decisions = Vec::new();
    loop {
        let turnable: Vec<usize> = (0..n).filter(|&t| coord.borrow().at_turn[t]).collect();
        if turnable.is_empty() {
            break;
        }
        let idx = if turnable.len() == 1 {
            0
        } else {
            let d = source.next_decision(turnable.len());
            decisions.push(d);
            d as usize
        };
        let t = turnable[idx];
        let waker = {
            let mut c = coord.borrow_mut();
            c.granted[t] = true;
            c.wakers[t].take()
        };
        if let Some(w) = waker {
            w.wake();
        }
        ex.run();
    }

    let c = coord.borrow();
    let mut blob = String::new();
    for d in &decisions {
        blob.push_str(&format!("d{d};"));
    }
    for e in &c.events {
        blob.push_str(e);
        blob.push('\n');
    }
    AsyncRunReport {
        completed: c.completed.clone(),
        dead: c.dead.clone(),
        sched_trace_hash: fnv1a(blob.as_bytes()),
        decisions,
        events: c.events.clone(),
        history_text: rt.history().to_text(),
        stats: rt.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{async_server, dining_philosophers};
    use crate::sim::DecisionSource;
    use dimmunix_testkit::Gen;

    /// The default schedule completes every handler without detection.
    #[test]
    fn default_schedule_completes() {
        let s = async_server(6, 3, 3, 0xa51c);
        let mut src = DecisionSource::replay(Vec::new());
        let run = run_async(&s, History::new(), &mut src);
        assert!(run.completed.iter().all(|&c| c), "{:?}", run.events);
        assert_eq!(run.stats.deadlocks_detected, 0);
    }

    /// Same seed ⇒ byte-identical events and hash on the real substrate.
    #[test]
    fn substrate_runs_are_deterministic_by_seed() {
        let s = dining_philosophers(3, 1);
        for seed in 0..10u64 {
            let mut s1 = DecisionSource::random(Gen::new(seed));
            let mut s2 = DecisionSource::random(Gen::new(seed));
            let a = run_async(&s, History::new(), &mut s1);
            let b = run_async(&s, History::new(), &mut s2);
            assert_eq!(a.sched_trace_hash, b.sched_trace_hash, "seed {seed}");
            assert_eq!(a.events, b.events, "seed {seed}");
            assert_eq!(a.history_text, b.history_text, "seed {seed}");
        }
    }

    /// Random substrate schedules eventually hit the philosophers cycle;
    /// the `Error` policy refuses the victim and everyone else completes.
    #[test]
    fn substrate_finds_the_cycle_under_random_schedules() {
        let s = dining_philosophers(3, 1);
        let mut detected = 0u64;
        for seed in 0..200u64 {
            let mut src = DecisionSource::random(Gen::new(seed));
            let run = run_async(&s, History::new(), &mut src);
            detected += run.stats.deadlocks_detected;
            if run.stats.deadlocks_detected > 0 {
                assert!(run.dead.iter().any(|&d| d), "victim must die");
                break;
            }
        }
        assert!(detected > 0, "no random substrate schedule hit the cycle");
    }
}
