//! **Engines ≡ reference model on join-shaped scripts.** Drives random
//! scripts in which owners keep up to three acquisitions outstanding at
//! once, cancel some, and are retired between grant and acquisition,
//! through a [`Dimmunix`] and through [`ShardedDimmunix`] engines with 1 and
//! 3 shards, and through `dimmunix-testkit`'s reference model, which shares
//! no code with the engine's RAG. After every step each engine must agree
//! with the model on the request's outcome, on the number of deadlocks
//! detected so far (an acquisition can close a cycle too), on every owner's
//! outstanding acquisitions, and on the occupancy of every position queue.

use dimmunix_core::{
    AcquisitionState, CallStack, Config, Dimmunix, Frame, LockId, OwnerId, RequestOutcome,
    ShardedDimmunix, TaskId,
};
use dimmunix_testkit::reference::{Model, Step, Verdict};
use dimmunix_testkit::Gen;
use std::collections::BTreeMap;

const CASES: u64 = 200;
const OWNERS: usize = 4;
const LOCKS: usize = 5;
const MAX_OUTSTANDING: usize = 3;

fn site(line: u32) -> CallStack {
    CallStack::single(Frame::new("reference", "reference_model.rs", line))
}

fn owner(i: usize) -> OwnerId {
    OwnerId::from(TaskId::new(i as u64))
}

fn lock(i: usize) -> LockId {
    LockId::new(i as u64 + 1)
}

/// The engines under test behind one interface.
enum Engine {
    Mono(Box<Dimmunix>),
    Sharded(ShardedDimmunix),
}

impl Engine {
    fn shards(&self) -> Vec<&Dimmunix> {
        match self {
            Engine::Mono(e) => vec![e],
            Engine::Sharded(e) => (0..e.shard_count()).map(|i| e.shard(i)).collect(),
        }
    }

    /// Applies `step`; a request answers with its verdict.
    fn apply(&mut self, step: Step) -> Option<Verdict> {
        macro_rules! call {
            ($e:ident => $call:expr) => {
                match self {
                    Engine::Mono($e) => $call,
                    Engine::Sharded($e) => $call,
                }
            };
        }
        let outcome = match step {
            Step::Request {
                owner: o,
                lock: l,
                site: s,
            } => {
                call!(e => e.request(owner(o), lock(l), &site(s)))
            }
            Step::Acquire { owner: o, lock: l } => {
                call!(e => e.acquired(owner(o), lock(l)));
                return None;
            }
            Step::Release { owner: o, lock: l } => {
                call!(e => drop(e.released(owner(o), lock(l))));
                return None;
            }
            Step::Cancel { owner: o, lock: l } => {
                call!(e => e.cancel_request(owner(o), lock(l)));
                return None;
            }
            Step::Retire { owner: o } => {
                call!(e => drop(e.unregister_owner(owner(o))));
                return None;
            }
        };
        Some(match outcome {
            RequestOutcome::Granted => Verdict::Granted,
            RequestOutcome::DeadlockDetected { .. } => Verdict::Deadlock,
            other => panic!("no reentrant request or history match in these scripts: {other:?}"),
        })
    }

    /// `o`'s outstanding acquisitions over every shard, by lock: the site
    /// line and whether each is granted.
    fn outstanding(&self, o: usize) -> BTreeMap<usize, (u32, bool)> {
        let mut out = BTreeMap::new();
        for s in self.shards() {
            for a in s.rag().outstanding(owner(o)) {
                let line = s
                    .positions()
                    .get(a.pos)
                    .and_then(|p| p.stack().top())
                    .map(Frame::line);
                let granted = match a.state {
                    AcquisitionState::Granted => true,
                    AcquisitionState::Requested => false,
                    AcquisitionState::Parked(_) => panic!("nothing parks in these scripts"),
                };
                let lock = a.lock.index() as usize - 1;
                assert!(out
                    .insert(lock, (line.expect("a script site"), granted))
                    .is_none());
            }
        }
        out
    }

    fn deadlocks_detected(&self) -> u64 {
        match self {
            Engine::Mono(e) => e.stats().deadlocks_detected,
            Engine::Sharded(e) => e.stats().deadlocks_detected,
        }
    }

    /// Occupants of every position queue, by site line, over every shard.
    fn occupancy(&self) -> BTreeMap<u32, usize> {
        let mut out = BTreeMap::new();
        for s in self.shards() {
            for p in s.positions().iter().filter(|p| !p.queue().is_empty()) {
                let line = p.stack().top().map_or(0, Frame::line);
                *out.entry(line).or_insert(0) += p.queue().len();
            }
        }
        out
    }
}

#[test]
fn prop_engines_agree_with_the_reference_model_on_join_scripts() {
    let (mut steps, mut deadlocks, mut retired_grants, mut joins) = (0usize, 0, 0, 0);
    let mut acquisition_detections = 0;
    for seed in 0..CASES {
        let mut g = Gen::new(seed ^ 0x101d_5c1e);
        let mut model = Model::new(OWNERS, LOCKS, MAX_OUTSTANDING);
        let mut engines = [
            ("Dimmunix", Engine::Mono(Box::default())),
            (
                "ShardedDimmunix(1)",
                Engine::Sharded(ShardedDimmunix::new(Config::default(), 1)),
            ),
            (
                "ShardedDimmunix(3)",
                Engine::Sharded(ShardedDimmunix::new(Config::default(), 3)),
            ),
        ];
        for step_no in 0..g.range(40, 80) {
            let step = model.plan(&mut g);
            if let Step::Retire { owner } = step {
                retired_grants += model
                    .outstanding(owner)
                    .values()
                    .filter(|r| r.granted)
                    .count();
            }
            let detected = model.detections();
            let verdict = model.apply(step);
            if let Step::Acquire { .. } = step {
                acquisition_detections += model.detections() - detected;
            }
            steps += 1;
            deadlocks += usize::from(verdict == Some(Verdict::Deadlock));
            joins += (0..OWNERS)
                .filter(|&o| model.outstanding(o).len() > 1)
                .count();
            let expected: Vec<BTreeMap<usize, (u32, bool)>> = (0..OWNERS)
                .map(|o| {
                    let reqs = model.outstanding(o).iter();
                    reqs.map(|(&l, r)| (l, (r.site, r.granted))).collect()
                })
                .collect();
            for (name, engine) in &mut engines {
                let ctx = format!("seed {seed} step {step_no} {step:?} ({name})");
                assert_eq!(engine.apply(step), verdict, "{ctx}: outcome");
                assert_eq!(
                    engine.deadlocks_detected(),
                    model.detections(),
                    "{ctx}: deadlocks detected"
                );
                for (o, want) in expected.iter().enumerate() {
                    assert_eq!(
                        &engine.outstanding(o),
                        want,
                        "{ctx}: owner {o}'s acquisitions"
                    );
                }
                assert_eq!(
                    engine.occupancy(),
                    model.occupancy(),
                    "{ctx}: queue occupancy"
                );
            }
        }
    }
    assert!(steps >= 10_000, "{steps} steps");
    // The scripts reach what they are for.
    assert!(
        deadlocks >= 100 && retired_grants >= 100 && joins >= 1_000,
        "{deadlocks} deadlocks, {retired_grants} retired grants, {joins} joins"
    );
    assert!(
        acquisition_detections >= 10,
        "{acquisition_detections} acquisitions closed a cycle"
    );
}
