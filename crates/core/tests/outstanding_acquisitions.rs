//! An owner with several outstanding acquisitions (a task polling two lock
//! futures at once, as `join!` does) is blocked on each of them. Under the
//! AND model a cycle through any one of those waits is a deadlock, and the
//! signature records the position of the wait the cycle went through.
//! Retiring such an owner between grant and acquisition leaves no occupant
//! behind in a position queue.
//!
//! Both scripts run on a [`Dimmunix`] and on a [`ShardedDimmunix`] with 1
//! and 4 shards; on 4 shards the two locks live on different shards.

use dimmunix_core::{
    CallStack, Config, Dimmunix, Frame, LockId, OwnerId, RequestOutcome, ShardedDimmunix,
    SignaturePair, TaskId, ThreadId,
};

fn site(line: u32) -> CallStack {
    CallStack::single(Frame::new(format!("site{line}"), "join.rs", line))
}

/// The engines under test behind one interface.
enum Engine {
    Mono(Box<Dimmunix>),
    Sharded(ShardedDimmunix),
}

impl Engine {
    fn request(&mut self, t: OwnerId, l: LockId, at: u32) -> RequestOutcome {
        match self {
            Engine::Mono(e) => e.request(t, l, &site(at)),
            Engine::Sharded(e) => e.request(t, l, &site(at)),
        }
    }

    fn acquired(&mut self, t: OwnerId, l: LockId) {
        match self {
            Engine::Mono(e) => e.acquired(t, l),
            Engine::Sharded(e) => e.acquired(t, l),
        }
    }

    fn unregister_owner(&mut self, t: OwnerId) {
        match self {
            Engine::Mono(e) => drop(e.unregister_owner(t)),
            Engine::Sharded(e) => drop(e.unregister_owner(t)),
        }
    }

    fn deadlocks_detected(&self) -> u64 {
        match self {
            Engine::Mono(e) => e.stats().deadlocks_detected,
            Engine::Sharded(e) => e.stats().deadlocks_detected,
        }
    }

    /// Occupants of the position interned for site `at`, over every shard.
    fn occupants(&self, at: u32) -> usize {
        let engines: Vec<&Dimmunix> = match self {
            Engine::Mono(e) => vec![e],
            Engine::Sharded(e) => (0..e.shard_count()).map(|i| e.shard(i)).collect(),
        };
        engines
            .iter()
            .filter_map(|e| e.positions().lookup(&site(at)).map(|p| (e, p)))
            .map(|(e, p)| e.positions().get(p).map_or(0, |p| p.queue().len()))
            .sum()
    }
}

/// Two locks and the engines: a monolithic one, and sharded ones with 1 and
/// 4 shards. The locks are chosen so that on 4 shards `l1` lives on shard 1
/// and `l2` on shard 2.
fn engines() -> (LockId, LockId, Vec<(&'static str, Engine)>) {
    let four = ShardedDimmunix::new(Config::default(), 4);
    let on = |shard| {
        (1..)
            .map(LockId::new)
            .find(|l| four.shard_of(*l) == shard)
            .expect("some lock hashes to every shard")
    };
    let (l1, l2) = (on(1), on(2));
    let engines = vec![
        ("Dimmunix", Engine::Mono(Box::default())),
        (
            "ShardedDimmunix(1)",
            Engine::Sharded(ShardedDimmunix::new(Config::default(), 1)),
        ),
        ("ShardedDimmunix(4)", Engine::Sharded(four)),
    ];
    (l1, l2, engines)
}

/// Thread U holds l2; task T requests l1 and l2 (both granted) and acquires
/// l1, so it still waits for l2; U then requests l1, which T holds. That is
/// a deadlock through T's wait for l2, and its signature says so: T's pair
/// is its acquisition of l1 and its request for l2.
#[test]
fn a_cycle_through_a_second_outstanding_wait_is_detected() {
    let (l1, l2, engines) = engines();
    let (u, t) = (
        OwnerId::from(ThreadId::new(1)),
        OwnerId::from(TaskId::new(2)),
    );
    for (name, mut engine) in engines {
        assert!(engine.request(u, l2, 10).is_granted(), "{name}");
        engine.acquired(u, l2);
        assert!(engine.request(t, l1, 20).is_granted(), "{name}");
        assert!(engine.request(t, l2, 21).is_granted(), "{name}");
        engine.acquired(t, l1);
        let RequestOutcome::DeadlockDetected {
            signature, owners, ..
        } = engine.request(u, l1, 11)
        else {
            panic!("{name}: the cycle through T's wait for l2 went unseen");
        };
        assert_eq!(engine.deadlocks_detected(), 1, "{name}");
        assert_eq!(owners.len(), 2, "{name}");
        let history = match &engine {
            Engine::Mono(e) => e.history().clone(),
            Engine::Sharded(e) => e.history().clone(),
        };
        let pairs = history.get(signature).expect("recorded").pairs();
        for (outer, inner) in [(20, 21), (10, 11)] {
            assert!(
                pairs.contains(&SignaturePair::new(site(outer), site(inner))),
                "{name}: no pair ({outer}, {inner}) in {pairs:?}"
            );
        }
    }
}

/// Task T requests l1 and l2 (both granted), acquires l1 and is retired
/// before it acquires l2: its grant on l2 leaves no occupant behind.
#[test]
fn retiring_an_owner_between_grant_and_acquisition_vacates_its_slot() {
    let (l1, l2, engines) = engines();
    let t = OwnerId::from(TaskId::new(2));
    for (name, mut engine) in engines {
        assert!(engine.request(t, l1, 20).is_granted(), "{name}");
        assert!(engine.request(t, l2, 21).is_granted(), "{name}");
        engine.acquired(t, l1);
        assert_eq!(
            (engine.occupants(20), engine.occupants(21)),
            (1, 1),
            "{name}"
        );
        engine.unregister_owner(t);
        assert_eq!(
            (engine.occupants(20), engine.occupants(21)),
            (0, 0),
            "{name}"
        );
    }
}
