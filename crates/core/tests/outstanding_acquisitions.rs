//! An owner with several outstanding acquisitions (a task polling two lock
//! futures at once, as `join!` does) is blocked on each of them. Under the
//! AND model a cycle through any one of those waits is a deadlock, and the
//! signature records the position of the wait the cycle went through.
//! An acquisition can close such a cycle too, and is then detected as a
//! request that closes one is. Retiring such an owner between grant and
//! acquisition leaves no occupant behind in a position queue.
//!
//! Both scripts run on a [`Dimmunix`] and on a [`ShardedDimmunix`] with 1
//! and 4 shards; on 4 shards the two locks live on different shards.

use dimmunix_core::{
    CallStack, Config, Dimmunix, Frame, History, LockId, OwnerId, RequestOutcome, ShardedDimmunix,
    Signature, SignatureKind, SignaturePair, TaskId, ThreadId,
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

    fn released(&mut self, t: OwnerId, l: LockId) {
        match self {
            Engine::Mono(e) => drop(e.released(t, l)),
            Engine::Sharded(e) => drop(e.released(t, l)),
        }
    }

    fn history(&self) -> dimmunix_core::History {
        match self {
            Engine::Mono(e) => e.history().clone(),
            Engine::Sharded(e) => e.history().clone(),
        }
    }

    fn unregister_owner(&mut self, t: OwnerId) {
        match self {
            Engine::Mono(e) => drop(e.unregister_owner(t)),
            Engine::Sharded(e) => drop(e.unregister_owner(t)),
        }
    }

    fn deadlocks_detected(&self) -> u64 {
        self.stats().deadlocks_detected
    }

    fn stats(&self) -> dimmunix_core::Stats {
        match self {
            Engine::Mono(e) => *e.stats(),
            Engine::Sharded(e) => e.stats(),
        }
    }

    fn take_pending_wakeups(&mut self) -> Vec<dimmunix_core::SignatureId> {
        match self {
            Engine::Mono(e) => e.take_pending_wakeups(),
            Engine::Sharded(e) => e.take_pending_wakeups(),
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
    engines_with(History::new())
}

/// [`engines`], each starting from `history`.
fn engines_with(history: History) -> (LockId, LockId, Vec<(&'static str, Engine)>) {
    let four = ShardedDimmunix::with_history(Config::default(), 4, history.clone());
    let on = |shard| {
        (1..)
            .map(LockId::new)
            .find(|l| four.shard_of(*l) == shard)
            .expect("some lock hashes to every shard")
    };
    let (l1, l2) = (on(1), on(2));
    let engines = vec![
        (
            "Dimmunix",
            Engine::Mono(Box::new(Dimmunix::with_history(
                Config::default(),
                history.clone(),
            ))),
        ),
        (
            "ShardedDimmunix(1)",
            Engine::Sharded(ShardedDimmunix::with_history(Config::default(), 1, history)),
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
        let history = engine.history();
        let pairs = history.get(signature).expect("recorded").pairs();
        for (outer, inner) in [(20, 21), (10, 11)] {
            assert!(
                pairs.contains(&SignaturePair::new(site(outer), site(inner))),
                "{name}: no pair ({outer}, {inner}) in {pairs:?}"
            );
        }
    }
}

/// U holds l2 and H holds l1; task T requests l1 and l2 (both granted, T
/// waits for H and for U). U's request for l1 is granted too: H, not T,
/// holds it. H releases, and T's acquisition of l1 closes the cycle — U
/// waits for T, T for U — with no request of either to follow. The
/// acquisition completes and the cycle is recorded: pairs (20, 21) for T
/// and (10, 11) for U.
#[test]
fn an_acquisition_that_closes_a_cycle_is_detected() {
    let (l1, l2, engines) = engines();
    let (u, t, h) = (
        OwnerId::from(ThreadId::new(1)),
        OwnerId::from(TaskId::new(2)),
        OwnerId::from(ThreadId::new(3)),
    );
    for (name, mut engine) in engines {
        assert!(engine.request(u, l2, 10).is_granted(), "{name}");
        engine.acquired(u, l2);
        assert!(engine.request(h, l1, 30).is_granted(), "{name}");
        engine.acquired(h, l1);
        assert!(engine.request(t, l1, 20).is_granted(), "{name}");
        assert!(engine.request(t, l2, 21).is_granted(), "{name}");
        assert!(engine.request(u, l1, 11).is_granted(), "{name}");
        engine.released(h, l1);
        assert_eq!(engine.deadlocks_detected(), 0, "{name}");
        engine.acquired(t, l1);
        assert_eq!(
            engine.deadlocks_detected(),
            1,
            "{name}: T's acquisition closed the cycle unseen"
        );
        let history = engine.history();
        assert_eq!(history.len(), 1, "{name}");
        let pairs = history.iter().next().expect("recorded").1.pairs();
        for (outer, inner) in [(20, 21), (10, 11)] {
            assert!(
                pairs.contains(&SignaturePair::new(site(outer), site(inner))),
                "{name}: no pair ({outer}, {inner}) in {pairs:?}"
            );
        }
    }
}

/// The same shape through a park: with a signature over sites 1 and 2, U
/// holds `lu` at site 1, and task T's request for l2 at site 2 parks with U
/// as its blocker. U then waits for l1, and T's acquisition of l1 closes a
/// cycle through T's park: an avoidance-induced deadlock. It is resolved as
/// a request that closes one resolves it — recorded, T's park lifted and its
/// wake-up scheduled — and T's retry is granted.
#[test]
fn a_starvation_closed_by_an_acquisition_is_resolved() {
    let pair = |at| SignaturePair::new(site(at), site(at));
    let mut history = History::new();
    let (sig, _) = history.add(Signature::new(
        SignatureKind::Deadlock,
        vec![pair(1), pair(2)],
    ));
    let (l1, l2, engines) = engines_with(history);
    let lu = LockId::new(1_000);
    let (u, t, h) = (
        OwnerId::from(ThreadId::new(1)),
        OwnerId::from(TaskId::new(2)),
        OwnerId::from(ThreadId::new(3)),
    );
    for (name, mut engine) in engines {
        assert!(engine.request(u, lu, 1).is_granted(), "{name}");
        engine.acquired(u, lu);
        assert!(engine.request(h, l1, 30).is_granted(), "{name}");
        engine.acquired(h, l1);
        assert!(engine.request(t, l1, 20).is_granted(), "{name}");
        let parked = engine.request(t, l2, 2);
        assert_eq!(parked, RequestOutcome::Yield { signature: sig }, "{name}");
        assert!(engine.request(u, l1, 11).is_granted(), "{name}");
        engine.released(h, l1);
        engine.take_pending_wakeups();
        engine.acquired(t, l1);
        let stats = engine.stats();
        assert_eq!(
            (stats.starvations_detected, stats.deadlocks_detected),
            (1, 0),
            "{name}: T's acquisition closed a cycle through its park unseen"
        );
        assert_eq!(engine.take_pending_wakeups(), [sig], "{name}: T is woken");
        assert!(engine.request(t, l2, 2).is_granted(), "{name}: T's retry");
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
