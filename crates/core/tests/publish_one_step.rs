//! `Dimmunix::publish` of an acquired lock makes a lock-free hold
//! engine-visible in one step: counted as a request, a grant and an
//! acquisition, its position slot occupied, its hold recorded. That must
//! leave exactly what the two-step sequence leaves — a forced grant (a
//! `publish` of the unacquired lock) completed by `acquired_with_seq` at the
//! same sequence 0 — in the counters, the holds, the outstanding
//! acquisitions and the position queues, and every later decision must be
//! the same. Checked on a `Dimmunix` and on the sharded ladder with 1 and 4
//! shards, the way the runtime publishes: as the fast hold of a nested
//! request. `ShardedDimmunix` publishes nothing of its own, so the sharded
//! cases drive the ladder through an implementor owning its shards as
//! `ShardedDimmunix` does. The grant path (a task still queued behind the
//! holder when it is published) is checked against the one-step publish of
//! the same hold once it is acquired.

use dimmunix_core::{
    AccessMode, AdmissionSummary, CallStack, Config, Dimmunix, Frame, History, LockId, OwnerId,
    OwnerRoute, RequestOutcome, ShardAccess, Signature, SignatureKind, SignaturePair, MAX_SHARDS,
};
use std::sync::Arc;

fn site(line: u32) -> CallStack {
    CallStack::single(Frame::new(format!("site{line}"), "publish.rs", line))
}

/// One signature whose outer positions are sites 1 and 3: an owner holding
/// a lock taken at site 1 makes a request at site 3 by another owner yield.
fn history() -> History {
    let mut h = History::new();
    h.add(Signature::new(
        SignatureKind::Deadlock,
        vec![
            SignaturePair::new(site(1), site(2)),
            SignaturePair::new(site(3), site(4)),
        ],
    ));
    h
}

/// How the lock-free hold is made engine-visible.
#[derive(Clone, Copy, Debug)]
enum Publish {
    OneStep,
    TwoStep,
}

impl Publish {
    fn run(self, e: &mut Dimmunix, t: OwnerId, l: LockId, at: u32) {
        let stack = site(at);
        match self {
            Publish::OneStep => e.publish(t, l, &stack, AccessMode::Exclusive, true),
            Publish::TwoStep => {
                e.publish(t, l, &stack, AccessMode::Exclusive, false);
                e.acquired_with_seq(t, l, 0);
            }
        }
    }
}

/// Everything a publish can change in one engine, printed.
fn state(e: &Dimmunix, owners: &[OwnerId], locks: &[LockId]) -> String {
    let mut out = format!("{:?}\n", e.stats());
    for t in owners {
        let waits: Vec<_> = e.rag().outstanding(*t).collect();
        out += &format!("{t:?} holds {:?} waits {waits:?}\n", e.rag().held_locks(*t));
    }
    for l in locks {
        out += &format!("{l:?} owners {:?}\n", e.rag().owners(*l));
    }
    for p in e.positions().iter() {
        let queue: Vec<_> = p.queue().iter().collect();
        out += &format!("{} {} {:?} {queue:?}\n", p.id(), p.stack(), p.history_ref());
    }
    out
}

const T: OwnerId = OwnerId::thread(1);
const U: OwnerId = OwnerId::thread(2);
const K: OwnerId = OwnerId::task(1);

#[test]
fn one_step_publish_leaves_what_the_two_step_sequence_leaves_on_an_engine() {
    let (l1, l2, l3) = (LockId::new(1), LockId::new(2), LockId::new(3));
    let (owners, locks) = ([T, U, K], [l1, l2, l3]);
    let run = |publish: Publish| {
        let mut e = Dimmunix::with_history(Config::default(), history());
        let mut states = Vec::new();
        // T took l1 at site 1 lock-free, and now requests l2.
        publish.run(&mut e, T, l1, 1);
        states.push(state(&e, &owners, &locks));
        assert_eq!(e.request(T, l2, &site(2)), RequestOutcome::Granted);
        e.acquired(T, l2);
        states.push(state(&e, &owners, &locks));
        // T's published slot at site 1 instantiates the signature for U.
        let outcome = e.request(U, l3, &site(3));
        assert!(
            matches!(outcome, RequestOutcome::Yield { .. }),
            "{outcome:?}"
        );
        states.push(state(&e, &owners, &locks));
        let woken = [e.released(T, l2), e.released(T, l1)];
        assert_eq!(woken[1].len(), 1, "the release at site 1 wakes U");
        assert!(e.request(U, l3, &site(3)).is_granted());
        e.acquired(U, l3);
        states.push(state(&e, &owners, &locks));
        states
    };
    assert_eq!(run(Publish::OneStep), run(Publish::TwoStep));
}

/// Shards owned outright, as `ShardedDimmunix` owns them.
struct Owned {
    engines: Vec<Dimmunix>,
    seq: u64,
}

impl Owned {
    fn new(shards: usize) -> Self {
        let first = Dimmunix::with_history(Config::default(), history());
        let snapshot = Arc::clone(first.history_snapshot());
        let summary = Arc::new(AdmissionSummary::new());
        let mut engines = vec![first];
        for _ in 1..shards {
            engines.push(Dimmunix::with_snapshot(
                Config::default(),
                Arc::clone(&snapshot),
            ));
        }
        for e in &mut engines {
            e.attach_admission_summary(Arc::clone(&summary));
        }
        Owned { engines, seq: 1 }
    }

    fn state(&self, owners: &[OwnerId], locks: &[LockId]) -> Vec<String> {
        self.engines
            .iter()
            .map(|e| state(e, owners, locks))
            .collect()
    }
}

impl ShardAccess for Owned {
    type Guard<'a> = &'a mut Dimmunix;

    fn shard_count(&self) -> usize {
        self.engines.len()
    }

    fn lock(&mut self, index: usize) -> &mut Dimmunix {
        &mut self.engines[index]
    }

    fn lock_all(&mut self) -> [Option<&mut Dimmunix>; MAX_SHARDS] {
        let mut all = std::array::from_fn(|_| None);
        for (slot, engine) in all.iter_mut().zip(&mut self.engines) {
            *slot = Some(engine);
        }
        all
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }
}

/// A request by `t` for `l` at site `at`, publishing `fast` (a lock taken
/// lock-free at site 1) first, as the runtime's nested request does.
fn request(
    s: &mut Owned,
    route: &mut OwnerRoute,
    t: OwnerId,
    (l, at): (LockId, u32),
    fast: Option<(LockId, Publish)>,
) -> RequestOutcome {
    let fast =
        fast.map(|(held, publish)| (held, move |e: &mut Dimmunix| publish.run(e, t, held, 1)));
    let stack = site(at);
    s.decide_locked(
        t,
        route,
        fast,
        l,
        &stack,
        AccessMode::Exclusive,
        |_| {},
        |_| {},
        |_| {},
    )
}

#[test]
fn one_step_publish_leaves_what_the_two_step_sequence_leaves_on_the_sharded_ladder() {
    for shards in [1, 4] {
        // On 4 shards, each lock lives on a shard of its own.
        let probe = Owned::new(shards);
        let mut ids = (1..).map(LockId::new);
        let mut on = |shard| ids.find(|l| probe.shard_of(*l) == shard % shards).unwrap();
        let (l1, l2, l3) = (on(1), on(2), on(3));
        let (owners, locks) = ([T, U], [l1, l2, l3]);
        let run = |publish: Publish| {
            let mut s = Owned::new(shards);
            let (mut t_route, mut u_route) = (OwnerRoute::default(), OwnerRoute::default());
            let mut states = Vec::new();
            let outcome = request(&mut s, &mut t_route, T, (l2, 2), Some((l1, publish)));
            assert_eq!(outcome, RequestOutcome::Granted);
            states.push(s.state(&owners, &locks));
            s.finish_locked(T, &mut t_route, l2, |_| {}, |_| {});
            states.push(s.state(&owners, &locks));
            let outcome = request(&mut s, &mut u_route, U, (l3, 3), None);
            assert!(
                matches!(outcome, RequestOutcome::Yield { .. }),
                "{outcome:?}"
            );
            states.push(s.state(&owners, &locks));
            for l in [l2, l1] {
                s.release_locked(T, &mut t_route, l, |_| {});
            }
            assert!(t_route.is_idle());
            let outcome = request(&mut s, &mut u_route, U, (l3, 3), None);
            assert!(outcome.is_granted(), "{outcome:?}");
            states.push(s.state(&owners, &locks));
            states
        };
        assert_eq!(
            run(Publish::OneStep),
            run(Publish::TwoStep),
            "{shards} shards"
        );
    }
}

/// A task admitted lock-free while another owner still holds the lock is
/// published as a grant; once it acquires, the engine is where a one-step
/// publish of the acquired hold would have left it.
#[test]
fn a_published_grant_completes_to_the_one_step_hold() {
    let l1 = LockId::new(1);
    let (owners, locks) = ([T, K], [l1]);
    let mut queued = Dimmunix::with_history(Config::default(), history());
    let mut direct = queued.clone();
    for e in [&mut queued, &mut direct] {
        assert!(e.request(T, l1, &site(5)).is_granted());
        e.acquired(T, l1);
    }
    queued.publish(K, l1, &site(1), AccessMode::Exclusive, false);
    let slot = queued.positions().lookup(&site(1)).unwrap();
    let queue = queued.positions().get(slot).unwrap().queue();
    assert_eq!(queue.count(K), 1, "a published grant occupies its slot");
    let waits: Vec<_> = queued.rag().outstanding(K).map(|a| a.lock).collect();
    assert_eq!(waits, [l1], "and is K's outstanding acquisition");
    for e in [&mut queued, &mut direct] {
        assert!(e.released(T, l1).is_empty());
    }
    queued.acquired_with_seq(K, l1, 0);
    direct.publish(K, l1, &site(1), AccessMode::Exclusive, true);
    assert_eq!(
        state(&queued, &owners, &locks),
        state(&direct, &owners, &locks)
    );
}
