//! Deadlock detection — turning RAG cycles into signatures.
//!
//! When a request creates a cycle in the wait-for relation, the deadlock (or,
//! if parked threads are involved, the avoidance-induced starvation) is
//! materialized as a [`Signature`]: one (outer, inner) call-stack pair per
//! thread in the cycle, where the outer stack is the stack at which the
//! thread acquired the lock it contributes to the cycle and the inner stack
//! is the stack of its pending request (§2.1, §2.2). An owner with several
//! outstanding acquisitions contributes the one the cycle goes through.
//!
//! Both builders read a list of shards, as the sharded engine's all-shard
//! path holds them; the monolithic engine is the one-shard call. Positions
//! resolve through the shard that interned them, and hold recency through
//! the global acquisition sequence.

use crate::callstack::CallStack;
use crate::position::PositionId;
use crate::rag::{CycleStep, WaitEdge};
use crate::sharded::{shard, shard_index, Held};
use crate::signature::{Signature, SignatureKind, SignaturePair};
use crate::OwnerId;

/// Classification of a detected wait-for cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectedCycle {
    /// The threads participating in the cycle, in wait order.
    pub owners: Vec<OwnerId>,
    /// True if at least one participant is parked by the avoidance module, in
    /// which case the cycle is an avoidance-induced deadlock (starvation)
    /// rather than a genuine program deadlock.
    pub involves_yield: bool,
    /// The extracted signature.
    pub signature: Signature,
}

/// A position pinned to the shard whose table interned it.
type ShardPos = (usize, PositionId);

/// Builds a [`DetectedCycle`] from the steps of a wait-for cycle found over
/// `shards` (every shard, in index order).
///
/// For every step `i`, `steps[i].owner` waits on `steps[(i + 1) % n].owner`
/// through `steps[i].edge`. The waited-on owner's *outer* stack is **its
/// own** acquisition position of the lock on that edge — with multi-owner
/// lock nodes the waited-on owner is one owner among possibly several (a
/// reader crowd), and the signature's template position must come from the
/// owner actually on the cycle — or, for a yield edge, where no specific
/// lock is held, its latest hold at a history position. Its *inner* stack is
/// the position of the acquisition through which it waits on the cycle in
/// turn.
pub(crate) fn classify_cycle(shards: &[Option<impl Held>], steps: &[CycleStep]) -> DetectedCycle {
    let n = steps.len();
    let mut pairs = Vec::with_capacity(n);
    for (i, step) in steps.iter().enumerate() {
        let next = &steps[(i + 1) % n];
        let inner = wait_pos(shards, next);
        let outer = match step.edge {
            WaitEdge::Lock(lock) => {
                let s = shard_index(lock, shards.len());
                let held = shard(&shards[s]).rag().acq_pos_of(lock, next.owner);
                held.map(|p| (s, p))
            }
            // The parked predecessor waits on `next.owner` because it covers
            // one of the signature's outer positions; the most informative
            // stable stack for it is its last hold at a history position,
            // falling back to its latest hold.
            WaitEdge::Yield(_) => latest_hold(shards, next.owner, true)
                .or_else(|| latest_hold(shards, next.owner, false))
                .or(inner),
        };
        pairs.push(SignaturePair::new(
            stack_at(shards, outer),
            stack_at(shards, inner),
        ));
    }
    // A yield edge anywhere makes the whole cycle an avoidance artifact.
    let involves_yield = steps.iter().any(|s| matches!(s.edge, WaitEdge::Yield(_)));
    let kind = if involves_yield {
        SignatureKind::Starvation
    } else {
        SignatureKind::Deadlock
    };
    DetectedCycle {
        owners: steps.iter().map(|s| s.owner).collect(),
        involves_yield,
        signature: Signature::new(kind, pairs),
    }
}

/// The position of the outstanding acquisition through which `step.owner`
/// takes `step.edge`: its request for the edge's lock, read on that lock's
/// home shard, or the acquisition parked on the edge's signature.
fn wait_pos(shards: &[Option<impl Held>], step: &CycleStep) -> Option<ShardPos> {
    match step.edge {
        WaitEdge::Lock(lock) => {
            let s = shard_index(lock, shards.len());
            let a = shard(&shards[s]).rag().outstanding_on(step.owner, lock);
            a.map(|a| (s, a.pos))
        }
        WaitEdge::Yield(sig) => shards.iter().map(shard).enumerate().find_map(|(s, e)| {
            let mut waits = e.rag().outstanding(step.owner);
            let a = waits.find(|a| a.parked().is_some_and(|y| y.signature == sig));
            a.map(|a| (s, a.pos))
        }),
    }
}

/// Builds the signature of an avoidance-induced deadlock: one pair per
/// participant (the would-be parked owner, whose request at `pos` shard
/// `home` answers, plus its blockers), using the most informative stable
/// position for each.
pub(crate) fn starvation_signature(
    shards: &[Option<impl Held>],
    home: usize,
    pos: PositionId,
    blockers: &[OwnerId],
) -> Signature {
    let mut pairs = Vec::with_capacity(1 + blockers.len());
    let requester_stack = stack_at(shards, Some((home, pos)));
    pairs.push(SignaturePair::new(requester_stack.clone(), requester_stack));
    for b in blockers {
        let waiting = shards.iter().map(shard).enumerate().find_map(|(s, e)| {
            let first = e.rag().outstanding(*b).next();
            first.map(|a| (s, a.pos))
        });
        let outer = latest_hold(shards, *b, true)
            .or_else(|| latest_hold(shards, *b, false))
            .or(waiting);
        let inner = waiting.or(outer);
        pairs.push(SignaturePair::new(
            stack_at(shards, outer),
            stack_at(shards, inner),
        ));
    }
    Signature::new(SignatureKind::Starvation, pairs)
}

fn stack_at(shards: &[Option<impl Held>], loc: Option<ShardPos>) -> CallStack {
    loc.and_then(|(s, p)| shard(&shards[s]).positions().get(p))
        .map(|p| p.stack().clone())
        .unwrap_or_default()
}

/// Latest lock held by `t` across all shards, by global acquisition
/// sequence; with `in_history`, the latest whose acquisition position is
/// flagged as in-history.
fn latest_hold(shards: &[Option<impl Held>], t: OwnerId, in_history: bool) -> Option<ShardPos> {
    shards
        .iter()
        .map(shard)
        .enumerate()
        .flat_map(|(i, s)| {
            let holds = s.rag().held_locks(t).iter();
            holds
                .filter(move |e| {
                    !in_history || s.positions().get(e.pos).is_some_and(|d| d.in_history())
                })
                .map(move |e| (e.seq, (i, e.pos)))
        })
        .max_by_key(|(seq, _)| *seq)
        .map(|(_, loc)| loc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callstack::Frame;
    use crate::rag::{AccessMode, AcquisitionState, YieldRecord};
    use crate::{Dimmunix, LockId, SignatureId};

    fn t(i: u64) -> OwnerId {
        OwnerId::thread(i)
    }
    fn l(i: u64) -> LockId {
        LockId::new(i)
    }
    fn stack(tag: u32) -> CallStack {
        CallStack::single(Frame::new(format!("m{tag}"), "f.rs", tag))
    }
    /// Classifies the cycle through `from` on a one-shard view of `engine`.
    fn classify(engine: &mut Dimmunix, from: OwnerId, include_yields: bool) -> DetectedCycle {
        let steps = engine
            .rag()
            .find_cycle_from(from, include_yields)
            .expect("cycle");
        classify_cycle(&[Some(engine)], &steps)
    }

    /// Builds the canonical two-thread deadlock and checks the extracted
    /// signature has the acquisition stacks as outer and the blocked request
    /// stacks as inner.
    #[test]
    fn two_thread_deadlock_signature() {
        let mut e = Dimmunix::default();
        let p_a1 = e.intern_position(&stack(1)); // t1 acquires l1 here
        let p_a2 = e.intern_position(&stack(2)); // t2 acquires l2 here
        let p_r1 = e.intern_position(&stack(3)); // t1 requests l2 here
        let p_r2 = e.intern_position(&stack(4)); // t2 requests l1 here

        let rag = e.rag_mut();
        rag.acquire(t(1), l(1), p_a1);
        rag.acquire(t(2), l(2), p_a2);
        rag.request(t(1), l(2), p_r1, AccessMode::Exclusive);
        rag.request(t(2), l(1), p_r2, AccessMode::Exclusive);

        let detected = classify(&mut e, t(2), false);
        assert!(!detected.involves_yield);
        assert_eq!(detected.signature.kind(), SignatureKind::Deadlock);
        assert_eq!(detected.signature.arity(), 2);

        let outers: Vec<String> = detected
            .signature
            .outer_stacks()
            .map(|s| s.to_compact())
            .collect();
        assert!(outers.contains(&stack(1).to_compact()));
        assert!(outers.contains(&stack(2).to_compact()));
        let inners: Vec<String> = detected
            .signature
            .inner_stacks()
            .map(|s| s.to_compact())
            .collect();
        assert!(inners.contains(&stack(3).to_compact()));
        assert!(inners.contains(&stack(4).to_compact()));
    }

    #[test]
    fn cycle_through_parked_thread_is_starvation() {
        let mut e = Dimmunix::default();
        let p_a1 = e.intern_position(&stack(1));
        let p_a2 = e.intern_position(&stack(2));
        let p_r1 = e.intern_position(&stack(3));
        let p_r2 = e.intern_position(&stack(4));

        let rag = e.rag_mut();
        // t1 holds l1 and requests l2 (held by t2); t2 is parked by avoidance
        // waiting on t1.
        rag.acquire(t(1), l(1), p_a1);
        rag.acquire(t(2), l(2), p_a2);
        rag.request(t(1), l(2), p_r1, AccessMode::Exclusive);
        rag.request(t(2), l(3), p_r2, AccessMode::Exclusive);
        let parked = YieldRecord {
            signature: SignatureId::new(0),
            blockers: vec![t(1)],
        };
        rag.set_state(t(2), l(3), AcquisitionState::Parked(parked));

        let detected = classify(&mut e, t(1), true);
        assert!(detected.involves_yield);
        assert_eq!(detected.signature.kind(), SignatureKind::Starvation);
        assert_eq!(detected.owners.len(), 2);
    }

    #[test]
    fn three_thread_cycle_has_three_pairs() {
        let mut e = Dimmunix::default();
        let pa: Vec<_> = (0..3).map(|i| e.intern_position(&stack(10 + i))).collect();
        let pr: Vec<_> = (0..3).map(|i| e.intern_position(&stack(20 + i))).collect();
        let rag = e.rag_mut();
        for i in 0..3u64 {
            rag.acquire(t(i + 1), l(i + 1), pa[i as usize]);
        }
        rag.request(t(1), l(2), pr[0], AccessMode::Exclusive);
        rag.request(t(2), l(3), pr[1], AccessMode::Exclusive);
        rag.request(t(3), l(1), pr[2], AccessMode::Exclusive);
        let detected = classify(&mut e, t(3), false);
        assert_eq!(detected.signature.arity(), 3);
        assert_eq!(detected.owners.len(), 3);
    }
}
