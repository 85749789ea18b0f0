//! The sharded Dimmunix engine: lock-id partitioning with a cross-shard
//! detection path.
//!
//! The paper serializes the three Dimmunix hooks behind one global VM lock
//! (§4), which is fine on a 2007 phone but makes every acquisition in a
//! heavily threaded process serialize through a single mutex. This module
//! splits the engine state into `N` shards keyed by lock id, so uncontended
//! acquisitions of locks on different shards never touch the same state:
//!
//! * **A shard owns the locks that hash to it**: their RAG lock nodes, the
//!   request/yield/pending-grant edges of threads whose outstanding request
//!   targets one of its locks, the position-queue entries created by grants
//!   of its locks, and its own [`Stats`] (rolled up on read).
//! * **Every shard reads one shared, immutable
//!   [`HistorySnapshot`](crate::HistorySnapshot)** — the history, the
//!   canonical outer-position table, and the
//!   [`SignatureIndex`](crate::SignatureIndex) exist once per process, not
//!   once per shard. A detection builds the successor snapshot
//!   (copy-on-write, epoch bumped), appends one record to the history log,
//!   and installs the new `Arc` into every shard under the all-shard lock
//!   ([`broadcast_signature`]); [`SignatureId`]s are globally consistent by
//!   construction because there is exactly one history. Each shard keeps a
//!   lazy link from its own interned positions to the snapshot's canonical
//!   outer ids, so the avoidance hot path still runs entirely inside the
//!   home shard.
//!
//! ## The locked admission ladder: tier 2 vs tier 3
//!
//! [`ShardAccess`] is the one implementation of the locked tiers. A request
//! is decided inside its home shard, under that shard's lock alone
//! ([`try_request_local`], tier 2), when neither detection nor avoidance can
//! need another shard's state: the requester holds no lock on any shard and
//! no live yield record names it as a blocker (so no wait-for cycle can run
//! through it), and no history signature mentions the requesting position
//! (so the avoidance check is vacuous — the common case). The same facts
//! rule out a cycle through the requester, so tier 2 runs no cycle search
//! either. Otherwise it takes
//! the cross-shard path ([`request_cross_shard`], tier 3): the implementor holds
//! **all shards in ascending index order** (a total order, so two concurrent
//! cross-shard requests cannot deadlock the engine itself) and the decision
//! is computed against the merged view:
//!
//! * the merged wait-for relation is the concatenation of the per-shard
//!   relations (a thread's out-edges all live in the shard of its
//!   outstanding request, so concatenation introduces neither duplicates nor
//!   order changes);
//! * the merged occupancy of a signature's outer position is the union of
//!   every shard's local queue at that slot;
//! * hold-recency queries (`last_history_hold`) merge per-shard holds by the
//!   global acquisition sequence number stamped through
//!   [`Dimmunix::acquired_with_seq`];
//! * a lock's **owner set** (one entry per owner — several for a reader
//!   crowd) lives whole in the lock's home shard, so the merged view unions
//!   owner sets per lock trivially: the wait-for fan-out of a request (one
//!   edge per conflicting owner) is generated inside the shard that owns
//!   both the request edge and the lock node, and concatenation preserves
//!   it exactly.
//!
//! Detection results flow back through the owning shards: the signature is
//! appended to every replica, the yield/queue bookkeeping is written to the
//! shard that owns the affected lock, and counters land on the home shard.
//!
//! ## Two implementors and the single-shard oracle
//!
//! `dimmunix-rt` drives the ladder over one mutex per shard;
//! [`ShardedDimmunix`] owns its shards outright, so it is, like
//! [`Dimmunix`], a deterministic state machine with no interior locking
//! that runs the very code the runtime's threads and tasks run. With
//! `shards = 1` it is observably equivalent to a plain [`Dimmunix`], which
//! the property tests exploit: the same random workload is driven through a
//! monolithic engine and through sharded engines with several shard counts,
//! asserting identical outcomes, counters, and histories.

use crate::admission::AdmissionSummary;
use crate::avoidance::{Instantiation, MatchScratch};
use crate::callstack::CallStack;
use crate::config::Config;
use crate::engine::{Dimmunix, RequestOutcome};
use crate::history::History;
use crate::position::PositionId;
use crate::rag::{find_cycle_with, AccessMode, CycleStep, WaitEdge, YieldRecord};
use crate::signature::{Signature, SignatureKind, SignaturePair};
use crate::snapshot::HistorySnapshot;
use crate::stats::Stats;
use crate::{IdHashMap, LockId, OwnerId, SignatureId};
use std::ops::DerefMut;
use std::sync::Arc;

/// Upper bound on the number of shards (holds-per-shard bookkeeping is a
/// 64-bit mask).
pub const MAX_SHARDS: usize = 64;
const _: () = assert!(MAX_SHARDS <= 1 << u8::BITS, "a shard index fits a byte");

/// The shard owning `lock` among `shards`: a Fibonacci multiplicative hash
/// of the raw lock id, so substrates that allocate sequential ids (like
/// `dimmunix-rt`) spread their locks evenly even when allocation patterns
/// are strided.
fn shard_index(lock: LockId, shards: usize) -> usize {
    if shards == 1 {
        return 0;
    }
    let mixed = lock.index().wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // High bits of the product are the well-mixed ones.
    ((mixed >> 32) % shards as u64) as usize
}

/// Per-owner routing bookkeeping kept outside the shards: the shards the
/// owner holds locks on, the ones carrying a grant it has not yet acquired,
/// and the one still carrying a leftover request edge. Each [`ShardAccess`]
/// implementor keeps one per owner and hands it to the ladder, which alone
/// reads and transitions it; outside this crate it is an opaque value with
/// one question, [`is_idle`](Self::is_idle), and one transition,
/// [`after_published`](Self::after_published).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OwnerRoute {
    /// Bit `s` set while the owner holds at least one lock on shard `s`.
    holds_mask: u64,
    /// Bit `s` set while a grant on shard `s` awaits the owner's
    /// acquisition. Only a task, which may run two acquisitions at once
    /// (`join!`), can request with one outstanding.
    granted_mask: u64,
    /// Shard still carrying the owner's request edge or yield record from a
    /// request that was answered with `Yield` or `DeadlockDetected` (the
    /// substrate may never complete those acquisitions). A byte: shard
    /// indices are below [`MAX_SHARDS`], and the route is copied on every
    /// locked request.
    stale_shard: Option<u8>,
}

impl OwnerRoute {
    /// True while no shard knows anything about the owner: no hold and no
    /// unacquired grant anywhere, and no leftover request edge — the
    /// owner's half of the lock-free tier's precondition.
    pub fn is_idle(&self) -> bool {
        self.holds_mask == 0 && self.granted_mask == 0 && self.stale_shard.is_none()
    }

    /// The transition after a lock `owner` took on the lock-free tier was
    /// published into `engine`, shard `home`: as a hold, or as a grant its
    /// owner has yet to acquire — the owner's only state there, since it
    /// reached no shard between its admission and the publish. The bit is
    /// re-derived from the shard's RAG, so a caller that finds the lock
    /// already published by someone else (an install) reaches the same
    /// route.
    pub fn after_published(&mut self, home: usize, engine: &Dimmunix, owner: OwnerId) {
        if !engine.rag().held_locks(owner).is_empty() {
            self.holds_mask |= 1 << home;
        } else if engine.rag().has_pending_grant(owner) {
            self.granted_mask |= 1 << home;
        }
    }

    /// The owner-local half of tier 2's eligibility predicate: the requester
    /// holds no lock on any shard, and any leftover request edge from an
    /// abandoned acquisition lives in the home shard itself.
    /// [`try_request_local`] has the other half and why the two suffice.
    fn local_eligible(&self, home: usize) -> bool {
        self.holds_mask == 0 && self.stale_shard.map_or(true, |s| usize::from(s) == home)
    }

    /// The stale-request-edge transition after a request on `home`. `Yield`
    /// and `DeadlockDetected` leave the request edge (and, for yields, the
    /// park record) behind in the home shard until the owner retries,
    /// completes, or cancels; a grant's edge is consumed by the following
    /// `acquired`; the reentrant fast path touches no edges, so the previous
    /// value stands. (A disabled engine only ever grants.)
    fn after_request(&mut self, outcome: &RequestOutcome, home: usize) {
        match outcome {
            RequestOutcome::Yield { .. } | RequestOutcome::DeadlockDetected { .. } => {
                self.stale_shard = Some(home as u8);
            }
            RequestOutcome::Granted => {
                self.stale_shard = None;
                self.granted_mask |= 1 << home;
            }
            RequestOutcome::GrantedReentrant => {}
        }
    }

    /// The transition after an acquisition on `home` was recorded: the
    /// acquisition consumed the home shard's request edge, and `holds` says
    /// whether the shard's RAG now records any hold for the owner.
    fn after_acquired(&mut self, home: usize, holds: bool) {
        self.after_released(home, holds); // the same holds-mask transition
        self.after_cancel(home); // the same consumed-edge transition
    }

    /// The holds-mask transition after an engine call on `home` changed (or
    /// may have changed) the owner's holds there. `holds` is re-derived from
    /// the shard's RAG rather than counted, so the mask can never drift.
    fn after_released(&mut self, home: usize, holds: bool) {
        if holds {
            self.holds_mask |= 1 << home;
        } else {
            self.holds_mask &= !(1 << home);
        }
    }

    /// The transition after a cancellation on `home`: it consumed the
    /// request edge and any grant the home shard was carrying, so a stale
    /// marker pointing at `home` is cleared; a marker pointing elsewhere is
    /// untouched (the consumed edge was a different one).
    fn after_cancel(&mut self, home: usize) {
        self.granted_mask &= !(1 << home);
        if self.stale_shard.is_some_and(|s| usize::from(s) == home) {
            self.stale_shard = None;
        }
    }
}

/// How an implementor holds its shards, and the one locked admission ladder
/// (tiers 2–3) over them: `dimmunix-rt` drives it over one mutex per shard,
/// [`ShardedDimmunix`] over the engines it owns.
///
/// Each provided method is a step of the ladder, keyed by [`OwnerId`]. What
/// only the runtime has — a lock-free hold to publish, a park, the wake
/// sinks, the install sink — comes in as arguments, called under the step's
/// shard locks. A step that changes the owner's [`OwnerRoute`] returns the
/// transition for the implementor to apply where it keeps the route. Every
/// shard carries the implementor's one [`AdmissionSummary`], which tier 2's
/// gate reads.
///
/// The install sink (`on_install`) runs under every shard lock right after
/// a new signature's snapshot is installed, with every shard, before
/// anything is decided against the new history — the request that
/// installed it included. The runtime publishes its tasks' lock-free holds
/// there; [`ShardedDimmunix`] has none and passes a no-op. A step that
/// installs nothing never calls it.
pub trait ShardAccess {
    /// One held shard: a mutex guard, or a plain `&mut` to an owned engine.
    type Guard<'a>: DerefMut<Target = Dimmunix>
    where
        Self: 'a;

    /// Number of shards, at most [`MAX_SHARDS`].
    fn shard_count(&self) -> usize;

    /// Holds shard `index` alone.
    fn lock(&mut self, index: usize) -> Self::Guard<'_>;

    /// Holds every shard, taken in ascending index order (the total order
    /// that keeps a locking implementor from deadlocking itself); the slots past
    /// [`shard_count`](Self::shard_count) are `None`.
    fn lock_all(&mut self) -> [Option<Self::Guard<'_>>; MAX_SHARDS];

    /// The next value of the implementor-wide acquisition sequence, stamped
    /// into holds so merged views can order one owner's holds across shards.
    fn next_seq(&mut self) -> u64;

    /// The shard owning `lock`.
    fn shard_of(&self, lock: LockId) -> usize {
        shard_index(lock, self.shard_count())
    }

    /// Adds `sig` to the shared history under every shard lock, the path
    /// detections take, and runs `on_install` if it was new; returns its id
    /// and whether it was new.
    fn add_signature_locked(
        &mut self,
        sig: Signature,
        mut on_install: impl FnMut(&mut [&mut Dimmunix]),
    ) -> (SignatureId, bool) {
        let n = self.shard_count();
        broadcast_signature(&mut self.lock_all()[..n], sig, &mut on_install)
    }

    /// One engine decision: inside the home shard alone when neither
    /// detection nor avoidance can need another shard's state (tier 2),
    /// otherwise under every shard lock over the merged view (tier 3).
    ///
    /// A `fast_hold` (a lock the owner took unseen by the engine, and the
    /// call that publishes it) forces tier 3 and is published first. Tier 3
    /// hands scheduled wake-ups to `wake_all` and runs `on_yield` **while
    /// every shard lock is held**, so no release can slip past the park, and
    /// `on_install` after each signature it installs.
    // Inlined so each implementor keeps a copy specialised to its arguments.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn decide_locked(
        &mut self,
        owner: OwnerId,
        route: &mut OwnerRoute,
        fast_hold: Option<(LockId, impl FnOnce(&mut Dimmunix, u64))>,
        lock: LockId,
        stack: &CallStack,
        mode: AccessMode,
        on_yield: impl FnOnce(SignatureId),
        wake_all: impl FnOnce(&[SignatureId]),
        mut on_install: impl FnMut(&mut [&mut Dimmunix]),
    ) -> RequestOutcome {
        let home = self.shard_of(lock);
        let mut decided = None;
        if fast_hold.is_none() && route.local_eligible(home) {
            let mut shard = self.lock(home);
            // The parked half, read under the home shard's lock: parking or
            // resuming an owner takes every shard lock, and the summary's
            // blocker counts change only under those locks. The check is
            // *scoped*: only a park whose yield record lists `owner` as a
            // blocker forces tier 3.
            if shard
                .admission_summary()
                .is_some_and(|s| !s.is_blocker(owner))
            {
                // A yield needs the requesting position in the history,
                // which tier 2 declines: `on_yield` only ever runs on tier 3.
                decided = try_request_local(&mut shard, owner, lock, stack, mode);
                if decided.is_some() {
                    shard.stats_mut().local_decisions += 1;
                }
            }
        }

        let outcome = match decided {
            Some(decided) => decided,
            None => {
                let n = self.shard_count();
                let publish = fast_hold
                    .map(|(held, publish)| (self.shard_of(held), self.next_seq(), publish));
                let mut all = self.lock_all();
                let shards = &mut all[..n];
                if let Some((fhome, seq, publish)) = publish {
                    // After this the owner's every hold is engine-visible, so
                    // the request below sees the full wait-for relation.
                    let engine = at(shards, fhome);
                    publish(engine, seq);
                    route.after_published(fhome, engine, owner);
                }
                let o = request_cross_shard(
                    shards,
                    owner,
                    lock,
                    stack,
                    mode,
                    route.stale_shard.map(usize::from),
                    &mut on_install,
                );
                at(shards, home).stats_mut().cross_decisions += 1;
                // Starvation resolution and eviction schedule wake-ups; a
                // request that did neither (nearly all) has none to drain.
                if shards.iter().any(|s| shard(s).has_pending_wakeups()) {
                    let pending: Vec<SignatureId> = (0..n)
                        .flat_map(|i| at(shards, i).take_pending_wakeups())
                        .collect();
                    wake_all(&pending);
                }
                if let RequestOutcome::Yield { signature } = &o {
                    on_yield(*signature);
                }
                o
            }
        };
        route.after_request(&outcome, home);
        outcome
    }

    /// Records `owner`'s completed acquisition of `lock` in its home shard,
    /// stamped with the implementor-wide acquisition sequence.
    #[inline(always)]
    fn finish_locked(&mut self, owner: OwnerId, lock: LockId) -> impl FnOnce(&mut OwnerRoute) {
        let home = self.shard_of(lock);
        let seq = self.next_seq();
        let mut shard = self.lock(home);
        shard.acquired_with_seq(owner, lock, seq);
        let holds = !shard.rag().held_locks(owner).is_empty();
        move |route: &mut OwnerRoute| route.after_acquired(home, holds)
    }

    /// Backs `owner` out of an approved acquisition of `lock` that will not
    /// be completed; the wake-ups the vacated slot is owed go to `wake_all`.
    /// Also returns the signature the owner was still parked on, if any.
    #[inline(always)]
    fn cancel_locked(
        &mut self,
        owner: OwnerId,
        lock: LockId,
        wake_all: impl FnOnce(&[SignatureId]),
    ) -> (Option<SignatureId>, impl FnOnce(&mut OwnerRoute)) {
        let home = self.shard_of(lock);
        let mut shard = self.lock(home);
        let parked_on = shard.rag().yielding(owner).map(|y| y.signature);
        shard.cancel_request(owner, lock);
        if shard.has_pending_wakeups() {
            wake_all(&shard.take_pending_wakeups());
        }
        (parked_on, move |r: &mut OwnerRoute| r.after_cancel(home))
    }

    /// Releases `owner`'s hold on `lock` in its home shard; the signatures
    /// the release may de-instantiate go to `wake_front`.
    #[inline(always)]
    fn release_locked(
        &mut self,
        owner: OwnerId,
        lock: LockId,
        wake_front: impl FnOnce(&[SignatureId]),
    ) -> impl FnOnce(&mut OwnerRoute) {
        let home = self.shard_of(lock);
        let mut shard = self.lock(home);
        let wake = shard.release(owner, lock);
        if !wake.is_empty() {
            wake_front(wake);
        }
        let holds = !shard.rag().held_locks(owner).is_empty();
        move |route: &mut OwnerRoute| route.after_released(home, holds)
    }

    /// Unregisters `owner` on every shard, force-releasing anything it still
    /// holds; the signatures those releases owe a wake-up go to `wake_all`,
    /// sorted and deduplicated. The caller drops the owner's route.
    fn retire_locked(&mut self, owner: OwnerId, wake_all: impl FnOnce(&[SignatureId])) {
        let n = self.shard_count();
        let mut wake = Vec::new();
        let mut all = self.lock_all();
        for i in 0..n {
            wake.extend(at(&mut all, i).unregister_owner(owner));
        }
        wake.sort_unstable_by_key(|s| s.index());
        wake.dedup();
        if !wake.is_empty() {
            wake_all(&wake);
        }
    }
}

/// Tier 2: decides a request entirely inside its home shard, or returns
/// `None` (having only interned the position) when the requesting position
/// appears in the history and tier 3 must decide.
///
/// Precondition, checked by [`ShardAccess::decide_locked`]: the requester
/// holds no lock on **any** shard, has no outstanding request or yield
/// record on a *different* shard ([`OwnerRoute::local_eligible`]), and **no
/// live yield record names it as a blocker** (a blocker list is a snapshot,
/// so a starvation cycle can run through a hold-free owner, but only along
/// a yield edge naming it). With no possible in-edge no cycle can pass
/// through it, so the shard-local decision is the monolithic one, and the
/// cycle search it would run is skipped ([`Dimmunix::request_hold_free`]).
fn try_request_local(
    shard: &mut Dimmunix,
    t: OwnerId,
    l: LockId,
    stack: &CallStack,
    mode: AccessMode,
) -> Option<RequestOutcome> {
    if shard.config().is_disabled() {
        return Some(shard.request_mode(t, l, stack, mode));
    }
    let pos = shard.intern_position(stack);
    // A position mentioned by any signature carries a link to its canonical
    // outer id in the shared snapshot; the membership test is one `Option`
    // read of shard-local state.
    if shard
        .positions()
        .get(pos)
        .and_then(|p| p.history_ref())
        .is_some()
    {
        return None;
    }
    Some(shard.request_hold_free(t, l, pos, mode))
}

/// Decides a request against the full multi-shard view (tier 3).
///
/// `shards` must contain **every** shard, held in ascending index order (the
/// slots of [`ShardAccess::lock_all`]), and `prev_request_shard` is the shard
/// still carrying the thread's previous request edge or yield record, if any
/// (the request edge moves to `l`'s home shard, mirroring the monolithic
/// engine's overwrite).
///
/// The decision logic mirrors [`Dimmunix::request_at`] step for step; only
/// the state accessors are merged across shards as described in the module
/// docs.
fn request_cross_shard(
    shards: &mut [Option<impl Held>],
    t: OwnerId,
    l: LockId,
    stack: &CallStack,
    mode: AccessMode,
    prev_request_shard: Option<usize>,
    on_install: &mut impl FnMut(&mut [&mut Dimmunix]),
) -> RequestOutcome {
    let home = shard_index(l, shards.len());
    // A different shard still carrying the requester's last edge or record.
    let prev = prev_request_shard.filter(|prev| *prev != home);
    let h = at(shards, home);
    let pos = h.intern_position(stack);
    h.stats_mut().requests += 1;

    if h.config().is_disabled() {
        h.stats_mut().grants += 1;
        h.rag_mut().register_lock(l);
        h.rag_mut().set_pending_grant(t, l, pos, mode);
        return RequestOutcome::Granted;
    }
    let detection = h.config().detection;
    let avoidance = h.config().avoidance;
    let starvation_handling = h.config().starvation_handling;

    // If the thread is retrying after a yield, it is no longer parked; the
    // record lives in the shard that answered the yielded request.
    h.clear_yield_tracked(t);
    if let Some(prev) = prev {
        at(shards, prev).clear_yield_tracked(t);
    }

    // Reentrant fast path: a thread never deadlocks against itself on a
    // lock it already owns (in any mode).
    let h = at(shards, home);
    if h.rag().owns(l, t) {
        h.stats_mut().reentrant_grants += 1;
        return RequestOutcome::GrantedReentrant;
    }

    // The request edge moves to the home shard (the monolithic engine's
    // `set_request` overwrite, split across shards).
    h.rag_mut().set_request_mode(t, l, pos, mode);
    if let Some(prev) = prev {
        at(shards, prev).rag_mut().clear_request(t);
    }

    // --- Detection (merged wait-for relation) --------------------------
    if detection {
        let include_yields = starvation_handling;
        // One read-only view serves cycle search and classification.
        let ro = &*shards;
        let detected = find_cycle_with(t, |th, out| {
            merged_successors(ro, th, include_yields, |next, edge| out.push((next, edge)));
        })
        .map(|steps| classify_cycle_merged(ro, &steps));
        if let Some(detected) = detected {
            let is_starvation = detected.involves_yield;
            let (sig_id, new) = broadcast_signature(shards, detected.signature.clone(), on_install);
            if is_starvation {
                let stats = at(shards, home).stats_mut();
                stats.starvations_detected += 1;
                stats.new_starvation_signatures += u64::from(new);
                // Resume every parked participant (§2.2): clear its yield
                // (wherever it lives) and schedule a wake-up.
                for th in &detected.owners {
                    if let Some(y) = clear_yield_any(shards, *th) {
                        let h = at(shards, home);
                        h.push_pending_wakeup(y.signature);
                        h.stats_mut().wakeups += 1;
                    }
                }
                // Fall through: the requester itself is then treated by the
                // avoidance logic below.
            } else {
                let stats = at(shards, home).stats_mut();
                stats.deadlocks_detected += 1;
                stats.new_deadlock_signatures += u64::from(new);
                return RequestOutcome::DeadlockDetected {
                    signature: sig_id,
                    new_signature: new,
                    owners: detected.owners,
                };
            }
        }
    }

    // --- Avoidance (merged queue occupancy) ----------------------------
    // (A starvation recorded just above may have been the first signature.)
    if avoidance && !at(shards, home).history().is_empty() {
        let h = at(shards, home);
        h.stats_mut().instantiation_checks += 1;
        let outer = h.positions().get(pos).and_then(|p| p.history_ref());
        let examined = outer.map_or(0, |o| h.signature_index().signatures_at(o).len() as u64);
        h.stats_mut().signatures_examined += examined;
        // The home shard lends its scratch for the length of the decision.
        let mut scratch = std::mem::take(h.match_scratch_mut());
        // One read-only view serves the instantiation check and, when it
        // matches, the starvation probe over the same state.
        let ro = &*shards;
        let inst =
            outer.and_then(|o| find_instantiation_merged(ro, home, t, o, l, mode, &mut scratch));
        let starvation_sig = inst
            .as_ref()
            .filter(|i| {
                starvation_handling && would_starve_merged(ro, t, &i.blockers, &mut scratch)
            })
            .map(|i| starvation_signature_merged(ro, home, pos, &i.blockers));
        *at(shards, home).match_scratch_mut() = scratch;
        if let Some(sig) = starvation_sig {
            // Parking would itself create a wait-for cycle: record the
            // avoidance-induced deadlock and let the thread proceed
            // instead (§2.2).
            let (_, new) = broadcast_signature(shards, sig, on_install);
            let stats = at(shards, home).stats_mut();
            stats.starvations_detected += 1;
            stats.new_starvation_signatures += u64::from(new);
        } else if let Some(inst) = inst {
            let h = at(shards, home);
            h.stats_mut().yields += 1;
            h.set_yield_tracked(
                t,
                YieldRecord {
                    signature: inst.signature,
                    position: pos,
                    lock: l,
                    blockers: inst.blockers,
                },
            );
            return RequestOutcome::Yield {
                signature: inst.signature,
            };
        }
    }

    // --- Grant ----------------------------------------------------------
    let h = at(shards, home);
    h.stats_mut().grants += 1;
    if let Some(p) = h.positions_mut().get_mut(pos) {
        p.queue_mut().push(t);
    }
    h.rag_mut().set_pending_grant(t, l, pos, mode);
    RequestOutcome::Granted
}

// ----------------------------------------------------------------------
// Merged-view helpers
// ----------------------------------------------------------------------
//
// Generic over how a shard is held, so one read-only view of the caller's
// own list serves detection and avoidance alike.

/// A held shard, as the merged helpers reach it through the slots of a
/// [`ShardAccess::lock_all`] array: a mutex guard, or a `&mut` engine.
pub(crate) trait Held: DerefMut<Target = Dimmunix> {}

impl<G: DerefMut<Target = Dimmunix>> Held for G {}

fn shard(s: &Option<impl Held>) -> &Dimmunix {
    s.as_deref().expect("slot of an existing shard")
}

fn at(shards: &mut [Option<impl Held>], index: usize) -> &mut Dimmunix {
    shards[index]
        .as_deref_mut()
        .expect("slot of an existing shard")
}

/// The merged wait-for successors of `t`: concatenation of the per-shard
/// relations. A thread's out-edges (its outstanding request and its yield
/// blockers) all live in the shard of its outstanding request, so
/// concatenation yields exactly the monolithic successor list.
fn merged_successors(
    shards: &[Option<impl Held>],
    t: OwnerId,
    include_yields: bool,
    mut visit: impl FnMut(OwnerId, WaitEdge),
) {
    for s in shards {
        shard(s).rag().successors(t, include_yields, &mut visit);
    }
}

/// A position pinned to the shard whose table interned it.
type ShardPos = (usize, PositionId);

fn stack_at(shards: &[Option<impl Held>], loc: Option<ShardPos>) -> CallStack {
    loc.and_then(|(s, p)| shard(&shards[s]).positions().get(p))
        .map(|p| p.stack().clone())
        .unwrap_or_default()
}

/// The shard and record of `t`'s outstanding request, if any.
fn requesting_any(shards: &[Option<impl Held>], t: OwnerId) -> Option<(usize, LockId, PositionId)> {
    shards
        .iter()
        .map(shard)
        .enumerate()
        .find_map(|(i, s)| s.rag().requesting(t).map(|(l, p)| (i, l, p)))
}

/// The shard and yield record of `t`, if it is parked by avoidance.
fn yielding_any(shards: &[Option<impl Held>], t: OwnerId) -> Option<(usize, &YieldRecord)> {
    shards
        .iter()
        .map(shard)
        .enumerate()
        .find_map(|(i, s)| s.rag().yielding(t).map(|y| (i, y)))
}

/// Clears `t`'s yield record in whichever shard carries it.
fn clear_yield_any(shards: &mut [Option<impl Held>], t: OwnerId) -> Option<YieldRecord> {
    (0..shards.len()).find_map(|i| at(shards, i).clear_yield_tracked(t))
}

/// Latest lock held by `t` (by global acquisition sequence) whose
/// acquisition position is flagged as in-history — the merged equivalent of
/// `detection::last_history_hold`.
fn last_history_hold_merged(shards: &[Option<impl Held>], t: OwnerId) -> Option<ShardPos> {
    shards
        .iter()
        .map(shard)
        .enumerate()
        .flat_map(|(i, s)| {
            s.rag()
                .held_locks(t)
                .iter()
                .filter(|e| {
                    s.positions()
                        .get(e.pos)
                        .map(|d| d.in_history())
                        .unwrap_or(false)
                })
                .map(move |e| (e.seq, (i, e.pos)))
        })
        .max_by_key(|(seq, _)| *seq)
        .map(|(_, loc)| loc)
}

/// Latest lock held by `t` across all shards, by global acquisition
/// sequence — the merged equivalent of `held_locks(t).last()`.
fn last_hold_merged(shards: &[Option<impl Held>], t: OwnerId) -> Option<ShardPos> {
    shards
        .iter()
        .map(shard)
        .enumerate()
        .flat_map(|(i, s)| {
            s.rag()
                .held_locks(t)
                .iter()
                .map(move |e| (e.seq, (i, e.pos)))
        })
        .max_by_key(|(seq, _)| *seq)
        .map(|(_, loc)| loc)
}

/// The merged equivalent of [`classify_cycle`](crate::classify_cycle):
/// resolves positions through the shard that interned them and hold recency
/// through the global acquisition sequence.
fn classify_cycle_merged(
    shards: &[Option<impl Held>],
    steps: &[CycleStep],
) -> crate::detection::DetectedCycle {
    let n = steps.len();
    let mut pairs = Vec::with_capacity(n);
    let mut involves_yield = false;
    let owners: Vec<OwnerId> = steps.iter().map(|s| s.owner).collect();

    for i in 0..n {
        let waited_on = steps[(i + 1) % n].owner;
        let inner: Option<ShardPos> = requesting_any(shards, waited_on)
            .map(|(s, _, p)| (s, p))
            .or_else(|| yielding_any(shards, waited_on).map(|(s, y)| (s, y.position)));
        let outer: Option<ShardPos> = match &steps[i].edge {
            WaitEdge::Lock(lock) => {
                // The waited-on thread is one owner among possibly several
                // (a reader crowd): the template position is *its* `acqPos`.
                let s = shard_index(*lock, shards.len());
                shard(&shards[s])
                    .rag()
                    .acq_pos_of(*lock, waited_on)
                    .map(|p| (s, p))
            }
            WaitEdge::Yield(_) => {
                involves_yield = true;
                last_history_hold_merged(shards, waited_on)
                    .or_else(|| last_hold_merged(shards, waited_on))
                    .or(inner)
            }
        };
        pairs.push(SignaturePair::new(
            stack_at(shards, outer),
            stack_at(shards, inner),
        ));
    }

    if steps.iter().any(|s| matches!(s.edge, WaitEdge::Yield(_))) {
        involves_yield = true;
    }

    let kind = if involves_yield {
        SignatureKind::Starvation
    } else {
        SignatureKind::Deadlock
    };
    crate::detection::DetectedCycle {
        owners,
        involves_yield,
        signature: Signature::new(kind, pairs),
    }
}

/// The merged instantiation check, in the shared snapshot's canonical
/// outer-position namespace (`outer` is the requesting position's canonical
/// id): candidate threads per outer slot are the union of every shard's
/// local queue at that slot (queue entries for one program location are
/// distributed across the shards whose locks were granted there). All
/// shards read the same snapshot `Arc`, so canonical ids are the common
/// coordinate system across shards by construction.
///
/// `lock` and `mode` are the requested lock and access mode. When the
/// request is [`AccessMode::Shared`], a thread whose only occupancy of a
/// slot is its own **shared hold of the same lock** is *not* a blocker:
/// the requester would join that thread's reader crowd, and two shared
/// holders of one lock cannot block each other, so the mutual-wait pattern
/// the signature predicts cannot run through that pair. Without this
/// carve-out every reader joining a crowd at a history position would be
/// parked against its own crowd-mates — a spurious (fail-safe) refusal.
///
/// The monolithic engine's avoidance check is the one-shard call
/// (`&[&engine]`, `home = 0`) — one implementation, so the single-engine
/// and sharded decisions cannot drift. `scratch` is the caller's reused
/// working memory; nothing is read from it.
pub(crate) fn find_instantiation_merged(
    shards: &[Option<impl Held>],
    home: usize,
    thread: OwnerId,
    outer: PositionId,
    lock: LockId,
    mode: AccessMode,
    scratch: &mut MatchScratch,
) -> Option<Instantiation> {
    let snapshot = shard(&shards[home]).history_snapshot();
    'sigs: for &sig in snapshot.index().signatures_at(outer) {
        let slots = snapshot.index().outer_positions_of(sig);
        // Screen: a slot nobody occupies on any shard is only coverable by
        // the pre-assigned requester, and the requester stands at `outer`,
        // so a signature with such a slot elsewhere cannot instantiate
        // whatever its other slots hold. Reject it on O(arity) reads, before
        // a single candidate is collected — the common case at a popular
        // position, where nearly every co-indexed signature has a cold slot.
        let cold = |slot: PositionId| {
            let mut local = shards
                .iter()
                .filter_map(|s| shard(s).local_position_of_outer(slot));
            local.all(|p| p.queue().is_empty())
        };
        if slots.iter().any(|slot| *slot != outer && cold(*slot)) {
            continue;
        }
        let cap = slots.len();
        scratch.clear();
        for slot in slots {
            for s in shards.iter().map(shard) {
                let Some(p) = s.local_position_of_outer(*slot) else {
                    continue;
                };
                // Each shard offers its own prefix of `cap`: the `cap`
                // smallest of the union are among those. Crowd-mates
                // (shared mode: owners whose only occupancy of this slot
                // is a shared hold of the requested lock) are not
                // adversaries and must not consume the cap.
                let keep =
                    |c| c != thread && !(mode.is_shared() && crowd_mate_occupancy(s, p, c, lock));
                for c in p.queue().distinct_owners_capped(cap, keep) {
                    scratch.offer(c, cap);
                }
            }
            if !scratch.end_slot() && *slot != outer {
                // Occupied, but only by the requester itself or by its
                // crowd-mates: as good as cold.
                continue 'sigs;
            }
        }
        if let Some(blockers) = scratch.instantiate(slots, outer) {
            // The one shared match point of the monolithic and sharded
            // request paths: refresh the antibody's eviction generation so
            // a signature that is actively steering schedules never counts
            // as stale.
            snapshot.note_matched(sig);
            return Some(Instantiation {
                signature: sig,
                blockers,
            });
        }
    }
    None
}

/// True if every occupancy of position `p` by thread `c` in shard `s` (which
/// interned `p`) is explained by a shared hold of `lock` itself — i.e. `c`
/// covers the slot only as a member of the reader crowd the requester is
/// about to join. The owner-entry probe runs
/// first so the O(queue) occupancy count is paid only for actual
/// crowd-mates, never for ordinary candidates.
fn crowd_mate_occupancy(s: &Dimmunix, p: &crate::Position, c: OwnerId, lock: LockId) -> bool {
    let crowd = s
        .rag()
        .owner_entry(lock, c)
        .map(|o| usize::from(o.mode.is_shared() && o.pos == p.id()))
        .unwrap_or(0);
    crowd > 0 && p.queue().count(c) <= crowd
}

/// True if parking `t` (with the given blockers) would close a wait-for
/// cycle, i.e. some blocker transitively waits on `t`. The monolithic engine
/// asks the same question as the one-shard call. The worklist is the
/// candidate buffer of `scratch`, free again once a match was extracted.
pub(crate) fn would_starve_merged(
    shards: &[Option<impl Held>],
    t: OwnerId,
    blockers: &[OwnerId],
    scratch: &mut MatchScratch,
) -> bool {
    // Every owner reached so far, in discovery order; `next` splits the
    // expanded from the pending.
    let reached = scratch.worklist(blockers);
    let mut next = 0;
    while let Some(current) = reached.get(next).copied() {
        if current == t {
            return true;
        }
        next += 1;
        merged_successors(shards, current, true, |succ, _| {
            if !reached.contains(&succ) {
                reached.push(succ);
            }
        });
    }
    false
}

/// Builds the signature of an avoidance-induced deadlock: one pair per
/// participant (the would-be parked owner, whose request `home` answers, plus
/// its blockers), using the most informative stable position for each.
pub(crate) fn starvation_signature_merged(
    shards: &[Option<impl Held>],
    home: usize,
    pos: PositionId,
    blockers: &[OwnerId],
) -> Signature {
    let mut pairs = Vec::with_capacity(1 + blockers.len());
    let requester_stack = stack_at(shards, Some((home, pos)));
    pairs.push(SignaturePair::new(requester_stack.clone(), requester_stack));
    for b in blockers {
        let requesting = requesting_any(shards, *b).map(|(s, _, p)| (s, p));
        let outer = last_history_hold_merged(shards, *b)
            .or_else(|| last_hold_merged(shards, *b))
            .or(requesting);
        let inner = requesting.or(outer);
        pairs.push(SignaturePair::new(
            stack_at(shards, outer),
            stack_at(shards, inner),
        ));
    }
    Signature::new(SignatureKind::Starvation, pairs)
}

/// Appends `sig` to the shared history and installs the successor snapshot
/// into every shard. The append itself — snapshot construction plus one
/// history-log record — happens exactly once, on the first shard; the
/// remaining shards only swap their `Arc` and reconcile their local
/// position links. Then, if `sig` was new, `on_install` runs over every
/// shard (see [`ShardAccess`]). `shards` must contain every shard, held
/// under the all-shard lock (ascending order) when the shards live behind
/// mutexes.
fn broadcast_signature(
    shards: &mut [Option<impl Held>],
    sig: Signature,
    on_install: &mut impl FnMut(&mut [&mut Dimmunix]),
) -> (SignatureId, bool) {
    let (id, new) = at(shards, 0).insert_signature(sig);
    if new {
        let snapshot = Arc::clone(at(shards, 0).history_snapshot());
        for i in 1..shards.len() {
            at(shards, i).install_snapshot(Arc::clone(&snapshot));
        }
        let mut engines: Vec<&mut Dimmunix> = shards
            .iter_mut()
            .map(|s| s.as_deref_mut().expect("slot of an existing shard"))
            .collect();
        on_install(&mut engines);
    }
    debug_assert!(
        shards.windows(2).all(|w| Arc::ptr_eq(
            shard(&w[0]).history_snapshot(),
            shard(&w[1]).history_snapshot()
        )),
        "shards must share one history snapshot"
    );
    (id, new)
}

// ----------------------------------------------------------------------
// The deterministic sharded engine
// ----------------------------------------------------------------------

/// The shards a [`ShardedDimmunix`] owns outright: holding one is a `&mut`
/// borrow, so the ladder runs without a single lock.
#[derive(Debug)]
struct OwnedShards {
    engines: Vec<Dimmunix>,
    /// Global acquisition counter stamped into every shard's RAG holds.
    next_seq: u64,
}

impl ShardAccess for OwnedShards {
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
        self.next_seq += 1;
        self.next_seq - 1
    }
}

/// A sharded, deterministic Dimmunix engine.
///
/// Semantically a [`Dimmunix`] whose state is partitioned by lock id across
/// `N` internal shards (see the module docs for the ownership model). Like
/// the monolithic engine it contains no interior locking: it runs the
/// [`ShardAccess`] ladder's tiers 2–3 without a lock, the same code the
/// `dimmunix-rt` runtime runs under its per-shard mutexes, while tests and
/// simulators drive this type directly and rely on its determinism.
///
/// ```
/// use dimmunix_core::{CallStack, Config, Frame, LockId, ShardedDimmunix, OwnerId};
///
/// let mut engine = ShardedDimmunix::new(Config::default(), 8);
/// let t = OwnerId::thread(1);
/// let l = LockId::new(1);
/// let site = CallStack::single(Frame::new("worker", "app.rs", 42));
/// assert!(engine.request(t, l, &site).is_granted());
/// engine.acquired(t, l);
/// let _wake = engine.released(t, l);
/// assert_eq!(engine.stats().grants, 1);
/// ```
// Not `Clone`: every shard shares one attached admission summary, whose
// atomics a clone would share too.
#[derive(Debug)]
pub struct ShardedDimmunix {
    shards: OwnedShards,
    owner_routes: IdHashMap<OwnerId, OwnerRoute>,
    /// Wake-ups the ladder drained from the shards and handed to its
    /// wake-all sink, kept for [`take_pending_wakeups`](Self::take_pending_wakeups).
    woken: Vec<SignatureId>,
}

impl ShardedDimmunix {
    /// Creates a sharded engine with `shards` shards (clamped to
    /// `1..=`[`MAX_SHARDS`]). If the configuration names a history log, it
    /// is replayed once and the resulting snapshot is shared by every
    /// shard.
    pub fn new(config: Config, shards: usize) -> Self {
        let first = Dimmunix::new(config.clone());
        Self::from_first(config, shards, first)
    }

    /// Creates a sharded engine with an explicit starting history. The
    /// snapshot is bulk-built once and shared by every shard.
    pub fn with_history(config: Config, shards: usize, history: History) -> Self {
        let first = Dimmunix::with_history(config.clone(), history);
        Self::from_first(config, shards, first)
    }

    /// Completes construction from the first shard: the remaining shards
    /// receive clones of its snapshot `Arc`, never their own copy, and every
    /// shard the one admission summary the ladder's tier-2 gate reads.
    fn from_first(config: Config, shards: usize, mut first: Dimmunix) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS);
        let snapshot = Arc::clone(first.history_snapshot());
        let summary = Arc::new(AdmissionSummary::new());
        // One stack interner serves every shard: a site hot on several
        // shards is resident once, not once per shard.
        let interner = Arc::new(crate::StackInterner::new());
        first.attach_admission_summary(Arc::clone(&summary));
        first.share_stack_interner(Arc::clone(&interner));
        let mut engines = Vec::with_capacity(shards);
        engines.push(first);
        for _ in 1..shards {
            let mut shard = Dimmunix::with_snapshot(config.clone(), Arc::clone(&snapshot));
            shard.attach_admission_summary(Arc::clone(&summary));
            shard.share_stack_interner(Arc::clone(&interner));
            engines.push(shard);
        }
        ShardedDimmunix {
            shards: OwnedShards {
                engines,
                next_seq: 1,
            },
            owner_routes: IdHashMap::default(),
            woken: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.engines.len()
    }

    /// The shard owning `lock`.
    pub fn shard_of(&self, lock: LockId) -> usize {
        self.shards.shard_of(lock)
    }

    /// Read access to one shard (tests and diagnostics).
    pub fn shard(&self, index: usize) -> &Dimmunix {
        &self.shards.engines[index]
    }

    /// Diagnostics of the history-log recovery performed at construction
    /// (the replay happens once, on the first shard; see
    /// [`Dimmunix::recovery_report`]). `None` when no log replay happened.
    pub fn recovery_report(&self) -> Option<&crate::RecoveryReport> {
        self.shard(0).recovery_report()
    }

    /// The engine configuration (identical across shards).
    pub fn config(&self) -> &Config {
        self.shard(0).config()
    }

    /// The deadlock history (read from the shared snapshot).
    pub fn history(&self) -> &History {
        self.shard(0).history()
    }

    /// The shared history snapshot all shards read.
    pub fn history_snapshot(&self) -> &Arc<HistorySnapshot> {
        self.shard(0).history_snapshot()
    }

    /// Rolled-up activity counters: the sum of every shard's [`Stats`].
    pub fn stats(&self) -> Stats {
        Stats::merged(self.shards.engines.iter().map(|s| s.stats()))
    }

    /// Estimated resident memory added by the sharded engine, in bytes.
    /// The shared history snapshot is charged **once**; each shard adds
    /// only its local state (positions, RAG, outer links), so the figure
    /// stays essentially flat as the shard count grows.
    pub fn memory_footprint_bytes(&self) -> usize {
        self.history_snapshot().memory_footprint_bytes()
            + self
                .shards
                .engines
                .iter()
                .map(|s| s.local_memory_footprint_bytes())
                .sum::<usize>()
    }

    /// Registers an owner (thread or task) on every shard. Idempotent.
    pub fn register_owner(&mut self, t: impl Into<OwnerId>) {
        let t = t.into();
        for s in &mut self.shards.engines {
            s.register_owner(t);
        }
    }

    /// Unregisters a terminated owner on every shard, force-releasing
    /// anything it still held; returns the merged wake-up list.
    pub fn unregister_owner(&mut self, t: impl Into<OwnerId>) -> Vec<SignatureId> {
        let t = t.into();
        let mut wake = Vec::new();
        self.shards
            .retire_locked(t, |sigs| wake.extend_from_slice(sigs));
        self.owner_routes.remove(&t);
        wake
    }

    /// Registers a lock on its home shard. Idempotent.
    pub fn register_lock(&mut self, l: LockId) {
        let home = self.shard_of(l);
        self.shards.engines[home].register_lock(l);
    }

    /// Unregisters a lock from its home shard.
    pub fn unregister_lock(&mut self, l: LockId) {
        let home = self.shard_of(l);
        self.shards.engines[home].unregister_lock(l);
    }

    /// Adds a signature to the shared history and installs the successor
    /// snapshot into every shard; returns its id and whether it was new.
    pub fn add_signature(&mut self, sig: Signature) -> (SignatureId, bool) {
        self.shards.add_signature_locked(sig, |_| {})
    }

    /// Called before a monitor (exclusive) acquisition; see
    /// [`Dimmunix::request`].
    pub fn request(
        &mut self,
        t: impl Into<OwnerId>,
        l: LockId,
        stack: &CallStack,
    ) -> RequestOutcome {
        self.request_mode(t, l, stack, AccessMode::Exclusive)
    }

    /// Called before an acquisition in the given access mode; see
    /// [`Dimmunix::request_mode`].
    pub fn request_mode(
        &mut self,
        t: impl Into<OwnerId>,
        l: LockId,
        stack: &CallStack,
        mode: AccessMode,
    ) -> RequestOutcome {
        let t = t.into();
        let route = self.owner_routes.entry(t).or_default();
        let woken = &mut self.woken;
        self.shards.decide_locked(
            t,
            route,
            None::<(LockId, fn(&mut Dimmunix, u64))>,
            l,
            stack,
            mode,
            |_| {},
            |sigs| woken.extend_from_slice(sigs),
            |_| {},
        )
    }

    /// Called right after the monitor acquisition succeeded; see
    /// [`Dimmunix::acquired`]. Stamps the hold with the engine-global
    /// acquisition sequence.
    pub fn acquired(&mut self, t: impl Into<OwnerId>, l: LockId) {
        let t = t.into();
        let acquired = self.shards.finish_locked(t, l);
        acquired(self.owner_routes.entry(t).or_default());
    }

    /// Called right before the monitor is released; see
    /// [`Dimmunix::released`].
    pub fn released(&mut self, t: impl Into<OwnerId>, l: LockId) -> Vec<SignatureId> {
        let mut wake = Vec::new();
        self.released_into(t, l, &mut wake);
        wake
    }

    /// Allocation-free release path; see [`Dimmunix::released_into`].
    pub fn released_into(&mut self, t: impl Into<OwnerId>, l: LockId, wake: &mut Vec<SignatureId>) {
        let t = t.into();
        wake.clear();
        let released = self
            .shards
            .release_locked(t, l, |sigs| wake.extend_from_slice(sigs));
        released(self.owner_routes.entry(t).or_default());
    }

    /// Abandons a granted-but-never-completed acquisition; see
    /// [`Dimmunix::cancel_request`].
    pub fn cancel_request(&mut self, t: impl Into<OwnerId>, l: LockId) {
        let t = t.into();
        let woken = &mut self.woken;
        let (_, cancelled) = self
            .shards
            .cancel_locked(t, l, |sigs| woken.extend_from_slice(sigs));
        cancelled(self.owner_routes.entry(t).or_default());
    }

    /// Drains wake-ups scheduled outside the release path (starvation
    /// resolution, cancellations, evictions); see
    /// [`Dimmunix::take_pending_wakeups`].
    pub fn take_pending_wakeups(&mut self) -> Vec<SignatureId> {
        let mut out = std::mem::take(&mut self.woken);
        for s in &mut self.shards.engines {
            out.extend(s.take_pending_wakeups());
        }
        out
    }

    /// Rewrites the configured history log to exactly the shared history
    /// (compaction); see [`Dimmunix::save_history`]. Normal operation
    /// appends single records instead.
    ///
    /// # Errors
    /// Returns an error if no path is configured or the write fails.
    pub fn save_history(&self) -> crate::error::Result<()> {
        self.shard(0).save_history()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn yielded() -> RequestOutcome {
        RequestOutcome::Yield {
            signature: SignatureId::new(0),
        }
    }

    #[test]
    fn holds_on_any_shard_force_the_cross_path() {
        let mut r = OwnerRoute::default();
        assert!(r.is_idle() && (0..MAX_SHARDS).all(|home| r.local_eligible(home)));
        r.after_acquired(MAX_SHARDS - 1, true);
        r.after_acquired(2, true);
        assert!((0..MAX_SHARDS).all(|home| !r.local_eligible(home)));
        // Bits are per shard, and a shard's bit follows its RAG, not a count.
        r.after_released(MAX_SHARDS - 1, false);
        r.after_released(2, true);
        assert!(!r.is_idle() && !r.local_eligible(2));
        r.after_released(2, false);
        assert!(r.is_idle());
    }

    #[test]
    fn a_stale_edge_blocks_tier_one_and_every_shard_but_its_own() {
        let refused = RequestOutcome::DeadlockDetected {
            signature: SignatureId::new(0),
            new_signature: true,
            owners: Vec::new(),
        };
        for outcome in [yielded(), refused] {
            let mut r = OwnerRoute::default();
            r.after_request(&outcome, 3);
            assert_eq!(r.stale_shard, Some(3));
            assert!(!r.is_idle() && r.local_eligible(3) && !r.local_eligible(4));
        }
    }

    #[test]
    fn only_a_grant_or_the_home_shard_clears_a_stale_edge() {
        let mut r = OwnerRoute::default();
        r.after_request(&yielded(), 3);
        r.after_request(&RequestOutcome::GrantedReentrant, 5);
        r.after_cancel(4);
        r.after_acquired(4, false);
        assert_eq!(r.stale_shard, Some(3));
        r.after_cancel(3);
        assert_eq!(r.stale_shard, None);
        r.after_request(&yielded(), 3);
        r.after_acquired(3, true);
        assert_eq!(r.stale_shard, None);
        r.after_request(&yielded(), 3);
        r.after_request(&RequestOutcome::Granted, 5);
        assert_eq!(r.stale_shard, None);
    }
}
