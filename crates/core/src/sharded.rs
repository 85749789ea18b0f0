//! The sharded Dimmunix engine: lock-id partitioning with a cross-shard
//! detection path.
//!
//! The paper serializes the three Dimmunix hooks behind one global VM lock
//! (§4), which is fine on a 2007 phone but makes every acquisition in a
//! heavily threaded process serialize through a single mutex. This module
//! splits the engine state into `N` shards keyed by lock id, so uncontended
//! acquisitions of locks on different shards never touch the same state:
//!
//! * **A shard owns the locks that hash to it**: their RAG lock nodes, every
//!   owner's outstanding acquisitions of them (requested, parked or
//!   granted), the position-queue entries created by grants of its locks,
//!   and its own [`Stats`] (rolled up on read).
//! * **Every shard reads one shared, immutable [`HistorySnapshot`]** — the
//!   history, the canonical outer-position table, and the
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
//! the cross-shard path ([`decide`], tier 3): the implementor holds
//! **all shards in ascending index order** (a total order, so two concurrent
//! cross-shard requests cannot deadlock the engine itself) and the decision
//! is computed against the merged view:
//!
//! * the merged wait-for relation is the concatenation of the per-shard
//!   relations: an owner's out-edges are those of its outstanding
//!   acquisitions, and each acquisition lives in the shard of its lock, so
//!   concatenation yields every edge exactly once;
//! * the merged occupancy of a signature's outer position is the union of
//!   every shard's local queue at that slot;
//! * hold-recency queries (`detection::latest_hold`) merge per-shard holds
//!   by the global acquisition sequence number stamped through
//!   [`ShardAccess::finish_locked`];
//! * a lock's **owner set** (one entry per owner — several for a reader
//!   crowd) lives whole in the lock's home shard, so the merged view unions
//!   owner sets per lock trivially: the wait-for fan-out of a request (one
//!   edge per conflicting owner) is generated inside the shard that owns
//!   both the acquisition and the lock node, and concatenation preserves
//!   it exactly.
//!
//! Detection results flow back through the owning shards: the signature is
//! appended to every replica, the yield/queue bookkeeping is written to the
//! shard that owns the affected lock, and counters land on the home shard.
//! The monolithic [`Dimmunix`] decides through the same function, as the
//! one-shard call.
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
use crate::detection::{classify_cycle, starvation_signature, DetectedCycle};
use crate::engine::{Dimmunix, RequestOutcome};
use crate::history::History;
use crate::position::PositionId;
use crate::rag::{find_cycle_with, AccessMode, AcquisitionState, CycleStep, WaitEdge, YieldRecord};
use crate::signature::Signature;
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
pub(crate) fn shard_index(lock: LockId, shards: usize) -> usize {
    if shards == 1 {
        return 0;
    }
    let mixed = lock.index().wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // High bits of the product are the well-mixed ones.
    ((mixed >> 32) % shards as u64) as usize
}

/// Per-owner routing bookkeeping kept outside the shards: the shards the
/// owner holds locks on, the ones recording an outstanding acquisition of
/// its, and whether it ever reached one. Each [`ShardAccess`] implementor
/// keeps one per owner and hands it to the ladder's steps by `&mut`; the
/// ladder alone transitions it. Outside this crate it is an opaque value
/// with two questions, [`is_idle`](Self::is_idle) and
/// [`reached_shard`](Self::reached_shard), and one transition,
/// [`after_published`](Self::after_published).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OwnerRoute {
    /// Bit `s` set while the owner holds at least one lock on shard `s`.
    holds_mask: u64,
    /// Bit `s` set while shard `s` records an outstanding acquisition of the
    /// owner: requested, parked or granted, and neither acquired nor
    /// withdrawn.
    outstanding_mask: u64,
    /// Set by the owner's first step on any shard (a RAG creates an owner
    /// node on the owner's first engine call) and never cleared.
    reached: bool,
}

impl OwnerRoute {
    /// True while no shard knows anything about the owner: no hold and no
    /// outstanding acquisition anywhere — the owner's half of the lock-free
    /// tier's precondition. An owner that waits for a lock takes no tier-1
    /// admission: a hold taken unseen during the wait would be invisible to
    /// a cycle through that wait.
    pub fn is_idle(&self) -> bool {
        self.holds_mask == 0 && self.outstanding_mask == 0
    }

    /// True once any shard may have an owner node for the owner: retiring
    /// an owner that only ever took the lock-free tier touches no shard.
    pub fn reached_shard(&self) -> bool {
        self.reached
    }

    /// The transition after a lock `owner` took on the lock-free tier was
    /// published into `engine`, shard `home`: as a hold, or as a grant its
    /// owner has yet to acquire. Like every transition it re-reads the
    /// shard's RAG, so a caller that finds the lock already published by
    /// someone else (an install) reaches the same route.
    pub fn after_published(&mut self, home: usize, engine: &Dimmunix, owner: OwnerId) {
        self.observe(home, engine.rag().holds_and_waits(owner));
    }

    /// The owner-local half of tier 2's eligibility predicate: the requester
    /// holds no lock on any shard. [`try_request_local`] has the other half
    /// and why the two suffice.
    fn local_eligible(&self) -> bool {
        self.holds_mask == 0
    }

    /// Sets shard `home`'s bits to what its RAG records of the owner after a
    /// step there: whether it holds a lock, and whether it has an
    /// outstanding acquisition. Re-derived rather than counted, so the masks
    /// can never drift.
    fn observe(&mut self, home: usize, (holds, waits): (bool, bool)) {
        let others = !(1u64 << home);
        self.holds_mask = self.holds_mask & others | u64::from(holds) << home;
        self.outstanding_mask = self.outstanding_mask & others | u64::from(waits) << home;
        self.reached = true;
    }
}

/// How an implementor holds its shards, and the one locked admission ladder
/// (tiers 2–3) over them: `dimmunix-rt` drives it over one mutex per shard,
/// [`ShardedDimmunix`] over the engines it owns.
///
/// Each provided method is a step of the ladder, keyed by [`OwnerId`]. What
/// only the runtime has — a lock-free hold to publish, a park, the wake
/// sinks, the install sink — comes in as arguments, called under the step's
/// shard locks. A step that can change the owner's [`OwnerRoute`] takes it
/// by `&mut` and updates it in place; the implementor only says where the
/// route lives. Every shard carries the implementor's one
/// [`AdmissionSummary`], which tier 2's gate reads.
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
    /// A `fast_hold` (a lock the owner took unseen by the engine while it
    /// held nothing else, and the call that publishes it through
    /// [`Dimmunix::publish`]) forces tier 3 and is published first. Tier 3
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
        fast_hold: Option<(LockId, impl FnOnce(&mut Dimmunix))>,
        lock: LockId,
        stack: &CallStack,
        mode: AccessMode,
        on_yield: impl FnOnce(SignatureId),
        wake_all: impl FnOnce(&[SignatureId]),
        mut on_install: impl FnMut(&mut [&mut Dimmunix]),
    ) -> RequestOutcome {
        let home = self.shard_of(lock);
        if fast_hold.is_none() && route.local_eligible() {
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
                if let Some(outcome) = try_request_local(&mut shard, owner, lock, stack, mode) {
                    shard.stats_mut().local_decisions += 1;
                    route.observe(home, shard.rag().holds_and_waits(owner));
                    return outcome;
                }
            }
        }

        let n = self.shard_count();
        let publish = fast_hold.map(|(held, publish)| (self.shard_of(held), publish));
        let mut all = self.lock_all();
        let shards = &mut all[..n];
        if let Some((fhome, publish)) = publish {
            // After this the owner's every hold is engine-visible, so the
            // request below sees the full wait-for relation.
            let engine = at(shards, fhome);
            publish(engine);
            route.after_published(fhome, engine, owner);
        }
        let pos = at(shards, home).intern_position(stack);
        let outcome = decide(shards, owner, lock, pos, mode, true, &mut on_install);
        let h = at(shards, home);
        h.stats_mut().cross_decisions += 1;
        route.observe(home, h.rag().holds_and_waits(owner));
        drain_wakeups(shards, wake_all);
        if let RequestOutcome::Yield { signature } = &outcome {
            on_yield(*signature);
        }
        outcome
    }

    /// Records `owner`'s completed acquisition of `lock` in its home shard,
    /// stamped with the implementor-wide acquisition sequence. If `owner`
    /// still waits on another outstanding acquisition, the new hold may
    /// have closed a wait-for cycle
    /// through it: the merged cycle search then runs under every shard lock,
    /// and a cycle found is recorded as a request-time detection records
    /// one — a starvation's scheduled wake-ups go to `wake_all`, and
    /// `on_install` runs. Returns whether a deadlock was found; an owner
    /// with nothing else outstanding (every thread) takes the home shard
    /// alone.
    #[inline(always)]
    fn finish_locked(
        &mut self,
        owner: OwnerId,
        route: &mut OwnerRoute,
        lock: LockId,
        wake_all: impl FnOnce(&[SignatureId]),
        mut on_install: impl FnMut(&mut [&mut Dimmunix]),
    ) -> bool {
        let home = self.shard_of(lock);
        let seq = self.next_seq();
        let mut shard = self.lock(home);
        shard.record_acquired(owner, lock, seq);
        let seen = shard.rag().holds_and_waits(owner);
        drop(shard);
        let waits_elsewhere = route.outstanding_mask & !(1u64 << home) != 0;
        route.observe(home, seen);
        (seen.1 || waits_elsewhere) && {
            let n = self.shard_count();
            let mut all = self.lock_all();
            let detected = detect_acquired(&mut all[..n], home, owner, &mut on_install);
            drain_wakeups(&mut all[..n], wake_all);
            detected
        }
    }

    /// Withdraws `owner`'s outstanding acquisition of `lock` — refused,
    /// parked or approved — that will not be completed; the wake-ups a
    /// vacated slot is owed go to `wake_all`. Also returns the signature the
    /// acquisition was still parked on, if any.
    #[inline(always)]
    fn cancel_locked(
        &mut self,
        owner: OwnerId,
        route: &mut OwnerRoute,
        lock: LockId,
        wake_all: impl FnOnce(&[SignatureId]),
    ) -> Option<SignatureId> {
        let home = self.shard_of(lock);
        let mut shard = self.lock(home);
        let parked = shard.rag().outstanding_on(owner, lock);
        let parked_on = parked.and_then(|a| a.parked()).map(|y| y.signature);
        shard.cancel_request(owner, lock);
        if shard.has_pending_wakeups() {
            wake_all(&shard.take_pending_wakeups());
        }
        route.observe(home, shard.rag().holds_and_waits(owner));
        parked_on
    }

    /// Releases `owner`'s hold on `lock` in its home shard; the signatures
    /// the release may de-instantiate go to `wake_front`.
    #[inline(always)]
    fn release_locked(
        &mut self,
        owner: OwnerId,
        route: &mut OwnerRoute,
        lock: LockId,
        wake_front: impl FnOnce(&[SignatureId]),
    ) {
        let home = self.shard_of(lock);
        let mut shard = self.lock(home);
        let wake = shard.release(owner, lock);
        if !wake.is_empty() {
            wake_front(wake);
        }
        route.observe(home, shard.rag().holds_and_waits(owner));
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
/// holds no lock on **any** shard ([`OwnerRoute::local_eligible`]), and **no
/// live yield record names it as a blocker** (a blocker list is a snapshot,
/// so a starvation cycle can run through a hold-free owner, but only along
/// a yield edge naming it). With no possible in-edge no cycle can pass
/// through it, so the shard-local decision is the monolithic one, and the
/// cycle search it would run is skipped ([`Dimmunix::request_hold_free`]).
/// Its outstanding acquisitions on other shards are untouched by the
/// decision, as they are on the all-shard path.
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

/// The one request decision — the paper's `lockMonitor` check — against
/// the full multi-shard view (tier 3); the monolithic engine and tier 2 are
/// its one-shard calls.
///
/// `shards` must contain **every** shard, held in ascending index order (the
/// slots of [`ShardAccess::lock_all`]), and `pos` is the requesting position
/// as `l`'s home shard interned it. The request opens `t`'s outstanding
/// acquisition of `l` on the home shard; its acquisitions of other locks
/// stay where they are. `search_cycles` is false only when the caller proved
/// that no cycle can run through `t`. Detection and avoidance read the
/// merged state as described in the module docs.
pub(crate) fn decide(
    shards: &mut [Option<impl Held>],
    t: OwnerId,
    l: LockId,
    pos: PositionId,
    mode: AccessMode,
    search_cycles: bool,
    on_install: &mut impl FnMut(&mut [&mut Dimmunix]),
) -> RequestOutcome {
    let home = shard_index(l, shards.len());
    let h = at(shards, home);
    h.stats_mut().requests += 1;

    if h.config().is_disabled() {
        h.stats_mut().grants += 1;
        h.rag_mut().register_lock(l);
        return RequestOutcome::Granted;
    }
    let starvation_handling = h.config().starvation_handling;

    // Reentrant fast path: a thread never deadlocks against itself on a
    // lock it already owns (in any mode — a read-to-write upgrade is a
    // self-deadlock the engine cannot rescue, exactly like
    // `std::sync::RwLock`).
    if h.rag().owns(l, t) {
        h.stats_mut().reentrant_grants += 1;
        return RequestOutcome::GrantedReentrant;
    }
    // If the owner is retrying after a yield, its acquisition is no longer
    // parked.
    h.open_request(t, l, pos, mode);

    // --- Detection (merged wait-for relation) --------------------------
    let include_yields = starvation_handling;
    debug_assert!(
        search_cycles || merged_cycle(shards, t, include_yields).is_none(),
        "a hold-free request that no yield record names closed a cycle"
    );
    let detected = search_cycles
        .then(|| merged_cycle(shards, t, include_yields))
        .flatten()
        .map(|steps| classify_cycle(shards, &steps));
    if let Some(detected) = detected {
        let (signature, new_signature) = record_cycle(shards, home, &detected, on_install);
        if !detected.involves_yield {
            return RequestOutcome::DeadlockDetected {
                signature,
                new_signature,
                owners: detected.owners,
            };
        }
        // A starvation: the requester itself is then treated by the
        // avoidance logic below.
    }

    // --- Avoidance (merged queue occupancy) ----------------------------
    // (A starvation recorded just above may have been the first signature.)
    if !at(shards, home).history().is_empty() {
        let h = at(shards, home);
        h.stats_mut().instantiation_checks += 1;
        // Hot path: positions no signature mentions carry no `history_ref`
        // link, so the check is one `Option` read —
        // O(signatures-at-this-position) otherwise, never O(|history|). The
        // linear `avoidance::find_instantiation` remains the
        // property-tested oracle.
        let outer = h.positions().get(pos).and_then(|p| p.history_ref());
        if let Some(outer) = outer {
            let examined = h.signature_index().signatures_at(outer).len() as u64;
            h.stats_mut().signatures_examined += examined;
            // The home shard lends its scratch for the length of the check.
            let mut scratch = std::mem::take(h.match_scratch_mut());
            // One read-only view serves the instantiation check and, when it
            // matches, the starvation probe over the same state.
            let ro = &*shards;
            let inst = find_instantiation_merged(ro, home, t, outer, l, mode, &mut scratch);
            let starvation_sig = inst
                .as_ref()
                .filter(|i| {
                    starvation_handling && would_starve_merged(ro, t, &i.blockers, &mut scratch)
                })
                .map(|i| starvation_signature(ro, home, pos, &i.blockers));
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
                let record = YieldRecord {
                    signature: inst.signature,
                    blockers: inst.blockers,
                };
                h.park_tracked(t, l, record);
                return RequestOutcome::Yield {
                    signature: inst.signature,
                };
            }
        }
    }

    // --- Grant ----------------------------------------------------------
    let h = at(shards, home);
    h.stats_mut().grants += 1;
    if let Some(p) = h.positions_mut().get_mut(pos) {
        p.queue_mut().push(t);
    }
    h.rag_mut().set_state(t, l, AcquisitionState::Granted);
    RequestOutcome::Granted
}

/// Records a detected cycle: its signature broadcast to every shard and
/// counted on `home`. A starvation (a cycle through a park) also resumes
/// every parked participant (§2.2): its acquisitions, wherever they live,
/// are un-parked and their wake-ups scheduled on `home`. Returns the
/// signature and whether it was new.
fn record_cycle(
    shards: &mut [Option<impl Held>],
    home: usize,
    detected: &DetectedCycle,
    on_install: &mut impl FnMut(&mut [&mut Dimmunix]),
) -> (SignatureId, bool) {
    let (id, new) = broadcast_signature(shards, detected.signature.clone(), on_install);
    let stats = at(shards, home).stats_mut();
    if !detected.involves_yield {
        stats.deadlocks_detected += 1;
        stats.new_deadlock_signatures += u64::from(new);
        return (id, new);
    }
    stats.starvations_detected += 1;
    stats.new_starvation_signatures += u64::from(new);
    for th in &detected.owners {
        for i in 0..shards.len() {
            while let Some(y) = at(shards, i).unpark_tracked(*th) {
                let h = at(shards, home);
                h.push_pending_wakeup(y.signature);
                h.stats_mut().wakeups += 1;
            }
        }
    }
    (id, new)
}

/// Detection at an acquisition: `t` just took a lock on shard `home` while
/// another acquisition of its is outstanding, so the owners waiting for the
/// new hold may close a cycle through `t` — one no request of theirs will
/// look for. `shards` must contain every shard, as for [`decide`]; the
/// search and the record are [`decide`]'s. Returns whether a deadlock (not
/// a starvation) was found.
pub(crate) fn detect_acquired(
    shards: &mut [Option<impl Held>],
    home: usize,
    t: OwnerId,
    on_install: &mut impl FnMut(&mut [&mut Dimmunix]),
) -> bool {
    let include_yields = at(shards, home).config().starvation_handling;
    let Some(steps) = merged_cycle(shards, t, include_yields) else {
        return false;
    };
    let detected = classify_cycle(shards, &steps);
    record_cycle(shards, home, &detected, on_install);
    !detected.involves_yield
}

/// Hands every shard's scheduled wake-ups to `wake_all`, if there are any
/// (starvation resolution, cancellations and evictions schedule them; a
/// step that did none of these, nearly every one, has none to drain).
fn drain_wakeups(shards: &mut [Option<impl Held>], wake_all: impl FnOnce(&[SignatureId])) {
    if shards.iter().any(|s| shard(s).has_pending_wakeups()) {
        let pending: Vec<SignatureId> = (0..shards.len())
            .flat_map(|i| at(shards, i).take_pending_wakeups())
            .collect();
        wake_all(&pending);
    }
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

pub(crate) fn shard(s: &Option<impl Held>) -> &Dimmunix {
    s.as_deref().expect("slot of an existing shard")
}

fn at(shards: &mut [Option<impl Held>], index: usize) -> &mut Dimmunix {
    shards[index]
        .as_deref_mut()
        .expect("slot of an existing shard")
}

/// The merged wait-for successors of `t`: concatenation of the per-shard
/// relations. Each of `t`'s outstanding acquisitions lives in the shard of
/// its lock, with that lock's owners, so concatenation yields exactly the
/// monolithic successor list.
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

/// A wait-for cycle through `t` over the merged relation, if any.
fn merged_cycle(
    shards: &[Option<impl Held>],
    t: OwnerId,
    include_yields: bool,
) -> Option<Vec<CycleStep>> {
    find_cycle_with(t, |th, out| {
        merged_successors(shards, th, include_yields, |next, edge| {
            out.push((next, edge))
        });
    })
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
/// The monolithic engine reaches it through [`decide`]'s one-shard call —
/// one implementation, so the single-engine and sharded decisions cannot
/// drift. `scratch` is the caller's reused working memory; nothing is read
/// from it.
fn find_instantiation_merged(
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
fn would_starve_merged(
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
            None::<(LockId, fn(&mut Dimmunix))>,
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
        let route = self.owner_routes.entry(t).or_default();
        let woken = &mut self.woken;
        let wake_all = |sigs: &[SignatureId]| woken.extend_from_slice(sigs);
        self.shards.finish_locked(t, route, l, wake_all, |_| {});
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
        let route = self.owner_routes.entry(t).or_default();
        self.shards
            .release_locked(t, route, l, |sigs| wake.extend_from_slice(sigs));
    }

    /// Abandons a granted-but-never-completed acquisition; see
    /// [`Dimmunix::cancel_request`].
    pub fn cancel_request(&mut self, t: impl Into<OwnerId>, l: LockId) {
        let t = t.into();
        let route = self.owner_routes.entry(t).or_default();
        let woken = &mut self.woken;
        self.shards
            .cancel_locked(t, route, l, |sigs| woken.extend_from_slice(sigs));
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

    #[test]
    fn holds_on_any_shard_force_the_cross_path() {
        let mut r = OwnerRoute::default();
        assert!(r.is_idle() && r.local_eligible() && !r.reached_shard());
        r.observe(MAX_SHARDS - 1, (true, false));
        r.observe(2, (true, false));
        assert!(!r.local_eligible());
        // Bits are per shard, and a shard's bit follows its RAG, not a count.
        r.observe(MAX_SHARDS - 1, (false, false));
        r.observe(2, (true, false));
        assert!(!r.is_idle() && !r.local_eligible());
        r.observe(2, (false, false));
        // Idle again, but a shard has seen the owner: retiring it must
        // reach the shards.
        assert!(r.is_idle() && r.reached_shard());
    }

    #[test]
    fn an_outstanding_acquisition_blocks_tier_one_but_not_tier_two() {
        let mut r = OwnerRoute::default();
        r.observe(3, (false, true));
        r.observe(5, (false, true));
        assert!(!r.is_idle() && r.local_eligible());
        // Withdrawing one leaves the other outstanding.
        r.observe(3, (false, false));
        assert!(!r.is_idle());
        r.observe(5, (false, false));
        assert!(r.is_idle());
    }
}
