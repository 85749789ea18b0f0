//! The resource allocation graph (RAG).
//!
//! Dimmunix maintains the synchronization state of the process in a RAG
//! (§2.2): lock nodes point to the owners holding them (annotated with the
//! call stack of each acquisition, `acqPos`), and owner nodes point to the
//! locks they are requesting (annotated with the requesting call stack). A
//! cycle through a requesting owner means a deadlock is about to occur.
//! Owners parked by the avoidance module add *yield* edges towards the
//! owners blocking the matched signature; cycles through yield edges are
//! avoidance-induced deadlocks (starvation).
//!
//! ## Outstanding acquisitions
//!
//! An owner node keeps one [`Acquisition`] per lock the owner has requested
//! and not yet acquired: a thread has at most one, a task polling two lock
//! futures at once (`join!`) has two. Each carries its own position, mode
//! and [`AcquisitionState`] — requested, parked by avoidance, or granted —
//! and each is a wait of its own. Under the AND model (Holt 1972; Knapp
//! 1987) an owner blocked on several acquisitions is deadlocked by a cycle
//! through any one of them, so the wait-for successors of an owner are the
//! edges of all of its acquisitions.
//!
//! The graph is keyed by [`OwnerId`], not raw thread ids: the paper's
//! thread-keyed RAG is the `OwnerId::Thread` instantiation, and async
//! substrates feed `OwnerId::Task` identities so cycles among tasks
//! multiplexed onto a small worker pool stay visible. The engine never
//! inspects which arm an owner is — every query below is owner-agnostic.
//!
//! ## Multi-owner lock nodes
//!
//! The paper's RAG models Java monitors: one owner per lock. This graph
//! generalizes the lock node to a **set of owners**, each with its own
//! acquisition position, [`AccessMode`], and recursion depth, so
//! reader–writer locks are represented exactly: every reader of a crowd
//! holds its own edge, a writer blocked behind the crowd waits on *all*
//! current readers (the wait-for successors fan out per owner), and
//! releasing one owner leaves the others untouched. Mutexes and monitors
//! are the one-owner special case ([`AccessMode::Exclusive`]), for which
//! every query below degenerates to the paper's single-owner semantics.

use crate::position::PositionId;
use crate::{IdHashMap, LockId, OwnerId, SignatureId};

/// How an owner holds (or requests) a lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Mutual exclusion: a mutex, a monitor, or the write side of an rwlock.
    Exclusive,
    /// Shared access: the read side of an rwlock. Shared holders of the same
    /// lock do not block each other.
    Shared,
}

impl AccessMode {
    /// True if a holder in `self` mode blocks (or is blocked by) a holder or
    /// requester in `other` mode on the same lock. Only shared/shared is
    /// compatible.
    pub fn conflicts_with(self, other: AccessMode) -> bool {
        !(self == AccessMode::Shared && other == AccessMode::Shared)
    }

    /// True for [`AccessMode::Shared`].
    pub fn is_shared(self) -> bool {
        self == AccessMode::Shared
    }
}

/// Why an owner is waiting on another owner in the wait-for relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitEdge {
    /// The owner requests this lock, held by the successor owner.
    Lock(LockId),
    /// The owner was parked by avoidance and waits for the successor owner
    /// (one of the blockers of the matched signature) to make progress.
    Yield(SignatureId),
}

/// Record attached to an acquisition parked by the avoidance module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YieldRecord {
    /// The history signature whose instantiation is being avoided.
    pub signature: SignatureId,
    /// The other owners currently covering the signature's outer positions.
    pub blockers: Vec<OwnerId>,
}

/// Where an outstanding acquisition stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcquisitionState {
    /// Requested and not (or not yet) approved: being decided, or refused as
    /// a deadlock and not yet withdrawn.
    Requested,
    /// Parked by avoidance until the signature is notified.
    Parked(YieldRecord),
    /// Approved; occupies its position's queue slot until acquired or
    /// withdrawn.
    Granted,
}

/// One outstanding acquisition: a lock an owner requested and has neither
/// acquired nor withdrawn since. Each is a wait-for out-edge of its owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acquisition {
    /// The requested lock.
    pub lock: LockId,
    /// Call-stack position of the request.
    pub pos: PositionId,
    /// The requested access mode.
    pub mode: AccessMode,
    /// What the engine decided so far.
    pub state: AcquisitionState,
}

impl Acquisition {
    /// The yield record, if the acquisition is parked.
    pub fn parked(&self) -> Option<&YieldRecord> {
        match &self.state {
            AcquisitionState::Parked(y) => Some(y),
            _ => None,
        }
    }
}

/// One lock currently held by an owner: the lock, its acquisition position
/// (`acqPos`), its access mode, and the acquisition sequence number.
///
/// The sequence number is what keeps "latest hold" queries meaningful when
/// the engine state is sharded by lock id: each shard's RAG only sees the
/// holds of its own locks, so a merged view re-establishes the global
/// acquisition order by sorting on `seq` (the sharded engine feeds every
/// shard from one monotonic counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeldEntry {
    /// The held lock.
    pub lock: LockId,
    /// Call-stack position of the acquisition.
    pub pos: PositionId,
    /// Whether the hold is exclusive or shared.
    pub mode: AccessMode,
    /// Monotonic acquisition sequence number (engine-global in the sharded
    /// configuration, per-RAG otherwise).
    pub seq: u64,
}

/// Per-owner RAG node (a thread's or task's synchronization state).
#[derive(Debug, Clone, Default)]
pub struct OwnerNode {
    /// Locks currently held, in acquisition order, with their `acqPos`.
    held: Vec<HeldEntry>,
    /// The owner's first outstanding acquisition. Further ones, at most one
    /// per lock, wait in [`Rag`]'s `more_outstanding`, and only while this
    /// slot is filled.
    outstanding: Option<Acquisition>,
}

/// One owner of a lock: the holding owner, the call-stack position of its
/// acquisition (`acqPos` in §3.2), its access mode, and its own recursion
/// depth (Java monitors are reentrant; each owner re-enters independently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockOwner {
    /// The holding owner (thread or task).
    pub owner: OwnerId,
    /// Call-stack position of this owner's acquisition.
    pub pos: PositionId,
    /// Whether this owner holds the lock exclusively or shared.
    pub mode: AccessMode,
    /// This owner's reentrant acquisition depth.
    pub recursion: u32,
}

/// Per-lock RAG node: the set of current owners. Exclusive holds have one
/// owner; a reader crowd has one owner entry per reader.
#[derive(Debug, Clone, Default)]
pub struct LockNode {
    owners: Vec<LockOwner>,
}

/// One step of a wait-for cycle: `owner` waits on the *next* entry's owner
/// through `edge`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleStep {
    /// The waiting owner.
    pub owner: OwnerId,
    /// Why it waits on the next owner in the cycle.
    pub edge: WaitEdge,
}

/// The resource allocation graph.
///
/// Both node maps are [`IdHashMap`]s: every hook probes them several times,
/// and their keys are ids the substrate allocated (see
/// [`IdHasher`](crate::IdHasher) for why that makes SipHash unnecessary).
#[derive(Debug, Clone, Default)]
pub struct Rag {
    owners_map: IdHashMap<OwnerId, OwnerNode>,
    locks: IdHashMap<LockId, LockNode>,
    /// Fallback acquisition counter used when the caller does not supply a
    /// sequence number (single-engine configuration).
    next_seq: u64,
    /// Number of parked acquisitions (with a yield record).
    parked: usize,
    /// Outstanding acquisitions beyond an owner's first, in request order: a
    /// task joining two acquisitions has two at once. Kept out of the owner
    /// nodes, which stay as small as a thread's one acquisition needs.
    more_outstanding: Vec<(OwnerId, Acquisition)>,
}

impl Rag {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the graph in place, keeping the map allocations warm. Used
    /// by the schedule explorer's engine-reuse reset: a simulated run
    /// touches a handful of owners and locks, so retaining capacity across
    /// hundreds of thousands of runs avoids re-growing the tables each time.
    pub fn clear(&mut self) {
        self.owners_map.clear();
        self.locks.clear();
        self.next_seq = 0;
        self.parked = 0;
        self.more_outstanding.clear();
    }

    /// Registers an owner node (idempotent).
    pub fn register_owner(&mut self, t: OwnerId) {
        self.owners_map.entry(t).or_default();
    }

    /// Removes an owner node, returning the locks it still held (with their
    /// acquisition positions) so the caller can clean up position queues.
    /// Outstanding acquisitions still recorded are dropped; a caller that
    /// must vacate their slots [`withdraw`](Rag::withdraw)s them first.
    pub fn unregister_owner(&mut self, t: OwnerId) -> Vec<HeldEntry> {
        while self.withdraw_any(t).is_some() {}
        let node = self.owners_map.remove(&t).unwrap_or_default();
        for entry in &node.held {
            if let Some(l) = self.locks.get_mut(&entry.lock) {
                l.owners.retain(|o| o.owner != t);
            }
        }
        node.held
    }

    /// Registers a lock node (idempotent). This is the analogue of inflating
    /// a thin lock into a fat `Monitor` that can carry a RAG node (§4).
    pub fn register_lock(&mut self, l: LockId) {
        self.locks.entry(l).or_default();
    }

    /// Removes a lock node (e.g. the monitor object was garbage collected).
    pub fn unregister_lock(&mut self, l: LockId) -> Option<LockNode> {
        self.locks.remove(&l)
    }

    /// The *sole* owner of `l`, if it has exactly one. This is the
    /// single-owner view mutex/monitor substrates reason with; a reader
    /// crowd (several owners) answers `None` — use [`owners`](Rag::owners)
    /// for the full set.
    pub fn owner(&self, l: LockId) -> Option<OwnerId> {
        match self.owners(l) {
            [single] => Some(single.owner),
            _ => None,
        }
    }

    /// Every current owner of `l`, in acquisition order (empty if the lock
    /// is unregistered or free).
    pub fn owners(&self, l: LockId) -> &[LockOwner] {
        self.locks
            .get(&l)
            .map(|n| n.owners.as_slice())
            .unwrap_or(&[])
    }

    /// True if `t` is among the current owners of `l` (any mode).
    pub fn owns(&self, l: LockId, t: OwnerId) -> bool {
        self.owner_entry(l, t).is_some()
    }

    /// The owner entry of `t` on `l`, if `t` currently holds it.
    pub fn owner_entry(&self, l: LockId, t: OwnerId) -> Option<&LockOwner> {
        self.owners(l).iter().find(|o| o.owner == t)
    }

    /// Acquisition position (`acqPos`) of `t`'s hold on `l`. With
    /// multi-owner lock nodes the template position of a cycle edge comes
    /// from the owner *actually on the cycle*, not from an arbitrary
    /// representative.
    pub fn acq_pos_of(&self, l: LockId, t: OwnerId) -> Option<PositionId> {
        self.owner_entry(l, t).map(|o| o.pos)
    }

    /// Reentrant acquisition depth of `t`'s hold on `l` (0 if `t` does not
    /// hold it).
    pub fn recursion_of(&self, l: LockId, t: OwnerId) -> u32 {
        self.owner_entry(l, t).map(|o| o.recursion).unwrap_or(0)
    }

    /// Locks held by `t` with their acquisition positions, in acquisition
    /// order (ascending [`HeldEntry::seq`]).
    pub fn held_locks(&self, t: OwnerId) -> &[HeldEntry] {
        self.owners_map
            .get(&t)
            .map(|n| n.held.as_slice())
            .unwrap_or(&[])
    }

    /// `t`'s outstanding acquisitions, in request order.
    pub fn outstanding(&self, t: OwnerId) -> impl Iterator<Item = &Acquisition> {
        let first = self.owners_map.get(&t).and_then(|n| n.outstanding.as_ref());
        // Spilled entries exist only while the node's slot is filled.
        let more = if first.is_some() {
            &self.more_outstanding[..]
        } else {
            &[]
        };
        let more = more.iter().filter(move |(o, _)| *o == t);
        first.into_iter().chain(more.map(|(_, a)| a))
    }

    /// `t`'s outstanding acquisition of `l`, if any.
    pub fn outstanding_on(&self, t: OwnerId, l: LockId) -> Option<&Acquisition> {
        self.outstanding(t).find(|a| a.lock == l)
    }

    /// Whether `t` holds any lock, and whether it has any outstanding
    /// acquisition, in one probe.
    pub fn holds_and_waits(&self, t: OwnerId) -> (bool, bool) {
        self.owners_map.get(&t).map_or((false, false), |n| {
            (!n.held.is_empty(), n.outstanding.is_some())
        })
    }

    /// The yield record of `t`'s first parked acquisition, if any.
    pub fn yielding(&self, t: OwnerId) -> Option<&YieldRecord> {
        self.outstanding(t).find_map(Acquisition::parked)
    }

    /// Live yield records, keyed by their parked owner (owner nodes in the
    /// map's order — arbitrary, but with [`IdHashMap`] the same on every
    /// run — then the spilled acquisitions).
    pub fn yield_records(&self) -> impl Iterator<Item = (OwnerId, &YieldRecord)> {
        let first = self
            .owners_map
            .iter()
            .filter_map(|(t, n)| Some((*t, n.outstanding.as_ref()?)));
        let more = self.more_outstanding.iter().map(|(t, a)| (*t, a));
        first
            .chain(more)
            .filter_map(|(t, a)| Some((t, a.parked()?)))
    }

    /// True if any live yield record names `t` among its blockers, i.e. a
    /// yield edge points *at* `t` in the wait-for relation. Together with
    /// "t holds no lock" (no request edge can point at it either) this
    /// proves no cycle can run through `t` — the exact fact the admission
    /// summary's `is_blocker` over-approximates for the scoped-degradation
    /// gate (the oracle proptests check that direction).
    pub fn lists_yield_blocker(&self, t: OwnerId) -> bool {
        self.yield_records().any(|(_, y)| y.blockers.contains(&t))
    }

    /// Number of parked acquisitions in this graph.
    pub fn yield_count(&self) -> usize {
        self.parked
    }

    /// Records that `t` requests `l` at position `pos` in `mode`: an
    /// outstanding acquisition in state [`AcquisitionState::Requested`]. It
    /// replaces an earlier outstanding acquisition of `l` by `t`, which is
    /// returned, and leaves `t`'s acquisitions of other locks alone.
    pub fn request(
        &mut self,
        t: OwnerId,
        l: LockId,
        pos: PositionId,
        mode: AccessMode,
    ) -> Option<Acquisition> {
        self.register_lock(l);
        let new = Acquisition {
            lock: l,
            pos,
            mode,
            state: AcquisitionState::Requested,
        };
        let node = self.owners_map.entry(t).or_default();
        let replaced = match &mut node.outstanding {
            None => {
                node.outstanding = Some(new);
                None
            }
            Some(first) if first.lock == l => Some(std::mem::replace(first, new)),
            Some(_) => {
                let more = &mut self.more_outstanding;
                match more.iter_mut().find(|(o, a)| *o == t && a.lock == l) {
                    Some((_, slot)) => Some(std::mem::replace(slot, new)),
                    None => {
                        more.push((t, new));
                        None
                    }
                }
            }
        };
        self.parked -= usize::from(replaced.as_ref().is_some_and(|a| a.parked().is_some()));
        replaced
    }

    /// Moves `t`'s outstanding acquisition of `l` to `state`; returns the
    /// state it left, or `None` (changing nothing) if there is none.
    pub fn set_state(
        &mut self,
        t: OwnerId,
        l: LockId,
        state: AcquisitionState,
    ) -> Option<AcquisitionState> {
        let parks = matches!(state, AcquisitionState::Parked(_));
        let first = self.owners_map.get_mut(&t)?.outstanding.as_mut()?;
        let entry = if first.lock == l {
            first
        } else {
            let mut more = self.more_outstanding.iter_mut();
            &mut more.find(|(o, a)| *o == t && a.lock == l)?.1
        };
        let left = std::mem::replace(&mut entry.state, state);
        self.parked += usize::from(parks);
        self.parked -= usize::from(matches!(left, AcquisitionState::Parked(_)));
        Some(left)
    }

    /// Removes and returns `t`'s outstanding acquisition of `l`, refilling
    /// the node's slot from the spilled ones.
    pub fn withdraw(&mut self, t: OwnerId, l: LockId) -> Option<Acquisition> {
        let n = self.owners_map.get_mut(&t)?;
        let more = &mut self.more_outstanding;
        let taken = if n.outstanding.as_ref()?.lock == l {
            let next = more.iter().position(|(o, _)| *o == t);
            std::mem::replace(&mut n.outstanding, next.map(|i| more.remove(i).1))
        } else {
            let i = more.iter().position(|(o, a)| *o == t && a.lock == l)?;
            Some(more.remove(i).1)
        };
        self.parked -= usize::from(taken.as_ref().is_some_and(|a| a.parked().is_some()));
        taken
    }

    /// Removes and returns `t`'s oldest outstanding acquisition, if any.
    pub fn withdraw_any(&mut self, t: OwnerId) -> Option<Acquisition> {
        let first = self.owners_map.get(&t)?.outstanding.as_ref()?.lock;
        self.withdraw(t, first)
    }

    /// Returns `t`'s first parked acquisition to
    /// [`AcquisitionState::Requested`], returning its yield record.
    pub fn unpark(&mut self, t: OwnerId) -> Option<YieldRecord> {
        let l = self.outstanding(t).find(|a| a.parked().is_some())?.lock;
        match self.set_state(t, l, AcquisitionState::Requested)? {
            AcquisitionState::Parked(y) => Some(y),
            _ => None,
        }
    }

    /// Records that `t` acquired `l` at position `pos` (first, non-recursive
    /// acquisition, exclusive): adds the hold edge and an owner entry. An
    /// outstanding acquisition of `l` is the caller's to
    /// [`withdraw`](Rag::withdraw) first. The acquisition is stamped from
    /// this RAG's own monotonic counter.
    pub fn acquire(&mut self, t: OwnerId, l: LockId, pos: PositionId) {
        let seq = self.next_seq;
        self.acquire_with_seq(t, l, pos, seq);
    }

    /// [`acquire`](Rag::acquire) with an explicit acquisition sequence
    /// number. The sharded engine calls this with a globally monotonic
    /// counter so holds distributed over several shard RAGs can be merged
    /// back into acquisition order.
    pub fn acquire_with_seq(&mut self, t: OwnerId, l: LockId, pos: PositionId, seq: u64) {
        self.acquire_mode_with_seq(t, l, pos, AccessMode::Exclusive, seq);
    }

    /// [`acquire_with_seq`](Rag::acquire_with_seq) with an explicit access
    /// mode: the owner entry joins the lock's owner set (a shared
    /// acquisition joins the existing reader crowd; an exclusive one is the
    /// sole owner in a well-behaved substrate).
    pub fn acquire_mode_with_seq(
        &mut self,
        t: OwnerId,
        l: LockId,
        pos: PositionId,
        mode: AccessMode,
        seq: u64,
    ) {
        self.next_seq = self.next_seq.max(seq).saturating_add(1);
        let n = self.owners_map.entry(t).or_default();
        n.held.push(HeldEntry {
            lock: l,
            pos,
            mode,
            seq,
        });
        let ln = self.locks.entry(l).or_default();
        debug_assert!(
            ln.owners.iter().all(|o| o.owner != t),
            "first acquisition of an already-owned lock; use acquire_recursive"
        );
        ln.owners.push(LockOwner {
            owner: t,
            pos,
            mode,
            recursion: 1,
        });
    }

    /// The sequence number the next un-stamped [`acquire`](Rag::acquire)
    /// would use.
    pub fn next_acquire_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records a recursive (reentrant) acquisition of a lock `t` already
    /// owns (any mode): bumps `t`'s own recursion depth; other owners are
    /// untouched.
    pub fn acquire_recursive(&mut self, t: OwnerId, l: LockId) {
        if let Some(ln) = self.locks.get_mut(&l) {
            let owner = ln.owners.iter_mut().find(|o| o.owner == t);
            debug_assert!(owner.is_some(), "recursive acquisition by a non-owner");
            if let Some(o) = owner {
                o.recursion = o.recursion.saturating_add(1);
            }
        }
    }

    /// Records that `t` releases `l`: removes `t`'s own owner entry, leaving
    /// any co-owners (the rest of a reader crowd) in place. For recursive
    /// acquisitions the entry is only removed when `t`'s recursion count
    /// drops to zero; the return value is `t`'s acquisition position when
    /// its hold is actually released, or `None` for a nested exit or a
    /// release of a lock `t` does not own.
    pub fn release(&mut self, t: OwnerId, l: LockId) -> Option<PositionId> {
        let ln = self.locks.get_mut(&l)?;
        let idx = ln.owners.iter().position(|o| o.owner == t)?;
        if ln.owners[idx].recursion > 1 {
            ln.owners[idx].recursion -= 1;
            return None;
        }
        let pos = ln.owners.remove(idx).pos;
        if let Some(n) = self.owners_map.get_mut(&t) {
            if let Some(idx) = n.held.iter().rposition(|e| e.lock == l) {
                n.held.remove(idx);
            }
        }
        Some(pos)
    }

    /// Visits the successor owners of `t` in the wait-for relation, together
    /// with the edge kind: the edges of each outstanding acquisition, in
    /// request order. A request fans out to **every** owner whose mode
    /// conflicts with the requested one: a writer blocked behind a reader
    /// crowd waits on all of its readers, while a reader joining the crowd
    /// waits on no one. `include_yields` selects whether a parked
    /// acquisition also contributes its blockers (needed for starvation
    /// detection).
    pub fn successors(
        &self,
        t: OwnerId,
        include_yields: bool,
        mut visit: impl FnMut(OwnerId, WaitEdge),
    ) {
        for a in self.outstanding(t) {
            for owner in self.owners(a.lock) {
                if owner.owner != t && a.mode.conflicts_with(owner.mode) {
                    visit(owner.owner, WaitEdge::Lock(a.lock));
                }
            }
            if let Some(y) = a.parked().filter(|_| include_yields) {
                for b in y.blockers.iter().filter(|b| **b != t) {
                    visit(*b, WaitEdge::Yield(y.signature));
                }
            }
        }
    }

    /// Searches for a wait-for cycle containing `start`.
    ///
    /// Returns the cycle as an ordered list of steps: entry `i` waits on the
    /// owner of entry `(i + 1) % len` through the given edge. Returns `None`
    /// if `start` is not part of any cycle.
    pub fn find_cycle_from(&self, start: OwnerId, include_yields: bool) -> Option<Vec<CycleStep>> {
        find_cycle_with(start, |t, out| {
            self.successors(t, include_yields, |next, edge| out.push((next, edge)));
        })
    }

    /// Estimated resident memory of the graph in bytes.
    pub fn memory_footprint_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        total += self.more_outstanding.capacity() * std::mem::size_of::<(OwnerId, Acquisition)>();
        for n in self.owners_map.values() {
            total += std::mem::size_of::<OwnerId>() + std::mem::size_of::<OwnerNode>();
            total += n.held.capacity() * std::mem::size_of::<HeldEntry>();
        }
        for (_, y) in self.yield_records() {
            total += y.blockers.capacity() * std::mem::size_of::<OwnerId>();
        }
        for n in self.locks.values() {
            total += std::mem::size_of::<LockId>() + std::mem::size_of::<LockNode>();
            total += n.owners.capacity() * std::mem::size_of::<LockOwner>();
        }
        total
    }
}

/// Searches for a wait-for cycle containing `start` over an arbitrary
/// successor function, which appends the out-edges of the owner it is given
/// to the buffer it is handed.
///
/// This is [`Rag::find_cycle_from`] with the graph abstracted away: the
/// sharded engine calls it with a closure that concatenates the successor
/// edges of every shard's RAG, which yields exactly the wait-for relation a
/// single monolithic RAG would contain (each outstanding acquisition, and
/// with it its out-edges, lives in the shard of its lock).
///
/// An owner that waits on no one — nearly every request — answers `None`
/// from that one successor call, before anything is allocated.
pub fn find_cycle_with<F>(start: OwnerId, mut successors: F) -> Option<Vec<CycleStep>>
where
    F: FnMut(OwnerId, &mut Vec<(OwnerId, WaitEdge)>),
{
    let mut edges = Vec::new();
    successors(start, &mut edges);
    if edges.is_empty() {
        return None;
    }
    let mut search = CycleSearch {
        target: start,
        successors,
        edges,
        path: Vec::new(),
        entered: Vec::new(),
    };
    search.visit(start, 0).then_some(search.path)
}

/// Depth-first search over the wait-for relation, recording the path.
/// Out-degree per owner is the holders of each requested lock plus the
/// blockers of a parked acquisition, so the graph is tiny in practice.
struct CycleSearch<F> {
    target: OwnerId,
    successors: F,
    /// Out-edges of the owners on the current path, one run per owner: one
    /// buffer for the whole search instead of a list per visited node.
    edges: Vec<(OwnerId, WaitEdge)>,
    path: Vec<CycleStep>,
    /// Every owner visited so far, on the current path or exhausted.
    entered: Vec<OwnerId>,
}

impl<F: FnMut(OwnerId, &mut Vec<(OwnerId, WaitEdge)>)> CycleSearch<F> {
    /// Visits `current`, whose out-edges are `edges[from..]`.
    fn visit(&mut self, current: OwnerId, from: usize) -> bool {
        self.entered.push(current);
        let until = self.edges.len();
        for i in from..until {
            let (next, edge) = self.edges[i];
            if next == self.target && current == self.target {
                // self-loop; ignore (reentrant acquisitions never produce one)
                continue;
            }
            if next != self.target && self.entered.contains(&next) {
                continue;
            }
            self.path.push(CycleStep {
                owner: current,
                edge,
            });
            if next == self.target {
                return true;
            }
            (self.successors)(next, &mut self.edges);
            if self.visit(next, until) {
                return true;
            }
            self.edges.truncate(until);
            self.path.pop();
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> OwnerId {
        OwnerId::thread(i)
    }
    fn l(i: u64) -> LockId {
        LockId::new(i)
    }
    fn p(i: u32) -> PositionId {
        PositionId::new(i)
    }
    fn successors_of(rag: &Rag, t: OwnerId, include_yields: bool) -> Vec<OwnerId> {
        let mut out = Vec::new();
        rag.successors(t, include_yields, |next, _| out.push(next));
        out
    }

    #[test]
    fn acquire_release_updates_ownership() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        assert_eq!(rag.owner(l(1)), Some(t(1)));
        assert_eq!(rag.acq_pos_of(l(1), t(1)), Some(p(0)));
        assert_eq!(rag.held_locks(t(1)).len(), 1);
        assert_eq!(rag.release(t(1), l(1)), Some(p(0)));
        assert_eq!(rag.owner(l(1)), None);
        assert!(rag.held_locks(t(1)).is_empty());
    }

    #[test]
    fn recursive_acquisition_releases_only_at_depth_zero() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        rag.acquire_recursive(t(1), l(1));
        assert_eq!(rag.recursion_of(l(1), t(1)), 2);
        assert_eq!(rag.release(t(1), l(1)), None);
        assert_eq!(rag.owner(l(1)), Some(t(1)));
        assert_eq!(rag.release(t(1), l(1)), Some(p(0)));
        assert_eq!(rag.owner(l(1)), None);
    }

    #[test]
    fn shared_owners_coexist_and_release_individually() {
        let mut rag = Rag::new();
        rag.acquire_mode_with_seq(t(1), l(1), p(1), AccessMode::Shared, 1);
        rag.acquire_mode_with_seq(t(2), l(1), p(2), AccessMode::Shared, 2);
        assert_eq!(rag.owners(l(1)).len(), 2);
        // Two owners: no *sole* owner.
        assert_eq!(rag.owner(l(1)), None);
        assert!(rag.owns(l(1), t(1)));
        assert!(rag.owns(l(1), t(2)));
        // Each owner keeps its own acquisition position.
        assert_eq!(rag.acq_pos_of(l(1), t(1)), Some(p(1)));
        assert_eq!(rag.acq_pos_of(l(1), t(2)), Some(p(2)));
        // Releasing one leaves the other's hold (and position) intact.
        assert_eq!(rag.release(t(1), l(1)), Some(p(1)));
        assert_eq!(rag.owner(l(1)), Some(t(2)));
        assert_eq!(rag.acq_pos_of(l(1), t(2)), Some(p(2)));
        assert_eq!(rag.release(t(2), l(1)), Some(p(2)));
        assert!(rag.owners(l(1)).is_empty());
    }

    #[test]
    fn writer_request_fans_out_to_every_reader() {
        let mut rag = Rag::new();
        rag.acquire_mode_with_seq(t(1), l(1), p(1), AccessMode::Shared, 1);
        rag.acquire_mode_with_seq(t(2), l(1), p(2), AccessMode::Shared, 2);
        // A writer waits on *all* current readers...
        rag.request(t(3), l(1), p(3), AccessMode::Exclusive);
        assert_eq!(successors_of(&rag, t(3), false), vec![t(1), t(2)]);
        // ...while a reader joining the crowd waits on no one.
        rag.request(t(4), l(1), p(4), AccessMode::Shared);
        assert!(successors_of(&rag, t(4), false).is_empty());
        // A reader blocked behind an exclusive owner does wait.
        let mut rag2 = Rag::new();
        rag2.acquire(t(1), l(1), p(0));
        rag2.request(t(2), l(1), p(1), AccessMode::Shared);
        assert_eq!(successors_of(&rag2, t(2), false).len(), 1);
    }

    #[test]
    fn cycle_through_one_reader_of_a_crowd_is_found() {
        let mut rag = Rag::new();
        // r1 and r2 share lock 1; t3 owns lock 2 and requests lock 1
        // (exclusive); r2 requests lock 2. Cycle: t3 -> r2 -> t3, through
        // the non-first reader.
        rag.acquire_mode_with_seq(t(1), l(1), p(1), AccessMode::Shared, 1);
        rag.acquire_mode_with_seq(t(2), l(1), p(2), AccessMode::Shared, 2);
        rag.acquire(t(3), l(2), p(3));
        rag.request(t(3), l(1), p(4), AccessMode::Exclusive);
        assert!(rag.find_cycle_from(t(3), false).is_none());
        rag.request(t(2), l(2), p(5), AccessMode::Shared);
        let cycle = rag.find_cycle_from(t(2), false).expect("cycle");
        let threads: Vec<OwnerId> = cycle.iter().map(|s| s.owner).collect();
        assert!(threads.contains(&t(2)) && threads.contains(&t(3)));
        assert!(!threads.contains(&t(1)), "t1 is not on the cycle");
    }

    #[test]
    fn access_mode_conflicts() {
        use AccessMode::*;
        assert!(Exclusive.conflicts_with(Exclusive));
        assert!(Exclusive.conflicts_with(Shared));
        assert!(Shared.conflicts_with(Exclusive));
        assert!(!Shared.conflicts_with(Shared));
        assert!(Shared.is_shared() && !Exclusive.is_shared());
    }

    #[test]
    fn release_by_non_owner_is_ignored() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        assert_eq!(rag.release(t(2), l(1)), None);
        assert_eq!(rag.owner(l(1)), Some(t(1)));
    }

    #[test]
    fn two_thread_cycle_is_found() {
        let mut rag = Rag::new();
        // t1 holds l1, t2 holds l2, t1 requests l2, t2 requests l1.
        rag.acquire(t(1), l(1), p(0));
        rag.acquire(t(2), l(2), p(1));
        rag.request(t(1), l(2), p(2), AccessMode::Exclusive);
        assert!(rag.find_cycle_from(t(1), false).is_none());
        rag.request(t(2), l(1), p(3), AccessMode::Exclusive);
        let cycle = rag.find_cycle_from(t(2), false).expect("cycle");
        assert_eq!(cycle.len(), 2);
        let threads: Vec<OwnerId> = cycle.iter().map(|s| s.owner).collect();
        assert!(threads.contains(&t(1)));
        assert!(threads.contains(&t(2)));
    }

    #[test]
    fn three_thread_cycle_is_found() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        rag.acquire(t(2), l(2), p(1));
        rag.acquire(t(3), l(3), p(2));
        rag.request(t(1), l(2), p(3), AccessMode::Exclusive);
        rag.request(t(2), l(3), p(4), AccessMode::Exclusive);
        rag.request(t(3), l(1), p(5), AccessMode::Exclusive);
        let cycle = rag.find_cycle_from(t(3), false).expect("cycle");
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn no_cycle_for_chain() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        rag.acquire(t(2), l(2), p(1));
        rag.request(t(2), l(1), p(2), AccessMode::Exclusive);
        assert!(rag.find_cycle_from(t(2), false).is_none());
    }

    #[test]
    fn yield_edges_participate_only_when_requested() {
        let mut rag = Rag::new();
        // t1 holds l1 and requests l2 owned by t2; t2 is parked yielding on t1.
        rag.acquire(t(1), l(1), p(0));
        rag.acquire(t(2), l(2), p(1));
        rag.request(t(1), l(2), p(2), AccessMode::Exclusive);
        rag.request(t(2), l(3), p(3), AccessMode::Exclusive);
        let parked = YieldRecord {
            signature: SignatureId::new(0),
            blockers: vec![t(1)],
        };
        rag.set_state(t(2), l(3), AcquisitionState::Parked(parked));
        assert!(rag.find_cycle_from(t(1), false).is_none());
        let cycle = rag.find_cycle_from(t(1), true).expect("starvation cycle");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.iter().any(|s| matches!(s.edge, WaitEdge::Yield(_))));
    }

    #[test]
    fn unregister_thread_frees_owned_locks() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        rag.acquire(t(1), l(2), p(1));
        let held = rag.unregister_owner(t(1));
        assert_eq!(held.len(), 2);
        assert_eq!(rag.owner(l(1)), None);
        assert_eq!(rag.owner(l(2)), None);
        assert!(
            !rag.owners_map.contains_key(&t(1)),
            "the owner node is gone"
        );
    }

    #[test]
    fn outstanding_acquisitions_are_kept_per_lock() {
        use AcquisitionState::*;
        let mut rag = Rag::new();
        assert_eq!(rag.request(t(1), l(5), p(7), AccessMode::Shared), None);
        assert_eq!(rag.request(t(1), l(6), p(8), AccessMode::Exclusive), None);
        assert_eq!(rag.set_state(t(1), l(5), Granted), Some(Requested));
        // A request for another lock overwrites nothing.
        let locks: Vec<LockId> = rag.outstanding(t(1)).map(|a| a.lock).collect();
        assert_eq!(locks, vec![l(5), l(6)]);
        assert_eq!(rag.holds_and_waits(t(1)), (false, true));
        // Withdrawing the first refills the node's slot from the spilled one.
        let first = rag.withdraw(t(1), l(5)).expect("outstanding");
        assert_eq!(
            (first.pos, first.mode, first.state),
            (p(7), AccessMode::Shared, Granted)
        );
        assert_eq!(rag.outstanding_on(t(1), l(6)).map(|a| a.pos), Some(p(8)));
        // The park count follows the states, and a repeated request replaces
        // the earlier one.
        let parked = YieldRecord {
            signature: SignatureId::new(0),
            blockers: vec![t(2)],
        };
        rag.set_state(t(1), l(6), Parked(parked.clone()));
        assert_eq!((rag.yield_count(), rag.yielding(t(1))), (1, Some(&parked)));
        let replaced = rag.request(t(1), l(6), p(9), AccessMode::Exclusive);
        assert_eq!(replaced.map(|a| a.state), Some(Parked(parked)));
        assert_eq!(rag.yield_count(), 0);
        assert_eq!(rag.withdraw_any(t(1)).map(|a| a.pos), Some(p(9)));
        assert_eq!(rag.holds_and_waits(t(1)), (false, false));
    }

    #[test]
    fn a_cycle_through_any_outstanding_acquisition_is_found() {
        // t1 waits for l1 (held by t3) and for l2 (held by t2); t2 then
        // requests l3, which t1 holds: the cycle runs through t1's second
        // acquisition.
        let mut rag = Rag::new();
        rag.acquire(t(1), l(3), p(0));
        rag.acquire(t(2), l(2), p(1));
        rag.acquire(t(3), l(1), p(2));
        rag.request(t(1), l(1), p(3), AccessMode::Exclusive);
        rag.request(t(1), l(2), p(4), AccessMode::Exclusive);
        assert!(rag.find_cycle_from(t(1), false).is_none());
        rag.request(t(2), l(3), p(5), AccessMode::Exclusive);
        let cycle = rag.find_cycle_from(t(2), false).expect("cycle");
        assert_eq!(
            cycle,
            vec![
                CycleStep {
                    owner: t(2),
                    edge: WaitEdge::Lock(l(3))
                },
                CycleStep {
                    owner: t(1),
                    edge: WaitEdge::Lock(l(2))
                },
            ]
        );
    }

    #[test]
    fn successors_skip_self_edges() {
        let mut rag = Rag::new();
        rag.acquire(t(1), l(1), p(0));
        rag.request(t(1), l(1), p(1), AccessMode::Exclusive);
        assert!(successors_of(&rag, t(1), true).is_empty());
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn owner_node_keeps_one_acquisition_inline_in_72_bytes() {
        // The hold list (24 B) and a thread's one outstanding acquisition.
        assert_eq!(std::mem::size_of::<OwnerNode>(), 72);
    }

    #[test]
    fn memory_footprint_grows() {
        let mut rag = Rag::new();
        let base = rag.memory_footprint_bytes();
        for i in 0..32 {
            rag.acquire(t(i), l(i), p(0));
        }
        assert!(rag.memory_footprint_bytes() > base);
    }
}
