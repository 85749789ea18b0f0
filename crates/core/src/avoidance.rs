//! Signature-instantiation checking — the avoidance module.
//!
//! §2.2: for a signature with outer call stacks `CS1 … CSn` to be
//! instantiated, there must exist *distinct* threads `t1 … tn` that hold, or
//! are allowed by Dimmunix to wait for, locks acquired at those call stacks.
//! Before approving a request, the engine "pretends" the requesting owner
//! already occupies its requesting position and asks whether any history
//! signature could then be instantiated; if so, the owner must yield.
//!
//! The functions in this module are pure with respect to the engine: they
//! only read the position table (which carries the per-position owner
//! queues) and the history, which makes the matching logic easy to unit-test
//! and property-test in isolation.
//!
//! ## One live check, one oracle
//!
//! [`find_instantiation`] is the straightforward reference: it walks the
//! *entire* history on every request, re-resolves every outer stack
//! through [`PositionTable::lookup`] and offers every occupant of every
//! slot to the matching. That is O(|history| × arity × crowd) per
//! acquisition — fine as an oracle, unacceptable on the hot path of a
//! platform-wide deployment. It is **mode-agnostic**: it reasons about
//! position occupancy only.
//!
//! The engine's live check is `sharded::find_instantiation_merged`, shared
//! by the monolithic and sharded request paths. It reads the
//! [`SignatureIndex`] — an inverted index from canonical outer
//! [`PositionId`]s to the signatures that mention them, each signature's
//! outer stacks resolved *once*, at insertion time, inside the shared
//! [`HistorySnapshot`](crate::HistorySnapshot) — so a request examines only
//! the signatures indexed at its own position (none, for the overwhelming
//! majority of positions). Of those it rejects every signature with an
//! unoccupied slot after O(arity) reads, before any candidate is collected,
//! and matches the survivors in the engine's reused [`MatchScratch`]. On top
//! it layers access-mode awareness: for a shared (rwlock-read) request it
//! excludes candidates whose only occupancy of a slot is their own shared
//! hold of the requested lock (crowd-mates cannot produce the mutual wait a
//! signature predicts). For exclusive requests the live check and the
//! reference coincide — same signature, same blockers — which
//! `tests/proptests.rs` checks through the public engine API. Both run the
//! one matching implemented here ([`MatchScratch::instantiate`]).

use crate::history::History;
use crate::position::{PositionId, PositionTable};
use crate::pvec::PersistentVec;
use crate::signature::Signature;
use crate::{OwnerId, SignatureId};
use std::sync::Arc;

/// Result of a successful instantiation check: the matched signature and the
/// *other* threads (blockers) that cover its remaining outer positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instantiation {
    /// The signature from the history that could be instantiated.
    pub signature: SignatureId,
    /// Threads other than the requester that cover outer positions.
    pub blockers: Vec<OwnerId>,
}

/// Checks whether approving `owner` at `position` would make any history
/// signature instantiable, pretending the owner already occupies that
/// position. Returns the first matching signature (lowest id — i.e. oldest
/// antibody) together with the blocking threads.
///
/// This is the **linear-scan reference implementation**: it examines every
/// signature in the history on every call. The engine's hot path is
/// `sharded::find_instantiation_merged`; this function is kept as the
/// oracle that check is property-tested against.
pub fn find_instantiation(
    history: &History,
    positions: &PositionTable,
    owner: impl Into<OwnerId>,
    position: PositionId,
) -> Option<Instantiation> {
    let owner = owner.into();
    for (id, sig) in history.iter() {
        if let Some(blockers) = signature_instantiable(sig, positions, owner, position) {
            return Some(Instantiation {
                signature: id,
                blockers,
            });
        }
    }
    None
}

/// Inverted avoidance index: for each interned position, the history
/// signatures whose outer positions include it.
///
/// Maintained by the shared [`HistorySnapshot`](crate::HistorySnapshot) as
/// signatures enter the history (each outer stack is interned and resolved
/// exactly once, into the snapshot's canonical outer table); the
/// per-request check then touches only `signatures_at(position)` instead of
/// the whole history, and never calls [`PositionTable::lookup`] again.
///
/// Invariants:
/// * every per-position list is kept sorted ascending by id (sorted
///   insertion), so the "oldest antibody wins" tie-break of the linear scan
///   is preserved regardless of insertion or eviction order;
/// * `outer_positions_of(sig)` keeps one entry per signature pair
///   (duplicates included), mirroring the arity-sensitive matching of
///   [`signature_instantiable`];
/// * signature ids may be **sparse**: eviction retires ids without
///   renumbering ([`remove`](SignatureIndex::remove) leaves a gap), and
///   insertion tolerates arriving ids beyond the current end (intermediate
///   slots read as unindexed). [`compact`](SignatureIndex::compact) rebuilds
///   the per-position lists from the live entries.
///
/// Both internal tables are structurally-shared persistent vectors, so
/// cloning the index into the next [`HistorySnapshot`](crate::HistorySnapshot)
/// is O(1), an insert/remove on that clone path-copies O(log₃₂ n) nodes, and
/// one on an index nothing shares (a bulk build) copies none.
#[derive(Debug, Clone, Default)]
pub struct SignatureIndex {
    /// PositionId index -> ids of signatures with that outer position.
    by_position: PersistentVec<Arc<Vec<SignatureId>>>,
    /// SignatureId index -> resolved outer positions (one per pair);
    /// `None` marks an id gap (never indexed, or evicted).
    outer_positions: PersistentVec<Option<Arc<Vec<PositionId>>>>,
    /// Number of indexed (live) signatures; `outer_positions` may be longer.
    live: usize,
}

impl SignatureIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed (live) signatures.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no signature is currently indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// One past the highest id ever indexed: the live signatures plus the
    /// id gaps eviction left. Ids are append-only along a snapshot lineage,
    /// so `id_bound() - len()` counts the signatures retired so far.
    pub fn id_bound(&self) -> usize {
        self.outer_positions.len()
    }

    /// Indexes `sig` under its resolved outer positions. Ids may arrive in
    /// any order and with gaps (eviction retires ids without renumbering);
    /// re-inserting an already-indexed id is a no-op.
    pub fn insert(&mut self, sig: SignatureId, outer: Vec<PositionId>) {
        if matches!(self.outer_positions.get(sig.index()), Some(Some(_))) {
            return;
        }
        let mut seen = outer.clone();
        seen.sort_unstable();
        seen.dedup();
        for pid in seen {
            self.reserve_position(pid);
            let ids = self.by_position.get(pid.index()).expect("just reserved");
            let updated = match ids.binary_search(&sig) {
                Err(at) => {
                    let mut list = (**ids).clone();
                    list.insert(at, sig);
                    Some(list)
                }
                Ok(_) => None,
            };
            if let Some(list) = updated {
                self.by_position.set(pid.index(), Arc::new(list));
            }
        }
        while self.outer_positions.len() < sig.index() {
            self.outer_positions.push(None);
        }
        let entry = Some(Arc::new(outer));
        if sig.index() == self.outer_positions.len() {
            self.outer_positions.push(entry);
        } else {
            self.outer_positions.set(sig.index(), entry);
        }
        self.live += 1;
    }

    /// Grows `by_position` so `pid` has a (possibly empty) slot.
    fn reserve_position(&mut self, pid: PositionId) {
        while self.by_position.len() <= pid.index() {
            self.by_position.push(Arc::new(Vec::new()));
        }
    }

    /// Removes `sig` from the index (generation-based eviction), leaving an
    /// id gap: later inserts of higher ids are unaffected and lookups of the
    /// removed id read as unindexed. Returns whether the id was indexed.
    pub fn remove(&mut self, sig: SignatureId) -> bool {
        let Some(Some(outer)) = self.outer_positions.get(sig.index()) else {
            return false;
        };
        let mut seen: Vec<PositionId> = (**outer).clone();
        seen.sort_unstable();
        seen.dedup();
        for pid in seen {
            if let Some(ids) = self.by_position.get(pid.index()) {
                if let Ok(at) = ids.binary_search(&sig) {
                    let mut list = (**ids).clone();
                    list.remove(at);
                    self.by_position.set(pid.index(), Arc::new(list));
                }
            }
        }
        self.outer_positions.set(sig.index(), None);
        self.live -= 1;
        true
    }

    /// Rebuilds the per-position lists from the live entries, dropping the
    /// tombstoned per-position slots eviction leaves behind. Lookups after a
    /// compaction agree exactly with a freshly bulk-built index over the
    /// same live signatures (pinned by the gap-tolerance oracle proptest).
    pub fn compact(&mut self) {
        let positions = self
            .outer_positions
            .iter()
            .flatten()
            .flat_map(|outer| outer.iter())
            .map(|pid| pid.index() + 1)
            .max()
            .unwrap_or(0);
        let mut lists: Vec<Vec<SignatureId>> = vec![Vec::new(); positions];
        for (i, entry) in self.outer_positions.iter().enumerate() {
            let Some(outer) = entry else { continue };
            let sig = SignatureId::new(i);
            let mut seen: Vec<PositionId> = (**outer).clone();
            seen.sort_unstable();
            seen.dedup();
            for pid in seen {
                // Ascending i keeps each list sorted by construction.
                lists[pid.index()].push(sig);
            }
        }
        self.by_position = lists.into_iter().map(Arc::new).collect();
    }

    /// Signatures whose outer positions include `pos`, ascending by id.
    pub fn signatures_at(&self, pos: PositionId) -> &[SignatureId] {
        self.by_position
            .get(pos.index())
            .map(|ids| ids.as_slice())
            .unwrap_or(&[])
    }

    /// The positions some indexed (live) signature lists, ascending.
    pub fn live_positions(&self) -> impl Iterator<Item = PositionId> + '_ {
        self.by_position
            .iter()
            .enumerate()
            .filter(|(_, ids)| !ids.is_empty())
            .map(|(pos, _)| PositionId::new(pos as u32))
    }

    /// The resolved outer positions of `sig` (one per signature pair);
    /// empty for id gaps.
    pub fn outer_positions_of(&self, sig: SignatureId) -> &[PositionId] {
        match self.outer_positions.get(sig.index()) {
            Some(Some(pids)) => pids.as_slice(),
            _ => &[],
        }
    }

    /// Estimated resident memory of the index in bytes.
    pub fn memory_footprint_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        total += self.by_position.len() * std::mem::size_of::<Arc<Vec<SignatureId>>>();
        for ids in self.by_position.iter() {
            total += ids.capacity() * std::mem::size_of::<SignatureId>();
        }
        total += self.outer_positions.len() * std::mem::size_of::<Option<Arc<Vec<PositionId>>>>();
        for pids in self.outer_positions.iter().flatten() {
            total += pids.capacity() * std::mem::size_of::<PositionId>();
        }
        total
    }
}

/// Checks a single signature. Returns the blockers (distinct threads other
/// than `owner` covering the remaining outer positions) if instantiation is
/// possible, `None` otherwise.
///
/// The requester's pretended `(owner, position)` must itself be part of the
/// instantiation: the request is only held back when *this* acquisition is
/// the one that would complete the pattern. Pre-existing instantiations that
/// do not involve the requester (e.g. the deadlocked threads of the very
/// first occurrence, still blocked in the RAG) never penalize unrelated
/// threads.
pub fn signature_instantiable(
    sig: &Signature,
    positions: &PositionTable,
    owner: impl Into<OwnerId>,
    position: PositionId,
) -> Option<Vec<OwnerId>> {
    let owner = owner.into();
    let mut outer_positions = Vec::with_capacity(sig.arity());
    let mut scratch = MatchScratch::default();
    for outer in sig.outer_stacks() {
        // Resolve each outer stack to an interned position. If an outer stack
        // was never interned, no owner can possibly occupy it, so the
        // signature cannot be instantiated at all.
        let pid = positions.lookup(outer)?;
        outer_positions.push(pid);
        // Candidates: everyone else in that position's queue (they hold or
        // were allowed to acquire locks there).
        let queue = positions.get(pid)?.queue();
        for c in queue.iter().filter(|c| *c != owner) {
            scratch.offer(c, usize::MAX);
        }
        scratch.end_slot();
    }
    scratch.instantiate(&outer_positions, position)
}

/// Working memory of one instantiation check: the candidate owners of every
/// outer slot of the signature under test, and the matching over them. The
/// engine keeps one and reuses it, so a check that matches nothing allocates
/// nothing once warm and a match allocates only its blocker list.
#[derive(Debug, Clone, Default)]
pub(crate) struct MatchScratch {
    /// Every slot's candidates, slot after slot; each run sorted and
    /// de-duplicated.
    owners: Vec<OwnerId>,
    slots: Vec<Slot>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// One past this slot's run in [`MatchScratch::owners`].
    end: usize,
    /// The owner the matching currently covers this slot with.
    assigned: Option<OwnerId>,
    /// Whether the augmenting path being searched already re-routes this slot.
    visited: bool,
}

impl MatchScratch {
    /// Forgets the previous signature's candidates (capacity is kept).
    pub(crate) fn clear(&mut self) {
        self.owners.clear();
        self.slots.clear();
    }

    /// The candidate buffer, emptied and seeded with `seed`: a second use of
    /// the same memory once a match has been extracted from it.
    pub(crate) fn worklist(&mut self, seed: &[OwnerId]) -> &mut Vec<OwnerId> {
        self.clear();
        self.owners.extend_from_slice(seed);
        &mut self.owners
    }

    /// Where slot `slot`'s run of candidates starts in `owners`: where the
    /// previous slot's ends.
    fn run_start(&self, slot: usize) -> usize {
        slot.checked_sub(1).map_or(0, |prev| self.slots[prev].end)
    }

    /// Heap bytes held between checks.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.owners.capacity() * std::mem::size_of::<OwnerId>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// Offers `c` — never the requester — as a candidate for the slot under
    /// construction (the one the next [`end_slot`](Self::end_slot) closes),
    /// keeping the `cap` smallest distinct offers. An injective assignment
    /// of k slots touches at most k - 1 owners besides the pre-assigned
    /// requester, so any `cap ≥ k` decides the matching exactly as the full
    /// crowd would (a slot offering ≥ k candidates can always be covered
    /// last), and each check stays O(arity²) however many thousands of tasks
    /// crowd a position.
    pub(crate) fn offer(&mut self, c: OwnerId, cap: usize) {
        let start = self.run_start(self.slots.len());
        if let Err(at) = self.owners[start..].binary_search(&c) {
            if at < cap {
                self.owners.insert(start + at, c);
                if self.owners.len() - start > cap {
                    self.owners.pop();
                }
            }
        }
    }

    /// Closes the slot under construction; returns whether anyone was
    /// offered for it.
    pub(crate) fn end_slot(&mut self) -> bool {
        let start = self.run_start(self.slots.len());
        self.slots.push(Slot {
            end: self.owners.len(),
            assigned: None,
            visited: false,
        });
        self.owners.len() > start
    }

    /// The instantiation search over the slots built so far, one per entry
    /// of `outer_positions`: pre-assigns the requester to each occurrence of
    /// its `position` in turn and looks for an injective assignment of
    /// distinct candidates to the remaining slots. Returns those owners (the
    /// blockers, sorted) for the first occurrence that admits one.
    ///
    /// This is bipartite maximum matching (Kuhn's augmenting-path algorithm),
    /// polynomial in slots × candidate-list entries. Naive backtracking is
    /// factorial precisely on *failing* searches — a high-arity starvation
    /// signature with one uncoverable slot would make every avoidance check
    /// at a popular position explore every permutation of its candidate
    /// crowd before concluding "no instantiation".
    pub(crate) fn instantiate(
        &mut self,
        outer_positions: &[PositionId],
        position: PositionId,
    ) -> Option<Vec<OwnerId>> {
        debug_assert_eq!(outer_positions.len(), self.slots.len());
        for (pre, pid) in outer_positions.iter().enumerate() {
            if *pid != position {
                continue;
            }
            self.slots.iter_mut().for_each(|s| s.assigned = None);
            let mut rest = (0..self.slots.len()).filter(|slot| *slot != pre);
            let covered = rest.all(|slot| {
                self.slots.iter_mut().for_each(|s| s.visited = false);
                self.augment(slot)
            });
            if covered {
                let mut blockers = Vec::with_capacity(self.slots.len() - 1);
                blockers.extend(self.slots.iter().filter_map(|s| s.assigned));
                blockers.sort_unstable();
                return Some(blockers);
            }
        }
        None
    }

    /// Tries to cover `slot` with one of its candidates, re-routing slots
    /// already covered along an augmenting path (never the pre-assigned
    /// slot: nobody is assigned to it).
    fn augment(&mut self, slot: usize) -> bool {
        for i in self.run_start(slot)..self.slots[slot].end {
            let cand = self.owners[i];
            let free = match self.slots.iter().position(|s| s.assigned == Some(cand)) {
                None => true,
                Some(other) => {
                    !std::mem::replace(&mut self.slots[other].visited, true) && self.augment(other)
                }
            };
            if free {
                self.slots[slot].assigned = Some(cand);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callstack::{CallStack, Frame};
    use crate::signature::{SignatureKind, SignaturePair};

    fn stack(tag: u32) -> CallStack {
        CallStack::single(Frame::new(format!("m{tag}"), "f.rs", tag))
    }

    fn owner(i: u64) -> OwnerId {
        OwnerId::thread(i)
    }

    fn two_pos_signature(a: u32, b: u32) -> Signature {
        Signature::new(
            SignatureKind::Deadlock,
            vec![
                SignaturePair::new(stack(a), stack(100 + a)),
                SignaturePair::new(stack(b), stack(100 + b)),
            ],
        )
    }

    fn setup() -> (History, PositionTable) {
        let mut history = History::new();
        history.add(two_pos_signature(1, 2));
        let mut positions = PositionTable::new(1);
        positions.intern(&stack(1));
        positions.intern(&stack(2));
        (history, positions)
    }

    #[test]
    fn empty_queues_mean_no_instantiation() {
        let (history, positions) = setup();
        let p1 = positions.lookup(&stack(1)).unwrap();
        assert!(find_instantiation(&history, &positions, owner(1), p1).is_none());
    }

    #[test]
    fn pretend_plus_occupied_queue_instantiates() {
        let (history, mut positions) = setup();
        let p1 = positions.lookup(&stack(1)).unwrap();
        let p2 = positions.lookup(&stack(2)).unwrap();
        // Thread 7 holds a lock acquired at position 1.
        positions.get_mut(p1).unwrap().queue_mut().push(owner(7));
        // Thread 8 now requests at position 2: instantiation possible.
        let inst = find_instantiation(&history, &positions, owner(8), p2).expect("match");
        assert_eq!(inst.signature, SignatureId::new(0));
        assert_eq!(inst.blockers, vec![owner(7)]);
    }

    #[test]
    fn same_thread_cannot_cover_both_positions_via_pretend() {
        let (history, mut positions) = setup();
        let p1 = positions.lookup(&stack(1)).unwrap();
        let p2 = positions.lookup(&stack(2)).unwrap();
        // Thread 7 already occupies position 1 and now requests position 2:
        // instantiation needs two distinct threads, so this must not match.
        positions.get_mut(p1).unwrap().queue_mut().push(owner(7));
        assert!(find_instantiation(&history, &positions, owner(7), p2).is_none());
    }

    #[test]
    fn duplicate_outer_positions_require_two_distinct_owners() {
        let mut history = History::new();
        // Both deadlocked threads acquired their lock at the same location
        // (self-deadlock pattern through a shared helper).
        history.add(Signature::new(
            SignatureKind::Deadlock,
            vec![
                SignaturePair::new(stack(5), stack(105)),
                SignaturePair::new(stack(5), stack(106)),
            ],
        ));
        let mut positions = PositionTable::new(1);
        let p5 = positions.intern(&stack(5));
        // Only the requester occupies p5 -> not instantiable.
        assert!(find_instantiation(&history, &positions, owner(1), p5).is_none());
        // A second, distinct owner occupies p5 -> instantiable.
        positions.get_mut(p5).unwrap().queue_mut().push(owner(2));
        let inst = find_instantiation(&history, &positions, owner(1), p5).expect("match");
        assert_eq!(inst.blockers, vec![owner(2)]);
    }

    #[test]
    fn unknown_outer_stack_disables_signature() {
        let (mut history, positions) = setup();
        // Add a signature whose outer stacks were never interned.
        history.add(two_pos_signature(50, 51));
        let p1 = positions.lookup(&stack(1)).unwrap();
        assert!(find_instantiation(&history, &positions, owner(3), p1).is_none());
    }

    #[test]
    fn oldest_matching_signature_wins() {
        let mut history = History::new();
        history.add(two_pos_signature(1, 2));
        history.add(two_pos_signature(1, 3));
        let mut positions = PositionTable::new(1);
        let p1 = positions.intern(&stack(1));
        let p2 = positions.intern(&stack(2));
        let p3 = positions.intern(&stack(3));
        positions.get_mut(p2).unwrap().queue_mut().push(owner(9));
        positions.get_mut(p3).unwrap().queue_mut().push(owner(9));
        let _ = p1;
        let inst = find_instantiation(&history, &positions, owner(4), p1).expect("match");
        assert_eq!(inst.signature, SignatureId::new(0));
    }

    /// Builds an index the way the engine does: intern every outer stack and
    /// insert the signature under the resolved ids.
    fn build_index(history: &History, positions: &mut PositionTable) -> SignatureIndex {
        let mut idx = SignatureIndex::new();
        for (id, sig) in history.iter() {
            let outer: Vec<_> = sig.outer_stacks().map(|o| positions.intern(o)).collect();
            idx.insert(id, outer);
        }
        idx
    }

    /// The engine's decision for a request at `at` while `held` are granted
    /// and held: the matched signature and the yield record's blockers.
    fn engine_decision(
        history: &History,
        held: &[(u64, u32)],
        requester: u64,
        at: u32,
    ) -> Option<Instantiation> {
        use crate::{Config, Dimmunix, LockId, RequestOutcome};
        let mut engine = Dimmunix::with_history(Config::default(), history.clone());
        for (l, (t, site)) in held.iter().enumerate() {
            let lock = LockId::new(l as u64);
            assert!(engine.request(owner(*t), lock, &stack(*site)).is_granted());
            engine.acquired(owner(*t), lock);
        }
        let fresh = LockId::new(held.len() as u64);
        match engine.request(owner(requester), fresh, &stack(at)) {
            RequestOutcome::Yield { signature } => Some(Instantiation {
                signature,
                blockers: engine.rag().yielding(owner(requester))?.blockers.clone(),
            }),
            _ => None,
        }
    }

    #[test]
    fn index_agrees_with_linear_scan_on_basic_scenarios() {
        let (history, mut positions) = setup();
        let p1 = positions.lookup(&stack(1)).unwrap();
        let p2 = positions.lookup(&stack(2)).unwrap();
        // Empty queues: both report no instantiation.
        for (t, site, p) in [(1u64, 1, p1), (2, 2, p2)] {
            assert_eq!(
                engine_decision(&history, &[], t, site),
                find_instantiation(&history, &positions, owner(t), p)
            );
        }
        // Occupied queue: both report the same signature and blockers.
        positions.get_mut(p1).unwrap().queue_mut().push(owner(7));
        let linear = find_instantiation(&history, &positions, owner(8), p2);
        assert!(linear.is_some());
        assert_eq!(engine_decision(&history, &[(7, 1)], 8, 2), linear);
    }

    #[test]
    fn index_only_examines_signatures_at_the_position() {
        let mut history = History::new();
        history.add(two_pos_signature(1, 2));
        history.add(two_pos_signature(3, 4));
        history.add(two_pos_signature(5, 6));
        let mut positions = PositionTable::new(1);
        let idx = build_index(&history, &mut positions);
        let unrelated = positions.intern(&stack(99));
        assert!(idx.signatures_at(unrelated).is_empty());
        let p3 = positions.lookup(&stack(3)).unwrap();
        assert_eq!(idx.signatures_at(p3), &[SignatureId::new(1)]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.outer_positions_of(SignatureId::new(1)).len(), 2);
    }

    #[test]
    fn index_preserves_oldest_antibody_tie_break() {
        let mut history = History::new();
        history.add(two_pos_signature(1, 2));
        history.add(two_pos_signature(1, 3));
        let mut positions = PositionTable::new(1);
        let idx = build_index(&history, &mut positions);
        let p1 = positions.lookup(&stack(1)).unwrap();
        let p2 = positions.lookup(&stack(2)).unwrap();
        let p3 = positions.lookup(&stack(3)).unwrap();
        // Both signatures are instantiable from p1; the older must win, as in
        // the linear scan.
        assert_eq!(
            idx.signatures_at(p1),
            &[SignatureId::new(0), SignatureId::new(1)]
        );
        for (p, t) in [(p2, 9u64), (p3, 9)] {
            positions.get_mut(p).unwrap().queue_mut().push(owner(t));
        }
        let inst = engine_decision(&history, &[(9, 2), (9, 3)], 4, 1).expect("match");
        assert_eq!(inst.signature, SignatureId::new(0));
        assert_eq!(
            Some(inst),
            find_instantiation(&history, &positions, owner(4), p1)
        );
    }

    #[test]
    fn index_reinsertion_is_idempotent() {
        let mut idx = SignatureIndex::new();
        let pid = PositionId::new(0);
        idx.insert(SignatureId::new(0), vec![pid, pid]);
        idx.insert(SignatureId::new(0), vec![pid]);
        assert_eq!(idx.len(), 1);
        // Duplicate outer positions index the signature once but keep both
        // slots in the arity-sensitive outer list.
        assert_eq!(idx.signatures_at(pid), &[SignatureId::new(0)]);
        assert_eq!(idx.outer_positions_of(SignatureId::new(0)).len(), 2);
        assert!(idx.memory_footprint_bytes() > 0);
    }

    #[test]
    fn three_way_signature_matching() {
        let mut history = History::new();
        history.add(Signature::new(
            SignatureKind::Deadlock,
            vec![
                SignaturePair::new(stack(1), stack(101)),
                SignaturePair::new(stack(2), stack(102)),
                SignaturePair::new(stack(3), stack(103)),
            ],
        ));
        let mut positions = PositionTable::new(1);
        let p1 = positions.intern(&stack(1));
        let p2 = positions.intern(&stack(2));
        let p3 = positions.intern(&stack(3));
        positions.get_mut(p1).unwrap().queue_mut().push(owner(11));
        positions.get_mut(p2).unwrap().queue_mut().push(owner(12));
        // Only two of three covered -> no instantiation.
        assert!(find_instantiation(&history, &positions, owner(11), p1).is_none());
        // Third position covered by the requester -> instantiation.
        let inst = find_instantiation(&history, &positions, owner(13), p3).expect("match");
        assert_eq!(inst.blockers, vec![owner(11), owner(12)]);
    }
}
