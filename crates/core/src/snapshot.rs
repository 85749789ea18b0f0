//! The shared, immutable, epoch-versioned history snapshot.
//!
//! PR 2 sharded the engine by lock id but replicated the history (and its
//! [`SignatureIndex`]) into every shard, so memory grew with the shard
//! count. This module replaces the replicas with **one** shared snapshot:
//!
//! * A [`HistorySnapshot`] is immutable. It bundles the [`History`], a
//!   canonical interning table for the signatures' *outer* positions, and
//!   the inverted [`SignatureIndex`] over that canonical namespace.
//! * Every engine shard holds an `Arc<HistorySnapshot>`. Reading it on the
//!   request path is lock-free with respect to the other shards — no
//!   history lock exists, only the shard's own mutex that the substrate
//!   already holds.
//! * A detection builds a *new* snapshot ([`append`](HistorySnapshot::append)
//!   — copy, append, bump the epoch) and the `Arc` is swapped into every
//!   shard under the all-shard lock. Signature ids are globally consistent
//!   **by construction**: there is exactly one history, so there is nothing
//!   to keep in lockstep.
//!
//! The canonical outer-position namespace decouples the shared snapshot
//! from the per-shard [`PositionTable`](crate::PositionTable)s (which own
//! the thread queues and are deliberately shard-local): each shard lazily
//! links its own interned positions to the canonical ids — at intern time
//! for positions created after the signature, and at snapshot-install time
//! for positions that already existed. See `Dimmunix::install_snapshot` in
//! `engine.rs`.

use crate::avoidance::SignatureIndex;
use crate::callstack::CallStack;
use crate::history::History;
use crate::position::PositionId;
use crate::pvec::{PersistentMap, PersistentVec};
use crate::signature::Signature;
use crate::SignatureId;
use std::sync::Arc;

/// Canonical interning table for signature *outer* stacks, owned by the
/// shared [`HistorySnapshot`].
///
/// This is the snapshot-side sibling of the engine's mutable
/// [`PositionTable`](crate::PositionTable): same id space semantics
/// (append-only ids, depth-truncated stacks), but with **no owner queues**
/// (queues are shard-local state) and persistent, structurally-shared
/// storage — cloning the table into the next snapshot is O(1), interning
/// one more stack into that clone path-copies O(log₃₂ n) nodes, and
/// interning into a table nothing shares copies none. Ids are stable under
/// [`HistorySnapshot::append`] (the table only grows), which is what lets
/// shards cache links across epochs.
#[derive(Debug, Clone)]
pub struct OuterTable {
    depth: usize,
    /// Interned stack per [`PositionId`], in id order.
    stacks: PersistentVec<Arc<CallStack>>,
    /// Reverse lookup: truncated stack -> its canonical id. The keys are
    /// the *same* `Arc`s as `stacks` (hash/eq see through the `Arc`), so
    /// each distinct outer stack is stored once, not twice.
    by_stack: PersistentMap<Arc<CallStack>, PositionId>,
}

impl OuterTable {
    /// Creates an empty table interning stacks truncated to `depth` frames
    /// (clamped to at least 1, like the engine's table).
    pub fn new(depth: usize) -> Self {
        OuterTable {
            depth: depth.max(1),
            stacks: PersistentVec::new(),
            by_stack: PersistentMap::new(),
        }
    }

    /// The interning depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of interned outer positions.
    pub fn len(&self) -> usize {
        self.stacks.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// Interns `stack` (truncated to the table depth), returning its
    /// existing or freshly assigned canonical id.
    pub fn intern(&mut self, stack: &CallStack) -> PositionId {
        let key = stack.truncated(self.depth);
        if let Some(id) = self.by_stack.get(&key) {
            return *id;
        }
        let id = PositionId::new(self.stacks.len() as u32);
        let shared = Arc::new(key);
        self.stacks.push(Arc::clone(&shared));
        self.by_stack.insert(shared, id);
        id
    }

    /// The canonical id of `stack` (truncated to the table depth), if
    /// interned.
    pub fn lookup(&self, stack: &CallStack) -> Option<PositionId> {
        self.by_stack.get(&stack.truncated(self.depth)).copied()
    }

    /// The interned stack with the given id.
    pub fn stack(&self, id: PositionId) -> Option<&CallStack> {
        self.stacks.get(id.index()).map(|s| &**s)
    }

    /// Estimated resident memory of the table in bytes.
    pub fn memory_footprint_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        for stack in self.stacks.iter() {
            // The reverse-lookup key is the same `Arc` as the id->stack
            // entry, so the stack bytes are charged once and the key side
            // only pays the extra `Arc` pointer.
            let frames: usize = stack
                .frames()
                .iter()
                .map(|f| std::mem::size_of_val(f) + f.method().len() + f.file().len())
                .sum();
            total += std::mem::size_of::<CallStack>() + frames;
            total += 2 * std::mem::size_of::<Arc<CallStack>>() + std::mem::size_of::<PositionId>();
        }
        total
    }
}

/// An immutable, epoch-versioned view of the deadlock history, shared by
/// every engine shard in a process.
///
/// ```
/// use dimmunix_core::{History, HistorySnapshot};
/// let snap = HistorySnapshot::build(History::new(), 1);
/// assert_eq!(snap.epoch(), 0);
/// assert!(snap.is_empty());
/// ```
#[derive(Debug)]
pub struct HistorySnapshot {
    /// Monotonic version: 0 for a bulk-built snapshot, +1 per appended
    /// signature. Observability only — correctness never compares epochs.
    epoch: u64,
    /// The signatures themselves (the process's antibodies).
    history: History,
    /// Canonical interning of the signatures' outer stacks. Its
    /// [`PositionId`]s are the *shared* coordinate system: shard-local
    /// position tables link into it, never the other way around. Ids are
    /// stable under [`append`](HistorySnapshot::append) (the table only
    /// grows — eviction retires signatures, never outer ids), which is what
    /// lets shards cache links across epochs.
    outers: OuterTable,
    /// Inverted avoidance index, keyed by canonical outer ids.
    index: SignatureIndex,
}

impl HistorySnapshot {
    /// Bulk-builds a snapshot from a complete history (engine start-up,
    /// vendor-shipped antibodies, synthetic benchmark histories).
    ///
    /// This is the deferred-index bulk-load path: every outer stack of every
    /// signature is interned first, and the inverted index is constructed in
    /// one pass at the end — instead of the signature-by-signature
    /// resolve-and-index loop the engine used to run on every restart.
    /// Nothing shares the fresh tables yet, so every insert updates them in
    /// place.
    pub fn build(history: History, stack_depth: usize) -> Arc<Self> {
        let mut outers = OuterTable::new(stack_depth);
        let resolved: Vec<(SignatureId, Vec<PositionId>)> = history
            .iter()
            .map(|(id, sig)| (id, sig.outer_stacks().map(|o| outers.intern(o)).collect()))
            .collect();
        let mut index = SignatureIndex::new();
        for (id, outs) in resolved {
            index.insert(id, outs);
        }
        Arc::new(HistorySnapshot {
            epoch: 0,
            history,
            outers,
            index,
        })
    }

    /// Returns a snapshot extended by `sig`, together with the signature's
    /// id and whether it was new. A duplicate (same bug) returns the
    /// existing snapshot unchanged; a new signature yields a fresh snapshot
    /// with the epoch bumped. The current snapshot is never mutated —
    /// readers holding the old `Arc` keep a consistent view.
    pub fn append(self: &Arc<Self>, sig: Signature) -> (Arc<Self>, SignatureId, bool) {
        // All three fields are persistent (structurally shared): these
        // clones are O(1) and the mutations below path-copy O(log₃₂ n)
        // nodes, so appending is independent of the history size.
        let mut history = self.history.clone();
        let (id, added) = history.add(sig);
        if !added {
            // A re-detection of a known bug counts as a match for
            // generation-based eviction: the antibody is demonstrably
            // alive. The untouched clone is simply dropped.
            self.history.note_matched(id, self.epoch);
            return (Arc::clone(self), id, false);
        }
        let mut outers = self.outers.clone();
        let mut index = self.index.clone();
        let outs: Vec<PositionId> = history
            .get(id)
            .expect("just appended")
            .outer_stacks()
            .map(|o| outers.intern(o))
            .collect();
        index.insert(id, outs);
        let epoch = self.epoch + 1;
        // Birth counts as a match, so a freshly learned antibody cannot be
        // evicted before it has had a window's worth of epochs to matter.
        history.note_matched(id, epoch);
        (
            Arc::new(HistorySnapshot {
                epoch,
                history,
                outers,
                index,
            }),
            id,
            true,
        )
    }

    /// Records that `id` matched (was instantiated against or re-detected)
    /// at this snapshot's epoch. Interior-mutable and monotonic, so the
    /// avoidance hot path can call it straight on the shared `Arc`.
    pub fn note_matched(&self, id: SignatureId) {
        self.history.note_matched(id, self.epoch);
    }

    /// The epoch at which the live signature `id` last matched, if any.
    pub fn last_matched(&self, id: SignatureId) -> Option<u64> {
        self.history.last_matched(id)
    }

    /// The stalest live signature that has not matched within the last
    /// `window` epochs — the next generation-based eviction victim. Ties
    /// break toward the lowest id (the oldest antibody among equally stale
    /// ones). `None` when every live signature matched recently; callers
    /// must then tolerate a soft overflow rather than evict a hot antibody.
    pub fn eviction_candidate(&self, window: u64) -> Option<SignatureId> {
        self.history
            .activity_iter()
            .filter(|(_, last)| self.epoch.saturating_sub(*last) >= window)
            .min_by_key(|(id, last)| (*last, *id))
            .map(|(id, _)| id)
    }

    /// Returns a snapshot with `id` retired: the signature stops matching,
    /// its index entries are removed (leaving an id gap), and the epoch
    /// bumps. Outer ids are untouched — the canonical namespace only grows.
    /// Returns `None` if `id` is not live. The current snapshot is never
    /// mutated.
    pub fn evict(self: &Arc<Self>, id: SignatureId) -> Option<Arc<Self>> {
        if !self.history.is_live(id) {
            return None;
        }
        let mut history = self.history.clone();
        let mut index = self.index.clone();
        let retired = history.retire(id);
        debug_assert!(retired, "is_live() said the id was live");
        index.remove(id);
        Some(Arc::new(HistorySnapshot {
            epoch: self.epoch + 1,
            history,
            outers: self.outers.clone(),
            index,
        }))
    }

    /// The snapshot's version: 0 at bulk build, +1 per appended signature.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The signatures.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The inverted avoidance index (canonical outer id → signature ids).
    pub fn index(&self) -> &SignatureIndex {
        &self.index
    }

    /// The canonical outer-position table.
    pub fn outer_table(&self) -> &OuterTable {
        &self.outers
    }

    /// Number of canonical outer positions (distinct outer stacks).
    pub fn outer_len(&self) -> usize {
        self.outers.len()
    }

    /// The canonical id of an outer stack, if any signature mentions it.
    /// The stack is truncated to the snapshot's interning depth first.
    pub fn outer_of_stack(&self, stack: &CallStack) -> Option<PositionId> {
        self.outers.lookup(stack)
    }

    /// Number of signatures.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True if the history holds no signatures.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Estimated resident memory of the snapshot in bytes. Because the
    /// snapshot is shared, memory-overhead accounting must charge this
    /// **once per process**, not once per shard.
    pub fn memory_footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.history.memory_footprint_bytes()
            + self.outers.memory_footprint_bytes()
            + self.index.memory_footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{SignatureKind, SignaturePair};
    use crate::Frame;

    fn sig(a: u32, b: u32) -> Signature {
        Signature::new(
            SignatureKind::Deadlock,
            vec![
                SignaturePair::new(
                    CallStack::single(Frame::new("m1", "f.rs", a)),
                    CallStack::single(Frame::new("m2", "f.rs", a + 1)),
                ),
                SignaturePair::new(
                    CallStack::single(Frame::new("m3", "f.rs", b)),
                    CallStack::single(Frame::new("m4", "f.rs", b + 1)),
                ),
            ],
        )
    }

    #[test]
    fn build_indexes_every_outer_stack() {
        let mut h = History::new();
        h.add(sig(1, 2));
        h.add(sig(3, 4));
        let snap = HistorySnapshot::build(h, 1);
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.outer_len(), 4);
        assert_eq!(snap.index().len(), 2);
        let outer = CallStack::single(Frame::new("m1", "f.rs", 1));
        let id = snap.outer_of_stack(&outer).expect("outer interned");
        assert_eq!(snap.index().signatures_at(id), &[SignatureId::new(0)]);
    }

    #[test]
    fn append_is_copy_on_write_and_bumps_epoch() {
        let base = HistorySnapshot::build(History::new(), 1);
        let (v1, id0, new0) = base.append(sig(1, 2));
        assert!(new0);
        assert_eq!(id0, SignatureId::new(0));
        assert_eq!(v1.epoch(), 1);
        // The old snapshot is untouched.
        assert!(base.is_empty());
        assert_eq!(base.epoch(), 0);
        // Duplicates return the same snapshot (no epoch churn).
        let (v1b, id0b, new0b) = v1.append(sig(1, 2));
        assert!(!new0b);
        assert_eq!(id0b, id0);
        assert!(Arc::ptr_eq(&v1, &v1b));
        // Canonical outer ids are stable across appends.
        let outer = CallStack::single(Frame::new("m1", "f.rs", 1));
        let before = v1.outer_of_stack(&outer).unwrap();
        let (v2, _, _) = v1.append(sig(7, 8));
        assert_eq!(v2.outer_of_stack(&outer), Some(before));
        assert_eq!(v2.epoch(), 2);
    }

    #[test]
    fn footprint_counts_history_outers_and_index() {
        let empty = HistorySnapshot::build(History::new(), 1);
        let mut h = History::new();
        for i in 0..32 {
            h.add(sig(i * 10, i * 10 + 5));
        }
        let full = HistorySnapshot::build(h, 1);
        assert!(full.memory_footprint_bytes() > empty.memory_footprint_bytes());
    }
}
