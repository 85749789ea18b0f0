//! Positions: interned acquisition call stacks with per-position owner
//! queues.
//!
//! §4 of the paper: *"The struct Position stores the program location of a
//! monitorenter operation and the set of threads that hold (or are allowed by
//! Dimmunix to acquire) locks at that location"*, plus a second queue used as
//! a free list so queue nodes are reused instead of reallocated. The
//! [`PositionTable`] is the `positions` global map that assigns a unique
//! `Position` object to each program location. The queues are keyed by
//! [`OwnerId`] rather than raw thread ids so async tasks occupy positions
//! exactly like OS threads.

use crate::callstack::{CallStack, SiteKey};
use crate::OwnerId;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, RwLock};

/// Dense identifier of an interned position (acquisition call stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PositionId(u32);

impl PositionId {
    /// Creates a position id from a raw index (mainly for tests and codecs).
    pub const fn new(raw: u32) -> Self {
        PositionId(raw)
    }

    /// The raw dense index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PositionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A queue of owners (threads or tasks) that hold, or were allowed by
/// Dimmunix to acquire, locks at one position.
///
/// §4's Position stores this as a linked queue with a free list; here it is
/// a counted multiset ordered by owner id. The representation matters once
/// owners are *tasks*: a server position can be occupied by thousands of
/// concurrent tasks at once, and the avoidance hot path asks for a few
/// distinct occupants per check — an ordered count map answers that in
/// O(answer), keeps insert/remove at O(log distinct), and makes every
/// traversal deterministic. The same owner may appear more than once (it
/// may hold several locks acquired at the same program location).
#[derive(Debug, Clone, Default)]
pub struct OwnerQueue {
    /// Occurrences per owner; absent means zero.
    counts: std::collections::BTreeMap<OwnerId, usize>,
    /// Total occurrences across all owners.
    len: usize,
}

impl OwnerQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no owner occupies the queue.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct owners currently tracked.
    pub fn capacity(&self) -> usize {
        self.counts.len()
    }

    /// Adds one occurrence of `owner`.
    pub fn push(&mut self, owner: impl Into<OwnerId>) {
        *self.counts.entry(owner.into()).or_insert(0) += 1;
        self.len += 1;
    }

    /// Removes one occurrence of `owner`; returns true if an occurrence was
    /// present.
    pub fn remove_one(&mut self, owner: impl Into<OwnerId>) -> bool {
        let owner = owner.into();
        match self.counts.get_mut(&owner) {
            Some(c) => {
                *c -= 1;
                if *c == 0 {
                    self.counts.remove(&owner);
                }
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Removes every occurrence of every owner. Used by the schedule
    /// explorer's engine-reuse reset between simulated runs.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.len = 0;
    }

    /// Removes every occurrence of `owner`, returning how many were removed.
    pub fn remove_all(&mut self, owner: impl Into<OwnerId>) -> usize {
        let removed = self.counts.remove(&owner.into()).unwrap_or(0);
        self.len -= removed;
        removed
    }

    /// Number of occurrences of `owner`.
    pub fn count(&self, owner: impl Into<OwnerId>) -> usize {
        self.counts.get(&owner.into()).copied().unwrap_or(0)
    }

    /// True if `owner` occupies at least one slot.
    pub fn contains(&self, owner: impl Into<OwnerId>) -> bool {
        self.counts.contains_key(&owner.into())
    }

    /// Iterates over the occupying owners (occurrences, not deduplicated),
    /// in owner-id order.
    pub fn iter(&self) -> impl Iterator<Item = OwnerId> + '_ {
        self.counts
            .iter()
            .flat_map(|(o, c)| std::iter::repeat(*o).take(*c))
    }

    /// The first (in owner-id order) distinct owners satisfying `keep`, at
    /// most `cap` of them. The avoidance hot path uses this to bound an
    /// instantiation check by the signature's arity instead of by the
    /// position's crowd: an injective assignment of `k` slots never needs
    /// more than `k` candidates per slot, so any deterministic `cap ≥ k`
    /// prefix preserves the exact matching decision.
    pub fn distinct_owners_capped<'a>(
        &'a self,
        cap: usize,
        mut keep: impl FnMut(OwnerId) -> bool + 'a,
    ) -> impl Iterator<Item = OwnerId> + 'a {
        let distinct = self.counts.keys().copied();
        distinct.filter(move |o| keep(*o)).take(cap)
    }
}

/// Number of lock stripes inside a [`StackInterner`]. Sized so that even a
/// process running one engine shard per core rarely has two shards hashing
/// into the same stripe at once.
const INTERNER_STRIPES: usize = 16;

/// Process-wide, thread-safe interner of truncated acquisition call stacks.
///
/// Without it, every engine shard keeps private `CallStack` copies of each
/// position it interns (plus a clone as the interning key), so a site hot
/// in many shards is resident once *per shard* — a cache-dilution tax that
/// grows with the shard count. Sharing one interner across all shards
/// deduplicates each truncated stack into a single `Arc<CallStack>`; the
/// common case (site already interned) is a striped read-lock probe, and a
/// write lock is taken only the first time a site is seen process-wide.
#[derive(Debug)]
pub struct StackInterner {
    stripes: Vec<RwLock<HashSet<Arc<CallStack>>>>,
}

impl Default for StackInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl StackInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        StackInterner {
            stripes: (0..INTERNER_STRIPES)
                .map(|_| RwLock::new(HashSet::new()))
                .collect(),
        }
    }

    fn stripe_of(&self, stack: &CallStack) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        stack.hash(&mut h);
        (h.finish() % self.stripes.len() as u64) as usize
    }

    /// Returns the canonical shared copy of `stack`, inserting it on first
    /// use. `stack` must already be truncated to the caller's depth — the
    /// interner deduplicates exact stacks, it does not coarsen them.
    pub fn intern(&self, stack: &CallStack) -> Arc<CallStack> {
        let stripe = &self.stripes[self.stripe_of(stack)];
        if let Some(found) = stripe.read().expect("interner lock poisoned").get(stack) {
            return Arc::clone(found);
        }
        let mut writer = stripe.write().expect("interner lock poisoned");
        if let Some(found) = writer.get(stack) {
            return Arc::clone(found);
        }
        let shared = Arc::new(stack.clone());
        writer.insert(Arc::clone(&shared));
        shared
    }

    /// Number of distinct stacks interned so far (across all stripes).
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.read().expect("interner lock poisoned").len())
            .sum()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Data stored per interned position.
#[derive(Debug, Clone)]
pub struct Position {
    id: PositionId,
    stack: Arc<CallStack>,
    /// Stable content-hash identity of `stack`, computed once at intern
    /// time. This is the coordinate foreign antibodies are matched in: a
    /// signature exported by a differently compiled binary carries site
    /// keys, and activating it locally means finding positions whose keys
    /// agree (see `dimmunix-exchange`).
    site_key: SiteKey,
    /// The canonical id of this stack in the shared history snapshot's
    /// outer-position table, if any signature mentions it as an outer
    /// position — the successor of the paper's `inHistory` flag (§4). The
    /// engine keeps this link current: it is resolved when the position is
    /// interned and refreshed when a new snapshot is installed.
    history_ref: Option<PositionId>,
    /// Owners holding, or allowed to acquire, locks at this position.
    queue: OwnerQueue,
}

impl Position {
    fn new(id: PositionId, stack: Arc<CallStack>) -> Self {
        let site_key = stack.site_key();
        Position {
            id,
            stack,
            site_key,
            history_ref: None,
            queue: OwnerQueue::new(),
        }
    }

    /// The interned id.
    pub fn id(&self) -> PositionId {
        self.id
    }

    /// The (truncated) acquisition call stack.
    pub fn stack(&self) -> &CallStack {
        &self.stack
    }

    /// The shared (interned) handle of the acquisition call stack. Cloning
    /// it is a reference-count bump, not a stack copy.
    pub fn stack_shared(&self) -> &Arc<CallStack> {
        &self.stack
    }

    /// The stable content-hash identity of this position's stack.
    pub fn site_key(&self) -> SiteKey {
        self.site_key
    }

    /// Whether this position appears in a history signature.
    pub fn in_history(&self) -> bool {
        self.history_ref.is_some()
    }

    /// The canonical outer-position id of this stack in the shared history
    /// snapshot, if any signature mentions it.
    pub fn history_ref(&self) -> Option<PositionId> {
        self.history_ref
    }

    /// Links the position to (or unlinks it from) a canonical outer id in
    /// the shared history snapshot.
    pub fn set_history_ref(&mut self, outer: Option<PositionId>) {
        self.history_ref = outer;
    }

    /// The owner queue of this position.
    pub fn queue(&self) -> &OwnerQueue {
        &self.queue
    }

    /// Mutable access to the owner queue.
    pub fn queue_mut(&mut self) -> &mut OwnerQueue {
        &mut self.queue
    }
}

/// Interning table mapping call stacks to dense [`PositionId`]s.
///
/// ```
/// use dimmunix_core::{CallStack, Frame, PositionTable};
/// let mut table = PositionTable::new(1);
/// let a = table.intern(&CallStack::single(Frame::new("f", "x.rs", 1)));
/// let b = table.intern(&CallStack::single(Frame::new("f", "x.rs", 1)));
/// assert_eq!(a, b);
/// assert_eq!(table.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PositionTable {
    depth: usize,
    /// The process-wide stack interner this table resolves stacks through.
    /// Tables created with [`PositionTable::new`] get a private one;
    /// sharded engines and the runtime share a single interner across all
    /// shards via [`PositionTable::with_interner`].
    interner: Arc<StackInterner>,
    /// Keyed by the interned stack and probed through `Borrow<CallStack>`
    /// with the caller's own stack, so a hit clones nothing.
    by_stack: HashMap<Arc<CallStack>, PositionId>,
    /// Stable-key index: the **first** position interned with each
    /// [`SiteKey`]. Keys deliberately coarsen identity (absolute lines are
    /// normalized away), so several positions may share one key; first-wins
    /// is fine because the key lookup only answers "does a local position
    /// prove this site exists here" for foreign-antibody screening.
    by_key: HashMap<SiteKey, PositionId>,
    positions: Vec<Position>,
}

impl PositionTable {
    /// Creates an empty table that truncates interned stacks to `depth`,
    /// with a private stack interner.
    pub fn new(depth: usize) -> Self {
        Self::with_interner(depth, Arc::new(StackInterner::new()))
    }

    /// Creates an empty table that resolves stacks through a shared
    /// process-wide interner (one `Arc<CallStack>` per distinct truncated
    /// stack no matter how many tables intern it).
    pub fn with_interner(depth: usize, interner: Arc<StackInterner>) -> Self {
        PositionTable {
            depth: depth.max(1),
            interner,
            by_stack: HashMap::new(),
            by_key: HashMap::new(),
            positions: Vec::new(),
        }
    }

    /// The interner this table resolves stacks through.
    pub fn interner(&self) -> &Arc<StackInterner> {
        &self.interner
    }

    /// Re-points the table at a shared interner. Safe at any time — the
    /// interner only deduplicates future interns; stacks already interned
    /// keep their existing allocations (the `by_stack` fast path answers
    /// repeats before the interner is consulted).
    pub fn set_interner(&mut self, interner: Arc<StackInterner>) {
        self.interner = interner;
    }

    /// The configured truncation depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of distinct interned positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if no position has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// `stack` as this table keys it: itself when it is no deeper than the
    /// table's depth (every runtime site), so that probing `by_stack` clones
    /// no frame; a truncated copy only for deeper stacks.
    fn coarsened<'a>(&self, stack: &'a CallStack) -> Cow<'a, CallStack> {
        if stack.depth() <= self.depth {
            Cow::Borrowed(stack)
        } else {
            Cow::Owned(stack.truncated(self.depth))
        }
    }

    /// Interns `stack` (after truncation) and returns its id.
    pub fn intern(&mut self, stack: &CallStack) -> PositionId {
        let stack = self.coarsened(stack);
        if let Some(id) = self.by_stack.get(&*stack) {
            return *id;
        }
        let shared = self.interner.intern(&stack);
        let id = PositionId(self.positions.len() as u32);
        let position = Position::new(id, Arc::clone(&shared));
        self.by_key.entry(position.site_key()).or_insert(id);
        self.positions.push(position);
        self.by_stack.insert(shared, id);
        id
    }

    /// Looks up the id of an already-interned stack without inserting.
    pub fn lookup(&self, stack: &CallStack) -> Option<PositionId> {
        self.by_stack.get(&*self.coarsened(stack)).copied()
    }

    /// The first position interned with the given stable site key, if any.
    /// This is the foreign-antibody screening query: a hit proves that a
    /// program location with this content-hash identity exists (and has
    /// synchronized) in *this* process.
    pub fn lookup_by_key(&self, key: SiteKey) -> Option<PositionId> {
        self.by_key.get(&key).copied()
    }

    /// Returns the position data for `id`, if it exists.
    pub fn get(&self, id: PositionId) -> Option<&Position> {
        self.positions.get(id.index())
    }

    /// Returns mutable position data for `id`, if it exists.
    pub fn get_mut(&mut self, id: PositionId) -> Option<&mut Position> {
        self.positions.get_mut(id.index())
    }

    /// Iterates over every interned position.
    pub fn iter(&self) -> impl Iterator<Item = &Position> {
        self.positions.iter()
    }

    /// Iterates mutably over every interned position (queue cleanup during
    /// the schedule explorer's engine-reuse reset).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Position> {
        self.positions.iter_mut()
    }

    /// Estimated resident memory of the table in bytes, used by the memory
    /// overhead experiments (Table 1).
    pub fn memory_footprint_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        for p in &self.positions {
            total += std::mem::size_of::<Position>();
            total += p.queue.capacity()
                * (std::mem::size_of::<OwnerId>() + std::mem::size_of::<usize>());
            for f in p.stack.frames() {
                total += std::mem::size_of_val(f) + f.method().len() + f.file().len();
            }
        }
        // HashMap side of the interning (keys share the stored stacks'
        // allocations through the interner, so only the Arc handle counts).
        total += self.by_stack.len()
            * (std::mem::size_of::<Arc<CallStack>>() + std::mem::size_of::<PositionId>());
        total += self.by_key.len()
            * (std::mem::size_of::<SiteKey>() + std::mem::size_of::<PositionId>());
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Frame;

    fn stack(line: u32) -> CallStack {
        CallStack::from_frames(vec![
            Frame::new("lock", "wrapper.rs", line),
            Frame::new("caller", "app.rs", 100 + line),
        ])
    }

    #[test]
    fn interning_is_idempotent() {
        let mut t = PositionTable::new(1);
        let a = t.intern(&stack(1));
        let b = t.intern(&stack(1));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&stack(1)), Some(a));
        assert_eq!(t.lookup(&stack(2)), None);
    }

    #[test]
    fn depth_one_conflates_wrapper_callers() {
        // The MyLock wrapper pathology of §3.2: with depth 1 two different
        // callers of the same wrapper collapse to the same position.
        let mut t = PositionTable::new(1);
        let a = t.intern(&CallStack::from_frames(vec![
            Frame::new("MyLock.lock", "mylock.rs", 5),
            Frame::new("callerA", "a.rs", 10),
        ]));
        let b = t.intern(&CallStack::from_frames(vec![
            Frame::new("MyLock.lock", "mylock.rs", 5),
            Frame::new("callerB", "b.rs", 20),
        ]));
        assert_eq!(a, b);

        // With depth 2 they stay distinct.
        let mut t2 = PositionTable::new(2);
        let a2 = t2.intern(&CallStack::from_frames(vec![
            Frame::new("MyLock.lock", "mylock.rs", 5),
            Frame::new("callerA", "a.rs", 10),
        ]));
        let b2 = t2.intern(&CallStack::from_frames(vec![
            Frame::new("MyLock.lock", "mylock.rs", 5),
            Frame::new("callerB", "b.rs", 20),
        ]));
        assert_ne!(a2, b2);
    }

    #[test]
    fn queue_push_remove_counts() {
        let mut q = OwnerQueue::new();
        let t1 = crate::ThreadId::new(1);
        let t2 = crate::ThreadId::new(2);
        q.push(t1);
        q.push(t2);
        q.push(t1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.count(t1), 2);
        assert!(q.contains(t2));
        assert!(q.remove_one(t1));
        assert_eq!(q.count(t1), 1);
        assert_eq!(q.remove_all(t1), 1);
        assert!(!q.contains(t1));
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![OwnerId::from(t2)]);
        assert!(!q.remove_one(crate::ThreadId::new(99)));
    }

    #[test]
    fn queue_keeps_thread_and_task_occurrences_distinct() {
        // A task and a thread with the same raw index are different owners.
        let mut q = OwnerQueue::new();
        q.push(OwnerId::thread(1));
        q.push(OwnerId::task(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.count(OwnerId::thread(1)), 1);
        assert_eq!(q.count(OwnerId::task(1)), 1);
        assert!(q.remove_one(OwnerId::task(1)));
        assert!(q.contains(OwnerId::thread(1)));
        assert!(!q.contains(OwnerId::task(1)));
    }

    #[test]
    fn queue_memory_tracks_occupancy_not_history() {
        let mut q = OwnerQueue::new();
        for i in 0..8 {
            q.push(crate::ThreadId::new(i));
        }
        let cap_before = q.capacity();
        for i in 0..8 {
            assert!(q.remove_one(crate::ThreadId::new(i)));
        }
        assert!(q.is_empty());
        assert_eq!(q.capacity(), 0, "departed owners leave no residue");
        // Fresh occupants cost the same as the original ones did.
        for i in 0..8 {
            q.push(crate::ThreadId::new(100 + i));
        }
        assert_eq!(q.capacity(), cap_before);
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn queue_capped_distinct_owners_are_a_sorted_filtered_prefix() {
        let mut q = OwnerQueue::new();
        for i in (0..10).rev() {
            q.push(crate::ThreadId::new(i));
            q.push(crate::ThreadId::new(i)); // duplicates collapse
        }
        let excluded = OwnerId::thread(2);
        let capped: Vec<_> = q.distinct_owners_capped(4, |o| o != excluded).collect();
        assert_eq!(
            capped,
            vec![
                OwnerId::thread(0),
                OwnerId::thread(1),
                OwnerId::thread(3),
                OwnerId::thread(4),
            ]
        );
        assert_eq!(q.distinct_owners_capped(99, |_| true).count(), 10);
    }

    /// Site keys are assigned at intern time over the *truncated* stack and
    /// answer the foreign-antibody screening query: the same site rendered
    /// at shifted line numbers (a recompiled binary) resolves to the local
    /// position by key even though the stacks differ structurally.
    #[test]
    fn intern_assigns_stable_site_keys() {
        let mut t = PositionTable::new(2);
        let id = t.intern(&stack(1));
        let p = t.get(id).unwrap();
        assert_eq!(p.site_key(), p.stack().site_key());
        assert_eq!(t.lookup_by_key(p.site_key()), Some(id));
        // The same site from a "recompiled binary": every line shifted.
        let shifted = CallStack::from_frames(vec![
            Frame::new("lock", "wrapper.rs", 1 + 40),
            Frame::new("caller", "app.rs", 101 + 40),
        ]);
        assert_eq!(t.lookup(&shifted), None, "absolute stacks differ");
        assert_eq!(
            t.lookup_by_key(shifted.site_key()),
            Some(id),
            "site keys must survive the shift"
        );
        assert_eq!(t.lookup_by_key(SiteKey::new(0xdead_beef)), None);
    }

    /// Colliding keys (coarsened identity) resolve to the first interned
    /// position and never panic or churn the index.
    #[test]
    fn colliding_site_keys_are_first_wins() {
        let mut t = PositionTable::new(1);
        // Depth-1 keys ignore lines: these two distinct positions collide.
        let a = t.intern(&CallStack::single(Frame::new("f", "x.rs", 1)));
        let b = t.intern(&CallStack::single(Frame::new("f", "x.rs", 2)));
        assert_ne!(a, b);
        let key = t.get(a).unwrap().site_key();
        assert_eq!(t.get(b).unwrap().site_key(), key);
        assert_eq!(t.lookup_by_key(key), Some(a));
    }

    #[test]
    fn history_ref_roundtrips() {
        let mut t = PositionTable::new(1);
        let id = t.intern(&stack(9));
        assert!(!t.get(id).unwrap().in_history());
        assert_eq!(t.get(id).unwrap().history_ref(), None);
        t.get_mut(id)
            .unwrap()
            .set_history_ref(Some(PositionId::new(7)));
        assert!(t.get(id).unwrap().in_history());
        assert_eq!(t.get(id).unwrap().history_ref(), Some(PositionId::new(7)));
        t.get_mut(id).unwrap().set_history_ref(None);
        assert!(!t.get(id).unwrap().in_history());
    }

    /// Two tables sharing one interner resolve the same truncated stack to
    /// one allocation; a table's private ids stay independent.
    #[test]
    fn shared_interner_deduplicates_across_tables() {
        let interner = Arc::new(StackInterner::new());
        let mut a = PositionTable::with_interner(1, Arc::clone(&interner));
        let mut b = PositionTable::with_interner(1, Arc::clone(&interner));
        let ia = a.intern(&stack(7));
        let ib = b.intern(&stack(7));
        let sa = a.get(ia).unwrap().stack_shared();
        let sb = b.get(ib).unwrap().stack_shared();
        assert!(Arc::ptr_eq(sa, sb), "both tables must share one allocation");
        assert_eq!(interner.len(), 1);
        // A distinct site allocates once more.
        b.intern(&stack(8));
        assert_eq!(interner.len(), 2);
        assert!(!interner.is_empty());
    }

    /// Interning the same stack twice through one interner returns the same
    /// allocation (the read-probe fast path after first insertion).
    #[test]
    fn interner_is_idempotent() {
        let interner = StackInterner::new();
        let s = stack(3).truncated(1);
        let first = interner.intern(&s);
        let second = interner.intern(&s);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn memory_footprint_grows_with_positions() {
        let mut t = PositionTable::new(1);
        let empty = t.memory_footprint_bytes();
        for i in 0..64 {
            t.intern(&stack(i));
        }
        assert!(t.memory_footprint_bytes() > empty);
    }
}
