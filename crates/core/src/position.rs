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
use crate::{IdHashMap, OwnerId};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
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
/// a counted multiset ordered by owner id: one `(owner, occurrences)` entry
/// per distinct owner in a flat ring buffer sorted by owner. The
/// representation matters once owners are *tasks*: a server position can be
/// occupied by thousands of concurrent tasks at once, and the avoidance hot
/// path asks for a few distinct occupants per check — a sorted prefix
/// answers that in O(answer), a binary search finds an owner in O(log
/// distinct), and every traversal is deterministic. Owner ids are allocated
/// in increasing order, so a new occupant nearly always lands at the back,
/// and most positions hold zero or one owner, whose removal is a pop from
/// an end. An insert or removal inside the buffer moves the entries on its
/// shorter side: O(distinct), against a `BTreeMap`'s O(log distinct), paid
/// when a large crowd leaves out of order (the benchmark's `async_replay`
/// takes almost half its removals from inside crowds of up to ~5000).
/// The same owner may appear more than once (it may hold several locks
/// acquired at the same program location).
#[derive(Debug, Clone, Default)]
pub struct OwnerQueue {
    /// Occurrences per owner, sorted by owner; an absent owner has zero,
    /// and no entry has zero.
    counts: VecDeque<(OwnerId, usize)>,
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

    /// Where `owner`'s entry is, or would be inserted.
    fn find(&self, owner: OwnerId) -> Result<usize, usize> {
        // The common case first: the newest owner, at the end.
        let len = self.counts.len();
        match self.counts.back() {
            Some((newest, _)) if *newest < owner => Err(len),
            Some((newest, _)) if *newest == owner => Ok(len - 1),
            _ => self.counts.binary_search_by_key(&owner, |(o, _)| *o),
        }
    }

    /// Removes the entry at `i`, from an end without shifting where it can.
    fn remove_at(&mut self, i: usize) -> Option<(OwnerId, usize)> {
        if i == 0 {
            self.counts.pop_front()
        } else if i + 1 == self.counts.len() {
            self.counts.pop_back()
        } else {
            self.counts.remove(i)
        }
    }

    /// Adds one occurrence of `owner`.
    pub fn push(&mut self, owner: impl Into<OwnerId>) {
        let owner = owner.into();
        match self.find(owner) {
            Ok(i) => self.counts[i].1 += 1,
            Err(i) if i == self.counts.len() => self.counts.push_back((owner, 1)),
            Err(i) => self.counts.insert(i, (owner, 1)),
        }
        self.len += 1;
    }

    /// Removes one occurrence of `owner`; returns true if an occurrence was
    /// present.
    pub fn remove_one(&mut self, owner: impl Into<OwnerId>) -> bool {
        let Ok(i) = self.find(owner.into()) else {
            return false;
        };
        self.counts[i].1 -= 1;
        if self.counts[i].1 == 0 {
            self.remove_at(i);
        }
        self.len -= 1;
        true
    }

    /// Removes every occurrence of every owner. Used by the schedule
    /// explorer's engine-reuse reset between simulated runs.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.len = 0;
    }

    /// Removes every occurrence of `owner`, returning how many were removed.
    pub fn remove_all(&mut self, owner: impl Into<OwnerId>) -> usize {
        let found = self.find(owner.into()).ok();
        let removed = found.and_then(|i| self.remove_at(i)).map_or(0, |(_, c)| c);
        self.len -= removed;
        removed
    }

    /// Number of occurrences of `owner`.
    pub fn count(&self, owner: impl Into<OwnerId>) -> usize {
        self.find(owner.into()).map_or(0, |i| self.counts[i].1)
    }

    /// True if `owner` occupies at least one slot.
    pub fn contains(&self, owner: impl Into<OwnerId>) -> bool {
        self.find(owner.into()).is_ok()
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
        let distinct = self.counts.iter().map(|(o, _)| *o);
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
    /// Keyed by the address of each stack the table stores, so a caller
    /// passing one of those very stacks (the runtime's per-site cache holds
    /// the shared interner's) is answered without hashing the stack. Sound
    /// because the table holds an `Arc` to every stack it keys here: while
    /// the key is in the map no other live stack can have its address.
    by_addr: IdHashMap<usize, PositionId>,
    /// Keyed by the interned stack and probed through `Borrow<CallStack>`
    /// with the caller's own stack, so a hit clones nothing: the fallback
    /// for stacks from anywhere else (history files, packs, the simulator).
    by_stack: HashMap<Arc<CallStack>, PositionId>,
    positions: Vec<Position>,
    /// Interns answered by hashing the stack's contents (`by_stack`).
    content_probes: u64,
}

/// The identity key of a stack: its address.
fn address(stack: &CallStack) -> usize {
    stack as *const CallStack as usize
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
            by_addr: IdHashMap::default(),
            by_stack: HashMap::new(),
            positions: Vec::new(),
            content_probes: 0,
        }
    }

    /// The interner this table resolves stacks through.
    pub fn interner(&self) -> &Arc<StackInterner> {
        &self.interner
    }

    /// Re-points the table at a shared interner. Safe at any time — the
    /// interner only deduplicates future interns; stacks already interned
    /// keep their existing allocations, which still key both maps (a
    /// repeat of one from the new interner is answered by content).
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

    /// Interns `stack` (after truncation) and returns its id. A stack this
    /// table stores (the one [`Position::stack_shared`] hands out, or the
    /// shared interner's copy of it) is found by its address; any other by
    /// its contents.
    pub fn intern(&mut self, stack: &CallStack) -> PositionId {
        match self.by_addr.get(&address(stack)) {
            Some(id) => *id,
            None => self.intern_by_content(stack),
        }
    }

    fn intern_by_content(&mut self, stack: &CallStack) -> PositionId {
        self.content_probes += 1;
        let stack = self.coarsened(stack);
        if let Some(id) = self.by_stack.get(&*stack) {
            return *id;
        }
        let shared = self.interner.intern(&stack);
        let id = PositionId(self.positions.len() as u32);
        self.positions.push(Position::new(id, Arc::clone(&shared)));
        self.by_addr.insert(address(&shared), id);
        self.by_stack.insert(shared, id);
        id
    }

    /// Looks up the id of an already-interned stack without inserting.
    pub fn lookup(&self, stack: &CallStack) -> Option<PositionId> {
        let by_addr = self.by_addr.get(&address(stack));
        by_addr
            .or_else(|| self.by_stack.get(&*self.coarsened(stack)))
            .copied()
    }

    /// How many [`intern`](Self::intern) calls so far hashed the stack's
    /// contents: a stack's first intern, and every intern of a stack the
    /// table does not store. The count a locked acquisition at a cached
    /// site keeps at zero.
    pub fn content_probes(&self) -> u64 {
        self.content_probes
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
        // allocations through the interner, so only the Arc handle counts),
        // and the address keys.
        total += self.by_stack.len()
            * (std::mem::size_of::<Arc<CallStack>>() + std::mem::size_of::<PositionId>());
        total +=
            self.by_addr.len() * (std::mem::size_of::<usize>() + std::mem::size_of::<PositionId>());
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

    /// Site keys are assigned at intern time over the *truncated* stack:
    /// the same site rendered at shifted line numbers (a recompiled binary)
    /// has the local position's key even though the stacks differ
    /// structurally.
    #[test]
    fn intern_assigns_stable_site_keys() {
        let mut t = PositionTable::new(2);
        let id = t.intern(&stack(1));
        let p = t.get(id).unwrap();
        assert_eq!(p.site_key(), p.stack().site_key());
        // The same site from a "recompiled binary": every line shifted.
        let shifted = CallStack::from_frames(vec![
            Frame::new("lock", "wrapper.rs", 1 + 40),
            Frame::new("caller", "app.rs", 101 + 40),
        ]);
        assert_eq!(t.lookup(&shifted), None, "absolute stacks differ");
        assert_eq!(
            shifted.site_key(),
            p.site_key(),
            "site keys must survive the shift"
        );
    }

    /// Colliding keys (coarsened identity) leave the positions distinct:
    /// identity is the stack, the key only names the site.
    #[test]
    fn colliding_site_keys_are_first_wins() {
        let mut t = PositionTable::new(1);
        // Depth-1 keys ignore lines: these two distinct positions collide.
        let a = t.intern(&CallStack::single(Frame::new("f", "x.rs", 1)));
        let b = t.intern(&CallStack::single(Frame::new("f", "x.rs", 2)));
        assert_ne!(a, b);
        let key = t.get(a).unwrap().site_key();
        assert_eq!(t.get(b).unwrap().site_key(), key);
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

    /// A stack the table stores is found by its address; an equal stack in
    /// another allocation by its contents, to the same id.
    #[test]
    fn identity_and_content_lookups_agree() {
        let mut t = PositionTable::new(2);
        let id = t.intern(&stack(4));
        assert_eq!(t.content_probes(), 1, "a first intern hashes");
        let stored = Arc::clone(t.get(id).unwrap().stack_shared());
        assert_eq!(t.intern(&stored), id);
        assert_eq!(t.lookup(&stored), Some(id));
        assert_eq!(
            t.content_probes(),
            1,
            "the stored stack is found by address"
        );
        let copy = stack(4);
        assert!(!std::ptr::eq(&copy, &*stored));
        assert_eq!(t.intern(&copy), id);
        assert_eq!(t.content_probes(), 2, "an equal copy is found by content");
        assert_eq!(t.len(), 1);
    }

    /// A clone holds the same stacks, so the address keys it copies are
    /// still sound; a table re-pointed at another interner keeps keying the
    /// stacks it already stores, and finds an equal stack of the new
    /// interner's by content.
    #[test]
    fn clones_and_repointed_tables_answer_the_same_ids() {
        let mut t = PositionTable::new(1);
        let ids: Vec<_> = (0..4).map(|i| t.intern(&stack(i))).collect();
        let stored: Vec<_> = ids
            .iter()
            .map(|id| Arc::clone(t.get(*id).unwrap().stack_shared()))
            .collect();
        let mut clone = t.clone();
        let other = Arc::new(StackInterner::new());
        t.set_interner(Arc::clone(&other));
        for (id, s) in ids.iter().zip(&stored) {
            assert_eq!(clone.intern(s), *id);
            assert_eq!(t.intern(s), *id);
            assert_eq!(t.intern(&other.intern(s)), *id);
        }
        assert_eq!((t.len(), clone.len()), (4, 4));
        assert_eq!(clone.content_probes(), 4, "only the first interns hashed");
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
