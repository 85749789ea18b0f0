//! Structurally-shared persistent containers backing the history snapshot.
//!
//! [`HistorySnapshot::append`](crate::HistorySnapshot::append) used to clone
//! the entire history (signature vector, fingerprint map, canonical outer
//! table, inverted index) to produce its successor — O(|history|) per
//! detection, which dominates detection cost once a process holds thousands
//! of antibodies. The two containers here make a successor an O(1) clone
//! plus an O(log₃₂ n) *path copy*:
//!
//! * [`PersistentVec`] — a 32-way bitmapped-trie vector (the classic
//!   Clojure/Scala persistent vector). `clone` is O(1) (three `Arc` bumps),
//!   `get` walks log₃₂ n nodes, and iteration touches each leaf once.
//! * [`PersistentMap`] — a hash-array-mapped trie over a 4-bit radix
//!   (16-way branches), used for the fingerprint-dedup and stack-interning
//!   lookups. The map is deliberately *narrower* than the vector: an
//!   insert into a shared map clones the child arrays along the copied
//!   path (one refcount bump per surviving pointer, and one decrement when
//!   the replaced epoch drops), which totals Σ min(width, n/widthˡ) over
//!   the levels l. A narrow radix keeps every copied array small, so that
//!   sum — and with it the append-cost curve the `history_scale` bench
//!   gates — grows far more slowly with n than a wide node's would. The
//!   vector does not share this trade-off: its pushes only touch the
//!   always-warm right spine.
//!
//! Both have **one** update path, `&mut self` over [`Arc::make_mut`]: a
//! node only this value reaches is changed in place, and a node shared
//! with any clone is copied first. Bulk construction (log replay,
//! [`HistorySnapshot::build`](crate::HistorySnapshot::build)) therefore
//! allocates each node once, while an update after a `clone` — how every
//! snapshot successor is made — copies exactly one root-to-leaf path and
//! leaves the clone untouched.
//!
//! Both are built from `std` only and contain no unsafe code. Values are
//! stored behind the structure's own nodes, so cheap-to-clone element
//! types (`Arc<T>`, small copyable records) keep leaf copies cheap.
//!
//! The `Vec`/`HashMap` oracle property tests live in `tests/proptests.rs`
//! (200+ generated op sequences each, with a clone taken mid-sequence and
//! both sides mutated afterwards).

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Radix bits per vector-trie level.
const BITS: usize = 5;
/// Vector branching factor (2^BITS).
const WIDTH: usize = 1 << BITS;
/// Mask selecting one vector radix digit.
const MASK: usize = WIDTH - 1;

/// Radix bits per map-trie level (see the module docs for why the map is
/// narrower than the vector).
const MAP_BITS: usize = 4;
/// Map branching factor (2^MAP_BITS).
const MAP_WIDTH: usize = 1 << MAP_BITS;
/// Mask selecting one map radix digit.
const MAP_MASK: usize = MAP_WIDTH - 1;

// ----------------------------------------------------------------------
// PersistentVec
// ----------------------------------------------------------------------

/// Trie node: interior branches hold up to 32 children, leaves hold exactly
/// 32 elements (the trailing partial chunk lives in the vector's tail).
#[derive(Debug, Clone)]
enum Node<T> {
    Branch(Vec<Option<Arc<Node<T>>>>),
    Leaf(Vec<T>),
}

/// A persistent (structurally shared) vector.
///
/// `clone` is O(1), which is what lets
/// [`HistorySnapshot::append`](crate::HistorySnapshot::append) produce a
/// successor snapshot without copying the history. `push` and `set` update
/// in place the nodes this vector alone reaches and copy the ones it
/// shares with a clone, so a clone never observes a later write.
///
/// ```
/// use dimmunix_core::PersistentVec;
/// let a: PersistentVec<u32> = (0..100).collect();
/// let mut b = a.clone();
/// b.push(100);
/// assert_eq!(a.len(), 100);        // the clone is untouched
/// assert_eq!(b.len(), 101);
/// assert_eq!(b.get(100), Some(&100));
/// assert_eq!(a.get(100), None);
/// ```
pub struct PersistentVec<T> {
    len: usize,
    /// Radix shift of the root level; 0 means the root (if any) is a leaf.
    shift: usize,
    root: Option<Arc<Node<T>>>,
    /// The trailing `len % 32` elements (or 32 when `len` is a non-zero
    /// multiple), kept outside the trie so pushes into a partial chunk never
    /// walk it.
    tail: Arc<Vec<T>>,
}

impl<T> Clone for PersistentVec<T> {
    fn clone(&self) -> Self {
        PersistentVec {
            len: self.len,
            shift: self.shift,
            root: self.root.clone(),
            tail: Arc::clone(&self.tail),
        }
    }
}

impl<T> Default for PersistentVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for PersistentVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> PersistentVec<T> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        PersistentVec {
            len: 0,
            shift: 0,
            root: None,
            tail: Arc::new(Vec::new()),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First index stored in the tail chunk (a multiple of 32).
    fn tail_offset(&self) -> usize {
        self.len - self.tail.len()
    }

    /// The element at `index`, or `None` out of range.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        Some(&self.leaf_for(index)[index & MASK])
    }

    /// The 32-aligned chunk containing `index` (which must be in range).
    fn leaf_for(&self, index: usize) -> &[T] {
        if index >= self.tail_offset() {
            return &self.tail;
        }
        let mut node = self
            .root
            .as_deref()
            .expect("an index below the tail offset implies a trie");
        let mut level = self.shift;
        loop {
            match node {
                Node::Branch(children) => {
                    node = children[(index >> level) & MASK]
                        .as_deref()
                        .expect("in-range index resolves through populated children");
                    level -= BITS;
                }
                Node::Leaf(items) => return items,
            }
        }
    }

    /// Iterates over the elements in order. Each 32-element chunk is
    /// resolved once, so a full traversal costs O(n) element visits plus
    /// O(n / 32) trie walks.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            vec: self,
            index: 0,
            chunk: &[],
            chunk_start: 0,
        }
    }
}

impl<T: Clone> PersistentVec<T> {
    /// Appends `value`. Pushes into a partial tail touch only the tail;
    /// every 32nd push moves the full tail into the trie as a leaf, along
    /// the right spine.
    pub fn push(&mut self, value: T) {
        self.len += 1;
        if self.tail.len() < WIDTH {
            Arc::make_mut(&mut self.tail).push(value);
            return;
        }
        let mut tail = Vec::with_capacity(WIDTH);
        tail.push(value);
        let full = std::mem::replace(&mut self.tail, Arc::new(tail));
        let leaf = Arc::new(Node::Leaf(
            Arc::try_unwrap(full).unwrap_or_else(|shared| (*shared).clone()),
        ));
        // Index of the leaf's first element: the trie's length before it.
        let index = self.len - 1 - WIDTH;
        let Some(root) = self.root.as_mut() else {
            self.root = Some(leaf);
            return;
        };
        if index == WIDTH << self.shift {
            // The root is full: grow one level.
            let mut children: Vec<Option<Arc<Node<T>>>> = vec![None; WIDTH];
            children[0] = self.root.take();
            children[1] = Some(new_path(self.shift, leaf));
            self.root = Some(Arc::new(Node::Branch(children)));
            self.shift += BITS;
            return;
        }
        let (mut node, mut level) = (root, self.shift);
        loop {
            let Node::Branch(children) = Arc::make_mut(node) else {
                unreachable!("a new leaf's path only crosses branches");
            };
            let slot = &mut children[(index >> level) & MASK];
            level -= BITS;
            match slot {
                Some(child) => node = child,
                None => {
                    *slot = Some(new_path(level, leaf));
                    return;
                }
            }
        }
    }

    /// Replaces the element at `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize, value: T) {
        assert!(
            index < self.len,
            "set index {index} out of range (len {})",
            self.len
        );
        if index >= self.tail_offset() {
            Arc::make_mut(&mut self.tail)[index & MASK] = value;
            return;
        }
        let mut node = self.root.as_mut().expect("trie exists below tail offset");
        let mut level = self.shift;
        loop {
            match Arc::make_mut(node) {
                Node::Leaf(items) => {
                    items[index & MASK] = value;
                    return;
                }
                Node::Branch(children) => {
                    node = children[(index >> level) & MASK]
                        .as_mut()
                        .expect("in-range index");
                    level -= BITS;
                }
            }
        }
    }
}

/// Wraps `node` in single-child branches from `level` down to the leaf level.
fn new_path<T>(level: usize, node: Arc<Node<T>>) -> Arc<Node<T>> {
    if level == 0 {
        return node;
    }
    let mut children: Vec<Option<Arc<Node<T>>>> = vec![None; WIDTH];
    children[0] = Some(new_path(level - BITS, node));
    Arc::new(Node::Branch(children))
}

impl<T: Clone> FromIterator<T> for PersistentVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = PersistentVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

/// Chunk-caching iterator over a [`PersistentVec`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    vec: &'a PersistentVec<T>,
    index: usize,
    chunk: &'a [T],
    chunk_start: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.index >= self.vec.len {
            return None;
        }
        if self.index < self.chunk_start || self.index - self.chunk_start >= self.chunk.len() {
            self.chunk = self.vec.leaf_for(self.index);
            self.chunk_start = self.index & !MASK;
        }
        let item = &self.chunk[self.index - self.chunk_start];
        self.index += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.vec.len - self.index;
        (rest, Some(rest))
    }
}

impl<'a, T> IntoIterator for &'a PersistentVec<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

// ----------------------------------------------------------------------
// PersistentMap
// ----------------------------------------------------------------------

/// HAMT node: branches use an occupancy bitmap over the next 4 hash bits
/// with a dense child vector; leaves bucket the entries of one full 64-bit
/// hash (different keys with equal hashes share a leaf).
#[derive(Debug, Clone)]
enum MapNode<K, V> {
    Branch {
        bitmap: u64,
        children: Vec<Arc<MapNode<K, V>>>,
    },
    Leaf {
        hash: u64,
        entries: Vec<(K, V)>,
    },
}

/// A persistent (structurally shared) hash map.
///
/// `clone` is O(1); `insert` updates in place the nodes this map alone
/// reaches and copies the ones it shares with a clone. Hashing uses the
/// same fixed-key `DefaultHasher` as the history's fingerprint index, so
/// layout is deterministic within a process run (nothing here is
/// persisted).
///
/// ```
/// use dimmunix_core::PersistentMap;
/// let a: PersistentMap<u32, &str> = PersistentMap::new();
/// let mut b = a.clone();
/// assert!(b.insert(1, "one"));     // a new key
/// assert_eq!(a.get(&1), None);     // the clone is untouched
/// assert_eq!(b.get(&1), Some(&"one"));
/// ```
pub struct PersistentMap<K, V> {
    len: usize,
    root: Option<Arc<MapNode<K, V>>>,
}

impl<K, V> Clone for PersistentMap<K, V> {
    fn clone(&self) -> Self {
        PersistentMap {
            len: self.len,
            root: self.root.clone(),
        }
    }
}

impl<K, V> Default for PersistentMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PersistentMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

fn hash_of<K: Hash + ?Sized>(key: &K) -> u64 {
    // Fixed-key SipHash: deterministic within a process, never persisted.
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

impl<K, V> PersistentMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PersistentMap { len: 0, root: None }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the entries in unspecified (but deterministic) order.
    pub fn iter(&self) -> MapIter<'_, K, V> {
        MapIter {
            stack: self.root.as_deref().into_iter().collect(),
            leaf: &[],
        }
    }

    /// Iterates over the values in unspecified (but deterministic) order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Hash + Eq, V> PersistentMap<K, V> {
    /// The value stored under `key`, if any. Like `HashMap::get`, the probe
    /// may be any borrowed form of the key type (e.g. a `&CallStack`
    /// probing an `Arc<CallStack>`-keyed map), provided its `Hash` and `Eq`
    /// agree with the owned form — which `Borrow` guarantees.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = hash_of(key);
        let mut node = self.root.as_deref()?;
        let mut level = 0usize;
        loop {
            match node {
                MapNode::Leaf { hash: h, entries } => {
                    return if *h == hash {
                        entries
                            .iter()
                            .find(|(k, _)| k.borrow() == key)
                            .map(|(_, v)| v)
                    } else {
                        None
                    };
                }
                MapNode::Branch { bitmap, children } => {
                    let bit = 1u64 << ((hash >> level) as usize & MAP_MASK);
                    if bitmap & bit == 0 {
                        return None;
                    }
                    node = &children[(bitmap & (bit - 1)).count_ones() as usize];
                    level += MAP_BITS;
                }
            }
        }
    }

    /// True if `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> PersistentMap<K, V> {
    /// Binds `key` to `value`; returns whether the key was new (`false`
    /// means an existing binding was replaced). A leaf whose hash differs
    /// from the key's at the current level is split into a branch.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let hash = hash_of(&key);
        let Some(mut node) = self.root.as_mut() else {
            self.root = Some(Arc::new(MapNode::Leaf {
                hash,
                entries: vec![(key, value)],
            }));
            self.len = 1;
            return true;
        };
        let mut level = 0;
        loop {
            if let MapNode::Leaf { hash: old_hash, .. } = **node {
                if old_hash != hash {
                    // The old leaf moves under the new spine as it is.
                    *node = split(Arc::clone(node), old_hash, level, hash, key, value);
                    self.len += 1;
                    return true;
                }
            }
            match Arc::make_mut(node) {
                MapNode::Leaf { entries, .. } => {
                    if let Some(entry) = entries.iter_mut().find(|(k, _)| *k == key) {
                        entry.1 = value;
                        return false;
                    }
                    entries.push((key, value));
                    self.len += 1;
                    return true;
                }
                MapNode::Branch { bitmap, children } => {
                    let bit = 1u64 << ((hash >> level) as usize & MAP_MASK);
                    let idx = (*bitmap & (bit - 1)).count_ones() as usize;
                    if *bitmap & bit == 0 {
                        *bitmap |= bit;
                        children.insert(
                            idx,
                            Arc::new(MapNode::Leaf {
                                hash,
                                entries: vec![(key, value)],
                            }),
                        );
                        self.len += 1;
                        return true;
                    }
                    node = &mut children[idx];
                    level += MAP_BITS;
                }
            }
        }
    }
}

/// Builds the branch spine separating an existing leaf (hash `old_hash`)
/// from a new entry whose hash differs. Two distinct 64-bit hashes differ at
/// some 4-bit fragment, so the recursion terminates before the hash runs out
/// of bits.
fn split<K, V>(
    old: Arc<MapNode<K, V>>,
    old_hash: u64,
    level: usize,
    hash: u64,
    key: K,
    value: V,
) -> Arc<MapNode<K, V>> {
    let old_frag = (old_hash >> level) as usize & MAP_MASK;
    let new_frag = (hash >> level) as usize & MAP_MASK;
    if old_frag == new_frag {
        let child = split(old, old_hash, level + MAP_BITS, hash, key, value);
        return Arc::new(MapNode::Branch {
            bitmap: 1u64 << old_frag,
            children: vec![child],
        });
    }
    let new_leaf = Arc::new(MapNode::Leaf {
        hash,
        entries: vec![(key, value)],
    });
    let bitmap = (1u64 << old_frag) | (1u64 << new_frag);
    let children = if old_frag < new_frag {
        vec![old, new_leaf]
    } else {
        vec![new_leaf, old]
    };
    Arc::new(MapNode::Branch { bitmap, children })
}

/// Depth-first iterator over a [`PersistentMap`].
#[derive(Debug)]
pub struct MapIter<'a, K, V> {
    stack: Vec<&'a MapNode<K, V>>,
    leaf: &'a [(K, V)],
}

impl<'a, K, V> Iterator for MapIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            if let Some((entry, rest)) = self.leaf.split_first() {
                self.leaf = rest;
                return Some((&entry.0, &entry.1));
            }
            match self.stack.pop()? {
                MapNode::Leaf { entries, .. } => self.leaf = entries,
                MapNode::Branch { children, .. } => {
                    self.stack.extend(children.iter().rev().map(Arc::as_ref));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_push_get_across_chunk_and_level_boundaries() {
        let mut v: PersistentVec<usize> = PersistentVec::new();
        assert!(v.is_empty());
        assert_eq!(v.get(0), None);
        // 0..1100 crosses the 32-element tail boundary, the 1024-element
        // root-growth boundary, and leaves a partial tail.
        for i in 0..1100 {
            v.push(i);
            assert_eq!(v.len(), i + 1);
        }
        for i in 0..1100 {
            assert_eq!(v.get(i), Some(&i), "index {i}");
        }
        assert_eq!(v.get(1100), None);
        let collected: Vec<usize> = v.iter().copied().collect();
        assert_eq!(collected, (0..1100).collect::<Vec<_>>());
    }

    #[test]
    fn vec_clone_then_diverge_shares_structure() {
        let base: PersistentVec<u32> = (0..200).collect();
        let mut a = base.clone();
        a.push(1000);
        let mut b = base.clone();
        b.push(2000);
        assert_eq!(base.len(), 200);
        assert_eq!(a.get(200), Some(&1000));
        assert_eq!(b.get(200), Some(&2000));
        // Divergent sets never bleed into siblings or the base.
        let mut c = a.clone();
        c.set(0, 7);
        assert_eq!(c.get(0), Some(&7));
        assert_eq!(a.get(0), Some(&0));
        assert_eq!(base.get(0), Some(&0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vec_set_out_of_range_panics() {
        let mut v: PersistentVec<u8> = PersistentVec::new();
        v.set(0, 1);
    }

    #[test]
    fn map_insert_get_and_replace() {
        let mut m: PersistentMap<u64, u64> = PersistentMap::new();
        for i in 0..500 {
            assert!(m.insert(i, i * 10));
        }
        assert_eq!(m.len(), 500);
        for i in 0..500 {
            assert_eq!(m.get(&i), Some(&(i * 10)), "key {i}");
        }
        assert_eq!(m.get(&500), None);
        let mut replaced = m.clone();
        assert!(!replaced.insert(42, 1));
        assert_eq!(replaced.len(), 500);
        assert_eq!(replaced.get(&42), Some(&1));
        assert_eq!(m.get(&42), Some(&420), "the clone is untouched");
        assert!(m.contains_key(&0));
        assert!(!m.contains_key(&10_000));
    }

    #[test]
    fn map_iter_visits_every_entry_once() {
        let mut m: PersistentMap<u32, u32> = PersistentMap::new();
        for i in 0..300 {
            m.insert(i, i);
        }
        let mut keys: Vec<u32> = m.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..300).collect::<Vec<_>>());
        assert_eq!(m.values().count(), 300);
    }
}
