//! Strongly-typed identifiers used throughout the Dimmunix engine.
//!
//! The engine is substrate-agnostic: it never touches OS threads or real
//! mutexes. Substrates (the Dalvik-like simulator in `dalvik-sim`, or the
//! real-thread runtime in `dimmunix-rt`) map their own notion of threads and
//! monitors onto these dense identifiers and feed synchronization events to
//! the engine.

use std::fmt;

/// Identifier of a thread, as seen by the Dimmunix engine.
///
/// In the paper this corresponds to a Dalvik `Thread*` carrying an embedded
/// RAG `Node`; here it is an opaque dense id assigned by the substrate.
///
/// ```
/// use dimmunix_core::ThreadId;
/// let t = ThreadId::new(3);
/// assert_eq!(t.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(u64);

/// Identifier of an asynchronous task, as seen by the Dimmunix engine.
///
/// Tasks are cooperatively-scheduled units of work multiplexed onto a small
/// pool of OS threads by an async executor. A task-level deadlock (task A
/// holds lock 1 and awaits lock 2 while task B holds lock 2 and awaits
/// lock 1) is invisible to a thread-keyed RAG whenever both tasks share a
/// worker thread, so async substrates key the engine by `TaskId` instead.
///
/// ```
/// use dimmunix_core::TaskId;
/// let t = TaskId::new(3);
/// assert_eq!(t.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u64);

/// Identifier of a lock (Dalvik monitor / fat lock), as seen by the engine.
///
/// ```
/// use dimmunix_core::LockId;
/// let l = LockId::new(7);
/// assert_eq!(l.index(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(u64);

/// Identifier of a process (an Android application forked from Zygote).
///
/// Dimmunix state is strictly per-process (§3.1 of the paper); the id exists
/// so multi-process substrates can label histories and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

/// A statically-assigned synchronization-site identifier.
///
/// §4 of the paper proposes eliminating call-stack retrieval overhead by
/// having the compiler emit a constant id per synchronization statement.
/// `SiteId` is that optimization: substrates may pass a `SiteId` instead of a
/// captured call stack, and the engine interns it exactly like a depth-1
/// stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(u64);

/// Index of a deadlock/starvation signature within a [`History`].
///
/// [`History`]: crate::history::History
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignatureId(pub(crate) usize);

macro_rules! impl_id {
    ($name:ident, $repr:ty) => {
        impl $name {
            /// Creates an identifier from a raw index.
            pub const fn new(raw: $repr) -> Self {
                Self(raw)
            }

            /// Returns the raw index backing this identifier.
            pub const fn index(self) -> $repr {
                self.0
            }
        }

        impl From<$repr> for $name {
            fn from(raw: $repr) -> Self {
                Self(raw)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

impl_id!(ThreadId, u64);
impl_id!(TaskId, u64);
impl_id!(LockId, u64);
impl_id!(ProcessId, u32);
impl_id!(SiteId, u64);

/// The abstract identity that owns locks and waits in the RAG.
///
/// Every layer of the engine — lock owners, wait-for edges, cycle
/// classification, avoidance candidate sets, position queues and
/// statistics — is keyed by `OwnerId` rather than a raw [`ThreadId`]. The
/// classic thread-keyed runtime is simply the [`OwnerId::Thread`]
/// instantiation; async substrates feed [`OwnerId::Task`] identities so that
/// cycles among tasks multiplexed on a small worker pool remain visible.
///
/// The two arms form a flat two-branch lattice over one logical owner space:
/// an owner is either an OS thread or an async task, never both, and owners
/// of different kinds never compare equal. Engine entry points accept
/// `impl Into<OwnerId>`, so thread-keyed callers keep passing [`ThreadId`]
/// values unchanged.
///
/// ```
/// use dimmunix_core::{OwnerId, TaskId, ThreadId};
/// let a = OwnerId::from(ThreadId::new(1));
/// let b = OwnerId::from(TaskId::new(1));
/// assert_ne!(a, b); // same raw index, different identity space
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OwnerId {
    /// An OS thread (the paper's Dalvik `Thread*`).
    Thread(ThreadId),
    /// An async task multiplexed onto a worker pool.
    Task(TaskId),
}

impl OwnerId {
    /// Shorthand for `OwnerId::Thread(ThreadId::new(raw))`.
    pub const fn thread(raw: u64) -> Self {
        OwnerId::Thread(ThreadId::new(raw))
    }

    /// Shorthand for `OwnerId::Task(TaskId::new(raw))`.
    pub const fn task(raw: u64) -> Self {
        OwnerId::Task(TaskId::new(raw))
    }

    /// The thread identity, if this owner is an OS thread.
    pub const fn as_thread(self) -> Option<ThreadId> {
        match self {
            OwnerId::Thread(t) => Some(t),
            OwnerId::Task(_) => None,
        }
    }

    /// The task identity, if this owner is an async task.
    pub const fn as_task(self) -> Option<TaskId> {
        match self {
            OwnerId::Task(t) => Some(t),
            OwnerId::Thread(_) => None,
        }
    }

    /// True if this owner is an async task.
    pub const fn is_task(self) -> bool {
        matches!(self, OwnerId::Task(_))
    }

    /// The raw index inside the owner's identity space.
    pub const fn index(self) -> u64 {
        match self {
            OwnerId::Thread(t) => t.index(),
            OwnerId::Task(t) => t.index(),
        }
    }
}

impl From<ThreadId> for OwnerId {
    fn from(t: ThreadId) -> Self {
        OwnerId::Thread(t)
    }
}

impl From<TaskId> for OwnerId {
    fn from(t: TaskId) -> Self {
        OwnerId::Task(t)
    }
}

impl fmt::Display for OwnerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OwnerId::Thread(t) => write!(f, "thread({})", t.index()),
            OwnerId::Task(t) => write!(f, "task({})", t.index()),
        }
    }
}

impl SignatureId {
    /// Creates a signature id from a raw history index.
    pub const fn new(raw: usize) -> Self {
        Self(raw)
    }

    /// Returns the raw history index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SignatureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SignatureId({})", self.0)
    }
}

/// Hasher for maps keyed by the engine's own identifiers ([`LockId`],
/// [`OwnerId`], [`SignatureId`], position and runtime-instance ids): each
/// integer written is xored into the state and folded through one
/// 64×64→128-bit multiply, high half onto low half. `HashMap` takes the
/// bucket from a hash's low bits and a control byte from its top seven, so
/// both ends must depend on every input bit; a bare multiply leaves the low
/// bits of strided ids constant.
///
/// Threat model: every key is a counter or address this process allocated,
/// never attacker-chosen, so SipHash's collision resistance buys nothing
/// here — do not use this hasher for keys read from outside the process.
/// Being unseeded, it also makes map iteration order deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Byte strings are not what this hasher is for; a stray non-integer
    /// key still hashes correctly, one fold per byte.
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|b| self.write_u64(u64::from(*b)));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let wide = u128::from(self.0 ^ v) * 0xf135_7aea_2e62_a9c5_u128;
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// `#[derive(Hash)]` writes an enum's discriminant through here.
    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
}

/// A `HashMap` hashed by [`IdHasher`].
pub type IdHashMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_roundtrip_raw_values() {
        assert_eq!(ThreadId::new(42).index(), 42);
        assert_eq!(LockId::new(7).index(), 7);
        assert_eq!(ProcessId::new(3).index(), 3);
        assert_eq!(SiteId::new(99).index(), 99);
        assert_eq!(SignatureId::new(5).index(), 5);
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        let mut set = HashSet::new();
        for i in 0..10 {
            set.insert(ThreadId::new(i));
        }
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", ThreadId::new(1)).is_empty());
        assert!(!format!("{}", LockId::new(1)).is_empty());
        assert!(!format!("{}", SignatureId::new(1)).is_empty());
    }

    #[test]
    fn from_raw_conversion() {
        let t: ThreadId = 9u64.into();
        assert_eq!(t, ThreadId::new(9));
    }

    #[test]
    fn owner_id_separates_thread_and_task_spaces() {
        let th = OwnerId::from(ThreadId::new(4));
        let ta = OwnerId::from(TaskId::new(4));
        assert_ne!(th, ta);
        assert_eq!(th, OwnerId::thread(4));
        assert_eq!(ta, OwnerId::task(4));
        assert_eq!(th.as_thread(), Some(ThreadId::new(4)));
        assert_eq!(th.as_task(), None);
        assert_eq!(ta.as_task(), Some(TaskId::new(4)));
        assert!(!th.is_task());
        assert!(ta.is_task());
        assert_eq!(th.index(), 4);
        assert_eq!(ta.index(), 4);
        assert_eq!(format!("{th}"), "thread(4)");
        assert_eq!(format!("{ta}"), "task(4)");
        let mut set = HashSet::new();
        set.insert(th);
        set.insert(ta);
        assert_eq!(set.len(), 2);
    }
}
