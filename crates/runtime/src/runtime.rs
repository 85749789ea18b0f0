//! The per-process Dimmunix runtime for real OS threads.
//!
//! This is the integration layer of the paper translated to Rust: since Rust
//! has no interposition point on `std::sync::Mutex`, applications opt in by
//! using the wrapper types [`ImmuneMutex`](crate::ImmuneMutex) and
//! [`ImmuneMonitor`](crate::ImmuneMonitor), which call into a shared
//! [`DimmunixRuntime`] before and after every acquisition — exactly where the
//! modified `lockMonitor` / `unlockMonitor` / `waitMonitor` routines call the
//! Dimmunix core (§4).
//!
//! Thread safety goes beyond the paper: where the paper serializes the three
//! hooks behind one global VM lock, this runtime shards the engine state by
//! lock id ([`RuntimeOptions::shards`]). Each shard is an independent
//! [`Dimmunix`] engine behind its own mutex, so uncontended acquisitions of
//! locks on different shards proceed in parallel. Past the lock-free tier
//! (below), every hook drives `dimmunix-core`'s one locked admission ladder,
//! [`ShardAccess`], over those mutexes — the same ladder
//! `dimmunix_core::ShardedDimmunix` drives without locks. A request that
//! might close a deadlock cycle takes every shard mutex in ascending index
//! order (a total order, so the runtime cannot deadlock itself); see
//! `ARCHITECTURE.md` for the full protocol.
//!
//! The deadlock history is **not** sharded: every shard reads one shared,
//! immutable [`HistorySnapshot`] through an `Arc`. A detection (which holds
//! all shard locks) builds the successor snapshot, appends one record to
//! the append-only history log named by [`Config::history_path`], and swaps
//! the `Arc` into every shard; the request path reads its shard's snapshot
//! handle without any history-wide lock. At construction the runtime
//! replays the log — repairing a crash-partial tail record — so antibodies
//! survive process restarts and reboots (§2.1).
//!
//! An owner parked by avoidance, thread or task, queues a [`Waker`] on the
//! signature that refused it (one FIFO per signature, global across shards);
//! the release path of whichever shard releases a lock acquired at one of
//! the signature's outer positions wakes the front of the queue. A thread's
//! waker unparks it: the blocking hooks are `block_on` over the task ones.

use crate::exchange::{ExchangeOptions, ExchangeState, ExchangeStats};
use crate::site::AcquisitionSite;
use crate::sync;
use dimmunix_core::{
    AccessMode, Admission, AdmissionSummary, CallStack, Config, Dimmunix, History, HistorySnapshot,
    IdHashMap, LockId, OwnerId, OwnerRoute, PositionId, RecoveryReport, RequestOutcome,
    ShardAccess, Signature, SignatureId, SiteKey, StackInterner, Stats, TaskId, ThreadId,
    MAX_SHARDS,
};
use dimmunix_exchange::{Pack, PackError};
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard};
use std::task::{Wake, Waker};
use std::thread::{self, Thread};

/// What the wrapper types should do when the engine reports that the
/// requested acquisition closes a genuine deadlock cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlockPolicy {
    /// Return [`LockError::WouldDeadlock`] from the acquisition (fail-safe
    /// default for a library: the caller can back off and retry).
    #[default]
    Error,
    /// Block anyway — paper-faithful behaviour: the first occurrence of a
    /// deadlock freezes the threads involved; the signature is already
    /// persisted so the *next* run is immune.
    Block,
}

/// Errors surfaced by the immune lock types.
///
/// Marked `#[non_exhaustive]` (enum and variants): foreign matches need a
/// wildcard arm and cannot construct the variants, so future error kinds
/// and extra context fields are non-breaking.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LockError {
    /// Acquiring would complete a deadlock cycle (and
    /// [`DeadlockPolicy::Error`] is in force). The signature has been added
    /// to the history. The lock and acquisition site identify *which*
    /// antibody refused the caller, so fail-safe retry loops can log the
    /// refusal instead of spinning blind.
    #[non_exhaustive]
    WouldDeadlock {
        /// The recorded signature.
        signature: SignatureId,
        /// The lock whose acquisition was refused.
        lock: LockId,
        /// The program location of the refused acquisition.
        site: AcquisitionSite,
        /// The owner whose acquisition was refused — an OS thread for the
        /// blocking lock types, an async task for the `asyncio` substrate.
        owner: OwnerId,
        /// Where the refused owner was spawned, when known (recorded for
        /// async tasks at `spawn`; `None` for OS threads, whose identity is
        /// not tied to a source location).
        spawn_site: Option<AcquisitionSite>,
    },
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::WouldDeadlock {
                signature,
                lock,
                site,
                owner,
                spawn_site,
            } => {
                write!(
                    f,
                    "acquiring lock {lock} at {site} by {owner} would complete deadlock {signature}"
                )?;
                if let Some(spawned) = spawn_site {
                    write!(f, " (task spawned at {spawned})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for LockError {}

/// Options controlling a [`DimmunixRuntime`]. Readable through
/// [`DimmunixRuntime::options`]; constructed through [`RuntimeBuilder`]
/// (the struct is `#[non_exhaustive]`, so new knobs are non-breaking).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RuntimeOptions {
    /// Engine configuration (stack depth, toggles) — including the
    /// **persistence knobs**: [`Config::history_path`] names the
    /// append-only signature log the runtime replays at construction (with
    /// crash-tail repair) and appends one record to per detected deadlock,
    /// and [`Config::log_sync`] controls whether each append fsyncs (on by
    /// default: an antibody is durable the moment the detection returns).
    /// Unset `history_path` keeps the history purely in-memory.
    pub config: Config,
    /// Behaviour on detected deadlocks.
    pub deadlock_policy: DeadlockPolicy,
    /// Number of engine shards the lock-id space is partitioned over,
    /// clamped to `1..=`[`dimmunix_core::MAX_SHARDS`]. The default is
    /// `min(available_parallelism, MAX_SHARDS)` — one shard per core, so
    /// uncontended acquisitions on different shards run in parallel out of
    /// the box; `1` reproduces the paper's single global engine lock. The
    /// history is **not** per shard: every shard reads the same shared
    /// [`HistorySnapshot`], so raising the shard count does not multiply
    /// history memory (and the shards share one process-wide
    /// [`StackInterner`], so it does not multiply stack memory either).
    pub shards: usize,
    /// Collaborative-exchange wiring (see [`ExchangeOptions`]): pack files
    /// pulled at construction, contribution pack pushed on detections.
    /// `None` (the default) runs the paper's per-process immunity only.
    pub exchange: Option<ExchangeOptions>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            config: Config::default(),
            deadlock_policy: DeadlockPolicy::default(),
            shards: default_shards(),
            exchange: None,
        }
    }
}

/// The default shard count: one engine shard per available core, clamped to
/// [`dimmunix_core::MAX_SHARDS`]. With the lock-free admission path and the
/// shared [`StackInterner`] closing the historical per-shard memory and
/// cache-dilution costs, per-core sharding is the right default; a machine
/// whose parallelism cannot be determined falls back to the paper's single
/// engine lock.
fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(dimmunix_core::MAX_SHARDS))
}

/// Fluent configuration for a [`DimmunixRuntime`] — the construction
/// surface of the drop-in API.
///
/// [`build`](RuntimeBuilder::build) creates a private runtime (multi-runtime
/// tests, benches); [`install_global`](RuntimeBuilder::install_global) makes
/// the built runtime the process-global one that `ImmuneMutex::new(value)`
/// and friends attach to. Install before the first implicit use: once
/// [`DimmunixRuntime::global`] has run, the global runtime is fixed for the
/// life of the process (locks hold `Arc`s into it, so swapping it would
/// split the process across two engines).
///
/// ```
/// use dimmunix_rt::{DeadlockPolicy, DimmunixRuntime};
///
/// let rt = DimmunixRuntime::builder()
///     .shards(4)
///     .deadlock_policy(DeadlockPolicy::Error)
///     .log_sync(false)
///     .build();
/// assert_eq!(rt.shard_count(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RuntimeBuilder {
    options: RuntimeOptions,
    history: Option<History>,
}

impl RuntimeBuilder {
    /// Starts from the defaults: fail-safe deadlock policy, one engine
    /// shard per core, in-memory history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the whole engine configuration. Apply this **before** the
    /// targeted knobs ([`history_path`](Self::history_path),
    /// [`log_sync`](Self::log_sync)), which tweak the configuration in
    /// place.
    pub fn config(mut self, config: Config) -> Self {
        self.options.config = config;
        self
    }

    /// Number of engine shards the lock-id space is partitioned over (see
    /// [`RuntimeOptions::shards`]). Default one per core; `1` is the
    /// paper's single global engine lock.
    pub fn shards(mut self, shards: usize) -> Self {
        self.options.shards = shards;
        self
    }

    /// Behaviour when an acquisition closes a genuine deadlock cycle.
    /// Default [`DeadlockPolicy::Error`] (fail-safe).
    pub fn deadlock_policy(mut self, policy: DeadlockPolicy) -> Self {
        self.options.deadlock_policy = policy;
        self
    }

    /// Path of the append-only signature log: replayed (with crash-tail
    /// repair) at construction, appended to on every detection. Unset keeps
    /// the history purely in memory.
    pub fn history_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.options.config.history_path = Some(path.into());
        self
    }

    /// Whether each history-log append fsyncs (default `true`; see
    /// [`Config::log_sync`]).
    pub fn log_sync(mut self, sync: bool) -> Self {
        self.options.config.log_sync = sync;
        self
    }

    /// Enables collaborative exchange: the listed packs are pulled at
    /// [`build`](Self::build) (foreign antibodies quarantined until local
    /// positions vouch for their sites) and a contribution pack is pushed
    /// to the export path after every detection.
    pub fn exchange(mut self, options: ExchangeOptions) -> Self {
        self.options.exchange = Some(options);
        self
    }

    /// Pre-loads an explicit starting history (vendor-shipped antibodies,
    /// synthetic benchmark signatures). Takes precedence over replaying
    /// [`history_path`](Self::history_path) for the *starting* state; the
    /// path is still used for appends.
    pub fn history(mut self, history: History) -> Self {
        self.history = Some(history);
        self
    }

    /// Builds a private runtime. If the configuration names a history log
    /// and no explicit starting history was given, the log is replayed (and
    /// its crash tail repaired) once; either way the resulting snapshot is
    /// bulk-built once and shared by every shard.
    pub fn build(self) -> Arc<DimmunixRuntime> {
        let config = self.options.config.clone();
        let first = match self.history {
            Some(history) => Dimmunix::with_history(config, history),
            None => Dimmunix::new(config),
        };
        DimmunixRuntime::assemble_from(self.options, first)
    }

    /// Builds the runtime and installs it as the process-global one used by
    /// the implicit constructors (`ImmuneMutex::new(value)`, …).
    ///
    /// # Errors
    /// Returns [`GlobalAlreadyInstalled`] if the global runtime already
    /// exists — either a previous install or a first implicit use that
    /// default-initialized it. The existing global stays in force.
    pub fn install_global(self) -> Result<Arc<DimmunixRuntime>, GlobalAlreadyInstalled> {
        let rt = self.build();
        let mut global = sync::lock(&GLOBAL_RUNTIME);
        if global.is_some() {
            return Err(GlobalAlreadyInstalled(()));
        }
        *global = Some(Arc::clone(&rt));
        Ok(rt)
    }
}

/// Error returned by [`RuntimeBuilder::install_global`] when the
/// process-global runtime was already initialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalAlreadyInstalled(());

impl fmt::Display for GlobalAlreadyInstalled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the process-global Dimmunix runtime is already installed \
             (install_global must run before the first implicit use)"
        )
    }
}

impl std::error::Error for GlobalAlreadyInstalled {}

/// The process-global runtime backing the implicit constructors. Fixed at
/// first use for the life of the process (a `Mutex<Option>` rather than a
/// `OnceLock` only so the test-only reset can clear it).
static GLOBAL_RUNTIME: Mutex<Option<Arc<DimmunixRuntime>>> = Mutex::new(None);

/// What a thread parked by avoidance sleeps on, as in std's `block_on`: its
/// waker sets the flag, which a wake that lands before the sleep and
/// `thread::park`'s spurious returns cannot confuse, and unparks the thread.
struct ThreadParker {
    thread: Thread,
    woken: AtomicBool,
}

impl Wake for ThreadParker {
    fn wake(self: Arc<Self>) {
        self.woken.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// The engine shards, one mutex each, and the acquisition sequence stamped
/// into their holds: the runtime's implementor of core's admission ladder, and
/// the one place the runtime takes a shard mutex (counted in test builds).
struct EngineShards {
    engines: Vec<Mutex<Dimmunix>>,
    acq_seq: AtomicU64,
    #[cfg(feature = "test-util")]
    locks_taken: AtomicU64,
}

impl<'r> ShardAccess for &'r EngineShards {
    type Guard<'a>
        = MutexGuard<'r, Dimmunix>
    where
        Self: 'a;

    fn shard_count(&self) -> usize {
        self.engines.len()
    }

    fn lock(&mut self, index: usize) -> MutexGuard<'r, Dimmunix> {
        #[cfg(feature = "test-util")]
        self.locks_taken.fetch_add(1, Ordering::Relaxed);
        sync::lock(&self.engines[index])
    }

    fn lock_all(&mut self) -> [Option<MutexGuard<'r, Dimmunix>>; MAX_SHARDS] {
        let mut all = std::array::from_fn(|_| None);
        (0..self.engines.len()).for_each(|i| all[i] = Some(self.lock(i)));
        all
    }

    fn next_seq(&mut self) -> u64 {
        self.acq_seq.fetch_add(1, Ordering::Relaxed)
    }
}

/// A lock admitted on the no-engine fast path (tier 1) and not yet released.
/// The engine has never seen it: the admission summary proved its site
/// cannot appear in any history signature and its owner cannot be a
/// deadlock-cycle participant, so it stays owner-private until it is
/// released (wake-free, since a filter-clear site can de-instantiate no
/// signature) or published into its home shard's RAG — by its owner's next
/// request, so cycle detection sees the full hold set, and, for a task, by
/// any signature install before then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FastHold {
    lock: LockId,
    mode: AccessMode,
    /// The acquisition site, kept so a later publish can intern the same
    /// call stack the locked path would have recorded.
    site: AcquisitionSite,
    /// Whether the owner holds the lock yet. A thread blocks in its
    /// acquisition, so it has by its next request; a task may still be
    /// queued behind the holder, and is then published as a grant.
    acquired: bool,
}

/// The admission state every owner carries, thread or task: the route the
/// locked tiers read and transition, and the one lock (if any) it took on
/// tier 1. At most one: the owner's next acquisition while this is `Some`
/// takes the cross-shard path, which publishes it into the engine first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct OwnerState {
    /// Holds mask, outstanding grants and stale request edge: the state the
    /// locked admission path shares with `ShardedDimmunix`.
    route: OwnerRoute,
    fast_held: Option<FastHold>,
    /// Set once any shard may have an owner node for the owner (a RAG
    /// creates one on the owner's first engine call). Retiring an owner
    /// that only ever took tier 1 locks no shard.
    reached_shard: bool,
}

impl OwnerState {
    /// Tier 1: admits the acquisition lock-free, recording the fast hold, if
    /// the owner is known to no shard, holds nothing on tier 1, no import
    /// is pending and the summary proves the site and the owner clear.
    fn try_admit(
        &mut self,
        rt: &DimmunixRuntime,
        owner: OwnerId,
        lock: LockId,
        site: AcquisitionSite,
        mode: AccessMode,
    ) -> bool {
        if !self.route.is_idle() || self.fast_held.is_some() || rt.exchange_pending() {
            return false;
        }
        let site_key = cached_site(site, |_, key| key);
        let admitted = matches!(
            rt.summary.try_admit(site_key, owner),
            Admission::Admit { .. }
        );
        if admitted {
            self.fast_held = Some(FastHold {
                lock,
                mode,
                site,
                acquired: false,
            });
        }
        admitted
    }

    /// Marks the fast hold acquired if it is `lock`: true if it was (the
    /// engine never sees the acquisition).
    fn acquire_fast(&mut self, lock: LockId) -> bool {
        match &mut self.fast_held {
            Some(fh) if fh.lock == lock => {
                fh.acquired = true;
                true
            }
            _ => false,
        }
    }

    /// Clears the fast hold if it is `lock`: true if it was (the engine
    /// never saw the hold, so its release or back-out is the owner's alone).
    fn clear_fast(&mut self, lock: LockId) -> bool {
        let fast = self.fast_held.is_some_and(|fh| fh.lock == lock);
        if fast {
            self.fast_held = None;
        }
        fast
    }
}

/// Per-(runtime, OS thread) routing state. Only the owning thread reads or
/// writes its entry, so no synchronization is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ThreadRoute {
    id: ThreadId,
    state: OwnerState,
}

/// Cache key for [`SITE_STACKS`]: the site's `'static` string **pointers**
/// stand in for their contents. For a given call site the pointers are
/// stable, and pointer equality implies content equality; two distinct
/// pointers with equal contents merely cache the same stack twice. This
/// keeps per-call string hashing off the steady-state acquisition path: the
/// key hashes as three process-allocated integers, an [`IdHashMap`] key.
#[derive(PartialEq, Eq, Hash)]
struct SiteCacheKey(usize, usize, u32);

impl From<AcquisitionSite> for SiteCacheKey {
    fn from(site: AcquisitionSite) -> Self {
        SiteCacheKey(
            site.scope.as_ptr() as usize,
            site.file.as_ptr() as usize,
            site.line,
        )
    }
}

thread_local! {
    /// Per-OS-thread routing state, keyed by runtime instance.
    static THREAD_ROUTE: std::cell::RefCell<IdHashMap<u64, ThreadRoute>> =
        std::cell::RefCell::new(IdHashMap::default());

    /// This thread's parker, allocated at its first park (a thread blocks
    /// in one acquisition at a time, so one serves every runtime).
    static PARKER: Arc<ThreadParker> = Arc::new(ThreadParker {
        thread: thread::current(),
        woken: AtomicBool::new(false),
    });

    /// Per-thread cache of interned call stacks and site keys by acquisition
    /// site. A site is a `'static` triple, so the cache never invalidates;
    /// the steady-state acquisition path allocates nothing and hashes only
    /// this one small map lookup.
    static SITE_STACKS: std::cell::RefCell<IdHashMap<SiteCacheKey, (Arc<CallStack>, SiteKey)>> =
        std::cell::RefCell::new(IdHashMap::default());
}

/// Applies `f` to the call stack and stable site key of an acquisition site,
/// in place in the thread-local cache (built once per (thread, site)), so a
/// caller that only needs the key, or the stack for the length of one engine
/// call, touches no reference count. `f` must not acquire through a site.
fn cached_site<R>(site: AcquisitionSite, f: impl FnOnce(&Arc<CallStack>, SiteKey) -> R) -> R {
    SITE_STACKS.with(|cell| {
        let mut map = cell.borrow_mut();
        let (stack, key) = map.entry(site.into()).or_insert_with(|| {
            let stack = Arc::new(site.to_call_stack());
            let key = stack.site_key();
            (stack, key)
        });
        f(stack, *key)
    })
}

/// The shared, per-process deadlock-immunity runtime.
///
/// One instance per process mirrors the paper's per-process Dimmunix data
/// (Figure 1). Cloning the [`Arc`] and handing it to every `Immune*` lock in
/// the process is the moral equivalent of "all applications automatically run
/// with Dimmunix".
pub struct DimmunixRuntime {
    /// Engine shards, one mutex each; cross-shard operations acquire them in
    /// ascending index order.
    shards: EngineShards,
    options: RuntimeOptions,
    /// Shared lock-free admission summary: a seqlock-published digest of
    /// the live history's site filter, per-blocker park counts, and fast-path
    /// counters. Each shard engine holds a clone of this `Arc` and updates
    /// it from under its own lock; the no-engine fast path reads it with no
    /// locks at all.
    summary: Arc<AdmissionSummary>,
    /// Globally unique instance id; used to key the per-thread route cache so
    /// a thread interacting with several runtimes gets a route per runtime.
    instance: u64,
    next_thread: AtomicU64,
    next_lock: AtomicU64,
    next_task: AtomicU64,
    /// Per-task routing state (the task analogue of the thread-local
    /// [`ThreadRoute`]). A map rather than a thread-local because a task may
    /// be polled from any worker thread; an entry is touched by its own
    /// task's polls, which an executor serializes, and by the install sink
    /// ([`publish_task_holds`](Self::publish_task_holds)), which publishes
    /// its fast hold. Lock order: shards before this map, everywhere.
    task_routes: Mutex<IdHashMap<TaskId, TaskRoute>>,
    /// Wakers of the owners parked by avoidance, threads and tasks alike,
    /// keyed by the signature whose instantiation parked them: FIFO per
    /// signature, at most one entry per owner, queued by
    /// [`park_on`](Self::park_on) alone. A release wakes only the front entry
    /// ([`notify_signatures_released`](Self::notify_signatures_released));
    /// starvation, eviction, cancellation and retirement wake every entry.
    parked: Mutex<IdHashMap<SignatureId, VecDeque<(OwnerId, Waker)>>>,
    /// Collaborative-exchange state (quarantined foreign antibodies and
    /// counters); `None` unless [`RuntimeBuilder::exchange`] configured it.
    exchange: Option<ExchangeState>,
}

/// Per-task routing state: the same [`OwnerState`] a thread has, plus the
/// task's spawn site for diagnostics.
#[derive(Debug, Clone, Copy, Default)]
struct TaskRoute {
    state: OwnerState,
    /// Where the task was spawned, when the executor recorded it.
    spawn_site: Option<AcquisitionSite>,
}

/// The engine's answer to a non-blocking task acquisition request — the
/// poll-based analogue of [`DimmunixRuntime::before_acquire`]'s loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskAcquire {
    /// The task may proceed to acquire the lock (new or reentrant hold).
    Granted,
    /// Granting now could instantiate the given history signature: the
    /// task's waker has been registered on the signature and the future
    /// must return `Poll::Pending`; the waker fires when a lock acquired at
    /// one of the signature's positions is released, and the task then
    /// re-requests.
    Parked {
        /// The signature whose instantiation is being avoided.
        signature: SignatureId,
    },
    /// A genuine task-level deadlock was detected (and the policy is
    /// [`DeadlockPolicy::Error`]); the signature is already recorded.
    WouldDeadlock(LockError),
}

static NEXT_RUNTIME_INSTANCE: AtomicU64 = AtomicU64::new(1);

impl fmt::Debug for DimmunixRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DimmunixRuntime")
            .field("options", &self.options)
            .field("shards", &self.shard_count())
            .finish_non_exhaustive()
    }
}

impl DimmunixRuntime {
    /// Creates a private runtime with default options (fail-safe deadlock
    /// policy, one engine shard per core). Use
    /// [`builder`](Self::builder) to configure one, and
    /// [`global`](Self::global) for the process-global runtime the drop-in
    /// constructors attach to.
    pub fn new() -> Arc<Self> {
        RuntimeBuilder::new().build()
    }

    /// Starts a [`RuntimeBuilder`] — the fluent construction surface.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// The process-global runtime — the analogue of "Dimmunix is in the
    /// VM, so every application automatically runs with it". The implicit
    /// lock constructors (`ImmuneMutex::new(value)`, …) attach here.
    /// Default-initialized on first use; configure it beforehand with
    /// [`RuntimeBuilder::install_global`]. Once initialized it is fixed for
    /// the life of the process: locks hold `Arc`s into it, so swapping it
    /// would split the process across two engines.
    pub fn global() -> Arc<Self> {
        let mut global = sync::lock(&GLOBAL_RUNTIME);
        global
            .get_or_insert_with(|| RuntimeBuilder::new().build())
            .clone()
    }

    /// Clears the process-global runtime so a later
    /// [`RuntimeBuilder::install_global`] succeeds again. **Test-only**:
    /// locks created before the reset keep their `Arc` to the old runtime
    /// and keep working against it, but they no longer share an engine with
    /// locks created afterwards — never call this outside test code.
    #[cfg(any(test, feature = "test-util"))]
    #[doc(hidden)]
    pub fn reset_global_for_tests() {
        *sync::lock(&GLOBAL_RUNTIME) = None;
    }

    /// Completes construction from the first shard engine: the remaining
    /// shards receive clones of its snapshot `Arc` — one shared history
    /// per runtime, regardless of the shard count.
    fn assemble_from(options: RuntimeOptions, mut first: Dimmunix) -> Arc<Self> {
        let count = options.shards.clamp(1, MAX_SHARDS);
        let snapshot = Arc::clone(first.history_snapshot());
        let summary = Arc::new(AdmissionSummary::new());
        let interner = Arc::new(StackInterner::new());
        first.attach_admission_summary(Arc::clone(&summary));
        first.share_stack_interner(Arc::clone(&interner));
        let mut engines = Vec::with_capacity(count);
        engines.push(Mutex::new(first));
        for _ in 1..count {
            let mut engine = Dimmunix::with_snapshot(options.config.clone(), Arc::clone(&snapshot));
            engine.attach_admission_summary(Arc::clone(&summary));
            engine.share_stack_interner(Arc::clone(&interner));
            engines.push(Mutex::new(engine));
        }
        let exchange = options.exchange.clone().map(ExchangeState::new);
        let rt = Arc::new(DimmunixRuntime {
            shards: EngineShards {
                engines,
                acq_seq: AtomicU64::new(1),
                #[cfg(feature = "test-util")]
                locks_taken: AtomicU64::new(0),
            },
            options,
            summary,
            instance: NEXT_RUNTIME_INSTANCE.fetch_add(1, Ordering::Relaxed),
            next_thread: AtomicU64::new(1),
            next_lock: AtomicU64::new(1),
            next_task: AtomicU64::new(1),
            task_routes: Mutex::default(),
            parked: Mutex::default(),
            exchange,
        });
        rt.startup_exchange_import();
        rt
    }

    /// Startup pull of the configured import packs. Each foreign signature
    /// is quarantined, then screened against the positions the replayed
    /// local history already proves (its outer table), so antibodies whose
    /// sites this process is known to execute activate before the first
    /// acquisition; the rest wait for
    /// [`feed_exchange`](Self::feed_exchange) to see their sites interned.
    fn startup_exchange_import(&self) {
        let Some(ex) = &self.exchange else { return };
        let snapshot = self.history_snapshot();
        let mut activated = Vec::new();
        {
            let mut pending = sync::lock(&ex.pending);
            for path in &ex.import_paths {
                match Pack::load_or_quarantine(path) {
                    Ok(pack) => {
                        for (_, entry) in pack.entries() {
                            activated
                                .extend(pending.admit(entry.signature.clone(), entry.detections));
                            ex.imported.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // A peer that has not exported yet is not an error.
                    Err((PackError::Io(e), _)) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(_) => {
                        ex.quarantined_packs.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            let outers = snapshot.outer_table();
            for raw in 0..outers.len() {
                if pending.is_empty() {
                    break;
                }
                if let Some(stack) = outers.stack(PositionId::new(raw as u32)) {
                    activated.extend(pending.observe_position(stack));
                }
            }
            ex.pending_nonempty
                .store(!pending.is_empty(), Ordering::Relaxed);
        }
        for antibody in activated {
            self.add_signature(antibody.signature);
            ex.activated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Feeds one locally observed acquisition position to the
    /// foreign-antibody gate. The common case — nothing quarantined —
    /// costs one relaxed load. Activated antibodies are appended to the
    /// shared history *after* the pending guard is dropped, keeping the
    /// pending-before-shards lock order one-way.
    fn feed_exchange(&self, site: AcquisitionSite) {
        let Some(ex) = &self.exchange else { return };
        if !ex.pending_nonempty.load(Ordering::Relaxed) {
            return;
        }
        let activated = {
            let mut pending = sync::lock(&ex.pending);
            let out = cached_site(site, |stack, _| pending.observe_position(stack));
            ex.pending_nonempty
                .store(!pending.is_empty(), Ordering::Relaxed);
            out
        };
        for antibody in activated {
            self.add_signature(antibody.signature);
            ex.activated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Writes this process's contribution pack — its full current history
    /// under the configured origin — to the export path (atomic replace).
    /// Called automatically after every detection; callable manually for a
    /// shutdown flush. Returns true if a pack was written.
    pub fn export_contribution(&self) -> bool {
        let Some(ex) = &self.exchange else {
            return false;
        };
        let Some(path) = &ex.export_path else {
            return false;
        };
        let snapshot = self.history_snapshot();
        let pack = Pack::from_snapshot(ex.origin.clone(), &snapshot);
        if pack.save(path).is_ok() {
            ex.exported.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Counters of the collaborative-exchange wiring; `None` when
    /// [`RuntimeBuilder::exchange`] was not configured.
    pub fn exchange_stats(&self) -> Option<ExchangeStats> {
        self.exchange.as_ref().map(ExchangeState::stats)
    }

    /// The options this runtime was created with.
    pub fn options(&self) -> &RuntimeOptions {
        &self.options
    }

    /// Number of engine shards.
    pub fn shard_count(&self) -> usize {
        (&self.shards).shard_count()
    }

    /// The shard owning `lock` (diagnostics and tests).
    pub fn shard_of(&self, lock: LockId) -> usize {
        (&self.shards).shard_of(lock)
    }

    /// Shard-mutex acquisitions so far: the per-hook budget tests pin.
    #[cfg(feature = "test-util")]
    #[doc(hidden)]
    pub fn shard_locks_taken(&self) -> u64 {
        self.shards.locks_taken.load(Ordering::Relaxed)
    }

    /// Identifier of the calling OS thread, registering it on first use (the
    /// analogue of `initNode` on thread allocation). Tests count what that
    /// first use costs.
    #[cfg(any(test, feature = "test-util"))]
    #[doc(hidden)]
    pub fn current_thread(&self) -> ThreadId {
        self.with_thread(|r| r.id)
    }

    /// Applies `f` to this thread's routing state under one borrow of the
    /// route map; a thread seen for the first time is registered first.
    fn with_thread<R>(&self, f: impl FnOnce(&mut ThreadRoute) -> R) -> R {
        THREAD_ROUTE.with(|cell| {
            let mut map = cell.borrow_mut();
            f(map
                .entry(self.instance)
                .or_insert_with(|| self.register_thread()))
        })
    }

    /// A new route for the calling thread: an id. No shard learns of the
    /// thread until it reaches the engine: a RAG creates an owner node on
    /// first use.
    // Kept out of line: every thread hook inlines `with_thread`.
    #[cold]
    #[inline(never)]
    fn register_thread(&self) -> ThreadRoute {
        ThreadRoute {
            id: ThreadId::new(self.next_thread.fetch_add(1, Ordering::Relaxed)),
            state: OwnerState::default(),
        }
    }

    /// Applies `f` to this thread's admission state, if it has any yet.
    fn update_thread_state(&self, f: impl FnOnce(&mut OwnerState)) {
        THREAD_ROUTE.with(|cell| {
            if let Some(r) = cell.borrow_mut().get_mut(&self.instance) {
                f(&mut r.state);
            }
        });
    }

    /// Allocates a lock id for a new immune lock (the analogue of inflating a
    /// monitor and embedding a RAG node) and registers it on its home shard.
    pub fn allocate_lock(&self) -> LockId {
        let id = LockId::new(self.next_lock.fetch_add(1, Ordering::Relaxed));
        let mut shards = &self.shards;
        shards.lock(shards.shard_of(id)).register_lock(id);
        id
    }

    /// Diagnostics of the history-log recovery performed when this runtime
    /// was constructed: records replayed, crash-tail repair, quarantine of
    /// a corrupt log. `None` when the runtime performed no log replay (no
    /// [`Config::history_path`], or an explicit starting history). Check it
    /// at start-up to tell "no antibodies yet" apart from "antibodies lost
    /// to corruption" — the engine no longer starts silently empty.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        (&self.shards).lock(0).recovery_report().cloned()
    }

    /// Snapshot of the engine counters, rolled up across shards and folded
    /// together with the lock-free fast-path counters, so a fast-path admit
    /// is indistinguishable from an engine grant in the totals. A fast hold
    /// that was later published into the engine (because its owner took the
    /// slow path for a nested acquisition, or a signature install published
    /// a task's) already appears in the engine counters, so published admits
    /// are subtracted to avoid double counting — from the acquisitions only
    /// when published as a hold, since the engine counts a published grant's
    /// acquisition when it completes.
    pub fn stats(&self) -> Stats {
        let mut total = Stats::new();
        let mut shards = &self.shards;
        for i in 0..shards.shard_count() {
            total.merge(shards.lock(i).stats());
        }
        let s = &self.summary;
        let fast_admits = s.fast_admits();
        let published = s.published();
        let unpublished = fast_admits.saturating_sub(published);
        total.requests += unpublished;
        total.grants += unpublished;
        let published_holds = published - s.published_grants();
        total.acquisitions += s.fast_acquires().saturating_sub(published_holds);
        total.releases += s.fast_releases();
        total.fast_admits = fast_admits;
        total.slow_fallbacks = s.slow_fallbacks();
        total.degradation_scope_hits = s.degradation_scope_hits();
        total
    }

    /// The shared lock-free [`AdmissionSummary`] — fast-path counters and
    /// the history digest the no-engine admission path reads. Exposed for
    /// benchmarks and diagnostics; all fields are monotone counters or
    /// conservative digests, safe to read at any time.
    pub fn admission_summary(&self) -> &Arc<AdmissionSummary> {
        &self.summary
    }

    /// Snapshot of the current history (cloned out of the shared
    /// [`HistorySnapshot`]).
    pub fn history(&self) -> History {
        (&self.shards).lock(0).history().clone()
    }

    /// The shared history snapshot every shard currently reads. Cheap (one
    /// `Arc` clone under the first shard's lock); the returned snapshot is
    /// immutable and stays internally consistent even as detections swap in
    /// successors.
    pub fn history_snapshot(&self) -> Arc<HistorySnapshot> {
        Arc::clone((&self.shards).lock(0).history_snapshot())
    }

    /// Adds a signature (vendor antibody or synthetic benchmark signature)
    /// to the shared history, under the all-shard lock — the same
    /// append-once/install-everywhere path detections take.
    pub fn add_signature(&self, sig: Signature) -> SignatureId {
        (&self.shards)
            .add_signature_locked(sig, |engines| self.publish_task_holds(engines))
            .0
    }

    /// Makes `owner`'s tier-1 `hold` engine-visible in `engine`, the home
    /// shard of its lock: as a hold once acquired (stamped `seq`), as a
    /// grant while its owner still waits for the lock.
    fn publish_fast(&self, engine: &mut Dimmunix, owner: OwnerId, hold: FastHold, seq: u64) {
        // Published from the stack the locked path would have interned.
        cached_site(hold.site, |stack, _| {
            if hold.acquired {
                engine.publish_acquired(owner, hold.lock, stack, hold.mode, seq);
                self.summary.note_published(owner);
            } else {
                engine.publish_granted(owner, hold.lock, stack, hold.mode);
                self.summary.note_grant_published(owner);
            }
        });
    }

    /// The install sink: runs under every shard lock right after a new
    /// signature is installed, and publishes every task's tier-1 hold or
    /// grant into its home shard, so nothing is decided against the new
    /// history without them. A thread's fast hold lives in its own
    /// thread-local and keeps its window (ARCHITECTURE.md, "What the summary
    /// deliberately does not prove").
    fn publish_task_holds(&self, engines: &mut [&mut Dimmunix]) {
        let mut shards = &self.shards;
        let mut routes = sync::lock(&self.task_routes);
        for (task, r) in routes.iter_mut() {
            let Some(hold) = r.state.fast_held.take() else {
                continue;
            };
            let (home, owner) = (shards.shard_of(hold.lock), OwnerId::Task(*task));
            let seq = shards.next_seq();
            self.publish_fast(engines[home], owner, hold, seq);
            r.state.route.after_published(home, engines[home], owner);
            r.state.reached_shard = true;
        }
    }

    /// Estimated bytes of memory the runtime adds to the process: the
    /// shared history snapshot, charged **once**, plus each shard's local
    /// state (positions, RAG, outer links). The figure stays essentially
    /// flat as the shard count grows.
    pub fn memory_footprint_bytes(&self) -> usize {
        let mut shards = &self.shards;
        let mut total = 0;
        for i in 0..shards.shard_count() {
            let engine = shards.lock(i);
            if i == 0 {
                total += engine.history_snapshot().memory_footprint_bytes();
            }
            total += engine.local_memory_footprint_bytes();
        }
        total
    }

    /// Rewrites the configured history log to exactly the current history
    /// (compaction; see [`Dimmunix::save_history`]). Normal operation
    /// appends one record per detection instead.
    ///
    /// # Errors
    /// Fails if no path is configured or the write fails.
    pub fn save_history(&self) -> dimmunix_core::Result<()> {
        (&self.shards).lock(0).save_history()
    }

    /// Queues `waker` for `owner` on `signature`: the one way an owner of
    /// either kind parks. Runs under every shard lock, and whoever notifies
    /// changed the engine state under a shard lock first: the change either
    /// precedes the park's decision, which saw it, or follows the queueing,
    /// and the notifier finds the waker — no wake-up is lost, nothing re-polls.
    /// A re-park refreshes the waker in place, keeping the owner's queue turn.
    fn park_on(&self, signature: SignatureId, owner: OwnerId, waker: Waker) {
        let mut parked = sync::lock(&self.parked);
        let queue = parked.entry(signature).or_default();
        match queue.iter_mut().find(|(o, _)| *o == owner) {
            Some((_, w)) => *w = waker,
            None => queue.push_back((owner, waker)),
        }
    }

    /// Wakes **every** owner parked on the listed signatures. Lock order:
    /// shard(s) before the parked map, everywhere.
    fn notify_signatures(&self, sigs: &[SignatureId]) {
        let mut parked = sync::lock(&self.parked);
        for sig in sigs {
            if let Some(wakers) = parked.remove(sig) {
                for (_, w) in wakers {
                    w.wake();
                }
            }
        }
    }

    /// The release-driven variant of [`notify_signatures`](Self::notify_signatures):
    /// wakes only the **front** owner parked on each signature instead of the
    /// whole crowd, which would re-run the avoidance check O(parked ×
    /// releases) times while at most one owner can be granted per
    /// de-instantiating release. One wake keeps the chain live: a
    /// woken-then-granted owner acquires at an in-history position, so its
    /// own release re-notifies the signature, and a woken-then-reparked one
    /// goes to the back of the queue while the blockers that keep the
    /// signature instantiable still hold locks whose releases notify it
    /// again (ARCHITECTURE.md, "Invariants", has the whole argument).
    fn notify_signatures_released(&self, sigs: &[SignatureId]) {
        let mut parked = sync::lock(&self.parked);
        for sig in sigs {
            if let Some(wakers) = parked.get_mut(sig) {
                if let Some((_, w)) = wakers.pop_front() {
                    w.wake();
                }
                if wakers.is_empty() {
                    parked.remove(sig);
                }
            }
        }
    }

    /// Whether quarantined foreign antibodies await activation. The
    /// no-engine fast path declines while any are pending, so an antibody
    /// cannot be bypassed in the window between its import and the
    /// history/filter update that [`feed_exchange`](Self::feed_exchange)'s
    /// activation performs.
    fn exchange_pending(&self) -> bool {
        self.exchange
            .as_ref()
            .is_some_and(|ex| ex.pending_nonempty.load(Ordering::Relaxed))
    }

    // ------------------------------------------------------------------
    // The locked admission path: core's ladder over `self.shards`
    // ------------------------------------------------------------------
    //
    // The public hooks below adapt it for threads and tasks and differ only
    // in where an owner's route lives (`THREAD_ROUTE` vs `task_routes`) and
    // in who drives the retry after a park (the hook's loop vs the executor).

    /// One pass of the paper's `lockMonitor` loop for an owner of either
    /// kind: the engine's decision, the park if it says yield (`waker` is
    /// built only then) and the policy's verdict on a detection. A tier-1
    /// hold comes in as its lock and the call that publishes it. The caller
    /// stores `route` back and retries a park once the waker has fired.
    // Inlined so each adapter keeps a copy of the ladder specialised to its
    // arguments; one shared copy cost `nested_transfers` 4 %.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn request_once(
        &self,
        owner: OwnerId,
        route: &mut OwnerRoute,
        fast_hold: Option<(LockId, impl FnOnce(&mut Dimmunix, u64))>,
        lock: LockId,
        site: AcquisitionSite,
        mode: AccessMode,
        spawn_site: Option<AcquisitionSite>,
        waker: impl FnOnce() -> Waker,
    ) -> TaskAcquire {
        let stack = cached_site(site, |stack, _| Arc::clone(stack));
        let on_yield = |signature| self.park_on(signature, owner, waker());
        let wake_all = |sigs: &[SignatureId]| self.notify_signatures(sigs);
        let on_install = |engines: &mut [&mut Dimmunix]| self.publish_task_holds(engines);
        let mut shards = &self.shards;
        match shards.decide_locked(
            owner, route, fast_hold, lock, &stack, mode, on_yield, wake_all, on_install,
        ) {
            RequestOutcome::Granted | RequestOutcome::GrantedReentrant => TaskAcquire::Granted,
            RequestOutcome::Yield { signature } => TaskAcquire::Parked { signature },
            RequestOutcome::DeadlockDetected { signature, .. } => {
                // Contribute-back: the new antibody is in the shared history;
                // push the fleet pack before surfacing.
                self.export_contribution();
                match self.options.deadlock_policy {
                    DeadlockPolicy::Error => TaskAcquire::WouldDeadlock(LockError::WouldDeadlock {
                        signature,
                        lock,
                        site,
                        owner,
                        spawn_site,
                    }),
                    // Paper-faithful: proceed and let the owners freeze once;
                    // the signature is persisted, so the next run is immune.
                    DeadlockPolicy::Block => TaskAcquire::Granted,
                }
            }
        }
    }

    /// The `lockMonitor` prologue: keeps requesting until the engine grants,
    /// parking on the matched signature's queue whenever it says yield.
    ///
    /// Uncontended requests that cannot interact with another shard are
    /// decided under the home shard's lock alone; the rest take the ordered
    /// all-shard snapshot path.
    ///
    /// # Errors
    /// Returns [`LockError::WouldDeadlock`] when a deadlock is detected and
    /// the policy is [`DeadlockPolicy::Error`].
    pub fn before_acquire(&self, lock: LockId, site: AcquisitionSite) -> Result<(), LockError> {
        self.before_acquire_mode(lock, site, AccessMode::Exclusive)
    }

    /// [`before_acquire`](DimmunixRuntime::before_acquire) for a **shared**
    /// acquisition (the read side of [`ImmuneRwLock`]): the engine records
    /// the hold as one owner among possibly many, so every reader of a
    /// crowd carries its own RAG edge and a blocked writer waits on all of
    /// them.
    ///
    /// [`ImmuneRwLock`]: crate::ImmuneRwLock
    ///
    /// # Errors
    /// Same as [`before_acquire`](DimmunixRuntime::before_acquire).
    pub fn before_acquire_shared(
        &self,
        lock: LockId,
        site: AcquisitionSite,
    ) -> Result<(), LockError> {
        self.before_acquire_mode(lock, site, AccessMode::Shared)
    }

    fn before_acquire_mode(
        &self,
        lock: LockId,
        site: AcquisitionSite,
        mode: AccessMode,
    ) -> Result<(), LockError> {
        // Foreign-antibody gate: this acquisition's position is local
        // evidence that may activate quarantined imports. Runs before any
        // shard lock is taken (activation appends under the all-shard
        // lock), so the antibody can refuse *this very request* below.
        self.feed_exchange(site);

        // No-engine fast path: a hold-free requester whose site provably
        // appears in no history signature and whom no yield record names as
        // a blocker cannot close a cycle and cannot occupy an avoidance
        // slot, so the grant is decided by one seqlock-consistent read of
        // the admission summary — no shard lock at all. Any doubt (seqlock
        // retry exhaustion, filter hit, blocker hit, relevant park) falls
        // back to the locked path below, which remains the oracle.
        // Only this thread touches its route, so the read the fast path made
        // serves every retry; changes are stored back after each decision.
        let Err(mut tr) = self.with_thread(|r| {
            if r.state.try_admit(self, r.id.into(), lock, site, mode) {
                Ok(())
            } else {
                Err(*r)
            }
        }) else {
            return Ok(());
        };
        let owner = OwnerId::from(tr.id);
        let waker = || PARKER.with(|p| Waker::from(Arc::clone(p)));
        loop {
            let before = tr.state;
            tr.state.reached_shard = true;
            let held = tr.state.fast_held.take();
            let publish = held.map(|fh| {
                (fh.lock, move |engine: &mut Dimmunix, seq| {
                    self.publish_fast(engine, owner, fh, seq)
                })
            });
            let answer = self.request_once(
                owner,
                &mut tr.state.route,
                publish,
                lock,
                site,
                mode,
                None,
                waker,
            );
            if tr.state != before {
                self.update_thread_state(|s| *s = tr.state);
            }
            match answer {
                TaskAcquire::Granted => return Ok(()),
                TaskAcquire::WouldDeadlock(refusal) => return Err(refusal),
                // Sleep until the queued waker fires, then retry the request
                // (the paper's do/while loop).
                TaskAcquire::Parked { .. } => PARKER.with(|p| {
                    while !p.woken.swap(false, Ordering::Acquire) {
                        thread::park();
                    }
                }),
            }
        }
    }

    /// The `lockMonitor` epilogue. A hold admitted on the no-engine fast
    /// path stays engine-invisible here (only a counter ticks); it is
    /// published on demand if the owner ever takes the slow path while still
    /// holding it.
    pub fn after_acquire(&self, lock: LockId) {
        let (thread, fast) = self.with_thread(|r| (r.id, r.state.acquire_fast(lock)));
        if fast {
            self.summary.note_fast_acquire(thread.into());
            return;
        }
        let mut shards = &self.shards;
        let acquired = shards.finish_locked(thread.into(), lock);
        self.update_thread_state(|s| acquired(&mut s.route));
    }

    /// Backs out of an approved acquisition that will not be completed
    /// (e.g. a failed `try_lock` on the underlying mutex). Backing out of a
    /// fast-path admission only drops the thread-local record — the engine
    /// never saw the request.
    pub fn cancel_acquire(&self, lock: LockId) {
        let (thread, fast) = self.with_thread(|r| (r.id, r.state.clear_fast(lock)));
        if fast {
            return;
        }
        // A thread is back from its park before it can cancel, so there is
        // no parked signature to clean up after.
        let mut shards = &self.shards;
        let (_, cancelled) =
            shards.cancel_locked(thread.into(), lock, |sigs| self.notify_signatures(sigs));
        self.update_thread_state(|s| cancelled(&mut s.route));
    }

    /// The `unlockMonitor` prologue: releases in the owning shard and wakes
    /// the front owner parked on every signature the engine says must be
    /// notified. Releasing a fast-path hold is wake-free: its site was
    /// filter-clear at admission, so no live signature mentions it and the
    /// release can de-instantiate nothing.
    pub fn before_release(&self, lock: LockId) {
        let (thread, fast) = self.with_thread(|r| (r.id, r.state.clear_fast(lock)));
        if fast {
            self.summary.note_fast_release(thread.into());
            return;
        }
        let mut shards = &self.shards;
        let released = shards.release_locked(thread.into(), lock, |sigs| {
            self.notify_signatures_released(sigs)
        });
        self.update_thread_state(|s| released(&mut s.route));
    }

    /// Unregisters the calling thread (normally done when a worker exits),
    /// force-releasing anything it still holds on any shard. A thread this
    /// runtime never saw, or saw on tier 1 only, has nothing to retire.
    pub fn retire_current_thread(&self) {
        let route = THREAD_ROUTE.with(|cell| cell.borrow_mut().remove(&self.instance));
        if let Some(route) = route.filter(|r| r.state.reached_shard) {
            (&self.shards).retire_locked(route.id.into(), |sigs| self.notify_signatures(sigs));
        }
    }

    // ------------------------------------------------------------------
    // The task API: poll-based hooks for async substrates
    // ------------------------------------------------------------------
    //
    // Async tasks are multiplexed onto a small pool of OS worker threads, so
    // a task-level deadlock (task A holds lock 1 and awaits lock 2 while
    // task B holds lock 2 and awaits lock 1) is invisible to the
    // thread-keyed hooks above whenever the tasks share a worker. These
    // hooks key the engine by [`OwnerId::Task`] instead, and replace the
    // blocking yield loop of [`before_acquire`](Self::before_acquire) with a
    // single-shot decision: a `Yield` registers the task's waker on the
    // signature and surfaces as [`TaskAcquire::Parked`], so the calling
    // future returns `Poll::Pending` instead of parking an OS thread.
    //
    // Tasks take tier 1 as threads do, through the same `OwnerState`. Unlike
    // a thread's, a task's fast hold sits in `task_routes`, where every
    // signature install publishes it (`publish_task_holds`) before anything
    // is decided against the new history.

    /// Registers a new async task with the runtime and returns its identity.
    /// `spawn_site` (the source location of the `spawn` call, when the
    /// executor records one) is carried into
    /// [`LockError::WouldDeadlock::spawn_site`] diagnostics. No shard learns
    /// of the task until it reaches the engine: a RAG creates an owner node
    /// on first use.
    pub fn register_task(&self, spawn_site: Option<AcquisitionSite>) -> TaskId {
        let id = TaskId::new(self.next_task.fetch_add(1, Ordering::Relaxed));
        sync::lock(&self.task_routes).insert(
            id,
            TaskRoute {
                spawn_site,
                ..TaskRoute::default()
            },
        );
        id
    }

    /// Applies `f` to `task`'s admission state, if it is still registered.
    fn update_task_state<R>(
        &self,
        task: TaskId,
        f: impl FnOnce(&mut OwnerState) -> R,
    ) -> Option<R> {
        sync::lock(&self.task_routes)
            .get_mut(&task)
            .map(|r| f(&mut r.state))
    }

    /// Non-blocking analogue of [`before_acquire`](Self::before_acquire)
    /// for an **exclusive** task acquisition. One engine decision per call:
    /// [`TaskAcquire::Parked`] means the future must return
    /// `Poll::Pending` — `waker` has been registered on the signature and
    /// fires when the park may be over, whereupon the future calls this
    /// again (the paper's `do { … } while (sigId >= 0)` loop, driven by the
    /// executor instead of the hook's own loop).
    pub fn task_begin_acquire(
        &self,
        task: TaskId,
        lock: LockId,
        site: AcquisitionSite,
        waker: &Waker,
    ) -> TaskAcquire {
        self.task_begin_acquire_mode(task, lock, site, AccessMode::Exclusive, waker)
    }

    /// [`task_begin_acquire`](Self::task_begin_acquire) with an explicit
    /// access mode ([`AccessMode::Shared`] for the read side of the async
    /// rwlock).
    pub fn task_begin_acquire_mode(
        &self,
        task: TaskId,
        lock: LockId,
        site: AcquisitionSite,
        mode: AccessMode,
        waker: &Waker,
    ) -> TaskAcquire {
        let owner = OwnerId::Task(task);
        // Same foreign-antibody gate as the thread path.
        self.feed_exchange(site);
        // Tier 1, under the one look at the task's route the locked path
        // then continues from.
        let tr = match sync::lock(&self.task_routes).get_mut(&task) {
            Some(r) => {
                if r.state.try_admit(self, owner, lock, site, mode) {
                    return TaskAcquire::Granted;
                }
                *r
            }
            None => TaskRoute::default(),
        };
        // A fast hold stays in `task_routes` until the all-shard lock is
        // held: an install may publish it first, and then there is nothing
        // left to publish here.
        let publish = tr.state.fast_held.map(|fh| {
            (fh.lock, move |engine: &mut Dimmunix, seq| {
                if let Some(Some(fh)) = self.update_task_state(task, |s| s.fast_held.take()) {
                    self.publish_fast(engine, owner, fh, seq);
                }
            })
        });
        let mut route = tr.state.route;
        let reached = tr.state.reached_shard;
        let answer = self.request_once(
            owner,
            &mut route,
            publish,
            lock,
            site,
            mode,
            tr.spawn_site,
            || waker.clone(),
        );
        if route != tr.state.route || !reached {
            self.update_task_state(task, |s| {
                s.route = route;
                s.reached_shard = true;
            });
        }
        answer
    }

    /// The task analogue of [`after_acquire`](Self::after_acquire): records
    /// the completed acquisition, stamped with the runtime-global sequence,
    /// or only counts it for a tier-1 hold.
    pub fn task_finish_acquire(&self, task: TaskId, lock: LockId) {
        if self.update_task_state(task, |s| s.acquire_fast(lock)) == Some(true) {
            self.summary.note_fast_acquire(task.into());
            return;
        }
        let mut shards = &self.shards;
        let acquired = shards.finish_locked(task.into(), lock);
        self.update_task_state(task, |s| acquired(&mut s.route));
    }

    /// Backs out of an approved task acquisition that will not be completed
    /// (the acquiring future was dropped between approval and completion —
    /// e.g. a select! raced it against a timeout).
    pub fn task_cancel_acquire(&self, task: TaskId, lock: LockId) {
        if self.update_task_state(task, |s| s.clear_fast(lock)) == Some(true) {
            return;
        }
        let mut shards = &self.shards;
        let (parked_on, cancelled) =
            shards.cancel_locked(task.into(), lock, |sigs| self.notify_signatures(sigs));
        // The dropped future may have been the single waiter a release-driven
        // wake was handed to; drop its stale waker and re-broadcast so the
        // wake is not lost with it.
        if let Some(sig) = parked_on {
            if let Some(q) = sync::lock(&self.parked).get_mut(&sig) {
                q.retain(|(o, _)| *o != OwnerId::Task(task));
            }
            self.notify_signatures(&[sig]);
        }
        self.update_task_state(task, |s| cancelled(&mut s.route));
    }

    /// The task analogue of [`before_release`](Self::before_release):
    /// releases in the owning shard and wakes the front owner parked on
    /// every signature the engine says must be notified. Releasing a tier-1
    /// hold is wake-free: had a signature mentioning its site been installed
    /// since, the install would have published it.
    pub fn task_release(&self, task: TaskId, lock: LockId) {
        if self.update_task_state(task, |s| s.clear_fast(lock)) == Some(true) {
            self.summary.note_fast_release(task.into());
            return;
        }
        let mut shards = &self.shards;
        let released = shards.release_locked(task.into(), lock, |sigs| {
            self.notify_signatures_released(sigs)
        });
        self.update_task_state(task, |s| released(&mut s.route));
    }

    /// Unregisters a completed task, force-releasing anything it still
    /// holds on any shard (a guard leaked across task teardown). Its route
    /// goes first, so no install can publish a hold of the retiring task
    /// after its owner nodes are gone. A task that only ever took tier 1
    /// has no owner node to remove; one without a route may have reached
    /// the engine unregistered, so it is retired everywhere.
    pub fn retire_task(&self, task: TaskId) {
        let route = sync::lock(&self.task_routes).remove(&task);
        if route.map_or(true, |r| r.state.reached_shard) {
            (&self.shards).retire_locked(task.into(), |sigs| self.notify_signatures(sigs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_get_distinct_ids() {
        let rt = DimmunixRuntime::new();
        let main_id = rt.current_thread();
        let rt2 = rt.clone();
        let other = std::thread::spawn(move || rt2.current_thread())
            .join()
            .unwrap();
        assert_ne!(main_id, other);
        // Repeated calls on the same thread return the same id.
        assert_eq!(rt.current_thread(), main_id);
    }

    /// Retiring a thread the runtime never saw registers nothing on the way:
    /// the next thread id handed out is still the first.
    #[test]
    fn retiring_an_unseen_thread_allocates_no_id() {
        let rt = DimmunixRuntime::new();
        rt.retire_current_thread();
        assert_eq!(rt.current_thread(), ThreadId::new(1));
        rt.retire_current_thread();
        assert_eq!(rt.current_thread(), ThreadId::new(2));
    }

    #[test]
    fn lock_ids_are_unique() {
        let rt = DimmunixRuntime::new();
        let a = rt.allocate_lock();
        let b = rt.allocate_lock();
        assert_ne!(a, b);
    }

    #[test]
    fn uncontended_acquire_release_roundtrip() {
        let rt = DimmunixRuntime::new();
        let lock = rt.allocate_lock();
        rt.before_acquire(lock, acquire_site_for_test(1)).unwrap();
        rt.after_acquire(lock);
        rt.before_release(lock);
        let stats = rt.stats();
        assert_eq!(stats.acquisitions, 1);
        assert_eq!(stats.releases, 1);
        assert_eq!(stats.yields, 0);
    }

    #[test]
    fn sharded_runtime_roundtrips_across_shards() {
        let rt = DimmunixRuntime::builder().shards(8).build();
        assert_eq!(rt.shard_count(), 8);
        // Nested acquisitions across several shards, then release in
        // reverse order; everything must balance.
        let locks: Vec<LockId> = (0..6).map(|_| rt.allocate_lock()).collect();
        for (i, l) in locks.iter().enumerate() {
            rt.before_acquire(*l, acquire_site_for_test(i as u32))
                .unwrap();
            rt.after_acquire(*l);
        }
        for l in locks.iter().rev() {
            rt.before_release(*l);
        }
        let stats = rt.stats();
        assert_eq!(stats.acquisitions, 6);
        assert_eq!(stats.releases, 6);
        assert_eq!(stats.deadlocks_detected, 0);
    }

    #[test]
    fn deadlock_policy_error_reports_would_deadlock() {
        // The AB/BA deadlock on two OS threads, one barrier wait per step so
        // the interleaving is deterministic. Only the hooks are driven (no
        // real lock blocks), so t1's request for B is approved and pending
        // when t2's request for A closes the cycle.
        let rt = DimmunixRuntime::new();
        let (la, lb) = (rt.allocate_lock(), rt.allocate_lock());
        let step = std::sync::Barrier::new(2);
        let refusal = std::thread::scope(|s| {
            s.spawn(|| {
                rt.before_acquire(la, AcquisitionSite::new("t1.outer", "rt.rs", 1))
                    .unwrap();
                rt.after_acquire(la);
                step.wait(); // t1 holds A
                step.wait(); // t2 holds B
                rt.before_acquire(lb, AcquisitionSite::new("t1.inner", "rt.rs", 2))
                    .unwrap();
                step.wait(); // t1 waits for B
                step.wait(); // t2 was refused
                rt.cancel_acquire(lb);
                rt.before_release(la);
            });
            let t2 = s.spawn(|| {
                step.wait();
                rt.before_acquire(lb, AcquisitionSite::new("t2.outer", "rt.rs", 3))
                    .unwrap();
                rt.after_acquire(lb);
                step.wait();
                step.wait();
                let r = rt.before_acquire(la, AcquisitionSite::new("t2.inner", "rt.rs", 4));
                step.wait();
                rt.before_release(lb);
                r
            });
            t2.join().unwrap()
        });
        match refusal {
            Err(LockError::WouldDeadlock { lock, owner, .. }) => {
                assert_eq!(lock, la);
                assert!(matches!(owner, OwnerId::Thread(_)));
            }
            Ok(()) => panic!("the request closing the cycle must be refused"),
        }
        // The signature is in the history.
        assert_eq!(rt.history().len(), 1);
        assert_eq!(rt.stats().deadlocks_detected, 1);
    }

    fn acquire_site_for_test(line: u32) -> AcquisitionSite {
        AcquisitionSite::new("test.site", "runtime_test.rs", line)
    }

    /// End-to-end lazy activation on real threads: process A detects (here:
    /// is trained with) a signature and exports a pack; process B imports
    /// it under a *different compilation* (all lines shifted), keeps it
    /// quarantined until both outer sites have been observed locally, and
    /// then parks the thread whose acquisition would re-instantiate the bug.
    #[test]
    fn imported_antibody_activates_lazily_and_parks() {
        let dir = std::env::temp_dir().join(format!("dimmunix-exch-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pack_path = dir.join("fleet.pack");

        // Process A: same program compiled with different line numbers.
        let a_site_a = AcquisitionSite::new("outerA", "park.rs", 901);
        let a_site_b = AcquisitionSite::new("outerB", "park.rs", 902);
        let rt_a = DimmunixRuntime::builder()
            .exchange(ExchangeOptions::new("proc-a").export(&pack_path))
            .build();
        rt_a.add_signature(Signature::new(
            dimmunix_core::SignatureKind::Deadlock,
            vec![
                dimmunix_core::SignaturePair::new(
                    a_site_a.to_call_stack(),
                    a_site_a.to_call_stack(),
                ),
                dimmunix_core::SignaturePair::new(
                    a_site_b.to_call_stack(),
                    a_site_b.to_call_stack(),
                ),
            ],
        ));
        assert!(rt_a.export_contribution());
        assert_eq!(rt_a.exchange_stats().unwrap().exported, 1);

        // Process B imports the pack; nothing activates at construction
        // because B's history proves no positions yet.
        let rt = DimmunixRuntime::builder()
            .exchange(ExchangeOptions::new("proc-b").import(&pack_path))
            .build();
        let stats = rt.exchange_stats().unwrap();
        assert_eq!(stats.imported, 1);
        assert_eq!(stats.pending, 1);
        assert_eq!(stats.activated, 0);
        assert!(rt.history().is_empty(), "quarantine must not touch history");

        // B's own build of the sites.
        let site_a = AcquisitionSite::new("outerA", "park.rs", 11);
        let site_b = AcquisitionSite::new("outerB", "park.rs", 12);
        let la = rt.allocate_lock();
        let lb = rt.allocate_lock();

        // Main thread holds A at siteA: first outer site observed.
        rt.before_acquire(la, site_a).unwrap();
        rt.after_acquire(la);
        assert_eq!(rt.exchange_stats().unwrap().pending, 1);

        // Waiter requests B at siteB: the observation activates the
        // antibody before the engine decides, so this very request parks.
        let rt2 = rt.clone();
        let waiter = std::thread::spawn(move || {
            rt2.before_acquire(lb, site_b).unwrap();
            rt2.after_acquire(lb);
            rt2.before_release(lb);
        });
        // The waiter parks inside `before_acquire`, so no rendezvous can
        // mark the park; the yield counter ticks at the park decision.
        while rt.stats().yields == 0 {
            std::thread::yield_now();
        }
        let stats = rt.exchange_stats().unwrap();
        assert_eq!(stats.activated, 1);
        assert_eq!(stats.pending, 0);
        assert_eq!(rt.stats().deadlocks_detected, 0);
        rt.before_release(la);
        waiter.join().unwrap();
        // The holder's request, then one park and one granted retry:
        // nothing re-polls.
        let stats = rt.stats();
        assert_eq!((stats.yields, stats.requests), (1, 3));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Startup screening: outer positions proven by the replayed local
    /// history activate matching imports before the first acquisition,
    /// while a missing import file is silently skipped.
    #[test]
    fn startup_import_screens_against_local_history() {
        let dir = std::env::temp_dir().join(format!("dimmunix-exch-boot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pack_path = dir.join("fleet.pack");

        let local_a = AcquisitionSite::new("outerA", "boot.rs", 5);
        let local_b = AcquisitionSite::new("outerB", "boot.rs", 6);
        let local_sig = |inner: &'static str| {
            Signature::new(
                dimmunix_core::SignatureKind::Deadlock,
                vec![
                    dimmunix_core::SignaturePair::new(
                        local_a.to_call_stack(),
                        AcquisitionSite::new(inner, "boot.rs", 7).to_call_stack(),
                    ),
                    dimmunix_core::SignaturePair::new(
                        local_b.to_call_stack(),
                        AcquisitionSite::new(inner, "boot.rs", 8).to_call_stack(),
                    ),
                ],
            )
        };
        // The exporter ships a *different* bug over the same outer sites,
        // rendered at foreign line numbers.
        let rt_a = DimmunixRuntime::builder()
            .exchange(ExchangeOptions::new("proc-a").export(&pack_path))
            .build();
        let foreign_a = AcquisitionSite::new("outerA", "boot.rs", 505);
        let foreign_b = AcquisitionSite::new("outerB", "boot.rs", 506);
        rt_a.add_signature(Signature::new(
            dimmunix_core::SignatureKind::Deadlock,
            vec![
                dimmunix_core::SignaturePair::new(
                    foreign_a.to_call_stack(),
                    AcquisitionSite::new("innerX", "boot.rs", 507).to_call_stack(),
                ),
                dimmunix_core::SignaturePair::new(
                    foreign_b.to_call_stack(),
                    AcquisitionSite::new("innerX", "boot.rs", 508).to_call_stack(),
                ),
            ],
        ));
        assert!(rt_a.export_contribution());

        let mut history = dimmunix_core::History::new();
        history.add(local_sig("innerLocal"));
        let rt = DimmunixRuntime::builder()
            .history(history)
            .exchange(
                ExchangeOptions::new("proc-b")
                    .import(&pack_path)
                    .import(dir.join("never-written.pack")),
            )
            .build();
        let stats = rt.exchange_stats().unwrap();
        assert_eq!(stats.imported, 1);
        assert_eq!(stats.activated, 1, "local history vouches for both sites");
        assert_eq!(stats.pending, 0);
        assert_eq!(stats.quarantined_packs, 0, "missing file is not an error");
        assert_eq!(rt.history().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A tampered pack is rejected whole at startup and quarantined; the
    /// runtime keeps working with an empty pending set.
    #[test]
    fn tampered_import_pack_is_quarantined_at_startup() {
        let dir = std::env::temp_dir().join(format!("dimmunix-exch-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pack_path = dir.join("fleet.pack");
        let rt_a = DimmunixRuntime::builder()
            .exchange(ExchangeOptions::new("proc-a").export(&pack_path))
            .build();
        let s = AcquisitionSite::new("outerA", "bad.rs", 1);
        rt_a.add_signature(Signature::new(
            dimmunix_core::SignatureKind::Deadlock,
            vec![dimmunix_core::SignaturePair::new(
                s.to_call_stack(),
                s.to_call_stack(),
            )],
        ));
        assert!(rt_a.export_contribution());
        let text = std::fs::read_to_string(&pack_path).unwrap();
        std::fs::write(
            &pack_path,
            text.replace("\"signature_count\": 1", "\"signature_count\": 2"),
        )
        .unwrap();

        let rt = DimmunixRuntime::builder()
            .exchange(ExchangeOptions::new("proc-b").import(&pack_path))
            .build();
        let stats = rt.exchange_stats().unwrap();
        assert_eq!(stats.imported, 0);
        assert_eq!(stats.quarantined_packs, 1);
        assert!(!pack_path.exists(), "bad pack moved aside");
        assert!(dir.join("fleet.pack.corrupt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every queued waker is consumed: after task parks — yields,
    /// release-driven wake-ups, a cancelled park — and after a thread park,
    /// the parked map is empty at quiescence, and notifying a signature
    /// nobody is parked on inserts nothing.
    #[test]
    fn every_queued_waker_is_consumed() {
        struct CountingWake(AtomicU64);
        impl std::task::Wake for CountingWake {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let site_a = AcquisitionSite::new("outerA", "queue.rs", 1);
        let site_b = AcquisitionSite::new("outerB", "queue.rs", 2);
        let rt = DimmunixRuntime::new();
        let sig = rt.add_signature(Signature::new(
            dimmunix_core::SignatureKind::Deadlock,
            vec![
                dimmunix_core::SignaturePair::new(site_a.to_call_stack(), site_a.to_call_stack()),
                dimmunix_core::SignaturePair::new(site_b.to_call_stack(), site_b.to_call_stack()),
            ],
        ));
        let (la, lb) = (rt.allocate_lock(), rt.allocate_lock());
        let (holder, waiter, quitter) = (
            rt.register_task(None),
            rt.register_task(None),
            rt.register_task(None),
        );
        let wakes = Arc::new(CountingWake(AtomicU64::new(0)));
        let waker = Waker::from(Arc::clone(&wakes));
        let parked = TaskAcquire::Parked { signature: sig };

        assert_eq!(
            rt.task_begin_acquire(holder, la, site_a, &waker),
            TaskAcquire::Granted
        );
        rt.task_finish_acquire(holder, la);
        assert_eq!(rt.task_begin_acquire(waiter, lb, site_b, &waker), parked);
        assert_eq!(rt.task_begin_acquire(quitter, lb, site_b, &waker), parked);
        rt.task_cancel_acquire(quitter, lb); // re-broadcasts to the waiter
        assert_eq!(wakes.0.load(Ordering::SeqCst), 1);
        assert_eq!(rt.task_begin_acquire(waiter, lb, site_b, &waker), parked);
        rt.task_release(holder, la); // the release-driven wake
        assert_eq!(wakes.0.load(Ordering::SeqCst), 2);
        assert_eq!(
            rt.task_begin_acquire(waiter, lb, site_b, &waker),
            TaskAcquire::Granted
        );
        rt.task_finish_acquire(waiter, lb);
        rt.task_release(waiter, lb);
        [holder, waiter, quitter]
            .into_iter()
            .for_each(|t| rt.retire_task(t));

        assert_eq!(rt.stats().yields, 3);
        assert!(sync::lock(&rt.parked).is_empty());

        // The same through a thread park.
        rt.before_acquire(la, site_a).unwrap();
        rt.after_acquire(la);
        let queues = std::thread::scope(|s| {
            s.spawn(|| {
                rt.before_acquire(lb, site_b).unwrap();
                rt.after_acquire(lb);
                rt.before_release(lb);
            });
            while rt.stats().yields == 3 {
                std::thread::yield_now();
            }
            let queues = sync::lock(&rt.parked).len();
            rt.before_release(la);
            queues
        });
        assert_eq!(queues, 1);
        assert_eq!(rt.stats().yields, 4);
        assert!(sync::lock(&rt.parked).is_empty());
    }

    #[test]
    fn yield_parks_and_release_wakes() {
        // Train a runtime so that (siteA, siteB) is a known signature, then
        // check that a thread requesting at siteB parks while another holds
        // siteA, and proceeds only after the release.
        let site_a = AcquisitionSite::new("outerA", "park.rs", 1);
        let site_b = AcquisitionSite::new("outerB", "park.rs", 2);
        let sig = Signature::new(
            dimmunix_core::SignatureKind::Deadlock,
            vec![
                dimmunix_core::SignaturePair::new(site_a.to_call_stack(), site_a.to_call_stack()),
                dimmunix_core::SignaturePair::new(site_b.to_call_stack(), site_b.to_call_stack()),
            ],
        );
        let rt = DimmunixRuntime::new();
        rt.add_signature(sig);
        let (la, lb) = (rt.allocate_lock(), rt.allocate_lock());

        // Main thread holds A acquired at siteA.
        rt.before_acquire(la, site_a).unwrap();
        rt.after_acquire(la);

        let releasing = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                rt.before_acquire(lb, site_b).unwrap();
                let released_first = releasing.load(Ordering::SeqCst);
                rt.after_acquire(lb);
                rt.before_release(lb);
                released_first
            });
            // The waiter parks inside `before_acquire`, so no rendezvous can
            // mark the park; the yield counter ticks at the park decision.
            while rt.stats().yields == 0 {
                std::thread::yield_now();
            }
            releasing.store(true, Ordering::SeqCst);
            rt.before_release(la);
            assert!(
                waiter.join().unwrap(),
                "waiter must stay parked until the blocker releases"
            );
        });
        assert_eq!(rt.stats().yields, 1, "one park, no re-poll");
    }
}
