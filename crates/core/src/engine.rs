//! The Dimmunix engine: detection + avoidance behind three hook points.
//!
//! The engine mirrors the structure of the paper's Dimmunix core (§4): the
//! substrate (a VM, or a set of wrapper lock types) calls
//! [`Dimmunix::request`] before a monitor acquisition, [`Dimmunix::acquired`]
//! right after the acquisition succeeds, and [`Dimmunix::released`] right
//! before the monitor is released. `request` answers with a
//! [`RequestOutcome`]: proceed, queue a waker on the signature and retry, or
//! "a deadlock is happening right now" (the signature has already been saved
//! for the next run).
//!
//! The engine is deliberately single-threaded: the paper serializes the three
//! hooks with a global lock inside the VM, and the substrates here do the
//! same (`dimmunix-rt` keeps each shard engine behind its own mutex;
//! `dimmunix-sim`, which the `dalvik` model lowers its programs onto, runs
//! one task at a time). Keeping the engine free of interior locking makes it
//! deterministic and property-testable.

use crate::admission::AdmissionSummary;
use crate::avoidance::{MatchScratch, SignatureIndex};
use crate::callstack::CallStack;
use crate::config::{Config, DEFAULT_LOG_SEGMENT_RECORDS};
use crate::error::{DimmunixError, Result};
use crate::history::{History, HistoryLog, RecoveryReport};
use crate::position::{PositionId, PositionTable};
use crate::rag::{AccessMode, Acquisition, AcquisitionState, Rag, YieldRecord};
use crate::signature::Signature;
use crate::snapshot::HistorySnapshot;
use crate::stats::Stats;
use crate::{IdHashMap, LockId, OwnerId, SignatureId};
use std::sync::Arc;

/// The engine's answer to a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The thread may proceed to acquire the lock.
    Granted,
    /// The thread already owns the monitor; proceed (reentrant acquisition).
    GrantedReentrant,
    /// Granting now could instantiate the given history signature: the thread
    /// must wait (the substrates queue a waker on the signature) and then
    /// call `request` again.
    Yield {
        /// The signature whose instantiation is being avoided.
        signature: SignatureId,
    },
    /// A genuine deadlock cycle was detected; its signature has been added to
    /// the history (and persisted if a history path is configured). The
    /// caller decides whether to block anyway (paper-faithful: the phone
    /// freezes once) or to fail the acquisition.
    DeadlockDetected {
        /// The signature extracted from the cycle.
        signature: SignatureId,
        /// True if this is the first time the bug is observed.
        new_signature: bool,
        /// The owners (threads or tasks) participating in the cycle.
        owners: Vec<OwnerId>,
    },
}

impl RequestOutcome {
    /// True if the caller may proceed with the acquisition.
    pub fn is_granted(&self) -> bool {
        matches!(
            self,
            RequestOutcome::Granted | RequestOutcome::GrantedReentrant
        )
    }
}

/// A per-process Dimmunix instance.
///
/// ```
/// use dimmunix_core::{CallStack, Config, Dimmunix, Frame, LockId, OwnerId};
///
/// let mut dimmunix = Dimmunix::new(Config::default());
/// let t = OwnerId::thread(1);
/// let l = LockId::new(1);
/// let site = CallStack::single(Frame::new("worker", "app.rs", 42));
/// let outcome = dimmunix.request(t, l, &site);
/// assert!(outcome.is_granted());
/// dimmunix.acquired(t, l);
/// let _wake = dimmunix.released(t, l);
/// ```
#[derive(Debug, Clone)]
pub struct Dimmunix {
    config: Config,
    positions: PositionTable,
    rag: Rag,
    /// The shared, immutable history snapshot (signatures + canonical
    /// outer-position table + [`SignatureIndex`]). In a sharded deployment
    /// every shard holds a clone of the same `Arc`; a detection builds a new
    /// snapshot and swaps it into every shard ([`install_snapshot`]).
    ///
    /// [`install_snapshot`]: Dimmunix::install_snapshot
    snapshot: Arc<HistorySnapshot>,
    /// Sparse link from the snapshot's canonical outer ids to this engine's
    /// own interned positions (the reverse of [`Position::history_ref`]).
    /// Only outers whose stack this engine has actually interned appear, so
    /// the map stays empty on engines that never touch a history site.
    ///
    /// [`Position::history_ref`]: crate::Position::history_ref
    outer_to_local: IdHashMap<PositionId, PositionId>,
    /// Number of snapshot outer ids already linked against the local
    /// position table; ids past this watermark are reconciled by the next
    /// [`install_snapshot`](Dimmunix::install_snapshot).
    linked_outers: usize,
    stats: Stats,
    pending_wakeups: Vec<SignatureId>,
    /// Working memory of the avoidance check, reused so that a decision
    /// allocates nothing once warm.
    match_scratch: MatchScratch,
    /// Shared lock-free admission summary, attached by concurrent substrates
    /// ([`attach_admission_summary`](Dimmunix::attach_admission_summary)).
    /// When present, the engine mirrors its yield-record bookkeeping and
    /// history installs into the summary as a side effect of its (locked)
    /// transitions. `None` for stand-alone engines — the summary holds
    /// atomics, so a cloned engine would share (and corrupt) its counts.
    admission: Option<Arc<AdmissionSummary>>,
    /// Diagnostics of the history-log recovery performed at construction
    /// (`None` for engines built without replaying a log: no configured
    /// path, explicit starting history, or shard stamped from a shared
    /// snapshot).
    recovery: Option<RecoveryReport>,
}

impl Default for Dimmunix {
    fn default() -> Self {
        Dimmunix::new(Config::default())
    }
}

/// Handle on the append-only history log `config` names, if any: the one
/// place the engine builds it, for replay, appends and rewrites alike.
fn history_log(config: &Config) -> Option<HistoryLog> {
    let path = config.history_path.as_ref()?;
    let log = HistoryLog::new(path).with_sync(config.log_sync);
    Some(log.with_segment_records(DEFAULT_LOG_SEGMENT_RECORDS))
}

impl Dimmunix {
    /// Creates an engine with the given configuration. If the configuration
    /// names a history log, it is replayed — repairing a crash-partial tail
    /// record first — and a missing file is an empty history (a phone that
    /// has not deadlocked yet). A log that fails to replay (interior
    /// corruption) is quarantined to `<path>.corrupt` so new detections
    /// start a fresh, replayable log instead of appending behind records no
    /// restart can ever read; the engine then starts with an empty history,
    /// matching the old text-codec behaviour of a corrupt file.
    pub fn new(config: Config) -> Self {
        let (history, recovery) = match history_log(&config) {
            Some(log) => match log.recover() {
                Ok(replay) => {
                    let report = RecoveryReport {
                        replayed: replay.records,
                        truncated_tail: replay.truncated_tail,
                        ..RecoveryReport::default()
                    };
                    (replay.history, Some(report))
                }
                Err(_) => {
                    let quarantined_records = log.raw_record_count();
                    let quarantine_path = log.quarantine().ok();
                    let report = RecoveryReport {
                        replayed: 0,
                        truncated_tail: false,
                        quarantined_records,
                        quarantine_path,
                    };
                    (History::new(), Some(report))
                }
            },
            None => (History::new(), None),
        };
        let mut engine = Self::with_history(config, history);
        engine.recovery = recovery;
        engine
    }

    /// Creates an engine with an explicit starting history (e.g. antibodies
    /// shipped by a vendor, or synthetic signatures for benchmarking). The
    /// snapshot is bulk-built: outer stacks are interned first and the
    /// avoidance index is constructed in one pass at the end.
    pub fn with_history(config: Config, history: History) -> Self {
        let snapshot = HistorySnapshot::build(history, config.stack_depth);
        Self::with_snapshot(config, snapshot)
    }

    /// Creates an engine sharing an existing history snapshot. This is how
    /// the sharded engine and the `dimmunix-rt` runtime stamp out shards:
    /// one snapshot is built (or replayed from the log) once and every
    /// shard receives a clone of the same `Arc`, so the history,
    /// outer-position table, and index exist once per process.
    pub fn with_snapshot(config: Config, snapshot: Arc<HistorySnapshot>) -> Self {
        Dimmunix {
            positions: PositionTable::new(config.stack_depth),
            rag: Rag::new(),
            outer_to_local: IdHashMap::default(),
            // The local table is empty, so there is nothing to link yet;
            // new positions are linked as they are interned.
            linked_outers: snapshot.outer_len(),
            snapshot,
            stats: Stats::new(),
            pending_wakeups: Vec::new(),
            match_scratch: MatchScratch::default(),
            admission: None,
            recovery: None,
            config,
        }
    }

    /// Attaches the process-wide [`AdmissionSummary`] this engine keeps
    /// current. Absorbs the current snapshot's live outer positions into
    /// the summary's filter immediately, then again on every later snapshot
    /// install.
    ///
    /// Cloning an engine with a summary attached shares the summary —
    /// intended for the runtime, which never clones its shard engines.
    pub fn attach_admission_summary(&mut self, summary: Arc<AdmissionSummary>) {
        summary.absorb_snapshot(&self.snapshot);
        self.admission = Some(summary);
    }

    /// The attached admission summary, if any.
    pub fn admission_summary(&self) -> Option<&Arc<AdmissionSummary>> {
        self.admission.as_ref()
    }

    /// Re-points this engine's position table at a shared process-wide
    /// stack interner, so every shard resolves a given truncated stack to
    /// one `Arc<CallStack>` allocation instead of a private copy per shard.
    /// See [`StackInterner`](crate::StackInterner).
    pub fn share_stack_interner(&mut self, interner: Arc<crate::StackInterner>) {
        self.positions.set_interner(interner);
    }

    /// Rewinds the engine to a fresh run over `base`, keeping interned
    /// positions and map capacities warm. This is the schedule explorer's
    /// hot-loop hook: a fuzzer drives hundreds of thousands of simulated
    /// runs through one engine, and rebuilding it from scratch each run
    /// (re-interning every site, re-growing every table) would dominate the
    /// schedules/sec budget.
    ///
    /// `base` must be an ancestor of the engine's current snapshot — the
    /// snapshot the engine was constructed with, or any snapshot it later
    /// returned from [`history_snapshot`](Dimmunix::history_snapshot).
    /// Ancestry is what makes the rewind sound: [`HistorySnapshot::append`]
    /// only ever *appends* to the canonical outer table, so every outer id
    /// below `base.outer_len()` still names the same stack and every link
    /// at or above it is a later addition to unlink.
    ///
    /// Everything run-scoped is cleared — RAG, position queues, stats,
    /// pending wake-ups — while the position table itself survives, with
    /// `history_ref` links pruned back to `base`'s outer table.
    pub fn reset_to_snapshot(&mut self, base: &Arc<HistorySnapshot>) {
        debug_assert!(
            base.outer_len() <= self.snapshot.outer_len(),
            "reset target must be an ancestor snapshot"
        );
        if let Some(summary) = &self.admission {
            // The summary outlives the run being rewound: un-count each live
            // yield record individually, and take the filter back to `base`,
            // whose live signatures a later eviction may have cleared.
            for (_, rec) in self.rag.yield_records() {
                summary.note_yield_cleared(rec);
            }
            summary.absorb_snapshot(base);
        }
        self.rag.clear();
        self.pending_wakeups.clear();
        self.stats = Stats::new();
        let cutoff = base.outer_len();
        for p in self.positions.iter_mut() {
            p.queue_mut().clear();
            if p.history_ref().is_some_and(|outer| outer.index() >= cutoff) {
                p.set_history_ref(None);
            }
        }
        self.outer_to_local
            .retain(|outer, _| outer.index() < cutoff);
        self.linked_outers = cutoff;
        self.snapshot = Arc::clone(base);
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The engine configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The deadlock history (the process's antibodies), read from the
    /// shared snapshot.
    pub fn history(&self) -> &History {
        self.snapshot.history()
    }

    /// The shared history snapshot this engine currently reads. Engines in
    /// one sharded deployment return clones of the same `Arc`.
    pub fn history_snapshot(&self) -> &Arc<HistorySnapshot> {
        &self.snapshot
    }

    /// Activity counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Diagnostics of the history-log recovery performed when this engine
    /// was constructed by [`Dimmunix::new`] with a configured
    /// [`Config::history_path`]: how many records replayed, whether a
    /// crash-partial tail was repaired, and whether a corrupt log was
    /// quarantined. `None` when no log replay happened (no path configured,
    /// or the engine was built from an explicit history or shared
    /// snapshot). Lets operators distinguish "no antibodies yet" from
    /// "antibodies lost to corruption" instead of starting silently empty.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The interned position table.
    pub fn positions(&self) -> &PositionTable {
        &self.positions
    }

    /// The resource allocation graph.
    pub fn rag(&self) -> &Rag {
        &self.rag
    }

    /// The inverted avoidance index, read from the shared snapshot. Its
    /// keys are the snapshot's *canonical* outer-position ids (see
    /// [`HistorySnapshot::outer_table`]), which local positions link to via
    /// [`Position::history_ref`](crate::Position::history_ref).
    pub fn signature_index(&self) -> &SignatureIndex {
        self.snapshot.index()
    }

    /// Estimated resident memory added by Dimmunix to the process, in bytes.
    /// This is what the Table 1 memory-overhead experiment charges to
    /// Dimmunix: the engine-local state
    /// ([`local_memory_footprint_bytes`](Dimmunix::local_memory_footprint_bytes))
    /// plus the shared history snapshot. In a sharded deployment the
    /// snapshot is shared, so per-process accounting must charge it once —
    /// sum the shards' *local* footprints and add the snapshot separately
    /// (as [`ShardedDimmunix::memory_footprint_bytes`] does).
    ///
    /// [`ShardedDimmunix::memory_footprint_bytes`]: crate::ShardedDimmunix::memory_footprint_bytes
    pub fn memory_footprint_bytes(&self) -> usize {
        self.local_memory_footprint_bytes() + self.snapshot.memory_footprint_bytes()
    }

    /// Estimated resident memory of the engine-local state only: positions
    /// and their queues, the RAG, the outer-link map and the avoidance
    /// scratch — everything *except* the shared history snapshot.
    pub fn local_memory_footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.positions.memory_footprint_bytes()
            + self.rag.memory_footprint_bytes()
            + self.outer_to_local.len() * 2 * std::mem::size_of::<PositionId>()
            + self.match_scratch.heap_bytes()
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Registers an owner — an OS thread or an async task (the analogue of
    /// `initNode` on Dalvik's `allocThread`, §4). Idempotent.
    pub fn register_owner(&mut self, t: impl Into<OwnerId>) {
        self.rag.register_owner(t.into());
    }

    /// Unregisters a terminated owner: any monitors it still owned are
    /// force-released, its outstanding acquisitions withdrawn, and the
    /// position-queue entries of both removed. Returns the signatures whose
    /// parked owners should be woken as a result.
    pub fn unregister_owner(&mut self, t: impl Into<OwnerId>) -> Vec<SignatureId> {
        let t = t.into();
        let mut wake = Vec::new();
        while let Some(a) = self.rag.withdraw_any(t) {
            self.forget(t, &a, &mut wake);
        }
        for entry in self.rag.unregister_owner(t) {
            if let Some(p) = self.positions.get_mut(entry.pos) {
                p.queue_mut().remove_one(t);
            }
            self.extend_wakeups_for_position(entry.pos, &mut wake);
        }
        wake.sort_unstable_by_key(|s| s.index());
        wake.dedup();
        wake
    }

    /// Registers a lock (the analogue of inflating a thin lock into a fat
    /// monitor carrying a RAG node, §4). Idempotent.
    pub fn register_lock(&mut self, l: LockId) {
        self.rag.register_lock(l);
    }

    /// Unregisters a lock (monitor deflation / collection).
    pub fn unregister_lock(&mut self, l: LockId) {
        self.rag.unregister_lock(l);
    }

    /// Interns a call stack as a position without issuing a request (public
    /// so substrates can pre-compute position ids for static sites, §4's
    /// compiler-id optimization) and, if the position is new, links it
    /// against the shared snapshot's canonical outer table. Every intern
    /// performed by the engine goes through here, which (together with
    /// snapshot installs) maintains the invariant that
    /// `Position::history_ref` is always current.
    pub fn intern_position(&mut self, stack: &CallStack) -> PositionId {
        let before = self.positions.len();
        let pid = self.positions.intern(stack);
        if self.positions.len() > before {
            if let Some(outer) = self.snapshot.outer_of_stack(stack) {
                if let Some(p) = self.positions.get_mut(pid) {
                    p.set_history_ref(Some(outer));
                }
                self.outer_to_local.insert(outer, pid);
            }
        }
        pid
    }

    /// Adds a signature directly to the history (vendor-shipped antibodies or
    /// the synthetic signatures of the history-size tests and benches).
    /// Returns its id and whether it was new. At `max_signatures`
    /// generation-stale antibodies are evicted to make room, each retirement
    /// recorded in [`Stats::signatures_evicted`](crate::Stats).
    pub fn add_signature(&mut self, sig: Signature) -> (SignatureId, bool) {
        self.insert_signature(sig)
    }

    // ------------------------------------------------------------------
    // The three hook points
    // ------------------------------------------------------------------

    /// Called before a monitor (exclusive) acquisition, with the acquiring
    /// call stack. The stack is truncated and interned; see
    /// [`request_at_mode`] for the behaviour.
    ///
    /// [`request_at_mode`]: Dimmunix::request_at_mode
    pub fn request(
        &mut self,
        t: impl Into<OwnerId>,
        l: LockId,
        stack: &CallStack,
    ) -> RequestOutcome {
        self.request_mode(t, l, stack, AccessMode::Exclusive)
    }

    /// Called before an acquisition in the given access mode
    /// ([`AccessMode::Shared`] for the read side of an rwlock), with the
    /// acquiring call stack.
    pub fn request_mode(
        &mut self,
        t: impl Into<OwnerId>,
        l: LockId,
        stack: &CallStack,
        mode: AccessMode,
    ) -> RequestOutcome {
        let pos = self.intern_position(stack);
        self.request_at_mode(t, l, pos, mode)
    }

    /// [`request_at_mode`](Dimmunix::request_at_mode) with
    /// [`AccessMode::Exclusive`] — the monitor/mutex hook.
    pub fn request_at(
        &mut self,
        t: impl Into<OwnerId>,
        l: LockId,
        pos: PositionId,
    ) -> RequestOutcome {
        self.request_at_mode(t, l, pos, AccessMode::Exclusive)
    }

    /// Called before an acquisition, with a pre-interned position and an
    /// access mode.
    ///
    /// Performs deadlock detection (RAG cycle search) and avoidance
    /// (signature-instantiation check) and answers with a
    /// [`RequestOutcome`]. When the outcome is [`RequestOutcome::Yield`] the
    /// caller must park the thread until the signature is notified (see
    /// [`released`]) and then call `request_at_mode` again — the paper's
    /// `do { … } while (sigId >= 0)` loop in `lockMonitor`.
    ///
    /// A [`AccessMode::Shared`] request conflicts only with exclusive
    /// owners: joining an existing reader crowd produces no wait-for edges,
    /// and the avoidance check treats shared co-holders of `l` as
    /// compatible rather than as instantiation blockers.
    ///
    /// [`released`]: Dimmunix::released
    pub fn request_at_mode(
        &mut self,
        t: impl Into<OwnerId>,
        l: LockId,
        pos: PositionId,
        mode: AccessMode,
    ) -> RequestOutcome {
        self.decide(t.into(), l, pos, mode, true)
    }

    /// [`request_at_mode`](Dimmunix::request_at_mode) for a requester that
    /// holds no lock anywhere and that no live yield record names as a
    /// blocker: nothing can wait on it, so no wait-for cycle can run through
    /// it and the cycle search is skipped. The sharded ladder's tier 2
    /// checks that precondition; debug builds re-run the search.
    pub(crate) fn request_hold_free(
        &mut self,
        t: OwnerId,
        l: LockId,
        pos: PositionId,
        mode: AccessMode,
    ) -> RequestOutcome {
        self.decide(t, l, pos, mode, false)
    }

    /// The request hook proper: the sharded engine's one decision, called
    /// with this engine as the only shard. `search_cycles` is false only
    /// when the caller proved that no cycle can run through `t`.
    fn decide(
        &mut self,
        t: OwnerId,
        l: LockId,
        pos: PositionId,
        mode: AccessMode,
        search_cycles: bool,
    ) -> RequestOutcome {
        let only = &mut [Some(self)];
        crate::sharded::decide(only, t, l, pos, mode, search_cycles, &mut |_| {})
    }

    /// Called right after the monitor acquisition succeeded. An owner that
    /// still waits on another outstanding acquisition (a task joining two
    /// lock futures) can close a wait-for cycle by acquiring: the cycle is
    /// then handled as a request that closes one handles it, and the
    /// acquisition, which has happened, stands.
    pub fn acquired(&mut self, t: impl Into<OwnerId>, l: LockId) {
        let seq = self.rag.next_acquire_seq();
        self.acquired_with_seq(t, l, seq);
    }

    /// [`acquired`](Dimmunix::acquired) with an explicit acquisition sequence
    /// number, for a substrate that stamps holds from a counter of its own
    /// (see [`Rag::acquire_with_seq`]).
    pub fn acquired_with_seq(&mut self, t: impl Into<OwnerId>, l: LockId, seq: u64) {
        let t = t.into();
        self.record_acquired(t, l, seq);
        if self.rag.holds_and_waits(t).1 {
            crate::sharded::detect_acquired(&mut [Some(self)], 0, t, &mut |_| {});
        }
    }

    /// The acquisition hook's bookkeeping, without the cycle search: the
    /// sharded ladder searches over every shard instead.
    pub(crate) fn record_acquired(&mut self, t: OwnerId, l: LockId, seq: u64) {
        self.stats.acquisitions += 1;
        if self.config.is_disabled() {
            return;
        }
        // The acquisition completes `t`'s outstanding one of `l`, if any.
        let outstanding = self.rag.withdraw(t, l);
        if let Some(a) = &outstanding {
            self.untrack_park(&a.state);
        }
        if self.rag.owns(l, t) {
            // Recursive re-entry: counted as an acquisition above, but its
            // matching exit never reaches `releases` (the RAG just decrements
            // the recursion depth), so track it for the balance identity
            // `acquisitions - nested_reentries == releases` at quiescence.
            self.stats.nested_reentries += 1;
            self.rag.acquire_recursive(t, l);
            return;
        }
        // The access mode travels with the grant, so shared and exclusive
        // acquisitions flow through the same `acquired` hook.
        let (pos, mode) = match outstanding {
            Some(a) if a.state == AcquisitionState::Granted => (a.pos, a.mode),
            _ => {
                // The acquisition was not announced through `request`.
                // Account it under an anonymous position so release
                // bookkeeping stays balanced.
                let p = self.intern_position(&CallStack::new());
                if let Some(pd) = self.positions.get_mut(p) {
                    pd.queue_mut().push(t);
                }
                (p, AccessMode::Exclusive)
            }
        };
        self.rag.acquire_mode_with_seq(t, l, pos, mode, seq);
    }

    /// Called right before the monitor is released (including the implicit
    /// release performed by `Object.wait()`). Returns the signatures whose
    /// parked threads must be woken because a lock acquired at one of their
    /// outer positions was just released (§4's release path).
    ///
    /// Allocates the returned vector; hot callers should prefer
    /// [`released_into`](Dimmunix::released_into) with a reused scratch
    /// buffer.
    pub fn released(&mut self, t: impl Into<OwnerId>, l: LockId) -> Vec<SignatureId> {
        let mut wake = Vec::new();
        self.released_into(t, l, &mut wake);
        wake
    }

    /// Allocation-free variant of [`released`](Dimmunix::released): clears
    /// `wake` and fills it with the signatures whose parked threads must be
    /// woken. Substrates keep one scratch buffer per engine (or per shard)
    /// so steady-state releases of in-history positions perform no
    /// allocation (the §4 release path runs on every monitor exit).
    pub fn released_into(&mut self, t: impl Into<OwnerId>, l: LockId, wake: &mut Vec<SignatureId>) {
        wake.clear();
        wake.extend_from_slice(self.release(t.into(), l));
    }

    /// The release hook proper. The signatures to wake are borrowed from the
    /// shared snapshot's index, so the locked ladder hands them to its wake
    /// sink without copying them anywhere.
    pub(crate) fn release(&mut self, t: OwnerId, l: LockId) -> &[SignatureId] {
        if self.config.is_disabled() {
            self.stats.releases += 1;
            return &[];
        }
        let Some(pos) = self.rag.release(t, l) else {
            // Nested monitor exit, or a release the engine never saw the
            // acquisition of; nothing to wake.
            return &[];
        };
        self.stats.releases += 1;
        // Reentrant balance identity: every top-level acquisition is matched
        // by at most one counted release (nested exits return `None` above),
        // so the outstanding-hold balance can never go negative. Holds
        // force-released by `unregister_owner` keep it positive.
        debug_assert!(
            self.stats.reentrant_balance() >= 0,
            "reentrant balance violated: {} acquisitions - {} re-entries < {} releases",
            self.stats.acquisitions,
            self.stats.nested_reentries,
            self.stats.releases
        );
        if let Some(p) = self.positions.get_mut(pos) {
            p.queue_mut().remove_one(t);
        }
        // Same inverted index as the request path: the signatures whose outer
        // positions include the released acquisition's position.
        let outer = self.positions.get(pos).and_then(|p| p.history_ref());
        let wake = outer.map_or(&[][..], |o| self.snapshot.index().signatures_at(o));
        self.stats.wakeups += wake.len() as u64;
        wake
    }

    /// Withdraws an acquisition that will not be completed: a request
    /// refused as a deadlock, a park the owner gives up, or a grant it never
    /// acquires (e.g. the substrate timed out or the thread was interrupted
    /// between `request` and `acquired`). `t`'s acquisitions of other locks
    /// stay outstanding. A grant's queue slot is vacated, and is owed the
    /// wake-ups a release at the position would issue, scheduled for
    /// [`take_pending_wakeups`](Dimmunix::take_pending_wakeups).
    pub fn cancel_request(&mut self, t: impl Into<OwnerId>, l: LockId) {
        let t = t.into();
        if let Some(a) = self.rag.withdraw(t, l) {
            self.forget_scheduled(t, &a);
        }
    }

    /// Makes a lock the runtime's lock-free tier admitted visible to the
    /// engine — the one way a tier-1 hold enters a RAG. The runtime admits
    /// hold-free, clean-history acquisitions without consulting the engine,
    /// and publishes one through here the moment its owner takes a locked
    /// request (so by the time an owner holds two locks, every hold is
    /// engine-visible and detection sees the full wait-for relation) or a
    /// new signature is installed. Nothing is decided: the admission has
    /// happened. It is counted as a request and a grant and occupies its
    /// position slot; if the owner has `acquired` the lock it is counted as
    /// an acquisition and recorded as a hold, otherwise (a task queued
    /// behind the holder) it is left as the granted outstanding acquisition
    /// a granted [`request_mode`](Dimmunix::request_mode) leaves, which the
    /// later [`acquired`](Dimmunix::acquired) completes. The attached
    /// admission summary counts the publish.
    ///
    /// A hold is stamped with sequence 0, below every sequence a substrate
    /// or the RAG hands out: tier 1 admits only an owner the engine knows
    /// nothing of, and the owner's next acquisition publishes this one
    /// first, so every other hold it will have alongside it is later. Only
    /// one owner's holds are ever compared by sequence. The owner therefore
    /// holds nothing yet, on any shard, and has no record of `l`.
    pub fn publish(
        &mut self,
        t: impl Into<OwnerId>,
        l: LockId,
        stack: &CallStack,
        mode: AccessMode,
        acquired: bool,
    ) {
        let t = t.into();
        let pos = self.intern_position(stack);
        self.stats.requests += 1;
        self.stats.grants += 1;
        self.stats.acquisitions += u64::from(acquired);
        if let Some(summary) = &self.admission {
            summary.note_published(t, !acquired);
        }
        if self.config.is_disabled() {
            self.rag.register_lock(l);
            return;
        }
        debug_assert!(
            self.rag.held_locks(t).is_empty() && self.rag.outstanding_on(t, l).is_none(),
            "a tier-1 hold is published before its owner's other holds, as its only record of the lock"
        );
        if let Some(p) = self.positions.get_mut(pos) {
            p.queue_mut().push(t);
        }
        if acquired {
            // Registers `l` too.
            self.rag.acquire_mode_with_seq(t, l, pos, mode, 0);
        } else {
            self.rag.register_lock(l);
            self.open_request(t, l, pos, mode);
            self.rag.set_state(t, l, AcquisitionState::Granted);
        }
    }

    /// Wake-ups scheduled outside the release path (starvation resolution).
    /// Substrates should drain these after every `request` call (and after
    /// an `acquired` by an owner with another acquisition outstanding) and
    /// wake every owner that queued a waker on one of the signatures.
    pub fn take_pending_wakeups(&mut self) -> Vec<SignatureId> {
        std::mem::take(&mut self.pending_wakeups)
    }

    /// True if [`take_pending_wakeups`](Dimmunix::take_pending_wakeups)
    /// would return anything — the cheap test substrates make first.
    pub fn has_pending_wakeups(&self) -> bool {
        !self.pending_wakeups.is_empty()
    }

    /// Rewrites the configured history log to exactly the in-memory
    /// history, atomically — the online compaction entry point. Normal
    /// operation never calls this: detections append single records to the
    /// log as they happen.
    ///
    /// # Errors
    /// Returns an error if no history path is configured or the write
    /// fails.
    pub fn save_history(&self) -> Result<()> {
        match history_log(&self.config) {
            Some(log) => log.rewrite(self.snapshot.history()),
            None => Err(DimmunixError::ProtocolViolation(
                "no history path configured".into(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Crate-internal surface for the sharded orchestrator (sharded.rs)
    // ------------------------------------------------------------------

    /// Mutable access to the RAG (cross-shard request orchestration).
    pub(crate) fn rag_mut(&mut self) -> &mut Rag {
        &mut self.rag
    }

    /// Opens `t`'s request for `l` at `pos`: a fresh outstanding
    /// acquisition, in place of an earlier one of `l` (a retry after a
    /// yield), which is forgotten as a cancellation would. Every park and
    /// un-park goes through this engine's tracked calls, so the attached
    /// admission summary's blocker refcounts and park counts stay balanced.
    pub(crate) fn open_request(
        &mut self,
        t: OwnerId,
        l: LockId,
        pos: PositionId,
        mode: AccessMode,
    ) {
        if let Some(earlier) = self.rag.request(t, l, pos, mode) {
            self.forget_scheduled(t, &earlier);
        }
    }

    /// Parks `t`'s outstanding acquisition of `l` on `record`, mirrored into
    /// the attached admission summary.
    pub(crate) fn park_tracked(&mut self, t: OwnerId, l: LockId, record: YieldRecord) {
        if let Some(summary) = &self.admission {
            summary.note_yield(&record);
        }
        let left = self.rag.set_state(t, l, AcquisitionState::Parked(record));
        debug_assert_eq!(
            left,
            Some(AcquisitionState::Requested),
            "parks a fresh request"
        );
    }

    /// Returns `t`'s first parked acquisition to requested, mirrored into
    /// the attached admission summary; returns its record.
    pub(crate) fn unpark_tracked(&mut self, t: OwnerId) -> Option<YieldRecord> {
        let record = self.rag.unpark(t)?;
        if let Some(summary) = &self.admission {
            summary.note_yield_cleared(&record);
        }
        Some(record)
    }

    /// Un-counts a park in the attached admission summary.
    fn untrack_park(&self, state: &AcquisitionState) {
        if let (AcquisitionState::Parked(record), Some(summary)) = (state, &self.admission) {
            summary.note_yield_cleared(record);
        }
    }

    /// [`forget`](Self::forget) outside the release path: the wake-ups a
    /// vacated slot is owed are scheduled for
    /// [`take_pending_wakeups`](Dimmunix::take_pending_wakeups).
    fn forget_scheduled(&mut self, t: OwnerId, a: &Acquisition) {
        let mut wake = std::mem::take(&mut self.pending_wakeups);
        let scheduled = wake.len();
        self.forget(t, a, &mut wake);
        self.stats.wakeups += (wake.len() - scheduled) as u64;
        self.pending_wakeups = wake;
    }

    /// Forgets `a`, an acquisition of `t`'s just taken out of the RAG: a
    /// park is un-counted, and a grant's position slot is vacated, adding the
    /// wake-ups the slot is owed to `wake`.
    fn forget(&mut self, t: OwnerId, a: &Acquisition, wake: &mut Vec<SignatureId>) {
        self.untrack_park(&a.state);
        if a.state == AcquisitionState::Granted {
            if let Some(p) = self.positions.get_mut(a.pos) {
                p.queue_mut().remove_one(t);
            }
            self.extend_wakeups_for_position(a.pos, wake);
        }
    }

    /// Mutable access to the position table (cross-shard orchestration).
    pub(crate) fn positions_mut(&mut self) -> &mut PositionTable {
        &mut self.positions
    }

    /// The avoidance check's working memory, lent to the cross-shard check
    /// whose request this shard answers.
    pub(crate) fn match_scratch_mut(&mut self) -> &mut MatchScratch {
        &mut self.match_scratch
    }

    /// Mutable access to the counters (cross-shard orchestration).
    pub(crate) fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// Schedules a wake-up to be drained by [`take_pending_wakeups`].
    ///
    /// [`take_pending_wakeups`]: Dimmunix::take_pending_wakeups
    pub(crate) fn push_pending_wakeup(&mut self, sig: SignatureId) {
        self.pending_wakeups.push(sig);
    }

    /// Adopts a newer shared snapshot and reconciles the local position
    /// table with it: every canonical outer id added since the last
    /// reconciliation is looked up among the already-interned local
    /// positions and linked both ways. Newer positions link themselves at
    /// intern time ([`intern_position`](Dimmunix::intern_position)), so the
    /// `history_ref` invariant holds at all times. In a sharded deployment
    /// this runs on every shard, under the all-shard lock, right after a
    /// detection appended to the shared history.
    pub(crate) fn install_snapshot(&mut self, snapshot: Arc<HistorySnapshot>) {
        self.snapshot = snapshot;
        let outers = self.snapshot.outer_table();
        for idx in self.linked_outers..outers.len() {
            let outer = PositionId::new(idx as u32);
            let stack = outers.stack(outer).expect("id in range");
            if let Some(pid) = self.positions.lookup(stack) {
                if let Some(p) = self.positions.get_mut(pid) {
                    p.set_history_ref(Some(outer));
                }
                self.outer_to_local.insert(outer, pid);
            }
        }
        self.linked_outers = outers.len();
        if let Some(summary) = &self.admission {
            // Idempotent: a broadcast install over N shards absorbs the new
            // signatures (or rebuilds after an eviction) once and skips N-1
            // times.
            summary.absorb_snapshot(&self.snapshot);
        }
    }

    /// The local position (if any) interned for the snapshot's canonical
    /// outer id — used by the cross-shard instantiation check to find this
    /// shard's queue slice for an outer slot.
    pub(crate) fn local_position_of_outer(&self, outer: PositionId) -> Option<&crate::Position> {
        self.positions.get(*self.outer_to_local.get(&outer)?)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn extend_wakeups_for_position(&self, pos: PositionId, wake: &mut Vec<SignatureId>) {
        let Some(outer) = self.positions.get(pos).and_then(|p| p.history_ref()) else {
            return;
        };
        wake.extend_from_slice(self.snapshot.index().signatures_at(outer));
    }

    /// Appends `sig` to the shared history: builds the successor snapshot,
    /// appends one record to the history log (best-effort), and installs
    /// the new snapshot locally. In a sharded deployment, `sharded.rs`'s
    /// `broadcast_signature` calls this on one shard and installs the
    /// resulting snapshot on the others, so the log is appended exactly
    /// once per new signature.
    ///
    /// A duplicate of a live signature returns its existing id (and
    /// refreshes its eviction generation). At `max_signatures`,
    /// generation-stale antibodies (never matched within `eviction_window`
    /// epochs) are retired to make room — recorded in
    /// [`Stats::signatures_evicted`] — and a soft overflow is tolerated
    /// when every live antibody is recent.
    pub(crate) fn insert_signature(&mut self, sig: Signature) -> (SignatureId, bool) {
        if let Some(existing) = self.snapshot.history().find(&sig) {
            self.snapshot.note_matched(existing);
            return (existing, false);
        }
        while self.snapshot.len() >= self.config.max_signatures {
            let Some(victim) = self
                .snapshot
                .eviction_candidate(self.config.eviction_window)
            else {
                // Every live antibody matched within the window; evicting
                // one would break eviction soundness, so overflow softly.
                break;
            };
            let evicted = self.snapshot.evict(victim).expect("candidate is live");
            self.install_snapshot(evicted);
            self.stats.signatures_evicted += 1;
            // Owners parked on the retired signature must re-request:
            // the pattern they were held back from no longer exists.
            self.pending_wakeups.push(victim);
        }
        let (snapshot, id, new) = self.snapshot.append(sig);
        debug_assert!(new, "duplicates returned early above");
        if new {
            if let Some(log) = history_log(&self.config) {
                // Best-effort, like the paper's persistence: a failed write
                // costs re-learning the bug after the next occurrence, never
                // engine correctness.
                let _ = log.append(snapshot.history().get(id).expect("just appended"));
            }
            self.install_snapshot(snapshot);
        }
        (id, new)
    }
}
