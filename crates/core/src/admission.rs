//! Lock-free admission summary.
//!
//! The sharded engine's fast path still serializes every acquisition on the
//! home-shard mutex. This module is the atomic summary that lets the runtime
//! admit the overwhelmingly common case — a thread
//! holding nothing, acquiring at a position no signature mentions, with no
//! parked owner naming it as a blocker — with **zero shard locks**: a
//! seqlock-style epoch read over a few cache lines.
//!
//! ## What the summary may prove
//!
//! An [`AdmissionSummary`] conservatively over-approximates two facts about
//! the engine state:
//!
//! - **"this site is in no signature"** — a Bloom bitset over the
//!   [`SiteKey`]s of every outer position the history has ever contained.
//!   Bits are only ever set (never cleared), so a *clear* probe proves the
//!   site never appeared in any signature: the avoidance check at this
//!   position is vacuous, and a grant here cannot occupy a slot another
//!   thread's instantiation check would look at.
//! - **"no parked owner waits on me"** — striped reference counts over the
//!   blocker lists of all live yield records. A zero stripe proves no yield
//!   edge points at this owner. Combined with the caller's guarantee that
//!   it holds no lock (so no request edge points at it either), the owner
//!   has **no in-edge in the wait-for relation**, and no deadlock cycle can
//!   run through it — granting is exactly what the monolithic oracle would
//!   decide.
//!
//! The converse direction is *not* proven: a set Bloom bit or a non-zero
//! stripe may be a collision or a stale blocker snapshot. Any doubt routes
//! the request to the locked engine path, which remains the
//! property-tested oracle.
//!
//! ## What the summary may NOT prove
//!
//! A fast-admitted hold is **invisible to the engine** until the owner's
//! next slow-path request publishes it (see the runtime's
//! publish-on-slow-path). If a signature naming the admitted site is
//! inserted *after* the epoch-validated read, the in-section owner does not
//! occupy the new signature's avoidance slot, so another thread may be
//! admitted where strict slot accounting would have parked it. This is
//! fail-safe, not unsound: avoidance in Dimmunix is best-effort by design
//! (the paper's own avoidance races with detection), and the detection
//! backstop still fires on the real cycle because every multi-hold owner is
//! fully published before its closing request. The seqlock epoch narrows
//! the window to installs that overlap the read itself.
//!
//! ## Memory ordering
//!
//! Writers (history installs absorbing new outer positions into the Bloom
//! set) run under the engine's all-shard lock order, so there is at most
//! one writer at a time; the epoch is bumped to odd before mutating and
//! back to even after (`AcqRel`), and readers reject any read that saw an
//! odd epoch or different epochs before/after. Yield-record bookkeeping
//! (blocker stripes, park counts) is *not* epoch-fenced: each component
//! read is individually conservative — stripe increments only happen for
//! owners that hold or occupy something (never a fast-path candidate), and
//! a stale decrement can only send the reader to the slow path. All data
//! loads use `Acquire`, all stores `Release`, so a reader that observes the
//! second (even, equal) epoch load also observes every Bloom bit the
//! writer published before it. The statistics counters are the exception:
//! they are `Relaxed` on both sides, because nobody synchronises through a
//! statistic — and they are striped by owner (see `CounterStripe`), so
//! the fast path writes no cache line another owner's fast path touches.

use crate::callstack::SiteKey;
use crate::rag::YieldRecord;
use crate::snapshot::HistorySnapshot;
use crate::OwnerId;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Number of 64-bit words in the Bloom bitset (4096 bits).
const BLOOM_WORDS: usize = 64;
const BLOOM_BITS: u64 = (BLOOM_WORDS * 64) as u64;
/// Number of blocker reference-count stripes.
const BLOCKER_STRIPES: usize = 256;
/// Number of owner-striped statistics blocks. Thread and task ids are handed
/// out sequentially per runtime, so concurrently live neighbours land on
/// different stripes; owners that do collide merely share a line.
const COUNTER_STRIPES: usize = 16;

/// One owner stripe of the fast-path statistics, alone on its cache lines
/// (128 bytes: adjacent-line prefetch pairs 64-byte lines). A tier-1 section
/// writes only its owner's stripe; readers sum all of them.
#[derive(Default)]
#[repr(align(128))]
struct CounterStripe {
    fast_admits: AtomicU64,
    slow_fallbacks: AtomicU64,
    degradation_scope_hits: AtomicU64,
    fast_acquires: AtomicU64,
    fast_releases: AtomicU64,
    published: AtomicU64,
}

/// Outcome of a lock-free admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The epoch-validated read proved the request irrelevant to every
    /// signature and every parked owner: acquire without consulting the
    /// engine. `degraded` is true when the admission succeeded while some
    /// owner was parked elsewhere in the process — the scoped-degradation
    /// win the global `parked` flag used to forfeit.
    Admit {
        /// True if some owner was parked somewhere at admission time.
        degraded: bool,
    },
    /// Doubt (Bloom hit, blocker stripe hit, or a racing history install):
    /// take the locked engine path.
    Fallback,
}

/// Process-wide atomic summary backing the lock-free admission path.
///
/// One instance is shared by every shard engine of a runtime (attached via
/// [`Dimmunix::attach_admission_summary`]); the engines keep it current as
/// a side effect of their (locked) state transitions, and the runtime reads
/// it without locks. See the module docs for the exact guarantees.
///
/// [`Dimmunix::attach_admission_summary`]: crate::engine::Dimmunix::attach_admission_summary
pub struct AdmissionSummary {
    /// Seqlock epoch: odd while a history install is being absorbed.
    epoch: AtomicU64,
    /// Set-only Bloom bitset over the site keys of all history outer
    /// positions, past and present.
    bloom: [AtomicU64; BLOOM_WORDS],
    /// Striped refcounts of owners named in live yield records' blockers.
    blockers: [AtomicU32; BLOCKER_STRIPES],
    /// Owners currently parked by avoidance, process-wide.
    parked_total: AtomicU64,
    /// Outer-table prefix already folded into the Bloom set (outer ids are
    /// append-only, so absorption is incremental and idempotent).
    absorbed_outers: AtomicU64,
    /// Metric counters (see `Stats` for their rendered form), striped by
    /// owner so that no two concurrently running owners write one line and
    /// none of the fields above — all read on the fast path — shares a line
    /// with a counter.
    counters: [CounterStripe; COUNTER_STRIPES],
}

impl Default for AdmissionSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl AdmissionSummary {
    /// Creates an empty summary (empty Bloom set, no parked owners).
    pub fn new() -> Self {
        AdmissionSummary {
            epoch: AtomicU64::new(0),
            bloom: std::array::from_fn(|_| AtomicU64::new(0)),
            blockers: std::array::from_fn(|_| AtomicU32::new(0)),
            parked_total: AtomicU64::new(0),
            absorbed_outers: AtomicU64::new(0),
            counters: std::array::from_fn(|_| CounterStripe::default()),
        }
    }

    /// The statistics block `owner` writes.
    fn stripe(&self, owner: OwnerId) -> &CounterStripe {
        &self.counters[owner.index() as usize % COUNTER_STRIPES]
    }

    /// A statistic's live total: the sum of its per-owner stripes.
    fn total(&self, counter: impl Fn(&CounterStripe) -> &AtomicU64) -> u64 {
        self.counters
            .iter()
            .map(|stripe| counter(stripe).load(Ordering::Relaxed))
            .sum()
    }

    fn bloom_slots(key: SiteKey) -> [(usize, u64); 2] {
        // Two probes derived from the (already well-mixed FNV) site key:
        // the key itself and a Fibonacci remix of it.
        let h1 = key.raw();
        let h2 = key
            .raw()
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(32);
        [h1, h2].map(|h| {
            let bit = h % BLOOM_BITS;
            ((bit / 64) as usize, 1u64 << (bit % 64))
        })
    }

    fn blocker_stripe(owner: OwnerId) -> usize {
        // Keep thread and task identity spaces apart before striping.
        let raw = match owner {
            OwnerId::Thread(t) => t.index() << 1,
            OwnerId::Task(t) => (t.index() << 1) | 1,
        };
        (raw.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % BLOCKER_STRIPES
    }

    /// True if `key` *may* be the site of a history outer position. A
    /// `false` answer is definitive: no signature ever mentioned the site.
    pub fn site_may_be_in_history(&self, key: SiteKey) -> bool {
        Self::bloom_slots(key)
            .iter()
            .all(|&(word, mask)| self.bloom[word].load(Ordering::Acquire) & mask != 0)
    }

    /// True if `owner` *may* be named as a blocker by a live yield record.
    /// A `false` answer is definitive at the instant of the load: no yield
    /// edge points at the owner.
    pub fn is_blocker(&self, owner: OwnerId) -> bool {
        self.blockers[Self::blocker_stripe(owner)].load(Ordering::Acquire) != 0
    }

    /// Owners currently parked by avoidance, process-wide.
    pub fn parked_total(&self) -> u64 {
        self.parked_total.load(Ordering::Acquire)
    }

    /// The epoch-validated lock-free admission check: admits iff a
    /// consistent read proves `key` is in no signature and no parked owner
    /// waits on `owner`. Counts [`Stats::fast_admits`],
    /// [`Stats::slow_fallbacks`], and [`Stats::degradation_scope_hits`] as
    /// a side effect.
    ///
    /// The caller must guarantee that `owner` holds no lock and occupies no
    /// position queue (the runtime's `holds_mask == 0`, no fast-held lock,
    /// no outstanding request); that is what upgrades "no yield edge" into
    /// "no in-edge at all, no cycle can run through this owner".
    ///
    /// [`Stats::fast_admits`]: crate::Stats::fast_admits
    /// [`Stats::slow_fallbacks`]: crate::Stats::slow_fallbacks
    /// [`Stats::degradation_scope_hits`]: crate::Stats::degradation_scope_hits
    pub fn try_admit(&self, key: SiteKey, owner: OwnerId) -> Admission {
        let counters = self.stripe(owner);
        for _ in 0..2 {
            let before = self.epoch.load(Ordering::Acquire);
            if before & 1 == 1 {
                // A history install is absorbing; retry once, then fall back.
                continue;
            }
            if self.site_may_be_in_history(key) || self.is_blocker(owner) {
                counters.slow_fallbacks.fetch_add(1, Ordering::Relaxed);
                return Admission::Fallback;
            }
            let degraded = self.parked_total() > 0;
            let after = self.epoch.load(Ordering::Acquire);
            if before == after {
                counters.fast_admits.fetch_add(1, Ordering::Relaxed);
                if degraded {
                    counters
                        .degradation_scope_hits
                        .fetch_add(1, Ordering::Relaxed);
                }
                return Admission::Admit { degraded };
            }
        }
        counters.slow_fallbacks.fetch_add(1, Ordering::Relaxed);
        Admission::Fallback
    }

    /// Folds any not-yet-absorbed outer positions of `snapshot` into the
    /// Bloom set. Idempotent and incremental: outer ids are append-only, so
    /// a broadcast install over N shards does the scan once and N-1 O(1)
    /// skips. Must not run concurrently with itself (callers hold the
    /// engine's all-shard lock order, or are single-threaded).
    pub fn absorb_snapshot(&self, snapshot: &HistorySnapshot) {
        let len = snapshot.outer_len() as u64;
        let start = self.absorbed_outers.load(Ordering::Acquire);
        if start >= len {
            return;
        }
        self.epoch.fetch_add(1, Ordering::AcqRel); // odd: writer active
        let outers = snapshot.outer_table();
        for id in start..len {
            if let Some(stack) = outers.stack(crate::position::PositionId::new(id as u32)) {
                for (word, mask) in Self::bloom_slots(stack.site_key()) {
                    self.bloom[word].fetch_or(mask, Ordering::Release);
                }
            }
        }
        self.absorbed_outers.store(len, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel); // even: quiescent
    }

    /// Records that an owner parked with `record`'s blockers.
    pub(crate) fn note_yield(&self, record: &YieldRecord) {
        for b in &record.blockers {
            self.blockers[Self::blocker_stripe(*b)].fetch_add(1, Ordering::Release);
        }
        self.parked_total.fetch_add(1, Ordering::Release);
    }

    /// Reverses [`note_yield`](Self::note_yield) for a cleared record.
    pub(crate) fn note_yield_cleared(&self, record: &YieldRecord) {
        for b in &record.blockers {
            self.blockers[Self::blocker_stripe(*b)].fetch_sub(1, Ordering::Release);
        }
        self.parked_total.fetch_sub(1, Ordering::Release);
    }

    /// Counts an engine-invisible acquisition `owner` completed on the fast
    /// path.
    pub fn note_fast_acquire(&self, owner: OwnerId) {
        self.stripe(owner)
            .fast_acquires
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an engine-invisible release `owner` completed on the fast path.
    pub fn note_fast_release(&self, owner: OwnerId) {
        self.stripe(owner)
            .fast_releases
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a fast-held lock of `owner` published into the engine by a
    /// slow-path request (its request/grant/acquisition are then counted by
    /// the engine, so aggregation subtracts `published` once from each).
    pub fn note_published(&self, owner: OwnerId) {
        self.stripe(owner).published.fetch_add(1, Ordering::Relaxed);
    }

    /// Fast-path admissions granted without any shard lock.
    pub fn fast_admits(&self) -> u64 {
        self.total(|c| &c.fast_admits)
    }

    /// Fast-path-eligible attempts that failed validation and fell back.
    pub fn slow_fallbacks(&self) -> u64 {
        self.total(|c| &c.slow_fallbacks)
    }

    /// Fast admissions that succeeded while some owner was parked elsewhere
    /// (requests the old global `parked` flag would have degraded).
    pub fn degradation_scope_hits(&self) -> u64 {
        self.total(|c| &c.degradation_scope_hits)
    }

    /// Engine-invisible acquisitions completed on the fast path.
    pub fn fast_acquires(&self) -> u64 {
        self.total(|c| &c.fast_acquires)
    }

    /// Engine-invisible releases completed on the fast path.
    pub fn fast_releases(&self) -> u64 {
        self.total(|c| &c.fast_releases)
    }

    /// Fast-held locks later published into the engine by a slow-path
    /// request.
    pub fn published(&self) -> u64 {
        self.total(|c| &c.published)
    }
}

impl fmt::Debug for AdmissionSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmissionSummary")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("parked_total", &self.parked_total())
            .field(
                "absorbed_outers",
                &self.absorbed_outers.load(Ordering::Relaxed),
            )
            .field("fast_admits", &self.fast_admits())
            .field("slow_fallbacks", &self.slow_fallbacks())
            .field("degradation_scope_hits", &self.degradation_scope_hits())
            .field("published", &self.published())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LockId;
    use crate::SignatureId;

    fn record(blockers: Vec<OwnerId>) -> YieldRecord {
        YieldRecord {
            signature: SignatureId::new(0),
            position: crate::position::PositionId::new(0),
            lock: LockId::new(0),
            blockers,
        }
    }

    #[test]
    fn empty_summary_admits_everyone() {
        let s = AdmissionSummary::new();
        assert_eq!(
            s.try_admit(SiteKey::new(42), OwnerId::thread(1)),
            Admission::Admit { degraded: false }
        );
        assert_eq!(s.fast_admits(), 1);
        assert_eq!(s.slow_fallbacks(), 0);
    }

    #[test]
    fn blocker_refcounts_gate_and_release() {
        let s = AdmissionSummary::new();
        let t1 = OwnerId::thread(1);
        let rec = record(vec![t1]);
        s.note_yield(&rec);
        assert!(s.is_blocker(t1));
        assert_eq!(s.parked_total(), 1);
        assert_eq!(s.try_admit(SiteKey::new(7), t1), Admission::Fallback);
        assert_eq!(s.slow_fallbacks(), 1);
        // A *different* owner is still admitted — scoped degradation.
        match s.try_admit(SiteKey::new(7), OwnerId::thread(999)) {
            Admission::Admit { degraded } => assert!(degraded),
            other => panic!("expected scoped admit, got {other:?}"),
        }
        assert_eq!(s.degradation_scope_hits(), 1);
        s.note_yield_cleared(&rec);
        assert!(!s.is_blocker(t1));
        assert_eq!(s.parked_total(), 0);
    }

    #[test]
    fn thread_and_task_spaces_do_not_collide_via_identity() {
        let s = AdmissionSummary::new();
        let rec = record(vec![OwnerId::thread(5)]);
        s.note_yield(&rec);
        // The stripe is a hash, so a task *may* collide, but the identical
        // raw index must not collide by construction of the pre-mix.
        assert_ne!(
            AdmissionSummary::blocker_stripe(OwnerId::thread(5)),
            AdmissionSummary::blocker_stripe(OwnerId::task(5)),
        );
        s.note_yield_cleared(&rec);
    }

    /// The six statistics of one stripe, in field order.
    fn stripe_values(s: &AdmissionSummary, stripe: usize) -> [u64; 6] {
        let c = &s.counters[stripe];
        [
            &c.fast_admits,
            &c.slow_fallbacks,
            &c.degradation_scope_hits,
            &c.fast_acquires,
            &c.fast_releases,
            &c.published,
        ]
        .map(|counter| counter.load(Ordering::Relaxed))
    }

    #[test]
    fn striped_counters_fold_to_exact_totals() {
        let s = AdmissionSummary::new();
        let clean = SiteKey::new(7);
        // Thread(3), Thread(3 + 16) and Task(3) share stripe 3; Thread(4)
        // has stripe 4 to itself.
        let sharing = [OwnerId::thread(3), OwnerId::thread(19), OwnerId::task(3)];
        let alone = OwnerId::thread(4);
        for owner in sharing {
            assert!(std::ptr::eq(s.stripe(owner), &s.counters[3]));
        }
        assert!(std::ptr::eq(s.stripe(alone), &s.counters[4]));

        // A site in the Bloom set, so `try_admit` there is a fallback.
        let in_history = SiteKey::new(99);
        for (word, mask) in AdmissionSummary::bloom_slots(in_history) {
            s.bloom[word].fetch_or(mask, Ordering::Release);
        }

        for (rounds, owner) in sharing.into_iter().chain([alone]).enumerate() {
            for _ in 0..=rounds {
                assert!(matches!(s.try_admit(clean, owner), Admission::Admit { .. }));
                s.note_fast_acquire(owner);
                s.note_fast_release(owner);
            }
            assert_eq!(s.try_admit(in_history, owner), Admission::Fallback);
            s.note_published(owner);
        }
        // One parked owner elsewhere: the next admit is a degradation hit.
        let rec = record(vec![OwnerId::thread(1000)]);
        s.note_yield(&rec);
        assert_eq!(
            s.try_admit(clean, alone),
            Admission::Admit { degraded: true }
        );
        s.note_yield_cleared(&rec);

        // 1 + 2 + 3 sections on stripe 3, 4 (+ the degraded admit) on stripe 4.
        assert_eq!(stripe_values(&s, 3), [6, 3, 0, 6, 6, 3]);
        assert_eq!(stripe_values(&s, 4), [5, 1, 1, 4, 4, 1]);
        for stripe in (0..COUNTER_STRIPES).filter(|i| ![3, 4].contains(i)) {
            assert_eq!(stripe_values(&s, stripe), [0; 6], "stripe {stripe}");
        }
        assert_eq!(s.fast_admits(), 11);
        assert_eq!(s.slow_fallbacks(), 4);
        assert_eq!(s.degradation_scope_hits(), 1);
        assert_eq!(s.fast_acquires(), 10);
        assert_eq!(s.fast_releases(), 10);
        assert_eq!(s.published(), 4);
    }

    /// The layout the fast path's scaling rests on: a tier-1 section writes
    /// only counter stripes, so no field it *reads* may share a line with one.
    /// Fails when a stripe stops being line-sized and line-aligned, i.e. when
    /// two owners' counters, or a counter and `parked_total`, can meet again.
    #[test]
    fn counters_share_no_cache_line_with_the_fields_the_fast_path_reads() {
        use std::mem::{align_of, size_of, size_of_val};
        const LINE: usize = 128;
        assert_eq!(align_of::<CounterStripe>(), LINE);
        assert_eq!(size_of::<CounterStripe>() % LINE, 0);
        // The summary itself is line-aligned, so offsets within it are
        // offsets within lines.
        assert_eq!(align_of::<AdmissionSummary>() % LINE, 0);

        let s = AdmissionSummary::new();
        let base = &s as *const AdmissionSummary as usize;
        fn lines<T>(base: usize, field: &T) -> std::ops::RangeInclusive<usize> {
            let offset = field as *const T as usize - base;
            offset / LINE..=(offset + size_of_val(field) - 1) / LINE
        }
        let counters = lines(base, &s.counters);
        for (name, read) in [
            ("epoch", lines(base, &s.epoch)),
            ("bloom", lines(base, &s.bloom)),
            ("blockers", lines(base, &s.blockers)),
            ("parked_total", lines(base, &s.parked_total)),
            ("absorbed_outers", lines(base, &s.absorbed_outers)),
        ] {
            assert!(
                read.end() < counters.start() || read.start() > counters.end(),
                "{name} (lines {read:?}) shares a line with the counter stripes ({counters:?})"
            );
        }
    }

    #[test]
    fn absorbed_sites_fall_back_and_absorption_is_idempotent() {
        use crate::history::History;
        use crate::signature::{Signature, SignatureKind, SignaturePair};
        use crate::{CallStack, Frame};

        let stack = CallStack::single(Frame::new("m1", "f.rs", 1));
        let inner = CallStack::single(Frame::new("m2", "f.rs", 2));
        let sig = Signature::new(
            SignatureKind::Deadlock,
            vec![SignaturePair::new(stack.clone(), inner)],
        );
        let mut history = History::new();
        history.add(sig);
        let snap = HistorySnapshot::build(history, 1);

        let s = AdmissionSummary::new();
        assert!(!s.site_may_be_in_history(stack.site_key()));
        s.absorb_snapshot(&snap);
        assert!(s.site_may_be_in_history(stack.site_key()));
        assert_eq!(
            s.try_admit(stack.site_key(), OwnerId::thread(1)),
            Admission::Fallback
        );
        let epoch_after = s.epoch.load(Ordering::Relaxed);
        s.absorb_snapshot(&snap); // no new outers: O(1) skip, no epoch bump
        assert_eq!(s.epoch.load(Ordering::Relaxed), epoch_after);
        assert_eq!(epoch_after % 2, 0, "epoch must end even");
    }
}
