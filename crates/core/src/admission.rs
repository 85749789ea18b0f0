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
//! - **"this site is in no live signature"** — a blocked Bloom filter over
//!   the [`SiteKey`]s of the outer positions some *live* signature mentions.
//!   A *clear* probe proves that no live signature mentions the site: the
//!   avoidance check at this position is vacuous, and a grant here cannot
//!   occupy a slot another thread's instantiation check would look at.
//! - **"no parked owner waits on me"** — striped reference counts over the
//!   blocker lists of all live yield records. A zero stripe proves no yield
//!   edge points at this owner. Combined with the caller's guarantee that
//!   it holds no lock (so no request edge points at it either), the owner
//!   has **no in-edge in the wait-for relation**, and no deadlock cycle can
//!   run through it — granting is exactly what the monolithic oracle would
//!   decide.
//!
//! The converse direction is *not* proven: a set filter bit or a non-zero
//! stripe may be a collision or a stale blocker snapshot. Any doubt routes
//! the request to the locked engine path, which remains the
//! property-tested oracle.
//!
//! ## The filter
//!
//! The filter is blocked in the sense of Putze, Sanders & Singler
//! ("Cache-, Hash-, and Space-Efficient Bloom Filters", WEA 2007): a key
//! sets `PROBE_BITS` (6) bits inside **one** 64-bit word, so a probe is one
//! atomic load. It is sized to the live history, at least
//! `MIN_BITS_PER_KEY` (16) bits per live outer position (≤ 0.4 % false
//! positives, computed; ≈ 0.04 % just after a doubling), and grows by
//! doubling: level *i* holds `64 << i` words, and level 0 (512 bytes)
//! serves histories of up to 256 live outer positions.
//!
//! - **Appends** set the new signatures' keys in the current level. When
//!   the live key count outgrows it, the next level is built off to the
//!   side from the snapshot's live outer positions, then published by
//!   storing `level` under an odd epoch.
//! - **Evictions** make the next absorbed snapshot rebuild the filter from
//!   the outer positions some live signature still mentions (in place, with
//!   the epoch odd, or into the level the smaller history now fits), so an
//!   evicted antibody's keys stop sending clean sites to the locked path.
//!
//! A level, once allocated, lives as long as the summary: a reader may
//! still be probing a level the writer has just replaced, and keeping it
//! costs at most as much again as the largest level (the levels double)
//! where freeing it would need a reclamation protocol on the hot path.
//! The level and every bit depend only on the set of live outer positions,
//! so a summary that absorbed a history in one call answers exactly as one
//! that followed it install by install.
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
//! Writers (history installs absorbing a snapshot into the filter) run
//! under the engine's all-shard lock order, so there is at most one writer
//! at a time. Every change a reader could see half-done happens with the
//! epoch odd (bumped `AcqRel` before and after): setting new keys, refilling
//! the current level in place, and storing a new `level`. A level built off
//! to the side is filled while it is unpublished, and any reader still
//! holding an older `level` value straddles the epoch bumps of the switch
//! and is rejected. Readers reject any read that saw an odd epoch or
//! different epochs before/after. Yield-record bookkeeping
//! (blocker stripes, park counts) is *not* epoch-fenced: each component
//! read is individually conservative — stripe increments only happen for
//! owners that hold or occupy something (never a fast-path candidate), and
//! a stale decrement can only send the reader to the slow path. All data
//! loads use `Acquire`, all stores `Release`, so a reader that observes a
//! word or a `level` the writer stored under an odd epoch also observes
//! that odd epoch on its second load. The statistics counters are the
//! exception: they are `Relaxed` on both sides, because nobody synchronises
//! through a statistic — and they are striped by owner (see
//! `CounterStripe`), so the fast path writes no cache line another owner's
//! fast path touches.

use crate::avoidance::SignatureIndex;
use crate::callstack::SiteKey;
use crate::position::PositionId;
use crate::rag::YieldRecord;
use crate::snapshot::HistorySnapshot;
use crate::{OwnerId, SignatureId};
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Words in filter level 0 (4096 bits); level `i` holds `BASE_WORDS << i`.
const BASE_WORDS: usize = 64;
/// Filter levels. The last (16 MiB) fits four million live outer positions;
/// a larger history keeps it, at fewer bits per key.
const LEVELS: usize = 16;
/// Bits one key sets, all inside one word.
const PROBE_BITS: u32 = 6;
/// Filter bits kept per live outer position, at least.
const MIN_BITS_PER_KEY: usize = 16;
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
    published_grants: AtomicU64,
}

/// Adds one to a counter whose writers are serialized by a lock of the
/// caller's: no read-modify-write needed.
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// What the filter has absorbed, for the writer alone.
#[derive(Debug, Default)]
struct Absorbed {
    /// The last absorbed index's [`SignatureIndex::id_bound`].
    ids: usize,
    /// Signatures retired by then (`ids - len`).
    retired: usize,
    /// Outer positions some live signature mentioned by then.
    keys: usize,
    /// The site key of every outer position seen so far, by outer id: a
    /// rebuild sets live keys without re-hashing their stacks.
    site_keys: Vec<SiteKey>,
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
/// `repr(C)` keeps the declaration order: the fields every probe reads
/// first share one line, and the counter stripes come last.
///
/// [`Dimmunix::attach_admission_summary`]: crate::engine::Dimmunix::attach_admission_summary
#[repr(C)]
pub struct AdmissionSummary {
    /// Seqlock epoch: odd while the filter is being changed in place or a
    /// new level is being published.
    epoch: AtomicU64,
    /// The filter level probes read; changed only with the epoch odd.
    level: AtomicUsize,
    /// Filter levels, level `i` holding `BASE_WORDS << i` words, allocated
    /// on first use and kept until the summary drops.
    levels: [OnceLock<Box<[AtomicU64]>>; LEVELS],
    /// Striped refcounts of owners named in live yield records' blockers.
    blockers: [AtomicU32; BLOCKER_STRIPES],
    /// Owners currently parked by avoidance, process-wide.
    parked_total: AtomicU64,
    /// What the filter holds; the mutex also keeps absorptions serial.
    absorbed: Mutex<Absorbed>,
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
    /// Creates an empty summary (an empty level-0 filter, no parked
    /// owners).
    pub fn new() -> Self {
        let summary = AdmissionSummary {
            epoch: AtomicU64::new(0),
            level: AtomicUsize::new(0),
            levels: std::array::from_fn(|_| OnceLock::new()),
            blockers: std::array::from_fn(|_| AtomicU32::new(0)),
            parked_total: AtomicU64::new(0),
            absorbed: Mutex::new(Absorbed::default()),
            counters: std::array::from_fn(|_| CounterStripe::default()),
        };
        summary.level_words(0);
        summary
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

    /// The word of a `words`-word level that holds `key`, and the bits
    /// `key` sets in it. The site key is an FNV hash, so it is remixed
    /// (MurmurHash3's 64-bit finaliser) before its high bits pick the word
    /// and six disjoint 6-bit fields of its low bits pick the bits.
    fn probe(key: SiteKey, words: usize) -> (usize, u64) {
        let mut h = key.raw();
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        let word = (h >> 40) as usize & (words - 1);
        let mask = (0..PROBE_BITS).fold(0u64, |mask, i| mask | 1 << ((h >> (6 * i)) & 63));
        (word, mask)
    }

    /// The smallest level with at least `MIN_BITS_PER_KEY` bits per key.
    fn level_for(keys: usize) -> usize {
        (0..LEVELS)
            .find(|&level| (BASE_WORDS << level) * 64 >= keys * MIN_BITS_PER_KEY)
            .unwrap_or(LEVELS - 1)
    }

    /// The words of `level`, allocated zeroed on first use.
    fn level_words(&self, level: usize) -> &[AtomicU64] {
        self.levels[level].get_or_init(|| {
            (0..BASE_WORDS << level)
                .map(|_| AtomicU64::new(0))
                .collect()
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

    /// True if `key` *may* be the site of an outer position some live
    /// signature mentions. A `false` answer from an epoch-validated read is
    /// definitive: no live signature mentions the site.
    pub fn site_may_be_in_history(&self, key: SiteKey) -> bool {
        // Every published level is allocated; a missing one reads as "may".
        let Some(words) = self.levels[self.level.load(Ordering::Acquire)].get() else {
            return true;
        };
        let (word, mask) = Self::probe(key, words.len());
        words[word].load(Ordering::Acquire) & mask == mask
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
    /// consistent read proves `key` is in no live signature and no parked
    /// owner waits on `owner`. Counts [`Stats::fast_admits`],
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
                // The filter is changing; retry once, then fall back.
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

    /// Brings the filter up to `snapshot`'s live signatures. Signatures
    /// appended since the last call are set incrementally; if any were
    /// retired (or `snapshot` is an ancestor of the last one), the filter is
    /// rebuilt from the outer positions live signatures still mention. A
    /// snapshot with nothing new is an O(1) skip, so a broadcast install
    /// over N shards does the work once. Callers hold the engine's
    /// all-shard lock order, or are single-threaded; concurrent calls
    /// serialise on an internal mutex.
    pub fn absorb_snapshot(&self, snapshot: &HistorySnapshot) {
        let index = snapshot.index();
        let mut absorbed = self.absorbed.lock().unwrap_or_else(PoisonError::into_inner);
        let ids = index.id_bound();
        let retired = ids - index.len();
        if ids == absorbed.ids && retired == absorbed.retired {
            return;
        }
        // Outer ids are append-only along a lineage: a rewind to an ancestor
        // keeps the cache's prefix, and the lineage appended from there on
        // may give the ids past it to other stacks.
        let outers = snapshot.outer_table();
        absorbed.site_keys.truncate(outers.len());
        let cached = absorbed.site_keys.len();
        absorbed.site_keys.extend((cached..outers.len()).map(|id| {
            let stack = outers.stack(PositionId::new(id as u32));
            stack.expect("id below len").site_key()
        }));
        let site_keys = &absorbed.site_keys;
        let appends_only = ids > absorbed.ids && retired == absorbed.retired;
        // An empty filter is built in one pass, like a rebuild.
        let keys = if appends_only && absorbed.ids > 0 {
            // The new signatures are the only new mentions.
            let appended = absorbed.ids..ids;
            let new_keys = appended
                .clone()
                .map(|sig| newly_live_outers(index, SignatureId::new(sig)))
                .sum::<usize>();
            let keys = absorbed.keys + new_keys;
            let level = Self::level_for(keys);
            if level == self.level.load(Ordering::Relaxed) {
                let words = self.level_words(level);
                self.epoch.fetch_add(1, Ordering::AcqRel); // odd: writer active
                for sig in appended {
                    for outer in index.outer_positions_of(SignatureId::new(sig)) {
                        Self::set(words, site_keys[outer.index()]);
                    }
                }
                self.epoch.fetch_add(1, Ordering::AcqRel); // even: quiescent
            } else {
                self.rebuild(&live_keys(index, site_keys), level);
            }
            keys
        } else {
            let live = live_keys(index, site_keys);
            self.rebuild(&live, Self::level_for(live.len()));
            live.len()
        };
        absorbed.ids = ids;
        absorbed.retired = retired;
        absorbed.keys = keys;
    }

    /// Sets `key`'s bits in `words`. Absorptions are serial, so a plain
    /// read-modify-write loses nothing.
    fn set(words: &[AtomicU64], key: SiteKey) {
        let (word, mask) = Self::probe(key, words.len());
        let word = &words[word];
        word.store(word.load(Ordering::Relaxed) | mask, Ordering::Release);
    }

    /// Refills `level` with exactly the `live` keys, then makes it the level
    /// probes read. The current level is refilled in place with the epoch
    /// odd; any other is filled off to the side and published by storing
    /// `level` with the epoch odd.
    fn rebuild(&self, live: &[SiteKey], level: usize) {
        let words = self.level_words(level);
        let in_place = level == self.level.load(Ordering::Relaxed);
        if in_place {
            self.epoch.fetch_add(1, Ordering::AcqRel); // odd: readers fall back
        }
        for word in words {
            word.store(0, Ordering::Release);
        }
        for &key in live {
            Self::set(words, key);
        }
        if !in_place {
            self.epoch.fetch_add(1, Ordering::AcqRel); // odd: readers fall back
            self.level.store(level, Ordering::Release);
        }
        self.epoch.fetch_add(1, Ordering::AcqRel); // even: quiescent
    }

    /// Bytes of filter the summary holds: every level allocated so far,
    /// the one probes read and the ones it replaced.
    pub fn filter_bytes(&self) -> usize {
        self.levels
            .iter()
            .filter_map(OnceLock::get)
            .map(|words| std::mem::size_of_val(&**words))
            .sum()
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

    /// Counts a tier-1 admission of `owner` published into the engine
    /// ([`Dimmunix::publish`](crate::Dimmunix::publish)) by a locked request
    /// or a signature install. The engine then counts its request and grant,
    /// so aggregation subtracts it once from each; `as_grant` marks one
    /// published before its owner acquired the lock, whose acquisition the
    /// engine counts when it completes, so it is not subtracted from the
    /// acquisitions.
    ///
    /// A publish happens under every shard lock of the engines this summary
    /// is attached to, and those locks order the callers, so each count is a
    /// plain load and store rather than a read-modify-write.
    pub(crate) fn note_published(&self, owner: OwnerId, as_grant: bool) {
        let stripe = self.stripe(owner);
        bump(&stripe.published);
        if as_grant {
            bump(&stripe.published_grants);
        }
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

    /// Fast-held locks and fast admissions later published into the
    /// engine.
    pub fn published(&self) -> u64 {
        self.total(|c| &c.published)
    }

    /// The part of [`published`](Self::published) published as grants.
    pub fn published_grants(&self) -> u64 {
        self.total(|c| &c.published_grants)
    }
}

/// The site keys of the outer positions some live signature of `index`
/// mentions, gathered before a rebuild so the odd-epoch window is only the
/// refill itself.
fn live_keys(index: &SignatureIndex, site_keys: &[SiteKey]) -> Vec<SiteKey> {
    index
        .live_positions()
        .map(|outer| site_keys[outer.index()])
        .collect()
}

/// The outer positions `sig` is the first live signature to mention: each
/// counted once, at the lowest live id listing it.
fn newly_live_outers(index: &SignatureIndex, sig: SignatureId) -> usize {
    let outers = index.outer_positions_of(sig);
    outers
        .iter()
        .enumerate()
        .filter(|&(i, outer)| {
            index.signatures_at(*outer).first() == Some(&sig) && !outers[..i].contains(outer)
        })
        .count()
}

impl fmt::Debug for AdmissionSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let level = self.level.load(Ordering::Relaxed);
        let bits = (BASE_WORDS << level) * 64;
        let keys = self
            .absorbed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .keys;
        f.debug_struct("AdmissionSummary")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("parked_total", &self.parked_total())
            .field("level", &level)
            .field("live_keys", &keys)
            .field("bits_per_key", &(bits as f64 / keys as f64))
            .field("filter_bytes", &self.filter_bytes())
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
    use crate::SignatureId;

    fn record(blockers: Vec<OwnerId>) -> YieldRecord {
        YieldRecord {
            signature: SignatureId::new(0),
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

        // A site in the filter, so `try_admit` there is a fallback.
        let in_history = SiteKey::new(99);
        let (word, mask) = AdmissionSummary::probe(in_history, BASE_WORDS);
        s.level_words(0)[word].fetch_or(mask, Ordering::Release);

        for (rounds, owner) in sharing.into_iter().chain([alone]).enumerate() {
            for _ in 0..=rounds {
                assert!(matches!(s.try_admit(clean, owner), Admission::Admit { .. }));
                s.note_fast_acquire(owner);
                s.note_fast_release(owner);
            }
            assert_eq!(s.try_admit(in_history, owner), Admission::Fallback);
            s.note_published(owner, false);
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
        use std::mem::{align_of, size_of};
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
        // The epoch and the level a probe reads next share the read-mostly
        // line, with the first filter levels.
        let head = lines(base, &s.epoch);
        assert_eq!(lines(base, &s.level), head);
        assert_eq!(lines(base, &s.levels[0]), head);
        for (name, read) in [
            ("epoch", head.clone()),
            ("level", lines(base, &s.level)),
            ("levels", lines(base, &s.levels)),
            ("blockers", lines(base, &s.blockers)),
            ("parked_total", lines(base, &s.parked_total)),
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

    /// A history of `n` two-position signatures with distinct outer sites.
    fn two_position(n: usize) -> crate::History {
        use crate::signature::{Signature, SignatureKind, SignaturePair};
        use crate::{CallStack, Frame};
        let at =
            |i: usize, role: &str| CallStack::single(Frame::new(format!("s{i}.{role}"), "f.rs", 1));
        (0..n)
            .map(|i| {
                Signature::new(
                    SignatureKind::Deadlock,
                    vec![
                        SignaturePair::new(at(i, "outerA"), at(i, "innerA")),
                        SignaturePair::new(at(i, "outerB"), at(i, "innerB")),
                    ],
                )
            })
            .collect()
    }

    /// The filter's memory, pinned: what an empty history costs today, the
    /// live level at the default cap, and what growing one install at a
    /// time keeps beside it.
    #[test]
    fn filter_bytes_track_the_live_history() {
        assert_eq!(AdmissionSummary::new().filter_bytes(), 512);

        let history = two_position(4096);
        let bulk = AdmissionSummary::new();
        bulk.absorb_snapshot(&HistorySnapshot::build(history.clone(), 1));
        let level = bulk.level.load(Ordering::Relaxed);
        let live = size_of_val(&**bulk.levels[level].get().unwrap());
        assert!(live <= 16 * 1024, "live level {live} B");
        assert_eq!(
            bulk.filter_bytes(),
            512 + live,
            "level 0 and the live level"
        );

        let grown = AdmissionSummary::new();
        let mut snap = HistorySnapshot::build(crate::History::new(), 1);
        for (_, sig) in history.iter() {
            snap = snap.append(sig.clone()).0;
            grown.absorb_snapshot(&snap);
        }
        assert_eq!(grown.level.load(Ordering::Relaxed), level);
        assert_eq!(grown.filter_bytes(), (BASE_WORDS << (level + 1)) * 8 - 512);
        assert!(grown.filter_bytes() <= 2 * live);

        let shown = format!("{grown:?}");
        for field in [
            "level: 5",
            "live_keys: 8192",
            "bits_per_key: 16.0",
            "filter_bytes: 32256",
        ] {
            assert!(shown.contains(field), "{field} missing from {shown}");
        }
    }

    /// Eviction takes an antibody's keys out of the filter, and the level
    /// follows the live history down as well as up.
    #[test]
    fn eviction_rebuilds_the_filter_from_live_signatures() {
        let history = two_position(1024);
        let mut snap = HistorySnapshot::build(history, 1);
        let s = AdmissionSummary::new();
        s.absorb_snapshot(&snap);
        assert_eq!(s.level.load(Ordering::Relaxed), 3, "2048 live keys");
        let outer_keys = |snap: &HistorySnapshot, sig: usize| {
            snap.index()
                .outer_positions_of(SignatureId::new(sig))
                .iter()
                .map(|&p| snap.outer_table().stack(p).unwrap().site_key())
                .collect::<Vec<_>>()
        };
        let first = outer_keys(&snap, 0);
        for sig in 0..1000 {
            snap = snap.evict(SignatureId::new(sig)).unwrap();
        }
        let epoch = s.epoch.load(Ordering::Relaxed);
        s.absorb_snapshot(&snap);
        assert_eq!(s.epoch.load(Ordering::Relaxed), epoch + 2, "one publish");
        assert_eq!(s.level.load(Ordering::Relaxed), 0, "48 live keys");
        assert!(first.iter().all(|&key| !s.site_may_be_in_history(key)));
        for sig in 1000..1024 {
            assert!(outer_keys(&snap, sig)
                .iter()
                .all(|&key| s.site_may_be_in_history(key)));
        }
        // Nothing new: an O(1) skip.
        s.absorb_snapshot(&snap);
        assert_eq!(s.epoch.load(Ordering::Relaxed), epoch + 2);
    }

    /// The words of the level probes read.
    fn live_words(s: &AdmissionSummary) -> Vec<u64> {
        let level = s.level.load(Ordering::Relaxed);
        let words = s.levels[level].get().expect("the live level is allocated");
        words.iter().map(|w| w.load(Ordering::Relaxed)).collect()
    }

    /// **No false negatives, one layout.** Random sequences of appends,
    /// evictions, bursts that grow the filter by several levels, and
    /// rewinds to an ancestor snapshot, absorbed after every step. After
    /// each, every outer key of every live signature must probe as "may be
    /// in history" (checked against a `HashSet` oracle built from the
    /// signatures themselves), and a fresh summary that absorbed the same
    /// snapshot in one call must hold the same level and the same words, bit
    /// for bit — which is what lets a one-shot `absorb_snapshot` predict the
    /// runtime's answers.
    #[test]
    fn prop_filter_has_no_false_negatives_and_one_layout() {
        use crate::history::History;
        use crate::signature::{Signature, SignatureKind, SignaturePair};
        use crate::{CallStack, Frame};
        use dimmunix_testkit::Gen;
        use std::collections::HashSet;
        use std::sync::Arc;

        const CASES: u64 = 48;
        for seed in 0..CASES {
            let mut g = Gen::new(seed ^ 0xb10c_b100);
            let depth = g.range(1, 3);
            // A small pool makes signatures share outer sites, so evicted
            // keys are re-mentioned and some outers stay live after an
            // eviction; a large one lets bursts grow the filter.
            let pool = g.range(4, 2000);
            let stack = |g: &mut Gen| {
                let frames = (0..g.range(1, 3))
                    .map(|_| {
                        Frame::new(
                            format!("p{}", g.range(0, pool)),
                            "f.rs",
                            g.range(1, 4) as u32,
                        )
                    })
                    .collect();
                CallStack::from_frames(frames)
            };
            let signature = |g: &mut Gen| {
                let pairs = (0..g.range(1, 4))
                    .map(|_| SignaturePair::new(stack(g), stack(g)))
                    .collect();
                Signature::new(SignatureKind::Deadlock, pairs)
            };

            let summary = AdmissionSummary::new();
            let mut snap = HistorySnapshot::build(History::new(), depth);
            let mut ancestors = vec![Arc::clone(&snap)];
            for step in 0..g.range(1, 24) {
                match g.range(0, 8) {
                    0..=2 => snap = snap.append(signature(&mut g)).0,
                    3..=4 => {
                        let live: Vec<SignatureId> =
                            snap.history().iter().map(|(id, _)| id).collect();
                        for _ in 0..g.range(1, 4).min(live.len()) {
                            let victim = live[g.range(0, live.len())];
                            snap = snap.evict(victim).unwrap_or(snap);
                        }
                    }
                    5..=6 => {
                        for _ in 0..g.range(1, 600) {
                            snap = snap.append(signature(&mut g)).0;
                        }
                    }
                    _ => {
                        // Later snapshots descend from the rewind target;
                        // the abandoned ones are no one's ancestors.
                        ancestors.truncate(g.range(1, ancestors.len() + 1));
                        snap = ancestors.pop().expect("the empty base stays");
                    }
                }
                ancestors.push(Arc::clone(&snap));
                summary.absorb_snapshot(&snap);

                let ctx = format!("seed {seed} step {step}");
                let live: HashSet<SiteKey> = snap
                    .history()
                    .iter()
                    .flat_map(|(_, sig)| sig.outer_stacks())
                    .map(|outer| outer.truncated(depth).site_key())
                    .collect();
                for &key in &live {
                    assert!(
                        summary.site_may_be_in_history(key),
                        "{ctx}: live {key} reads clear"
                    );
                }
                assert_eq!(summary.epoch.load(Ordering::Relaxed) % 2, 0, "{ctx}");

                let bulk = AdmissionSummary::new();
                bulk.absorb_snapshot(&snap);
                assert_eq!(
                    summary.level.load(Ordering::Relaxed),
                    bulk.level.load(Ordering::Relaxed),
                    "{ctx}: level ({} live keys)",
                    live.len()
                );
                assert!(
                    live_words(&summary) == live_words(&bulk),
                    "{ctx}: words differ"
                );
            }
        }
    }
}
