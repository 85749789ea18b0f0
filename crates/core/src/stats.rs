//! Runtime counters kept by the engine.
//!
//! These back the evaluation harness: synchronization counts (Table 1),
//! avoidance activity, and memory accounting.

use std::fmt;

/// Monotonic counters describing one engine instance's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Calls to `request` (one per monitorenter attempt).
    pub requests: u64,
    /// Requests approved immediately or after retries.
    pub grants: u64,
    /// Recursive (reentrant) acquisitions granted on the fast path.
    pub reentrant_grants: u64,
    /// `acquired` notifications.
    pub acquisitions: u64,
    /// `released` notifications that actually released the monitor.
    pub releases: u64,
    /// `acquired` notifications that deepened an already-held monitor
    /// (recursive re-entries). These increment `acquisitions` but their
    /// matching exits do not increment `releases`, so at quiescence the
    /// reentrant balance identity holds:
    /// `acquisitions - nested_reentries == releases` (`>=` while owners are
    /// mid-critical-section or were force-released by `unregister_owner`).
    /// See [`Stats::reentrant_balance`].
    pub nested_reentries: u64,
    /// Requests answered with a yield (the thread had to park).
    pub yields: u64,
    /// Distinct times a real deadlock cycle was detected.
    pub deadlocks_detected: u64,
    /// New deadlock signatures added to the history.
    pub new_deadlock_signatures: u64,
    /// Avoidance-induced deadlocks (starvation) detected.
    pub starvations_detected: u64,
    /// New starvation signatures added to the history.
    pub new_starvation_signatures: u64,
    /// Instantiation checks performed by the avoidance module.
    pub instantiation_checks: u64,
    /// Candidate signatures actually examined across all instantiation
    /// checks. With the inverted avoidance index this stays near zero on
    /// deadlock-free workloads (only signatures indexed at the requesting
    /// position are touched); a linear scan would grow it by |history| per
    /// check.
    pub signatures_examined: u64,
    /// Wake-ups issued on the release path (owners woken from the waker
    /// queued on the signature).
    pub wakeups: u64,
    /// Antibodies retired by generation-based eviction at `max_signatures`
    /// (never matched within the configured eviction window).
    pub signatures_evicted: u64,
    /// Acquisitions admitted by the lock-free admission path (an
    /// epoch-validated read over the
    /// [`AdmissionSummary`](crate::AdmissionSummary), no shard lock taken).
    /// Always zero in the core engines — the runtime layer folds the
    /// summary's counters into its aggregate view.
    pub fast_admits: u64,
    /// Fast-path-eligible attempts that failed the lock-free validation
    /// (site-filter hit, blocker-stripe hit, or a racing filter update) and
    /// fell back to the locked engine path. Zero in the core engines.
    pub slow_fallbacks: u64,
    /// Fast admissions granted *while some owner was parked* elsewhere in
    /// the process — requests the old global `parked` flag would have
    /// degraded to the all-shard path but scoped degradation kept fast.
    /// Zero in the core engines.
    pub degradation_scope_hits: u64,
    /// Requests decided inside their home shard alone: tier 2 of the
    /// locked admission ladder
    /// ([`ShardAccess::decide_locked`](crate::ShardAccess::decide_locked)).
    /// Zero in the monolithic engine, which has no tiers.
    pub local_decisions: u64,
    /// Requests decided under every shard lock over the merged view: tier
    /// 3. In a [`ShardedDimmunix`](crate::ShardedDimmunix)
    /// `local_decisions + cross_decisions == requests`; the runtime's
    /// `requests` also counts its tier-1 admits.
    pub cross_decisions: u64,
}

impl Stats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total synchronizations completed (acquire/release pairs observed).
    pub fn synchronizations(&self) -> u64 {
        self.acquisitions
    }

    /// The reentrant balance: top-level acquisitions not yet matched by a
    /// release (`acquisitions - nested_reentries - releases`). Zero at
    /// quiescence when every owner released what it acquired; positive while
    /// monitors are held (or after `unregister_owner` force-released holds
    /// without a `released` notification). The engine debug-asserts this
    /// never goes negative.
    pub fn reentrant_balance(&self) -> i64 {
        (self.acquisitions - self.nested_reentries) as i64 - self.releases as i64
    }

    /// Rolls a collection of counters (per-shard, or per-process) up into
    /// one aggregate view. The sharded engine keeps one `Stats` per shard so
    /// the hot path never contends on a shared counter; observers read the
    /// sum.
    pub fn merged<'a>(stats: impl IntoIterator<Item = &'a Stats>) -> Stats {
        let mut total = Stats::new();
        for s in stats {
            total.merge(s);
        }
        total
    }

    /// Adds another set of counters to this one (used to aggregate
    /// per-process stats into platform-wide numbers).
    pub fn merge(&mut self, other: &Stats) {
        self.requests += other.requests;
        self.grants += other.grants;
        self.reentrant_grants += other.reentrant_grants;
        self.acquisitions += other.acquisitions;
        self.releases += other.releases;
        self.nested_reentries += other.nested_reentries;
        self.yields += other.yields;
        self.deadlocks_detected += other.deadlocks_detected;
        self.new_deadlock_signatures += other.new_deadlock_signatures;
        self.starvations_detected += other.starvations_detected;
        self.new_starvation_signatures += other.new_starvation_signatures;
        self.instantiation_checks += other.instantiation_checks;
        self.signatures_examined += other.signatures_examined;
        self.wakeups += other.wakeups;
        self.signatures_evicted += other.signatures_evicted;
        self.fast_admits += other.fast_admits;
        self.slow_fallbacks += other.slow_fallbacks;
        self.degradation_scope_hits += other.degradation_scope_hits;
        self.local_decisions += other.local_decisions;
        self.cross_decisions += other.cross_decisions;
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requests={} grants={} reentrant={} acquisitions={} releases={} reentries={} \
             yields={} deadlocks={} (new sigs {}) starvations={} (new sigs {}) checks={} \
             examined={} wakeups={} evicted={} fast_admits={} slow_fallbacks={} \
             degradation_scope_hits={} local_decisions={} cross_decisions={}",
            self.requests,
            self.grants,
            self.reentrant_grants,
            self.acquisitions,
            self.releases,
            self.nested_reentries,
            self.yields,
            self.deadlocks_detected,
            self.new_deadlock_signatures,
            self.starvations_detected,
            self.new_starvation_signatures,
            self.instantiation_checks,
            self.signatures_examined,
            self.wakeups,
            self.signatures_evicted,
            self.fast_admits,
            self.slow_fallbacks,
            self.degradation_scope_hits,
            self.local_decisions,
            self.cross_decisions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_all_counters() {
        let mut a = Stats {
            requests: 1,
            grants: 2,
            reentrant_grants: 3,
            acquisitions: 4,
            releases: 5,
            nested_reentries: 1,
            yields: 6,
            deadlocks_detected: 7,
            new_deadlock_signatures: 8,
            starvations_detected: 9,
            new_starvation_signatures: 10,
            instantiation_checks: 11,
            signatures_examined: 13,
            wakeups: 12,
            signatures_evicted: 14,
            fast_admits: 16,
            slow_fallbacks: 17,
            degradation_scope_hits: 18,
            local_decisions: 19,
            cross_decisions: 20,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.requests, 2);
        assert_eq!(a.wakeups, 24);
        assert_eq!(a.signatures_examined, 26);
        assert_eq!(a.synchronizations(), 8);
        assert_eq!(a.nested_reentries, 2);
        assert_eq!(a.signatures_evicted, 28);
        assert_eq!(a.fast_admits, 32);
        assert_eq!(a.slow_fallbacks, 34);
        assert_eq!(a.degradation_scope_hits, 36);
        assert_eq!((a.local_decisions, a.cross_decisions), (38, 40));
    }

    #[test]
    fn reentrant_balance_tracks_outstanding_holds() {
        let s = Stats {
            acquisitions: 10,
            nested_reentries: 3,
            releases: 7,
            ..Stats::new()
        };
        // 10 acquisitions, 3 of which were recursive re-entries whose exits
        // never reach `releases`: at quiescence 10 - 3 == 7.
        assert_eq!(s.reentrant_balance(), 0);
        let held = Stats {
            acquisitions: 5,
            nested_reentries: 1,
            releases: 2,
            ..Stats::new()
        };
        assert_eq!(held.reentrant_balance(), 2);
    }

    /// Fraction of requests that had to yield. A test helper: it has no
    /// denominator of the yields that were necessary, so it proxies nothing.
    fn yield_rate(s: &Stats) -> f64 {
        if s.requests == 0 {
            0.0
        } else {
            s.yields as f64 / s.requests as f64
        }
    }

    #[test]
    fn yield_rate_handles_zero_requests() {
        assert_eq!(yield_rate(&Stats::new()), 0.0);
        let s = Stats {
            requests: 10,
            yields: 5,
            ..Stats::new()
        };
        assert!((yield_rate(&s) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(Stats::new().to_string().contains("requests=0"));
    }
}
