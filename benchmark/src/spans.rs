//! Spans recorded by the benchmark's own files around calls into a layer.
//!
//! A span here is two clock reads around one public call; only the running
//! sum and count per stage are kept, so recording allocates nothing.
//!
//! A span reads longer than the call inside it took, by about one clock
//! read. In the middle of a workload that read costs twice what two
//! back-to-back reads suggest (its code and data have left the cache by the
//! next call), so the correction is taken from the workload itself: the
//! traced rounds run slower than the untraced ones by two clock reads per
//! span, and [`Spans::clock_read_ns`] divides that difference up.

use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `before_acquire` by a thread holding nothing (tier-1 candidate).
    BeforeAcquireFast,
    /// `before_acquire` by a thread already holding a lock.
    BeforeAcquireNested,
    /// `after_acquire` of a hold-free acquisition.
    AfterAcquireFast,
    /// `after_acquire` of a nested (engine-visible) acquisition.
    AfterAcquireEngine,
    /// `before_release` of a hold the engine never saw.
    BeforeReleaseFast,
    /// `before_release` of an engine-visible hold.
    BeforeReleaseEngine,
    TaskBeginAcquire,
    TaskFinishAcquire,
    TaskRelease,
}

const STAGES: usize = 9;

#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    sum_ns: [u64; STAGES],
    count: [u64; STAGES],
}

impl Spans {
    #[inline]
    pub fn record(&mut self, stage: Stage, start: Instant, end: Instant) {
        self.sum_ns[stage as usize] += (end - start).as_nanos() as u64;
        self.count[stage as usize] += 1;
    }

    pub fn merge(&mut self, other: &Spans) {
        for i in 0..STAGES {
            self.sum_ns[i] += other.sum_ns[i];
            self.count[i] += other.count[i];
        }
    }

    /// The cost of one clock read, given what an operation took with and
    /// without spans: each span added two reads to the traced figure.
    pub fn clock_read_ns(&self, traced_ns_per_op: f64, untraced_ns_per_op: f64, ops: u64) -> f64 {
        let spans_per_op = self.count.iter().sum::<u64>() as f64 / ops.max(1) as f64;
        if spans_per_op == 0.0 {
            return 0.0;
        }
        ((traced_ns_per_op - untraced_ns_per_op) / (2.0 * spans_per_op)).max(0.0)
    }

    /// Mean span length with the clock's own cost taken out; 0 when the
    /// stage never ran on this workload.
    pub fn mean_ns(&self, stage: Stage, timer_ns: f64) -> f64 {
        match self.count[stage as usize] {
            0 => 0.0,
            n => (self.sum_ns[stage as usize] as f64 / n as f64 - timer_ns).max(0.0),
        }
    }

    /// Total corrected time in `stages`, per operation.
    pub fn per_op_ns(&self, stages: &[Stage], timer_ns: f64, ops: u64) -> f64 {
        let total: f64 = stages
            .iter()
            .map(|&s| self.mean_ns(s, timer_ns) * self.count[s as usize] as f64)
            .sum();
        total / ops.max(1) as f64
    }
}
