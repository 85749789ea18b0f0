//! The benchmark's declared metrics: the same tables `BENCHMARK.json` holds
//! (a test keeps the two equal), used by `run` to print every metric it
//! declares and nothing else, and by `compare` for directions and bounds.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of the system sees, per workload.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_ops_s", "ops/s", Higher, 0.25),
    e2e("immunity_cost_ns_per_op", "ns", Lower, 0.25),
    e2e("overhead_vs_bare", "ratio", Lower, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p90_us", "us", Lower, 0.25),
    e2e("footprint_kib", "KiB", Lower, 0.02),
];

/// One layer each; the prefix is the module the figure belongs to.
pub const PER_LAYER: [MetricSpec; 53] = [
    layer("rt.runtime.before_acquire_fast_ns", "ns", Lower),
    layer("rt.runtime.before_acquire_nested_ns", "ns", Lower),
    layer("rt.runtime.after_acquire_fast_ns", "ns", Lower),
    layer("rt.runtime.after_acquire_engine_ns", "ns", Lower),
    layer("rt.runtime.before_release_fast_ns", "ns", Lower),
    layer("rt.runtime.before_release_engine_ns", "ns", Lower),
    layer("rt.runtime.lockfree_acquire_ratio", "ratio", Higher),
    layer("rt.runtime.publishes_per_kop", "count", Lower),
    layer("rt.runtime.park_wake_us", "us", Lower),
    layer("rt.runtime.add_signature_us", "us", Lower),
    layer("rt.runtime.install_p50_us", "us", Lower),
    layer("rt.runtime.install_p90_us", "us", Lower),
    layer("rt.runtime.build_ms", "ms", Lower),
    layer("rt.runtime.footprint_bytes_per_signature", "B", Lower),
    layer("rt.site.cold_stack_ns", "ns", Lower),
    layer("rt.mutex.section_ns", "ns", Lower),
    layer("rt.mutex.wrapper_self_ns", "ns", Lower),
    layer("rt.rwlock.read_section_ns", "ns", Lower),
    layer("rt.rwlock.write_section_ns", "ns", Lower),
    layer("std.lock_unlock_ns", "ns", Lower),
    layer("rt.asyncio.task_begin_acquire_ns", "ns", Lower),
    layer("rt.asyncio.task_finish_acquire_ns", "ns", Lower),
    layer("rt.asyncio.task_release_ns", "ns", Lower),
    layer("rt.asyncio.executor_poll_ns", "ns", Lower),
    layer("rt.asyncio.polls_per_request", "count", Lower),
    layer("rt.asyncio.bare_request_us", "us", Lower),
    layer("core.admission.try_admit_ns", "ns", Lower),
    layer("core.admission.fast_admit_ratio", "ratio", Higher),
    layer("core.admission.slow_fallbacks_per_kop", "count", Lower),
    layer("core.admission.degradation_scope_hits", "count", Higher),
    layer("core.admission.absorb_snapshot_us", "us", Lower),
    layer("core.sharded.local_cycle_ns", "ns", Lower),
    layer("core.sharded.cross_cycle_ns", "ns", Lower),
    layer("core.engine.cycle_ns", "ns", Lower),
    layer("core.engine.yields_per_kop", "count", Lower),
    layer("core.engine.deadlocks_detected", "count", Lower),
    layer("core.avoidance.check_ns", "ns", Lower),
    layer("core.avoidance.yield_decision_ns", "ns", Lower),
    layer(
        "core.avoidance.signatures_examined_per_request",
        "count",
        Lower,
    ),
    layer("core.detection.detect_us", "us", Lower),
    layer("core.detection.learn_run_ms", "ms", Lower),
    layer("core.detection.signatures_learned", "count", Lower),
    layer("core.snapshot.append_us", "us", Lower),
    layer("core.snapshot.build_ms", "ms", Lower),
    layer("core.history.log_append_us", "us", Lower),
    layer("core.history.log_replay_ms", "ms", Lower),
    layer("core.position.intern_ns", "ns", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Higher),
    layer("bench.ledger_residual_ratio", "ratio", Lower),
    layer("bench.generator_late_ratio", "ratio", Lower),
    layer("bench.round_spread", "ratio", Lower),
    layer("bench.timer_ns", "ns", Lower),
    layer("bench.latency_p99_us", "us", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}
