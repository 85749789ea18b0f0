//! One run of one workload: inputs from the seed, timed set-up, warm-up,
//! alternating immune and bare rounds, and either the end-to-end metrics
//! (untraced) or the per-layer metrics (traced).

use crate::probes;
use crate::spans::{Spans, Stage};
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{greatest, least, median, percentile, spread};
use crate::workloads::{generate, Inputs, Round, Workload};
use dimmunix_core::Stats;
use dimmunix_rt::DimmunixRuntime;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long each part of a run lasts.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Length of the measured part.
    pub seconds: f64,
    /// Length of one side of one round.
    pub round: Duration,
    pub warmup: Duration,
    /// Cold set-ups timed before the rounds; one more is timed before every
    /// round pair, and `setup_s` is the fastest of all.
    pub setups: usize,
    /// Requests per pass of the async server.
    pub requests: usize,
}

impl Plan {
    pub fn standard(seconds: f64) -> Plan {
        Plan {
            seconds,
            round: Duration::from_millis(500),
            warmup: Duration::from_secs(1),
            setups: 9,
            requests: crate::inputs::SERVER_REQUESTS,
        }
    }
}

/// A phase counter the watchdog reads: a run that stops advancing it has
/// hung.
#[derive(Debug, Default)]
pub struct Heartbeat(AtomicU64);

impl Heartbeat {
    pub fn beat(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    pub fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
pub struct Value {
    pub spec: &'static MetricSpec,
    pub value: f64,
    /// Interquartile range over the median of the per-round values behind
    /// the figure; 0 where there is only one.
    pub spread: f64,
    /// Samples behind a latency percentile; 0 for other metrics.
    pub samples: u64,
}

#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub values: Vec<Value>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

/// Round pair `r`. Pairs alternate: `[immune, bare]`, then `[bare, immune]`,
/// and so on, so neither side always runs on the machine the other one
/// warmed or disturbed.
fn pair(w: &mut dyn Workload, r: usize, len: Duration, beat: &Heartbeat) -> (Round, Round) {
    let (immune, bare);
    if r.is_multiple_of(2) {
        immune = w.immune(len);
        beat.beat();
        bare = w.bare(len);
    } else {
        bare = w.bare(len);
        beat.beat();
        immune = w.immune(len);
    }
    beat.beat();
    (immune, bare)
}

/// Set-up times, in seconds for the whole and milliseconds for the runtime.
///
/// The host has spells, a few milliseconds to a minute long, in which broad
/// single-thread code such as set-up runs 1.45 times as slow (a pure
/// multiply chain does not slow at all, and emptying the caches first
/// changes nothing: it looks like a neighbour on the sibling hyperthread).
/// Twenty-five set-ups back to back often fall inside one spell, and whole
/// runs came out at 5.5 ms instead of 3.8 ms. So a run spreads its set-ups
/// over its whole length, and like every single-thread timing `setup_s` is
/// the fastest of them: it moves only when the whole run was disturbed.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    build_ms: Vec<f64>,
}

impl SetupTimes {
    /// One more cold set-up, timed.
    fn time(&mut self, inputs: &Inputs) -> Box<dyn Workload> {
        let (workload, whole, built) = inputs.setup();
        self.setup_s.push(whole.as_secs_f64());
        self.build_ms.push(built.as_secs_f64() * 1e3);
        workload
    }
}

struct Ready {
    inputs: Inputs,
    workload: Box<dyn Workload>,
    setups: SetupTimes,
    /// Output checks that did not hold on workloads already replaced.
    failures: Vec<String>,
}

impl Ready {
    /// Times one more set-up. On `history_churn` the rounds that follow run
    /// on it, so that each round pair starts from the same history, and the
    /// workload they ran on so far is checked; elsewhere it is dropped.
    fn set_up_again(&mut self) {
        let fresh = self.setups.time(&self.inputs);
        if self.inputs.churn {
            let used = std::mem::replace(&mut self.workload, fresh);
            self.failures.extend(used.check());
        }
    }
}

fn prepare(name: &str, seed: u64, plan: &Plan, scratch: &Path, beat: &Heartbeat) -> Ready {
    let inputs = generate(name, seed, scratch, plan.requests);
    beat.beat();
    let mut setups = SetupTimes::default();
    for _ in 1..plan.setups {
        // Cold: each is dropped before the next is built.
        drop(setups.time(&inputs));
    }
    let mut workload = setups.time(&inputs);
    beat.beat();
    let began = Instant::now();
    while began.elapsed() < plan.warmup {
        workload.immune(plan.round / 4);
        workload.bare(plan.round / 4);
        beat.beat();
    }
    Ready {
        inputs,
        workload,
        setups,
        failures: Vec::new(),
    }
}

fn latency_us(sorted: &[u32], ops: f64, p: f64) -> f64 {
    percentile(sorted, p) / ops / 1e3
}

/// Runs `name` and returns its end-to-end metrics (`traced` false) or its
/// per-layer metrics (`traced` true).
pub fn run(
    name: &str,
    seed: u64,
    plan: &Plan,
    traced: bool,
    scratch: &Path,
    beat: &Heartbeat,
) -> Outcome {
    let mut ready = prepare(name, seed, plan, scratch, beat);
    let (values, attempted, failed) = if traced {
        per_layer(&mut ready, plan, beat)
    } else {
        end_to_end(&mut ready, plan, beat)
    };
    let mut failures = ready.failures;
    failures.extend(ready.workload.check());
    Outcome {
        workload: ready.inputs.name,
        traced,
        values,
        attempted,
        failed,
        failures,
    }
}

/// Values, operations attempted, operations failed.
type Measured = (Vec<Value>, u64, u64);

fn end_to_end(ready: &mut Ready, plan: &Plan, beat: &Heartbeat) -> Measured {
    let pairs = ((plan.seconds / (2.0 * plan.round.as_secs_f64())) as usize).max(2);
    let mut rounds = Vec::new();
    for r in 0..pairs {
        // One more timed set-up before every round pair; see `SetupTimes`.
        ready.set_up_again();
        rounds.push(pair(&mut *ready.workload, r, plan.round, beat));
    }
    let (workload, setups) = (&ready.workload, &ready.setups);

    let immune_ns: Vec<f64> = rounds.iter().map(|(i, _)| i.ns_per_op).collect();
    let bare_ns: Vec<f64> = rounds.iter().map(|(_, b)| b.ns_per_op).collect();
    let throughput: Vec<f64> = rounds.iter().map(|(i, _)| i.ops_per_s).collect();
    let cost: Vec<f64> = rounds
        .iter()
        .map(|(i, b)| i.ns_per_op - b.ns_per_op)
        .collect();
    let ratio: Vec<f64> = rounds
        .iter()
        .map(|(i, b)| i.ns_per_op / b.ns_per_op)
        .collect();

    let latency_ops = rounds[0].0.latency_ops;
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    let mut samples = 0;
    for (i, _) in &mut rounds {
        i.latency_ns.sort_unstable();
        p50s.push(latency_us(&i.latency_ns, latency_ops, 0.50));
        p90s.push(latency_us(&i.latency_ns, latency_ops, 0.90));
        samples += i.latency_ns.len();
    }

    // How the rounds of a run become one figure follows from what disturbs
    // them on a shared host; the README has the measurements.
    //
    // Code on one thread (the async server, the transfers, the `history_churn`
    // reader, every set-up) is only ever slowed down, by spells a few
    // milliseconds to a minute long in which it runs 1.3 to 1.5 times as slow
    // (a neighbour on the sibling hyperthread, by the look of it). Its best
    // round reads the same in a noisy hour as in a quiet one; the quartile and
    // the median of its rounds follow the hour. A real slow-down moves every
    // round, so it moves the best one too.
    //
    // Two load threads on one runtime (`flat_sections`) also have a fast mode,
    // seconds long, in which whatever passes between the two CPUs costs a
    // fraction of the usual: where the hypervisor put the CPUs. Their best
    // round is the luck of the run, and the median round is the steady figure.
    let contended = ready.inputs.load_threads() > 1;
    let typical = |times: &[f64]| {
        if contended {
            median(times)
        } else {
            least(times)
        }
    };
    let typical_rate = if contended {
        median(&throughput)
    } else {
        greatest(&throughput)
    };
    let footprint_kib = workload.runtime().memory_footprint_bytes() as f64 / 1024.0;
    let figures = [
        (least(&setups.setup_s), spread(&setups.setup_s), 0),
        (typical_rate, spread(&throughput), 0),
        (typical(&immune_ns) - typical(&bare_ns), spread(&cost), 0),
        (typical(&immune_ns) / typical(&bare_ns), spread(&ratio), 0),
        (typical(&p50s), spread(&p50s), samples),
        (typical(&p90s), spread(&p90s), samples),
        (footprint_kib, 0.0, 0),
    ];
    let values = END_TO_END
        .iter()
        .zip(figures)
        .map(|(spec, (value, spread, samples))| Value {
            spec,
            value,
            spread,
            samples: samples as u64,
        })
        .collect();
    let attempted = rounds.iter().map(|(i, b)| i.attempted + b.attempted).sum();
    let failed = rounds.iter().map(|(i, b)| i.failed + b.failed).sum();
    (values, attempted, failed)
}

/// The runtime's counters at one instant. Bare rounds never touch the
/// runtime, so a difference taken around alternating rounds is the immune
/// rounds' alone.
struct Counters {
    stats: Stats,
    fast_acquires: u64,
    published: u64,
}

impl Counters {
    fn read(rt: &DimmunixRuntime) -> Counters {
        let summary = rt.admission_summary();
        Counters {
            stats: rt.stats(),
            fast_acquires: summary.fast_acquires(),
            published: summary.published(),
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn per_layer(ready: &mut Ready, plan: &Plan, beat: &Heartbeat) -> Measured {
    // A quarter of the time on untraced rounds (the counters, and the base
    // of the tracing overhead), a quarter on traced rounds, half on probes.
    let pairs = ((plan.seconds / 4.0 / (2.0 * plan.round.as_secs_f64())) as usize).max(2);
    let mut rounds = Vec::new();
    // The runtime's counters before and after each round pair.
    let mut counters = Vec::new();
    for r in 0..pairs {
        ready.set_up_again();
        let before = Counters::read(ready.workload.runtime());
        rounds.push(pair(&mut *ready.workload, r, plan.round, beat));
        counters.push((before, Counters::read(ready.workload.runtime())));
    }
    let counted = |f: fn(&Counters) -> u64| -> u64 {
        counters
            .iter()
            .map(|(before, after)| f(after) - f(before))
            .sum()
    };
    let mut traced = Vec::new();
    for r in 0..2 * pairs {
        // Two traced rounds are as long as one untraced.
        if r.is_multiple_of(2) {
            ready.set_up_again();
        }
        traced.push(ready.workload.traced(plan.round / 2));
        beat.beat();
    }
    let Ready {
        inputs,
        workload,
        setups,
        ..
    } = &*ready;

    let immune_ns: Vec<f64> = rounds.iter().map(|(i, _)| i.ns_per_op).collect();
    let bare_ns = median(&rounds.iter().map(|(_, b)| b.ns_per_op).collect::<Vec<_>>());
    let immune_tput = median(&rounds.iter().map(|(i, _)| i.ops_per_s).collect::<Vec<_>>());
    let traced_tput = median(&traced.iter().map(|r| r.ops_per_s).collect::<Vec<_>>());
    let ops: u64 = rounds.iter().map(|(i, _)| i.ops).sum();
    let kops = ops as f64 / 1e3;
    let polls: u64 = rounds.iter().map(|(i, _)| i.polls).sum();
    let (due, late) = rounds
        .iter()
        .map(|(i, _)| i)
        .chain(&traced)
        .fold((0, 0), |(d, l), r| (d + r.due, l + r.late));

    let mut latency: Vec<u32> = rounds
        .iter()
        .flat_map(|(i, _)| i.latency_ns.iter().copied())
        .collect();
    latency.sort_unstable();
    let latency_p99_us = latency_us(&latency, rounds[0].0.latency_ops, 0.99);
    let mut installs: Vec<u32> = rounds
        .iter()
        .flat_map(|(i, _)| i.installs_ns.iter().copied())
        .collect();
    installs.sort_unstable();

    let mut spans = Spans::default();
    let mut traced_ops = 0;
    for r in &traced {
        spans.merge(&r.spans);
        traced_ops += r.ops;
    }
    let section_ns = median(&immune_ns);
    let traced_ns = median(&traced.iter().map(|r| r.ns_per_op).collect::<Vec<_>>());
    let timer_ns = spans.clock_read_ns(traced_ns, section_ns, traced_ops);
    // The ledger: an immune operation is its bare twin plus the time inside
    // the hooks plus whatever the wrapper types add themselves.
    use Stage::*;
    let hooks_ns = spans.per_op_ns(
        &[
            BeforeAcquireFast,
            BeforeAcquireNested,
            AfterAcquireFast,
            AfterAcquireEngine,
            BeforeReleaseFast,
            BeforeReleaseEngine,
            TaskBeginAcquire,
            TaskFinishAcquire,
            TaskRelease,
        ],
        timer_ns,
        traced_ops,
    );
    let wrapper_self_ns = section_ns - bare_ns - hooks_ns;
    let is_async = polls > 0;

    let rt = workload.runtime().clone();
    let acquisitions = counted(|c| c.stats.acquisitions);
    let fast_admits = counted(|c| c.stats.fast_admits);
    let slow_fallbacks = counted(|c| c.stats.slow_fallbacks);
    let span = |stage| spans.mean_ns(stage, timer_ns);
    let mut m: BTreeMap<&str, f64> = BTreeMap::from([
        ("rt.runtime.before_acquire_fast_ns", span(BeforeAcquireFast)),
        (
            "rt.runtime.before_acquire_nested_ns",
            span(BeforeAcquireNested),
        ),
        ("rt.runtime.after_acquire_fast_ns", span(AfterAcquireFast)),
        (
            "rt.runtime.after_acquire_engine_ns",
            span(AfterAcquireEngine),
        ),
        ("rt.runtime.before_release_fast_ns", span(BeforeReleaseFast)),
        (
            "rt.runtime.before_release_engine_ns",
            span(BeforeReleaseEngine),
        ),
        ("rt.asyncio.task_begin_acquire_ns", span(TaskBeginAcquire)),
        ("rt.asyncio.task_finish_acquire_ns", span(TaskFinishAcquire)),
        ("rt.asyncio.task_release_ns", span(TaskRelease)),
        (
            "rt.runtime.lockfree_acquire_ratio",
            ratio(counted(|c| c.fast_acquires), acquisitions),
        ),
        (
            "rt.runtime.publishes_per_kop",
            counted(|c| c.published) as f64 / kops,
        ),
        (
            "rt.runtime.install_p50_us",
            latency_us(&installs, 1.0, 0.50),
        ),
        (
            "rt.runtime.install_p90_us",
            latency_us(&installs, 1.0, 0.90),
        ),
        ("rt.runtime.build_ms", least(&setups.build_ms)),
        ("rt.mutex.wrapper_self_ns", wrapper_self_ns),
        ("rt.asyncio.polls_per_request", ratio(polls, ops)),
        (
            "rt.asyncio.bare_request_us",
            if is_async { bare_ns / 1e3 } else { 0.0 },
        ),
        (
            "core.admission.fast_admit_ratio",
            ratio(fast_admits, fast_admits + slow_fallbacks),
        ),
        (
            "core.admission.slow_fallbacks_per_kop",
            slow_fallbacks as f64 / kops,
        ),
        (
            "core.admission.degradation_scope_hits",
            counted(|c| c.stats.degradation_scope_hits) as f64,
        ),
        (
            "core.engine.yields_per_kop",
            counted(|c| c.stats.yields) as f64 / kops,
        ),
        (
            "core.engine.deadlocks_detected",
            counted(|c| c.stats.deadlocks_detected) as f64,
        ),
        (
            "core.avoidance.signatures_examined_per_request",
            ratio(
                counted(|c| c.stats.signatures_examined),
                counted(|c| c.stats.requests),
            ),
        ),
        ("core.detection.learn_run_ms", inputs.learn_ms),
        ("core.detection.signatures_learned", inputs.learned as f64),
        ("bench.trace_overhead_ratio", traced_tput / immune_tput),
        (
            "bench.ledger_residual_ratio",
            wrapper_self_ns.abs() / section_ns,
        ),
        ("bench.generator_late_ratio", ratio(late, due)),
        ("bench.round_spread", spread(&immune_ns)),
        ("bench.timer_ns", timer_ns),
        ("bench.latency_p99_us", latency_p99_us),
    ]);

    let probe_time = Duration::from_secs_f64(plan.seconds / 2.0);
    probes::run(&rt, inputs, probe_time, beat, &mut m);

    let values = PER_LAYER
        .iter()
        .map(|spec| Value {
            spec,
            value: *m
                .get(spec.name)
                .unwrap_or_else(|| panic!("no value measured for declared metric {}", spec.name)),
            spread: 0.0,
            samples: 0,
        })
        .collect();
    assert_eq!(
        m.len(),
        PER_LAYER.len(),
        "a measured metric is not declared"
    );
    let all = rounds.iter().flat_map(|(i, b)| [i, b]).chain(&traced);
    let (attempted, failed) = all.fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    (values, attempted, failed)
}
