//! Direct probes: one layer at a time, called through its public functions
//! on objects built from the workload's own history, single-threaded unless
//! the layer is about a hand-off between threads.
//!
//! Nothing here touches the runtime the workload ran on, so its counters
//! stay checkable; the probes replay the same persisted log into a runtime
//! of their own.

use crate::inputs::{clean_sites, synthetic_signature};
use crate::run::Heartbeat;
use crate::stats::median;
use crate::workloads::{build_runtime, Inputs};
use dimmunix_core::{
    AdmissionSummary, CallStack, Config, Dimmunix, Frame, HistoryLog, HistorySnapshot, LockId,
    OwnerId, RequestOutcome, ShardedDimmunix, Signature, SignatureKind, SignaturePair,
    StackInterner, DEFAULT_LOG_SEGMENT_RECORDS, DEFAULT_STACK_DEPTH,
};
use dimmunix_rt::asyncio::{yield_now, Executor};
use dimmunix_rt::{DimmunixRuntime, ImmuneMutex, ImmuneRwLock};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Calls `f` in batches of `batch` until `budget` has passed or `max_calls`
/// were made; the median over batches of nanoseconds per call.
fn time_calls(budget: Duration, batch: usize, max_calls: usize, mut f: impl FnMut()) -> f64 {
    let began = Instant::now();
    let mut per_call = Vec::new();
    let mut calls = 0;
    while per_call.is_empty() || (began.elapsed() < budget && calls + batch <= max_calls) {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(start.elapsed().as_nanos() as f64 / batch as f64);
        calls += batch;
    }
    median(&per_call)
}

const NO_CAP: usize = usize::MAX;

fn stack(name: &str) -> CallStack {
    CallStack::single(Frame::new(name, "probe.rs", 1))
}

/// Fills in every probe-measured metric of `m`, giving each probe an equal
/// share of `total`.
pub fn run(
    workload_rt: &DimmunixRuntime,
    inputs: &Inputs,
    total: Duration,
    beat: &Heartbeat,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let budget = total / 21;
    let mut put = |name: &'static str, value: f64| {
        m.insert(name, value);
        beat.beat();
    };
    let history = workload_rt.history();
    let signatures = history.len().max(1);
    let rt = build_runtime(&inputs.log);
    let clean_site = clean_sites("Probe.section", 1, rt.admission_summary())[0];
    let clean_stack = clean_site.to_call_stack();

    // --- rt.* -----------------------------------------------------------
    put("rt.runtime.park_wake_us", park_wake_us(&history, budget));
    {
        let fresh = DimmunixRuntime::builder().history(history.clone()).build();
        let mut novel = (0..).map(|i| synthetic_signature("ProbeAdd", i));
        put(
            "rt.runtime.add_signature_us",
            time_calls(budget, 8, 512, || {
                fresh.add_signature(novel.next().expect("endless"));
            }) / 1e3,
        );
    }
    put(
        "rt.runtime.footprint_bytes_per_signature",
        (rt.memory_footprint_bytes() as f64
            - DimmunixRuntime::new().memory_footprint_bytes() as f64)
            / signatures as f64,
    );
    put(
        "rt.site.cold_stack_ns",
        time_calls(budget, 256, NO_CAP, || {
            black_box(black_box(clean_site).to_call_stack().site_key());
        }),
    );
    {
        let mutex = ImmuneMutex::new_in(&rt, 0u64);
        put(
            "rt.mutex.section_ns",
            time_calls(budget, 1024, NO_CAP, || {
                *mutex.lock_at(clean_site).expect("clean site") += 1;
            }),
        );
        let rwlock = ImmuneRwLock::new_in(&rt, 0u64);
        put(
            "rt.rwlock.read_section_ns",
            time_calls(budget, 1024, NO_CAP, || {
                black_box(*rwlock.read_at(clean_site).expect("clean site"));
            }),
        );
        put(
            "rt.rwlock.write_section_ns",
            time_calls(budget, 1024, NO_CAP, || {
                *rwlock.write_at(clean_site).expect("clean site") += 1;
            }),
        );
        let bare = Mutex::new(0u64);
        put(
            "std.lock_unlock_ns",
            time_calls(budget, 1024, NO_CAP, || {
                *bare.lock().expect("never poisoned") += 1;
            }),
        );
    }
    put(
        "rt.asyncio.executor_poll_ns",
        time_calls(budget, 1, NO_CAP, || {
            let ex = Executor::new_in(&rt, 4);
            for _ in 0..256 {
                ex.spawn(async {
                    for _ in 0..15 {
                        yield_now().await;
                    }
                });
            }
            black_box(ex.run());
        }) / (256.0 * 16.0),
    );

    // --- core.admission -------------------------------------------------
    {
        let summary = rt.admission_summary();
        let key = clean_stack.site_key();
        put(
            "core.admission.try_admit_ns",
            time_calls(budget, 1024, NO_CAP, || {
                black_box(summary.try_admit(black_box(key), OwnerId::thread(1)));
            }),
        );
        let snapshot = rt.history_snapshot();
        put(
            "core.admission.absorb_snapshot_us",
            time_calls(budget, 1, NO_CAP, || {
                AdmissionSummary::new().absorb_snapshot(&snapshot);
            }) / 1e3,
        );
    }

    // --- core.sharded / core.engine / core.avoidance / core.detection ---
    {
        let shards = rt.shard_count();
        let mut engine = ShardedDimmunix::with_history(Config::default(), shards, history.clone());
        let owner = OwnerId::thread(1);
        engine.register_owner(owner);
        let held = LockId::new(1);
        // A second lock on another shard where there is one.
        let other = (2..66)
            .map(LockId::new)
            .find(|l| shards == 1 || engine.shard_of(*l) != engine.shard_of(held))
            .expect("64 consecutive ids cover two shards");
        engine.register_lock(held);
        engine.register_lock(other);
        let mut wake = Vec::new();
        let mut cycle = |engine: &mut ShardedDimmunix| {
            black_box(engine.request(owner, other, &clean_stack));
            engine.acquired(owner, other);
            engine.released_into(owner, other, &mut wake);
        };
        put(
            "core.sharded.local_cycle_ns",
            time_calls(budget, 256, NO_CAP, || cycle(&mut engine)),
        );
        assert!(engine
            .request(owner, held, &stack("Probe.held"))
            .is_granted());
        engine.acquired(owner, held);
        put(
            "core.sharded.cross_cycle_ns",
            time_calls(budget, 256, NO_CAP, || cycle(&mut engine)),
        );
    }
    {
        let mut engine = Dimmunix::with_history(Config::default(), history.clone());
        let (t1, t2) = (OwnerId::thread(1), OwnerId::thread(2));
        let (l1, l2) = (LockId::new(1), LockId::new(2));
        engine.register_owner(t1);
        engine.register_owner(t2);
        let mut wake = Vec::new();
        let mut cycle = |engine: &mut Dimmunix, at: &CallStack| {
            black_box(engine.request(t1, l1, at));
            engine.acquired(t1, l1);
            engine.released_into(t1, l1, &mut wake);
        };
        put(
            "core.engine.cycle_ns",
            time_calls(budget, 256, NO_CAP, || cycle(&mut engine, &clean_stack)),
        );
        // The first two-thread signature of the history: a grant at one of
        // its outer positions runs the instantiation check for real, and
        // with the other outer position occupied the answer is a yield.
        let two_way = history
            .iter()
            .map(|(_, sig)| sig)
            .find(|sig| sig.arity() == 2)
            .expect("every history starts with two-thread background signatures");
        let (a, b) = (&two_way.pairs()[0].outer, &two_way.pairs()[1].outer);
        put(
            "core.avoidance.check_ns",
            time_calls(budget, 256, NO_CAP, || cycle(&mut engine, a)),
        );
        assert!(engine.request(t1, l1, a).is_granted());
        engine.acquired(t1, l1);
        put(
            "core.avoidance.yield_decision_ns",
            time_calls(budget, 64, NO_CAP, || {
                let answer = engine.request(t2, l2, b);
                debug_assert!(matches!(answer, RequestOutcome::Yield { .. }));
                black_box(answer);
                engine.cancel_request(t2, l2);
            }),
        );
        engine.released(t1, l1);
        put("core.detection.detect_us", detect_us(&mut engine, budget));
    }

    // --- core.snapshot / core.history / core.position --------------------
    {
        let base = rt.history_snapshot();
        let batch: Vec<Signature> = (0..32)
            .map(|i| synthetic_signature("ProbeAppend", i))
            .collect();
        let mut epochs = Vec::with_capacity(batch.len());
        put(
            "core.snapshot.append_us",
            time_calls(budget, 1, NO_CAP, || {
                // Replaced epochs are parked and dropped by the next call's
                // clear: the engine drops them off the detection path too.
                epochs.clear();
                let mut snapshot = Arc::clone(&base);
                for sig in &batch {
                    let (next, _, _) = snapshot.append(sig.clone());
                    epochs.push(std::mem::replace(&mut snapshot, next));
                }
                black_box(&snapshot);
            }) / 32.0
                / 1e3,
        );
        put(
            "core.snapshot.build_ms",
            time_calls(budget, 1, NO_CAP, || {
                black_box(HistorySnapshot::build(history.clone(), DEFAULT_STACK_DEPTH));
            }) / 1e6,
        );
    }
    {
        let path = inputs.log.with_extension("probe");
        let log = HistoryLog::new(&path)
            .with_sync(false)
            .with_segment_records(DEFAULT_LOG_SEGMENT_RECORDS);
        log.rewrite(&history).expect("scratch is writable");
        let mut novel = (0..).map(|i| synthetic_signature("ProbeLog", i));
        put(
            "core.history.log_append_us",
            time_calls(budget, 8, 256, || {
                log.append(&novel.next().expect("endless"))
                    .expect("scratch is writable");
            }) / 1e3,
        );
        let workload_log = HistoryLog::new(&inputs.log);
        put(
            "core.history.log_replay_ms",
            time_calls(budget, 1, NO_CAP, || {
                black_box(
                    workload_log
                        .replay()
                        .expect("the log was written by this run"),
                );
            }) / 1e6,
        );
    }
    {
        let interner = StackInterner::new();
        interner.intern(&clean_stack);
        put(
            "core.position.intern_ns",
            time_calls(budget, 1024, NO_CAP, || {
                black_box(interner.intern(black_box(&clean_stack)));
            }),
        );
    }
    rt.retire_current_thread();
}

/// The closing request of a fresh AB/BA cycle — cycle search, signature
/// construction and the snapshot append — in microseconds.
fn detect_us(engine: &mut Dimmunix, budget: Duration) -> f64 {
    let (t1, t2) = (OwnerId::thread(1), OwnerId::thread(2));
    let (l1, l2) = (LockId::new(1), LockId::new(2));
    let began = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || (began.elapsed() < budget && samples.len() < 256) {
        // Fresh positions each time, or the detection would find its own
        // earlier signature and append nothing.
        let i = samples.len();
        let at = |role: &str| stack(&format!("Detect{i}.{role}"));
        assert!(engine.request(t1, l1, &at("a")).is_granted());
        engine.acquired(t1, l1);
        assert!(engine.request(t2, l2, &at("b")).is_granted());
        engine.acquired(t2, l2);
        assert!(engine.request(t1, l2, &at("c")).is_granted());
        let closing = at("d");
        let start = Instant::now();
        let answer = engine.request(t2, l1, &closing);
        samples.push(start.elapsed().as_nanos() as f64 / 1e3);
        assert!(matches!(answer, RequestOutcome::DeadlockDetected { .. }));
        engine.cancel_request(t2, l1);
        engine.cancel_request(t1, l2);
        engine.released(t2, l2);
        engine.released(t1, l1);
    }
    median(&samples)
}

/// Two-thread hand-off through an avoidance park: from the holder's release
/// to the parked thread's `lock_at` returning, in microseconds.
fn park_wake_us(history: &dimmunix_core::History, budget: Duration) -> f64 {
    let rt = DimmunixRuntime::builder().history(history.clone()).build();
    let sites = clean_sites("ProbePark", 4, &AdmissionSummary::new());
    let (holder_site, parker_site) = (sites[0], sites[1]);
    rt.add_signature(Signature::new(
        SignatureKind::Deadlock,
        vec![
            SignaturePair::new(holder_site.to_call_stack(), sites[2].to_call_stack()),
            SignaturePair::new(parker_site.to_call_stack(), sites[3].to_call_stack()),
        ],
    ));
    let held = ImmuneMutex::new_in(&rt, ());
    let wanted = ImmuneMutex::new_in(&rt, ());
    let (go, gone) = mpsc::channel::<()>();
    let (granted, was_granted) = mpsc::channel::<Instant>();
    let began = Instant::now();
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let (rt, wanted) = (&rt, &wanted);
        scope.spawn(move || {
            // Each request at the parker's site meets the holder at its own:
            // granting would instantiate the signature, so the thread parks.
            while gone.recv().is_ok() {
                let guard = wanted.lock_at(parker_site).expect("no cycle here");
                let now = Instant::now();
                drop(guard);
                granted.send(now).expect("the prober is listening");
            }
            rt.retire_current_thread();
        });
        while samples.is_empty() || (began.elapsed() < budget && samples.len() < 512) {
            let guard = held.lock_at(holder_site).expect("no cycle here");
            go.send(()).expect("the parker is listening");
            while rt.admission_summary().parked_total() == 0 {
                std::thread::yield_now();
            }
            // Let the parker get from "counted as parked" onto its condvar.
            std::thread::sleep(Duration::from_micros(200));
            let released = Instant::now();
            drop(guard);
            let at = was_granted.recv().expect("the parker answers");
            samples.push((at - released).as_nanos() as f64 / 1e3);
        }
        drop(go);
    });
    rt.retire_current_thread();
    median(&samples)
}
