//! Bench for the sharded engine: acquisition throughput of the real-thread
//! runtime as a function of shard count.
//!
//! Mirrors the workload the global-engine-lock discussion of §4 worries
//! about: many threads performing uncontended acquisitions (each thread owns
//! a private slice of the lock space). With `shards = 1` every hook
//! serializes through one mutex — the paper's design; with `shards = 16`
//! the hooks of locks on different shards never touch the same mutex, so
//! the per-acquisition cost stays flat as threads are added. The printed
//! ratio is the acceptance figure: sharded throughput at 16 threads must not
//! fall below 0.8x the single-lock baseline on any host (`check_bench`'s
//! gate, asserted here too), and must be at least 2x on hosts with >= 8 CPUs.
//!
//! A second cell covers the tier above the locked engine: thread owners at
//! clean sites on private `ImmuneMutex`es are admitted lock-free, so two of
//! them share neither a lock nor a shard mutex — and must share no written
//! cache line either. `tier1_contention_ratio` is the per-thread cost of a
//! section with two threads running over the cost with one; `check_bench`
//! gates it at <= 1.5.

use dimmunix_bench::report::{write_bench_json, BenchJson};
use dimmunix_core::{History, Signature, SignatureKind, SignaturePair};
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, ImmuneMutex, TaskAcquire};
use std::sync::{Arc, Barrier};
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};
use workloads::synthetic_history;

/// Acquire/release pairs per thread per run.
const ITERS: usize = 30_000;
/// Private locks per thread (spread over shards by the router).
const LOCKS_PER_THREAD: usize = 8;
/// Lock-free sections per thread per round of the tier-1 cell.
const TIER1_SECTIONS: usize = 1_000_000;
/// Rounds of the tier-1 cell; the fastest is reported.
const TIER1_ROUNDS: usize = 3;

/// The bench never parks (private locks, empty history), so its waker is
/// never fired.
struct NoopWake;

impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

/// The workers' scope and file.
const WORKER_SCOPE: &str = "ShardBench.worker";
const WORKER_FILE: &str = "engine_sharded.rs";

/// One signature at the workers' scope and file, on a line no worker runs.
/// The admission filter keys a depth-1 site by scope and file alone, so it
/// doubts every worker's site, while no worker's position is in the history:
/// each request falls back from tier 1 and is decided by its home shard
/// alone (tier 2).
fn doubting_history() -> History {
    let never_run = AcquisitionSite::new(WORKER_SCOPE, WORKER_FILE, 1_000_000).to_call_stack();
    let mut history = History::new();
    history.add(Signature::new(
        SignatureKind::Deadlock,
        vec![SignaturePair::new(never_run.clone(), never_run)],
    ));
    history
}

/// One timed run: `threads` OS threads, each hammering its own private
/// locks through the three task hooks. Returns acquisitions per second.
fn run(threads: usize, shards: usize) -> f64 {
    // This bench is about the *locked* engine — the path every doubted
    // admission falls back to. Owners at clean sites are admitted lock-free
    // and never touch a shard lock, so the shard count would measure
    // nothing; the history makes tier 1 doubt every worker's site instead.
    // Each worker drives the task hooks, as a registered task.
    let rt = DimmunixRuntime::builder()
        .shards(shards)
        .history(doubting_history())
        .build();
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let rt = rt.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let locks: Vec<_> = (0..LOCKS_PER_THREAD).map(|_| rt.allocate_lock()).collect();
            let site = AcquisitionSite::new(WORKER_SCOPE, WORKER_FILE, t as u32);
            let task = rt.register_task(None);
            let waker = Waker::from(Arc::new(NoopWake));
            barrier.wait();
            for i in 0..ITERS {
                let lock = locks[i % LOCKS_PER_THREAD];
                let answer = rt.task_begin_acquire(task, lock, site, &waker);
                assert_eq!(answer, TaskAcquire::Granted, "never parks or deadlocks");
                rt.task_finish_acquire(task, lock);
                rt.task_release(task, lock);
            }
        }));
    }
    barrier.wait();
    let start = Instant::now();
    for h in handles {
        h.join().expect("worker panicked");
    }
    let elapsed = start.elapsed();
    let total = (threads * ITERS) as f64;
    let stats = rt.stats();
    assert_eq!(stats.acquisitions, total as u64);
    assert_eq!(stats.deadlocks_detected, 0);
    assert_eq!(
        stats.local_decisions, total as u64,
        "every request on tier 2"
    );
    total / elapsed.as_secs_f64()
}

/// One round of the tier-1 cell: `threads` OS threads, each taking un-nested
/// sections on its own private `ImmuneMutex`es at its own clean site through
/// the thread hooks. Every section is a lock-free admission (asserted), so
/// the threads meet in the admission summary and nowhere else. Returns the
/// mean over threads of a thread's own ns per section.
fn tier1_round(threads: usize) -> f64 {
    let rt = DimmunixRuntime::builder().build();
    let start = Barrier::new(threads);
    let per_thread: Vec<Duration> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (rt, start) = (&rt, &start);
                scope.spawn(move || {
                    let locks: Vec<ImmuneMutex<u64>> = (0..LOCKS_PER_THREAD)
                        .map(|_| ImmuneMutex::new_in(rt, 0))
                        .collect();
                    let site = AcquisitionSite::new("Tier1.worker", "engine_sharded.rs", t as u32);
                    start.wait();
                    let begin = Instant::now();
                    for i in 0..TIER1_SECTIONS {
                        *locks[i % LOCKS_PER_THREAD]
                            .lock_at(site)
                            .expect("clean site") += 1;
                    }
                    let elapsed = begin.elapsed();
                    rt.retire_current_thread();
                    elapsed
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    let stats = rt.stats();
    assert_eq!(stats.fast_admits, (threads * TIER1_SECTIONS) as u64);
    assert_eq!(stats.slow_fallbacks, 0);
    let total_ns: f64 = per_thread.iter().map(|d| d.as_nanos() as f64).sum();
    total_ns / (threads * TIER1_SECTIONS) as f64
}

/// Fastest of [`TIER1_ROUNDS`] rounds at `threads` threads.
fn tier1_ns_per_section(threads: usize) -> f64 {
    (0..TIER1_ROUNDS)
        .map(|_| tier1_round(threads))
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    println!("engine_sharded: uncontended acquisition throughput (acq/sec), higher is better");
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut ratio_at_16 = 0.0;
    let mut rows = BenchJson::new();
    for &threads in &[1usize, 4, 16] {
        let single = run(threads, 1);
        let sharded = run(threads, 16);
        let ratio = sharded / single;
        println!(
            "threads={threads:>2}  shards=1 {single:>12.0}  shards=16 {sharded:>12.0}  ratio {ratio:>5.2}x"
        );
        rows = rows.obj(
            &format!("t{threads}"),
            BenchJson::new()
                .num("single_acq_per_sec", single)
                .num("sharded16_acq_per_sec", sharded)
                .num("ratio", ratio),
        );
        if threads == 16 {
            ratio_at_16 = ratio;
        }
    }
    // Memory: the history snapshot is shared, not replicated per shard, so
    // a platform-scale synthetic history must cost (almost) the same at 16
    // shards as at 1 — the observable win of the shared-history refactor.
    const SYNTHETIC_SIGNATURES: usize = 1000;
    let footprint = |shards: usize| {
        DimmunixRuntime::builder()
            .shards(shards)
            .history(synthetic_history(SYNTHETIC_SIGNATURES))
            .build()
            .memory_footprint_bytes()
    };
    let (mem1, mem16) = (footprint(1), footprint(16));
    let mem_ratio = mem16 as f64 / mem1 as f64;
    println!(
        "memory_footprint_bytes ({SYNTHETIC_SIGNATURES}-signature synthetic history): \
         shards=1 {mem1}  shards=16 {mem16}  ratio {mem_ratio:.3}x (shared history: target <= 1.1x)"
    );
    // Tier 1: two threads on disjoint locks must cost each other nothing.
    // One CPU runs them in turn, which measures the scheduler: skip.
    let tier1_ns_t1 = tier1_ns_per_section(1);
    let (tier1_ns_t2, tier1_contention_ratio) = if cpus >= 2 {
        let t2 = tier1_ns_per_section(2);
        (t2, t2 / tier1_ns_t1)
    } else {
        println!("tier 1: one CPU, the 2-thread run is skipped and the ratio written as 1.0");
        (tier1_ns_t1, 1.0)
    };
    println!(
        "tier 1 (private ImmuneMutexes, clean sites): 1 thread {tier1_ns_t1:.1} ns/section, \
         2 threads {tier1_ns_t2:.1} ns/section per thread, ratio {tier1_contention_ratio:.2}x \
         (target <= 1.5x: tier 1 shares no written line)"
    );
    let report = BenchJson::new()
        .str("bench", "engine_sharded")
        .str("unit", "acq_per_sec")
        .int("cpus", cpus as u64)
        .obj("throughput", rows)
        .num("ratio_at_16", ratio_at_16)
        .num("mem_ratio", mem_ratio)
        .num("tier1_ns_t1", tier1_ns_t1)
        .num("tier1_ns_t2", tier1_ns_t2)
        .num("tier1_contention_ratio", tier1_contention_ratio);
    let path = write_bench_json("engine_sharded", &report).expect("write bench report");
    println!("report: {}", path.display());

    assert!(
        mem_ratio <= 1.1,
        "the shared history must not be replicated per shard, got {mem_ratio:.3}x"
    );

    println!(
        "acceptance: 16 threads / 16 shards vs single lock = {ratio_at_16:.2}x \
         (target >= 2x on hosts with >= 8 CPUs; this host has {cpus})"
    );
    if cpus >= 8 {
        // With real hardware parallelism the single engine lock serializes
        // all 16 threads while the sharded engine lets them run; anything
        // under 2x is a scaling regression.
        assert!(
            ratio_at_16 >= 2.0,
            "sharding must at least double 16-thread acquisition throughput, got {ratio_at_16:.2}x"
        );
    } else {
        // A core-starved host executes both configurations serially, so the
        // ratio can only demonstrate contention-overhead parity: the sharded
        // engine must not lose throughput to its routing layer. (Generous
        // floor: single-core timings on shared CI runners are noisy.)
        assert!(
            ratio_at_16 >= 0.8,
            "sharded engine must not regress contended throughput, got {ratio_at_16:.2}x"
        );
    }
}
