//! The §5 performance microbenchmark, on real threads.
//!
//! Quoting the paper: the microbenchmark runs 2–512 threads executing
//! `synchronized` blocks on *random lock objects* (to avoid contention, which
//! would hide the overhead), uses busy-waits instead of sleeps to simulate
//! computation inside and outside the critical sections, and loads a history
//! of 64–256 synthetic signatures. Vanilla Android executes 1738–1756
//! synchronizations per second; with Dimmunix 1657–1681 — a 4–5% overhead,
//! dominated by call-stack retrieval.
//!
//! The reproduction runs the same structure on the host with
//! `dimmunix-rt`'s [`ImmuneMutex`]: each thread loops over `iterations`
//! synchronized sections on its own slice of a shared lock pool (no
//! contention), burning a configurable number of busy-wait units inside and
//! outside the critical section. The baseline runs the identical loop on
//! bare `std::sync::Mutex` — what the paper calls *vanilla* — so the
//! measured difference is the full cost of the Dimmunix hooks. (It used to
//! route the baseline through the hooks with a disabled engine; once the
//! lock-free admission path landed, that "baseline" still paid a shard
//! lock per section that the enabled runtime no longer takes, and the
//! bench reported a negative overhead.)

use crate::synthetic::synthetic_history;
use dimmunix_core::Config;
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, ImmuneMutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameters of one microbenchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicrobenchConfig {
    /// Number of worker threads (the paper sweeps 2–512).
    pub threads: usize,
    /// Synchronized sections executed per thread.
    pub iterations: usize,
    /// Lock objects per thread (random, uncontended access pattern).
    pub locks_per_thread: usize,
    /// Busy-wait units inside each critical section.
    pub work_inside: u64,
    /// Busy-wait units outside each critical section.
    pub work_outside: u64,
    /// Synthetic signatures pre-loaded into the history (paper: 64–256).
    pub synthetic_signatures: usize,
    /// Whether Dimmunix is enabled (false = vanilla baseline).
    pub dimmunix_enabled: bool,
    /// Engine shards the runtime partitions its lock space over (1 = the
    /// paper's single global engine lock).
    pub shards: usize,
}

impl Default for MicrobenchConfig {
    fn default() -> Self {
        MicrobenchConfig {
            threads: 8,
            iterations: 2_000,
            locks_per_thread: 4,
            work_inside: 150,
            work_outside: 350,
            synthetic_signatures: 128,
            dimmunix_enabled: true,
            shards: 1,
        }
    }
}

/// Result of one microbenchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicrobenchResult {
    /// Total synchronized sections executed.
    pub synchronizations: u64,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Avoidance yields observed (should be 0: the synthetic signatures never
    /// match the benchmark's sites).
    pub yields: u64,
    /// Deadlocks detected (must be 0).
    pub deadlocks: u64,
}

impl MicrobenchResult {
    /// Synchronizations per second.
    pub fn syncs_per_sec(&self) -> f64 {
        self.synchronizations as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Busy-wait for `units` of work (the paper uses busy waits because sleeps
/// hide the overhead).
#[inline]
pub fn busy_work(units: u64) -> u64 {
    let mut acc: u64 = 0x9e3779b97f4a7c15;
    for i in 0..units {
        acc = acc.rotate_left(7) ^ i.wrapping_mul(0x2545f4914f6cdd1d);
        std::hint::black_box(acc);
    }
    acc
}

/// A prepared microbenchmark: runtime constructed, synthetic history
/// loaded, and lock pools allocated — everything the §5 experiment treats
/// as setup, kept **outside** the timed region. [`run`](Self::run) then
/// times only the synchronized sections themselves, which is what the
/// paper's 4–5% figure measures (its benchmark processes are long-lived; VM
/// start-up and history parsing are not part of a synchronization).
#[derive(Debug)]
pub struct MicrobenchHarness {
    config: MicrobenchConfig,
    runtime: Arc<DimmunixRuntime>,
    pools: Vec<Arc<LockPool>>,
}

/// One worker's lock slice: immune when Dimmunix is enabled, bare
/// `std::sync::Mutex` for the vanilla baseline (no hooks at all — the
/// baseline must measure what an unprotected application pays).
#[derive(Debug)]
enum LockPool {
    Immune(Vec<ImmuneMutex<u64>>),
    Bare(Vec<std::sync::Mutex<u64>>),
}

impl MicrobenchHarness {
    /// Builds the runtime — the synthetic history is bulk-built into one
    /// shared snapshot that every engine shard reads — and the per-thread
    /// lock pools.
    pub fn new(config: &MicrobenchConfig) -> Self {
        let engine_config = if config.dimmunix_enabled {
            Config::default()
        } else {
            Config::disabled()
        };
        let runtime = DimmunixRuntime::builder()
            .config(engine_config)
            .shards(config.shards)
            .history(synthetic_history(if config.dimmunix_enabled {
                config.synthetic_signatures
            } else {
                0
            }))
            .build();

        // One pool of locks per thread: uncontended by construction. The
        // benchmark keeps its own (non-global) runtime so back-to-back
        // configurations measure from a clean engine.
        let locks = config.locks_per_thread.max(1);
        let pools: Vec<Arc<LockPool>> = (0..config.threads)
            .map(|_| {
                Arc::new(if config.dimmunix_enabled {
                    LockPool::Immune(
                        (0..locks)
                            .map(|_| ImmuneMutex::new_in(&runtime, 0u64))
                            .collect(),
                    )
                } else {
                    LockPool::Bare((0..locks).map(|_| std::sync::Mutex::new(0u64)).collect())
                })
            })
            .collect();

        MicrobenchHarness {
            config: *config,
            runtime,
            pools,
        }
    }

    /// Executes one measured batch of synchronized sections. The measured
    /// phase runs from the first worker leaving the start barrier to the
    /// last one finishing its sections, on the workers' own clock reads:
    /// thread spawning is excluded, and so is the wait of the spawning
    /// thread, which on a core-starved host may not run again until the
    /// workers are well under way. Yield/deadlock counts are reported as
    /// deltas over this run only, so the harness can be reused across
    /// samples.
    pub fn run(&self) -> MicrobenchResult {
        let cfg = self.config;
        let before = self.runtime.stats();
        let barrier = Arc::new(std::sync::Barrier::new(cfg.threads));
        let mut handles = Vec::with_capacity(cfg.threads);
        for (tid, pool) in self.pools.iter().cloned().enumerate() {
            let barrier = barrier.clone();
            let runtime = self.runtime.clone();
            handles.push(std::thread::spawn(move || {
                let mut completed = 0u64;
                // Cheap xorshift for "random lock objects".
                let mut rng_state = 0x1234_5678_9abc_def0u64 ^ (tid as u64).wrapping_mul(0x9e37);
                barrier.wait();
                let started = Instant::now();
                for _ in 0..cfg.iterations {
                    rng_state ^= rng_state << 13;
                    rng_state ^= rng_state >> 7;
                    rng_state ^= rng_state << 17;
                    let pick = rng_state as usize;
                    match &*pool {
                        LockPool::Immune(locks) => {
                            let mut guard = locks[pick % locks.len()]
                                .lock_at(AcquisitionSite::new(
                                    "Microbench.worker",
                                    "microbench.rs",
                                    1,
                                ))
                                .expect("benchmark never deadlocks");
                            *guard = guard.wrapping_add(busy_work(cfg.work_inside));
                        }
                        LockPool::Bare(locks) => {
                            let mut guard =
                                locks[pick % locks.len()].lock().expect("never poisoned");
                            *guard = guard.wrapping_add(busy_work(cfg.work_inside));
                        }
                    }
                    std::hint::black_box(busy_work(cfg.work_outside));
                    completed += 1;
                }
                let finished = Instant::now();
                // The harness is reused across samples: retire this worker's
                // engine registration so the per-shard RAGs do not accumulate
                // one dead thread node per worker per run. (Bare workers
                // never registered, and retiring would needlessly create a
                // route just to drop it.)
                if matches!(&*pool, LockPool::Immune(_)) {
                    runtime.retire_current_thread();
                }
                (completed, started, finished)
            }));
        }
        let mut total = 0u64;
        let mut phase: Option<(Instant, Instant)> = None;
        for h in handles {
            let (completed, started, finished) = h.join().expect("worker panicked");
            total += completed;
            let (first, last) = phase.unwrap_or((started, finished));
            phase = Some((first.min(started), last.max(finished)));
        }
        let elapsed = phase.map_or(Duration::ZERO, |(first, last)| last - first);
        let stats = self.runtime.stats();
        MicrobenchResult {
            synchronizations: total,
            elapsed,
            yields: stats.yields - before.yields,
            deadlocks: stats.deadlocks_detected - before.deadlocks_detected,
        }
    }
}

/// Runs the microbenchmark once with the given configuration: builds a
/// [`MicrobenchHarness`] and times a single batch. A measurement that takes
/// several samples builds the harness once and calls
/// [`MicrobenchHarness::run`] per sample, keeping setup out of the timed
/// region, as [`run_overhead_pair`] does.
pub fn run_microbenchmark(config: &MicrobenchConfig) -> MicrobenchResult {
    MicrobenchHarness::new(config).run()
}

/// One row of the overhead experiment: the same configuration run with and
/// without Dimmunix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadRow {
    /// Threads used.
    pub threads: usize,
    /// Synthetic history size.
    pub history_size: usize,
    /// Vanilla throughput (syncs/sec).
    pub vanilla_rate: f64,
    /// Dimmunix throughput (syncs/sec).
    pub dimmunix_rate: f64,
}

impl OverheadRow {
    /// Relative overhead (`0.045` for 4.5%).
    pub fn overhead(&self) -> f64 {
        1.0 - self.dimmunix_rate / self.vanilla_rate
    }
}

/// Interleaved sampling rounds per side of [`run_overhead_pair`].
const SAMPLES: usize = 5;
/// Back-to-back batches folded into one sample by taking the fastest.
const MIN_OF: usize = 3;

/// One sample: the fastest of [`MIN_OF`] back-to-back batches, in seconds.
/// Interference only ever adds time, so the minimum is the closest
/// observable to the workload's intrinsic cost.
fn sample(harness: &MicrobenchHarness) -> f64 {
    let fastest = (0..MIN_OF)
        .map(|_| harness.run())
        .min_by_key(|r| r.elapsed)
        .expect("MIN_OF > 0");
    assert_eq!(fastest.deadlocks, 0);
    assert_eq!(fastest.yields, 0, "synthetic signatures must never match");
    fastest.elapsed.as_secs_f64()
}

/// Median batch time after dropping the samples slower than twice the
/// median (a host-wide stall hit that round).
fn median_after_interference_cut(mut secs: Vec<f64>) -> f64 {
    secs.sort_by(|a, b| a.total_cmp(b));
    let median = secs[secs.len() / 2];
    secs.retain(|&t| t <= 2.0 * median);
    secs[secs.len() / 2]
}

/// Runs the paired (vanilla vs Dimmunix) experiment for one configuration.
///
/// One batch per side cannot be trusted on a shared host: machine drift
/// (CPU-quota throttling, background load) lands on whichever side is being
/// measured, and a sequential median-of-5 once reported the immune runtime
/// 15 % *faster* than bare. So both harnesses are built before any
/// measurement, each runs one warm-up batch, and the two sides are sampled
/// **interleaved** for `SAMPLES` rounds — slow drift spreads over both
/// distributions and cancels in the ratio — each sample being the fastest of
/// `MIN_OF` batches. The reported rates are those of the medians that
/// survive the 2x-median interference cut.
pub fn run_overhead_pair(base: &MicrobenchConfig) -> OverheadRow {
    let [vanilla, dimmunix] = [false, true].map(|dimmunix_enabled| {
        MicrobenchHarness::new(&MicrobenchConfig {
            dimmunix_enabled,
            ..*base
        })
    });
    // Warm-up: thread-local routes, site cache, allocator.
    vanilla.run();
    dimmunix.run();
    let (mut vanilla_secs, mut dimmunix_secs) = (Vec::new(), Vec::new());
    for _round in 0..SAMPLES {
        vanilla_secs.push(sample(&vanilla));
        dimmunix_secs.push(sample(&dimmunix));
    }
    let syncs = (base.threads * base.iterations) as f64;
    OverheadRow {
        threads: base.threads,
        history_size: base.synthetic_signatures,
        vanilla_rate: syncs / median_after_interference_cut(vanilla_secs),
        dimmunix_rate: syncs / median_after_interference_cut(dimmunix_secs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MicrobenchConfig {
        MicrobenchConfig {
            threads: 4,
            iterations: 300,
            locks_per_thread: 4,
            work_inside: 1_000,
            work_outside: 2_000,
            synthetic_signatures: 64,
            dimmunix_enabled: true,
            shards: 1,
        }
    }

    #[test]
    fn microbenchmark_completes_all_iterations() {
        let cfg = small();
        let result = run_microbenchmark(&cfg);
        assert_eq!(
            result.synchronizations,
            (cfg.threads * cfg.iterations) as u64
        );
        assert_eq!(result.deadlocks, 0);
        assert_eq!(result.yields, 0, "synthetic signatures must never match");
        assert!(result.syncs_per_sec() > 0.0);
    }

    #[test]
    fn vanilla_mode_disables_the_engine() {
        let result = run_microbenchmark(&MicrobenchConfig {
            dimmunix_enabled: false,
            ..small()
        });
        assert_eq!(result.deadlocks, 0);
        assert_eq!(result.yields, 0);
    }

    #[test]
    fn overhead_is_modest() {
        // Smoke-level sanity check only: this test runs unoptimized (debug)
        // with far less per-sync work than the paper's applications, so the
        // hook cost is exaggerated; the bench harness (release build,
        // calibrated per-sync work) does the real measurement.
        let row = run_overhead_pair(&small());
        assert!(row.vanilla_rate > 0.0 && row.dimmunix_rate > 0.0);
        assert!(
            row.overhead() < 0.95,
            "overhead unexpectedly large: {:.1}%",
            row.overhead() * 100.0
        );
    }

    #[test]
    fn busy_work_scales_with_units() {
        let t0 = Instant::now();
        busy_work(10);
        let short = t0.elapsed();
        let t1 = Instant::now();
        busy_work(100_000);
        let long = t1.elapsed();
        assert!(long >= short);
    }
}
