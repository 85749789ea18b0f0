//! Simulated request-serving server on the task-keyed async substrate.
//!
//! The workload models the situation the `asyncio` substrate exists for: a
//! server multiplexing thousands of concurrent request-handling **tasks**
//! onto a handful of worker threads, where every request fans out over a
//! pair of shared resource locks (held across `.await` points) and fans
//! back in through a global accounting lock. A seeded fraction of requests
//! acquires its resource pair in **inverted** order — the classic AB/BA
//! inversion, here between *tasks*, so a thread-keyed engine would never
//! see the cycle (the tasks share workers).
//!
//! Three modes drive the evaluation:
//!
//! * [`run_bare_server`] — the baseline: plain task-level async mutexes
//!   with no immunity instrumentation ([`BareMutex`]). On an inversion-free
//!   schedule it measures raw throughput; on a schedule with inversions the
//!   colliding requests simply **hang** (the executor reports them stuck).
//! * [`run_immune_server`] with no history — the learning run: the first
//!   task-level cycle is detected on its closing request, its signature
//!   recorded (and persisted when the config names a history log); the
//!   refused request backs off and retries in canonical order, so every
//!   request still completes.
//! * [`run_immune_server`] with the learned history — the immune run: the
//!   avoidance module parks inverted requests instead of letting the cycle
//!   build, so the same seeded schedule completes with **zero** deadlocks.
//!
//! Everything is deterministic: one SplitMix64 seed fixes the resource
//! pairs and inversion choices, and the executor replays identical poll
//! schedules for identical inputs.

#![deny(missing_docs)]

use dimmunix_core::{Config, History};
use dimmunix_rt::asyncio::{current_task, yield_now, Executor, Mutex, MutexGuard};
use dimmunix_rt::{AcquisitionSite, DeadlockPolicy, DimmunixRuntime};
use dimmunix_testkit::Gen;
use std::cell::{RefCell, RefMut};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

// Stable acquisition sites: one per code path, exactly as a real server
// binary would have them. Canonical and inverted handlers are distinct
// paths, so the learned signature names the inverted pair and avoidance
// only serializes requests that actually take the inverted path.
const SITE_CANON_FIRST: AcquisitionSite = AcquisitionSite::new("srv.canonical.first", "srv.rs", 1);
const SITE_CANON_SECOND: AcquisitionSite =
    AcquisitionSite::new("srv.canonical.second", "srv.rs", 2);
const SITE_INV_FIRST: AcquisitionSite = AcquisitionSite::new("srv.inverted.first", "srv.rs", 3);
const SITE_INV_SECOND: AcquisitionSite = AcquisitionSite::new("srv.inverted.second", "srv.rs", 4);
const SITE_RETRY_FIRST: AcquisitionSite = AcquisitionSite::new("srv.retry.first", "srv.rs", 5);
const SITE_RETRY_SECOND: AcquisitionSite = AcquisitionSite::new("srv.retry.second", "srv.rs", 6);
const SITE_STATS: AcquisitionSite = AcquisitionSite::new("srv.stats", "srv.rs", 7);

/// Parameters of one async-server run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncServerConfig {
    /// Concurrent request tasks (the acceptance scenario uses 10 000+).
    pub tasks: usize,
    /// Simulated workers on the deterministic executor.
    pub workers: usize,
    /// Shared resource locks the requests fan out over.
    pub resources: usize,
    /// Every `invert_every`-th request takes the inverted-order code path
    /// (0 = no inversions; the throughput-baseline schedule).
    pub invert_every: usize,
    /// `.await` points while holding the first resource of the pair — the
    /// guard-across-await window in which inversions interleave.
    pub hold_yields: usize,
    /// Busy-work units inside the critical section.
    pub work_inside: u64,
    /// Seed for the request schedule.
    pub seed: u64,
    /// Engine shards for the immune runtime.
    pub shards: usize,
}

impl Default for AsyncServerConfig {
    fn default() -> Self {
        AsyncServerConfig {
            tasks: 10_000,
            workers: 4,
            resources: 32,
            invert_every: 0,
            hold_yields: 1,
            work_inside: 16,
            seed: 0x5eed,
            shards: 1,
        }
    }
}

/// What one server run did.
#[derive(Debug, Clone)]
pub struct AsyncServerResult {
    /// Requests spawned.
    pub requests: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests stuck when the executor drained (deadlocked tasks — only
    /// ever non-zero for bare locks on a schedule with inversions).
    pub stuck: usize,
    /// `WouldDeadlock` refusals observed (each is followed by a
    /// canonical-order retry).
    pub refused: u64,
    /// Total future polls the executor performed.
    pub polls: u64,
    /// Per-request service latency (spawn-to-completion), one entry per
    /// completed request, in completion order.
    pub latencies: Vec<Duration>,
}

impl AsyncServerResult {
    /// The `p`-th latency percentile (`0.0..=1.0`) over completed requests.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }
}

/// An immune server run: the result plus the runtime it ran on, so callers
/// can read the learned history and engine statistics.
#[derive(Debug)]
pub struct ImmuneServerRun {
    /// Throughput / refusal / latency observations.
    pub result: AsyncServerResult,
    /// The runtime the run executed on.
    pub runtime: Arc<DimmunixRuntime>,
}

/// The resource pair of one request, in acquisition order, plus the code
/// path (inverted or canonical) it takes.
#[derive(Debug, Clone, Copy)]
struct RequestPlan {
    first: usize,
    second: usize,
    inverted: bool,
}

/// The seeded request schedule: pairs of distinct resources, inverted for
/// every `invert_every`-th request.
fn plan_requests(cfg: &AsyncServerConfig) -> Vec<RequestPlan> {
    let mut rng = Gen::new(cfg.seed);
    (0..cfg.tasks)
        .map(|rid| {
            let a = rng.range(0, cfg.resources);
            let b = (a + 1 + rng.range(0, cfg.resources - 1)) % cfg.resources;
            let (lo, hi) = (a.min(b), a.max(b));
            let inverted = cfg.invert_every != 0 && rid % cfg.invert_every == cfg.invert_every - 1;
            if inverted {
                RequestPlan {
                    first: hi,
                    second: lo,
                    inverted,
                }
            } else {
                RequestPlan {
                    first: lo,
                    second: hi,
                    inverted,
                }
            }
        })
        .collect()
}

/// Shared per-run accounting, updated from inside the request tasks.
#[derive(Debug, Default)]
struct RunCounters {
    refused: u64,
    latencies: Vec<Duration>,
}

/// Runs the server on immune async locks. `history` seeds the runtime with
/// previously learned signatures (the immune replay); `config` is the
/// engine configuration (name a `history_path` to exercise persistence).
pub fn run_immune_server(
    cfg: &AsyncServerConfig,
    config: Config,
    history: Option<History>,
) -> ImmuneServerRun {
    let mut builder = DimmunixRuntime::builder()
        .config(config)
        .shards(cfg.shards)
        .deadlock_policy(DeadlockPolicy::Error);
    if let Some(h) = history {
        builder = builder.history(h);
    }
    let rt = builder.build();

    let ex = Executor::new_in(&rt, cfg.workers);
    let resources: Rc<Vec<Mutex<u64>>> =
        Rc::new((0..cfg.resources).map(|_| Mutex::new_in(&rt, 0)).collect());
    let stats_lock = Rc::new(Mutex::new_in(&rt, 0u64));
    let counters = Rc::new(RefCell::new(RunCounters::default()));

    let plans = plan_requests(cfg);
    let work = cfg.work_inside;
    let hold_yields = cfg.hold_yields;
    for plan in plans {
        let resources = resources.clone();
        let stats_lock = stats_lock.clone();
        let counters = counters.clone();
        ex.spawn(async move {
            let started = Instant::now();
            let (first_site, second_site) = if plan.inverted {
                (SITE_INV_FIRST, SITE_INV_SECOND)
            } else {
                (SITE_CANON_FIRST, SITE_CANON_SECOND)
            };
            // Fan-out: the resource pair, holding the first lock across
            // `.await` points (a hold edge under the task's identity).
            let mut attempt: Option<(MutexGuard<'_, u64>, MutexGuard<'_, u64>)> = None;
            {
                let g1 = resources[plan.first]
                    .lock_at(first_site)
                    .await
                    .expect("an opening acquisition holds nothing and cannot close a cycle");
                for _ in 0..hold_yields {
                    yield_now().await;
                }
                match resources[plan.second].lock_at(second_site).await {
                    Ok(g2) => attempt = Some((g1, g2)),
                    Err(_) => {
                        // Refused: this request would have completed a
                        // task-level deadlock. Back off (dropping the held
                        // resource) and retry in canonical order.
                        counters.borrow_mut().refused += 1;
                        drop(g1);
                    }
                }
            }
            let (mut g1, mut g2) = match attempt {
                Some(pair) => pair,
                None => loop {
                    yield_now().await;
                    let (lo, hi) = (plan.first.min(plan.second), plan.first.max(plan.second));
                    let g1 = match resources[lo].lock_at(SITE_RETRY_FIRST).await {
                        Ok(g) => g,
                        Err(_) => {
                            counters.borrow_mut().refused += 1;
                            continue;
                        }
                    };
                    match resources[hi].lock_at(SITE_RETRY_SECOND).await {
                        Ok(g2) => break (g1, g2),
                        Err(_) => {
                            counters.borrow_mut().refused += 1;
                            drop(g1);
                        }
                    }
                },
            };
            *g1 += 1;
            *g2 += 1;
            busy_work(work);
            drop(g2);
            drop(g1);
            // Fan-in: global accounting under its own lock (held across
            // nothing — the tail of the request).
            let mut served = stats_lock
                .lock_at(SITE_STATS)
                .await
                .expect("the fan-in lock is acquired holding nothing");
            *served += 1;
            drop(served);
            counters.borrow_mut().latencies.push(started.elapsed());
        });
    }

    let report = ex.run();
    let counters = Rc::try_unwrap(counters)
        .expect("all tasks have completed")
        .into_inner();
    assert_eq!(current_task(), None, "the executor must have unwound");
    ImmuneServerRun {
        result: AsyncServerResult {
            requests: cfg.tasks,
            completed: report.completed,
            stuck: report.stuck,
            refused: counters.refused,
            polls: report.polls,
            latencies: counters.latencies,
        },
        runtime: rt,
    }
}

/// Runs the identical seeded schedule on [`BareMutex`] — no engine, no
/// immunity. The inversion-free variant is the throughput baseline; with
/// inversions the colliding tasks deadlock and are reported stuck.
pub fn run_bare_server(cfg: &AsyncServerConfig) -> AsyncServerResult {
    // The bare run still needs *an* executor; its runtime is only used for
    // task identity bookkeeping, never consulted by the bare locks.
    let rt = DimmunixRuntime::builder()
        .config(Config::disabled())
        .build();
    let ex = Executor::new_in(&rt, cfg.workers);
    let resources: Rc<Vec<BareMutex<u64>>> =
        Rc::new((0..cfg.resources).map(|_| BareMutex::new(0)).collect());
    let stats_lock = Rc::new(BareMutex::new(0u64));
    let counters = Rc::new(RefCell::new(RunCounters::default()));

    let plans = plan_requests(cfg);
    let work = cfg.work_inside;
    let hold_yields = cfg.hold_yields;
    for plan in plans {
        let resources = resources.clone();
        let stats_lock = stats_lock.clone();
        let counters = counters.clone();
        ex.spawn(async move {
            let started = Instant::now();
            let mut g1 = resources[plan.first].lock().await;
            for _ in 0..hold_yields {
                yield_now().await;
            }
            let mut g2 = resources[plan.second].lock().await;
            *g1 += 1;
            *g2 += 1;
            busy_work(work);
            drop(g2);
            drop(g1);
            let mut served = stats_lock.lock().await;
            *served += 1;
            drop(served);
            counters.borrow_mut().latencies.push(started.elapsed());
        });
    }

    let report = ex.run();
    // Stuck tasks still own clones of the counters; snapshot instead of
    // unwrapping.
    let counters = counters.borrow();
    AsyncServerResult {
        requests: cfg.tasks,
        completed: report.completed,
        stuck: report.stuck,
        refused: counters.refused,
        polls: report.polls,
        latencies: counters.latencies.clone(),
    }
}

/// Busy-waits for `units` of work inside a request's critical section: a
/// sleep would hand the worker back to the executor and hide what the
/// locks cost.
#[inline]
fn busy_work(units: u64) -> u64 {
    let mut acc: u64 = 0x9e3779b97f4a7c15;
    for i in 0..units {
        acc = acc.rotate_left(7) ^ i.wrapping_mul(0x2545f4914f6cdd1d);
        std::hint::black_box(acc);
    }
    acc
}

// ---------------------------------------------------------------------------
// The bare async mutex: what servers use when they don't know about
// deadlock immunity. Identical queueing discipline to `asyncio::Mutex`
// (FIFO waiters, a release hands the lock to the front waiter only) minus
// every engine hook, so the throughput delta between the two isolates the
// immunity cost rather than a wake-policy difference.
// ---------------------------------------------------------------------------

struct BareState {
    locked: bool,
    waiters: VecDeque<Waker>,
}

/// A plain task-level async mutex with no deadlock instrumentation.
pub struct BareMutex<T> {
    state: RefCell<BareState>,
    data: RefCell<T>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for BareMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BareMutex").finish_non_exhaustive()
    }
}

impl<T> BareMutex<T> {
    /// Creates the mutex.
    pub fn new(value: T) -> Self {
        BareMutex {
            state: RefCell::new(BareState {
                locked: false,
                waiters: VecDeque::new(),
            }),
            data: RefCell::new(value),
        }
    }

    /// Acquires the mutex; the future resolves to the guard.
    pub fn lock(&self) -> BareLockFuture<'_, T> {
        BareLockFuture { lock: self }
    }
}

/// Future returned by [`BareMutex::lock`].
#[derive(Debug)]
pub struct BareLockFuture<'a, T> {
    lock: &'a BareMutex<T>,
}

impl<'a, T> Future for BareLockFuture<'a, T> {
    type Output = BareGuard<'a, T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = self.lock.state.borrow_mut();
        if state.locked {
            state.waiters.push_back(cx.waker().clone());
            Poll::Pending
        } else {
            state.locked = true;
            drop(state);
            Poll::Ready(BareGuard {
                lock: self.lock,
                inner: Some(self.lock.data.borrow_mut()),
            })
        }
    }
}

/// Guard for [`BareMutex`]; releases on drop.
pub struct BareGuard<'a, T> {
    lock: &'a BareMutex<T>,
    inner: Option<RefMut<'a, T>>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for BareGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BareGuard").field("value", &**self).finish()
    }
}

impl<T> std::ops::Deref for BareGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard not yet dropped")
    }
}

impl<T> std::ops::DerefMut for BareGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard not yet dropped")
    }
}

impl<T> Drop for BareGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        let next = {
            let mut state = self.lock.state.borrow_mut();
            state.locked = false;
            state.waiters.pop_front()
        };
        if let Some(w) = next {
            w.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmunix_core::SignatureKind;

    fn adversarial_cfg() -> AsyncServerConfig {
        AsyncServerConfig {
            tasks: 10_000,
            workers: 4,
            resources: 32,
            invert_every: 40,
            ..AsyncServerConfig::default()
        }
    }

    /// Acceptance scenario for the tentpole: 10k tasks on a small worker
    /// pool, seeded inversions. The learning run detects the task-level
    /// deadlock on first occurrence and persists it; the replay loads the
    /// persisted history and completes with zero deadlocks.
    #[test]
    fn server_learns_persists_and_avoids() {
        let cfg = adversarial_cfg();
        let log = std::env::temp_dir().join(format!(
            "dimmunix-async-server-{}.history",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&log);
        let persistent = Config {
            history_path: Some(log.clone()),
            ..Config::default()
        };

        // Run 1: learn (and persist through the history log).
        let learn = run_immune_server(&cfg, persistent.clone(), None);
        assert_eq!(learn.result.completed, cfg.tasks, "no request may hang");
        assert_eq!(learn.result.stuck, 0);
        // Seed replay: the request schedule for seed 0x5eed is pinned, so a
        // change to the generator's stream shows up here.
        assert_eq!(learn.result.refused, 1890, "a closing request was refused");
        let stats = learn.runtime.stats();
        assert!(stats.deadlocks_detected >= 1);
        // Which tier decided each request: a hold-free task at a clean site
        // is admitted lock-free (tier 1), so tier 2 decides none.
        assert_eq!(
            (
                stats.fast_admits,
                stats.local_decisions,
                stats.cross_decisions
            ),
            (19_705, 0, 24_942)
        );
        let learned = learn.runtime.history();
        assert_eq!(
            learned.len(),
            28,
            "signatures the one inversion pattern learns"
        );
        assert!(learned
            .iter()
            .any(|(_, s)| s.kind() == SignatureKind::Deadlock));
        drop(learn);

        // Run 2: a fresh runtime recovers the history from the log alone
        // and the identical seeded schedule completes immune.
        let avoid = run_immune_server(&cfg, persistent, None);
        assert_eq!(avoid.result.completed, cfg.tasks);
        assert_eq!(avoid.result.stuck, 0);
        assert_eq!(avoid.result.refused, 0, "immune replay refuses nothing");
        let stats = avoid.runtime.stats();
        assert_eq!(stats.deadlocks_detected, 0);
        // Direction 1's starting line: the replay parks every task once
        // although 250 of the 10 000 requests invert (acceptance
        // 30 000 / 39 999 = 0.75). Targets: yields <= 2x the inverted
        // count, acceptance >= 0.97.
        assert_eq!(stats.yields, 9999, "avoidance parked inverted requests");
        assert_eq!(stats.requests, 39_999);
        assert_eq!(stats.grants, 30_000);
        assert_eq!(
            (
                stats.fast_admits,
                stats.local_decisions,
                stats.cross_decisions
            ),
            (9_236, 0, 30_763)
        );
        let _ = std::fs::remove_file(&log);
    }

    /// The same seeded schedule on bare async locks deadlocks: stuck tasks,
    /// lost requests — the failure mode immunity removes.
    #[test]
    fn bare_locks_deadlock_on_the_same_schedule() {
        let bare = run_bare_server(&adversarial_cfg());
        assert!(bare.stuck > 0, "bare locks must deadlock on this schedule");
        assert!(bare.completed < bare.requests);
    }

    /// Inversion-free schedules complete on both substrates; this is the
    /// throughput-comparison pair the bench reports overhead from.
    #[test]
    fn inversion_free_schedules_complete_on_both_substrates() {
        let cfg = AsyncServerConfig {
            tasks: 2_000,
            ..AsyncServerConfig::default()
        };
        let bare = run_bare_server(&cfg);
        assert_eq!(bare.completed, cfg.tasks);
        assert_eq!(bare.stuck, 0);
        let immune = run_immune_server(&cfg, Config::default(), None);
        assert_eq!(immune.result.completed, cfg.tasks);
        assert_eq!(immune.result.stuck, 0);
        assert_eq!(immune.result.refused, 0);
        let stats = immune.runtime.stats();
        assert_eq!(stats.deadlocks_detected, 0);
        // Per request: the first resource and the fan-in lock, taken
        // holding nothing, on tier 1; the second resource on tier 3.
        assert_eq!(
            (
                stats.fast_admits,
                stats.local_decisions,
                stats.cross_decisions
            ),
            (4_000, 0, 2_000)
        );
        assert_eq!(immune.result.latencies.len(), cfg.tasks);
        assert!(immune.result.latency_percentile(0.99) >= immune.result.latency_percentile(0.5));
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
