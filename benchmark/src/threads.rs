//! The thread workloads: the immune locks, their bare `std::sync` twins, and
//! the hand-replayed hook sequence the traced run times.

use crate::inputs::{clean_sites, Kind, Op, SITES_PER_KIND};
use crate::spans::{Spans, Stage};
use dimmunix_core::{AdmissionSummary, LockId, Signature};
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime, ImmuneMutex, ImmuneRwLock};
use std::hint::black_box;
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Operations between two clock reads of a worker: one latency sample, and
/// the granularity at which a round's deadline is checked.
pub const BATCH: usize = 64;

/// Acquisition sites of the thread workloads, one table per code path.
#[derive(Debug)]
pub struct Sites {
    mutex: Vec<AcquisitionSite>,
    read: Vec<AcquisitionSite>,
    write: Vec<AcquisitionSite>,
    outer: Vec<AcquisitionSite>,
    inner: Vec<AcquisitionSite>,
}

impl Sites {
    /// Sites that `filter` (the starting history's Bloom filter) leaves clean.
    pub fn new(filter: &AdmissionSummary) -> Self {
        let table = |prefix| clean_sites(prefix, SITES_PER_KIND, filter);
        Sites {
            mutex: table("Flat.mutex"),
            read: table("Flat.read"),
            write: table("Flat.write"),
            outer: table("Bank.debit"),
            inner: table("Bank.credit"),
        }
    }
}

/// One way of executing an [`Op`]: through the immune wrappers, through bare
/// `std::sync`, or through the hooks called by hand.
pub trait Substrate: Sync {
    /// Executes `op`; false if the acquisition was refused.
    fn run(&self, op: Op, spans: &mut Spans) -> bool;
    /// Sum of every protected value (the conserved quantity of the checks).
    fn total(&self) -> i64;
    /// Called by each worker thread before it exits.
    fn retire_thread(&self) {}
}

/// The workload as an application would write it: `Immune*` lock types.
#[derive(Debug)]
pub struct Immune {
    rt: Arc<DimmunixRuntime>,
    mutexes: Vec<ImmuneMutex<i64>>,
    rwlocks: Vec<ImmuneRwLock<i64>>,
    sites: Arc<Sites>,
}

impl Immune {
    pub fn new(
        rt: &Arc<DimmunixRuntime>,
        sites: &Arc<Sites>,
        mutexes: usize,
        rwlocks: usize,
        initial: i64,
    ) -> Self {
        Immune {
            rt: Arc::clone(rt),
            mutexes: (0..mutexes)
                .map(|_| ImmuneMutex::new_in(rt, initial))
                .collect(),
            rwlocks: (0..rwlocks)
                .map(|_| ImmuneRwLock::new_in(rt, initial))
                .collect(),
            sites: Arc::clone(sites),
        }
    }
}

impl Substrate for Immune {
    #[inline]
    fn run(&self, op: Op, _: &mut Spans) -> bool {
        let (first, site) = (op.first as usize, op.site as usize);
        match op.kind {
            Kind::Mutex => match self.mutexes[first].lock_at(self.sites.mutex[site]) {
                Ok(mut g) => *g += 1,
                Err(_) => return false,
            },
            Kind::Read => match self.rwlocks[first].read_at(self.sites.read[site]) {
                Ok(g) => {
                    black_box(*g);
                }
                Err(_) => return false,
            },
            Kind::Write => match self.rwlocks[first].write_at(self.sites.write[site]) {
                Ok(mut g) => *g += 1,
                Err(_) => return false,
            },
            Kind::Transfer => {
                let Ok(mut from) = self.mutexes[first].lock_at(self.sites.outer[site]) else {
                    return false;
                };
                let Ok(mut to) = self.mutexes[op.second as usize].lock_at(self.sites.inner[site])
                else {
                    return false;
                };
                *from -= i64::from(op.amount);
                *to += i64::from(op.amount);
            }
        }
        true
    }

    fn total(&self) -> i64 {
        let m: i64 = self
            .mutexes
            .iter()
            .map(|m| *m.lock().expect("quiescent"))
            .sum();
        let r: i64 = self
            .rwlocks
            .iter()
            .map(|l| *l.read().expect("quiescent"))
            .sum();
        m + r
    }

    fn retire_thread(&self) {
        self.rt.retire_current_thread();
    }
}

/// The bare twin: the same operations on `std::sync` locks, no engine.
#[derive(Debug)]
pub struct Bare {
    mutexes: Vec<Mutex<i64>>,
    rwlocks: Vec<RwLock<i64>>,
}

impl Bare {
    pub fn new(mutexes: usize, rwlocks: usize, initial: i64) -> Self {
        Bare {
            mutexes: (0..mutexes).map(|_| Mutex::new(initial)).collect(),
            rwlocks: (0..rwlocks).map(|_| RwLock::new(initial)).collect(),
        }
    }
}

const POISON: &str = "a worker panicked holding a bare lock";

impl Substrate for Bare {
    #[inline]
    fn run(&self, op: Op, _: &mut Spans) -> bool {
        let first = op.first as usize;
        match op.kind {
            Kind::Mutex => *self.mutexes[first].lock().expect(POISON) += 1,
            Kind::Read => {
                black_box(*self.rwlocks[first].read().expect(POISON));
            }
            Kind::Write => *self.rwlocks[first].write().expect(POISON) += 1,
            Kind::Transfer => {
                let mut from = self.mutexes[first].lock().expect(POISON);
                let mut to = self.mutexes[op.second as usize].lock().expect(POISON);
                *from -= i64::from(op.amount);
                *to += i64::from(op.amount);
            }
        }
        true
    }

    fn total(&self) -> i64 {
        let m: i64 = self.mutexes.iter().map(|m| *m.lock().expect(POISON)).sum();
        let r: i64 = self.rwlocks.iter().map(|l| *l.read().expect(POISON)).sum();
        m + r
    }
}

/// The traced twin: each operation replayed by hand as `before_acquire` →
/// std lock → `after_acquire` → work → `before_release` → unlock, which is
/// what `ImmuneMutex::lock_at` and the rwlock guards do, with a span around
/// each hook.
#[derive(Debug)]
pub struct Traced {
    rt: Arc<DimmunixRuntime>,
    mutex_ids: Vec<LockId>,
    rwlock_ids: Vec<LockId>,
    locks: Bare,
    sites: Arc<Sites>,
}

impl Traced {
    pub fn new(
        rt: &Arc<DimmunixRuntime>,
        sites: &Arc<Sites>,
        mutexes: usize,
        rwlocks: usize,
        initial: i64,
    ) -> Self {
        Traced {
            rt: Arc::clone(rt),
            mutex_ids: (0..mutexes).map(|_| rt.allocate_lock()).collect(),
            rwlock_ids: (0..rwlocks).map(|_| rt.allocate_lock()).collect(),
            locks: Bare::new(mutexes, rwlocks, initial),
            sites: Arc::clone(sites),
        }
    }

    /// `before_acquire` (or its shared form) under a span; false if refused.
    #[inline]
    fn acquire(
        &self,
        id: LockId,
        site: AcquisitionSite,
        shared: bool,
        stage: Stage,
        spans: &mut Spans,
    ) -> bool {
        let start = Instant::now();
        let granted = if shared {
            self.rt.before_acquire_shared(id, site)
        } else {
            self.rt.before_acquire(id, site)
        };
        spans.record(stage, start, Instant::now());
        granted.is_ok()
    }

    #[inline]
    fn hook(&self, stage: Stage, spans: &mut Spans, f: impl FnOnce(&DimmunixRuntime)) {
        let start = Instant::now();
        f(&self.rt);
        spans.record(stage, start, Instant::now());
    }
}

impl Substrate for Traced {
    fn run(&self, op: Op, spans: &mut Spans) -> bool {
        use Stage::*;
        let (first, site) = (op.first as usize, op.site as usize);
        match op.kind {
            Kind::Mutex => {
                let id = self.mutex_ids[first];
                if !self.acquire(id, self.sites.mutex[site], false, BeforeAcquireFast, spans) {
                    return false;
                }
                let mut g = self.locks.mutexes[first].lock().expect(POISON);
                self.hook(AfterAcquireFast, spans, |rt| rt.after_acquire(id));
                *g += 1;
                self.hook(BeforeReleaseFast, spans, |rt| rt.before_release(id));
            }
            Kind::Read => {
                let id = self.rwlock_ids[first];
                if !self.acquire(id, self.sites.read[site], true, BeforeAcquireFast, spans) {
                    return false;
                }
                let g = self.locks.rwlocks[first].read().expect(POISON);
                self.hook(AfterAcquireFast, spans, |rt| rt.after_acquire(id));
                black_box(*g);
                self.hook(BeforeReleaseFast, spans, |rt| rt.before_release(id));
            }
            Kind::Write => {
                let id = self.rwlock_ids[first];
                if !self.acquire(id, self.sites.write[site], false, BeforeAcquireFast, spans) {
                    return false;
                }
                let mut g = self.locks.rwlocks[first].write().expect(POISON);
                self.hook(AfterAcquireFast, spans, |rt| rt.after_acquire(id));
                *g += 1;
                self.hook(BeforeReleaseFast, spans, |rt| rt.before_release(id));
            }
            Kind::Transfer => {
                let (a, b) = (self.mutex_ids[first], self.mutex_ids[op.second as usize]);
                if !self.acquire(a, self.sites.outer[site], false, BeforeAcquireFast, spans) {
                    return false;
                }
                let mut from = self.locks.mutexes[first].lock().expect(POISON);
                self.hook(AfterAcquireFast, spans, |rt| rt.after_acquire(a));
                if !self.acquire(b, self.sites.inner[site], false, BeforeAcquireNested, spans) {
                    // Same back-out as dropping the first guard.
                    self.rt.before_release(a);
                    return false;
                }
                let mut to = self.locks.mutexes[op.second as usize].lock().expect(POISON);
                self.hook(AfterAcquireEngine, spans, |rt| rt.after_acquire(b));
                *from -= i64::from(op.amount);
                *to += i64::from(op.amount);
                // The nested request published the first hold, so by now
                // both releases go through the engine.
                self.hook(BeforeReleaseEngine, spans, |rt| rt.before_release(b));
                drop(to);
                self.hook(BeforeReleaseEngine, spans, |rt| rt.before_release(a));
            }
        }
        true
    }

    fn total(&self) -> i64 {
        self.locks.total()
    }

    fn retire_thread(&self) {
        self.rt.retire_current_thread();
    }
}

/// What one worker did in one round.
#[derive(Debug, Default)]
pub struct WorkerOut {
    pub ops: u64,
    /// Operations that added one to a protected value.
    pub adds: u64,
    pub refused: u64,
    pub elapsed_ns: u64,
    /// Wall time of each [`BATCH`], in nanoseconds.
    pub batch_ns: Vec<u32>,
    pub spans: Spans,
}

fn worker<S: Substrate>(s: &S, stream: &[Op], start: &Barrier, len: Duration) -> WorkerOut {
    let mut out = WorkerOut::default();
    let mut next = 0usize;
    start.wait();
    let began = Instant::now();
    let deadline = began + len;
    let mut last = began;
    loop {
        for _ in 0..BATCH {
            let op = stream[next];
            next = if next + 1 == stream.len() {
                0
            } else {
                next + 1
            };
            if s.run(op, &mut out.spans) {
                out.adds += u64::from(matches!(op.kind, Kind::Mutex | Kind::Write));
            } else {
                out.refused += 1;
            }
        }
        out.ops += BATCH as u64;
        let now = Instant::now();
        out.batch_ns.push((now - last).as_nanos() as u32);
        last = now;
        if now >= deadline {
            break;
        }
    }
    out.elapsed_ns = (last - began).as_nanos() as u64;
    s.retire_thread();
    out
}

/// One closed-loop round: one worker per stream, each running its stream
/// in a cycle until `len` has passed.
pub fn round<S: Substrate>(s: &S, streams: &[Vec<Op>], len: Duration) -> Vec<WorkerOut> {
    let start = Barrier::new(streams.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| scope.spawn(|| worker(s, stream, &start, len)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// Appends per second of the `history_churn` writer.
pub const CHURN_RATE: u64 = 250;

/// What the open-loop writer did in one round.
#[derive(Debug, Default)]
pub struct WriterOut {
    /// Due time to installed, per append, in nanoseconds.
    pub latency_ns: Vec<u32>,
    /// Appends that started more than half a period after they were due.
    pub late: u64,
}

/// A `history_churn` round: one reader running `stream` closed-loop beside
/// one writer that is due to install a signature every `1 / CHURN_RATE`
/// seconds, whether or not the previous one has finished. With `target`
/// absent (the bare twin) the writer keeps the same schedule and installs
/// nothing.
pub fn churn_round<S: Substrate>(
    s: &S,
    stream: &[Op],
    len: Duration,
    target: Option<&DimmunixRuntime>,
    novel: &mut impl Iterator<Item = Signature>,
) -> (WorkerOut, WriterOut) {
    let period = Duration::from_nanos(1_000_000_000 / CHURN_RATE);
    let due_count = (len.as_nanos() / period.as_nanos()) as u32;
    let batch: Vec<Signature> = novel.take(due_count as usize).collect();
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| worker(s, stream, &start, len));
        let writer = scope.spawn(|| {
            let mut out = WriterOut::default();
            start.wait();
            let began = Instant::now();
            for (k, sig) in batch.into_iter().enumerate() {
                let due = began + period * k as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if Instant::now() > due + period / 2 {
                    out.late += 1;
                }
                if let Some(rt) = target {
                    rt.add_signature(sig);
                }
                out.latency_ns
                    .push((Instant::now() - due).as_nanos() as u32);
            }
            out
        });
        (
            reader.join().expect("reader panicked"),
            writer.join().expect("writer panicked"),
        )
    })
}
