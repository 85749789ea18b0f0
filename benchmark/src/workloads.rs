//! The five workloads behind one interface: set-up from a persisted history
//! log, an immune round, a bare round, a traced round, and the output checks.

use crate::inputs::{
    admission_filter, background_history, flat_stream, request_plan, synthetic_signature,
    transfer_stream, Op, Request, BACKGROUND_SIGNATURES, CHURN_BASE_SIGNATURES, INVERT_EVERY,
    LOCKS, SERVER_RESOURCES, SERVER_WORKERS,
};
use crate::rng::Rng;
use crate::server::{serve, BareExecutor, BenchMutex, Locks, ServeOut, ServerLock};
use crate::spans::Spans;
use crate::threads::{
    churn_round, round, Bare, Immune, Sites, Substrate, Traced, WorkerOut, BATCH,
};
use dimmunix_core::{AdmissionSummary, History, HistoryLog, Signature};
use dimmunix_rt::asyncio::{self, Executor};
use dimmunix_rt::DimmunixRuntime;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name and reason of each workload, in the order they are run.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "flat_sections",
        "2 threads, un-nested sections on 64 locks at clean sites: tier-1 lock-free admission does the work, the engine none",
    ),
    (
        "nested_transfers",
        "1 thread, two-lock bank transfers: the second acquisition publishes the fast hold and takes the all-shard path",
    ),
    (
        "async_clean",
        "10000 request tasks, no inversions: the same engine reached through the task path, which never takes tier 1",
    ),
    (
        "async_replay",
        "the same server, every 40th request inverted, learned history loaded: avoidance matching, yields and wake hand-off dominate",
    ),
    (
        "history_churn",
        "1 reader thread beside 250 signature installs per second on a 1024-signature base: reads pay for writes and writes for reads",
    ),
];

/// One side (immune, bare or traced) of one round.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations completed: sections, transfers or requests.
    pub ops: u64,
    pub attempted: u64,
    /// Refused (`WouldDeadlock`) or stuck operations.
    pub failed: u64,
    /// Per-thread time per operation.
    pub ns_per_op: f64,
    pub ops_per_s: f64,
    /// Latency samples; one sample is `latency_ops` operations long.
    pub latency_ns: Vec<u32>,
    pub latency_ops: f64,
    pub spans: Spans,
    pub polls: u64,
    /// Open-loop operations due, and those that started late.
    pub due: u64,
    pub late: u64,
    /// Due time to installed of each open-loop operation, in nanoseconds.
    pub installs_ns: Vec<u32>,
}

impl Round {
    fn from_workers(workers: Vec<WorkerOut>) -> (Round, u64) {
        let mut r = Round {
            latency_ops: BATCH as f64,
            ..Round::default()
        };
        let mut adds = 0;
        for w in &workers {
            r.ops += w.ops - w.refused;
            r.attempted += w.ops;
            r.failed += w.refused;
            r.ns_per_op += w.elapsed_ns as f64 / w.ops as f64 / workers.len() as f64;
            r.ops_per_s += w.ops as f64 / (w.elapsed_ns as f64 / 1e9);
            r.spans.merge(&w.spans);
            adds += w.adds;
        }
        r.latency_ns = workers.into_iter().flat_map(|w| w.batch_ns).collect();
        (r, adds)
    }
}

pub trait Workload {
    fn immune(&mut self, len: Duration) -> Round;
    fn bare(&mut self, len: Duration) -> Round;
    fn traced(&mut self, len: Duration) -> Round;
    fn runtime(&self) -> &Arc<DimmunixRuntime>;
    /// Consumes the workload and returns every output check that failed.
    fn check(self: Box<Self>) -> Vec<String>;
}

/// The three ways a workload is run; indices into its per-side counters.
const IMMUNE: usize = 0;
const BARE: usize = 1;
const TRACED: usize = 2;

/// What input generation hands to set-up.
#[derive(Debug)]
pub struct Inputs {
    pub name: &'static str,
    /// The persisted history log every set-up replays.
    pub log: PathBuf,
    /// The history persisted in `log`.
    history: History,
    /// `history_churn`: rounds grow the history and its log for good, and
    /// every figure follows the history's size. So each round pair runs on a
    /// copy set up afresh from the starting history; see [`Inputs::setup`].
    pub churn: bool,
    streams: Vec<Vec<Op>>,
    plan: Vec<Request>,
    sites: Arc<Sites>,
    /// `async_replay` only: length of the untimed learning pass and the
    /// signatures it added.
    pub learn_ms: f64,
    pub learned: usize,
}

pub fn build_runtime(log: &Path) -> Arc<DimmunixRuntime> {
    // Builder defaults, as `ImmuneMutex::new` users get, plus the log. No
    // fsync per append: the log sits on whatever disk holds the checkout,
    // and `history_churn` would otherwise time that disk.
    DimmunixRuntime::builder()
        .history_path(log)
        .log_sync(false)
        .build()
}

/// Generates the inputs of workload `name` from `seed` and persists its
/// history under `scratch`.
pub fn generate(name: &str, seed: u64, scratch: &Path, requests: usize) -> Inputs {
    let (index, &(name, _)) = WORKLOADS
        .iter()
        .enumerate()
        .find(|(_, (n, _))| *n == name)
        .expect("workload names are validated by the caller");
    let rng = Rng::new(seed).fork(index as u64);
    let mut streams = Vec::new();
    let mut plan = Vec::new();
    let (mut learn_ms, mut learned) = (0.0, 0);
    let mut history = background_history(BACKGROUND_SIGNATURES);
    match name {
        "flat_sections" => {
            streams = (0..2)
                .map(|t| flat_stream(&mut rng.fork(t), false))
                .collect();
        }
        "nested_transfers" => {
            streams = vec![transfer_stream(&mut rng.fork(0))];
        }
        "history_churn" => {
            streams = vec![flat_stream(&mut rng.fork(0), true)];
            history = background_history(CHURN_BASE_SIGNATURES);
        }
        "async_clean" => plan = request_plan(&mut rng.fork(0), requests, 0),
        "async_replay" => {
            plan = request_plan(&mut rng.fork(0), requests, INVERT_EVERY);
            let began = Instant::now();
            history = learn(&plan, history);
            learn_ms = began.elapsed().as_secs_f64() * 1e3;
            learned = history.len() - BACKGROUND_SIGNATURES;
        }
        _ => unreachable!("matched against WORKLOADS above"),
    }
    let churn = name == "history_churn";
    // Collisions in the admission filter are `history_churn`'s subject: its
    // sites are taken as they fall. Everywhere else they are "in no
    // signature", so chosen clean.
    let filter = if churn {
        AdmissionSummary::new()
    } else {
        admission_filter(&history)
    };
    let inputs = Inputs {
        name,
        log: scratch.join(format!("{name}.history")),
        history,
        churn,
        streams,
        plan,
        sites: Arc::new(Sites::new(&filter)),
        learn_ms,
        learned,
    };
    inputs.write_log();
    inputs
}

/// The untimed learning pass of `async_replay`: serves inverted plans on a
/// runtime that detects and records each task-level cycle, until neither
/// plan closes a cycle the history does not already hold.
///
/// Which cycles a plan happens to close, and so how many signatures it
/// teaches (21 to 39 over ten seeds), decides how much work every later
/// request's avoidance check is. Learning from the run's own plan would make
/// the replay's cost a property of the draw, not of the library. So the
/// history is learned from one plan that does not depend on the seed, and
/// the run's plan is then served against it to show that it teaches nothing
/// more (any signature it does add is kept).
fn learn(plan: &[Request], background: History) -> History {
    let fixed = request_plan(&mut Rng::new(0x1ea2), plan.len(), INVERT_EVERY);
    let mut history = background;
    for plan in [&fixed[..], plan] {
        for _pass in 0..8 {
            let rt = DimmunixRuntime::builder().history(history).build();
            let locks = Locks::new(SERVER_RESOURCES, || asyncio::Mutex::new_in(&rt, 0u64));
            let out = serve(&Executor::new_in(&rt, SERVER_WORKERS), &locks, plan, true);
            assert_eq!(
                out.report.stuck, 0,
                "a learning pass refuses, it never hangs"
            );
            history = rt.history();
            if rt.stats().deadlocks_detected == 0 {
                break;
            }
        }
    }
    history
}

impl Inputs {
    /// Threads that work the runtime throughout a round (the `history_churn`
    /// writer sleeps nine tenths of the time and is not counted).
    pub fn load_threads(&self) -> usize {
        self.streams.len().max(1)
    }

    fn write_log(&self) {
        HistoryLog::new(&self.log)
            .with_sync(false)
            .rewrite(&self.history)
            .expect("the scratch directory is writable");
    }

    /// Set-up: replays the history log into a runtime with the default
    /// configuration and creates the workload's immune locks on it. Returns
    /// how long that took, and how long the runtime alone.
    ///
    /// The log holds the starting history every time: the `history_churn`
    /// writer appends to it, so there it is written anew first, untimed.
    pub fn setup(&self) -> (Box<dyn Workload>, Duration, Duration) {
        if self.churn {
            self.write_log();
        }
        let began = Instant::now();
        let rt = build_runtime(&self.log);
        let built = began.elapsed();
        let workload: Box<dyn Workload> = match self.name {
            "flat_sections" => Box::new(ThreadWorkload::new(rt, self, LOCKS / 2, LOCKS / 2, 0)),
            "nested_transfers" => Box::new(ThreadWorkload::new(rt, self, LOCKS, 0, 1000)),
            "history_churn" => Box::new(ThreadWorkload::new(rt, self, LOCKS / 2, 0, 0)),
            _ => Box::new(ServerWorkload::new(rt, self)),
        };
        (workload, began.elapsed(), built)
    }
}

/// `flat_sections`, `nested_transfers` and `history_churn`.
struct ThreadWorkload {
    rt: Arc<DimmunixRuntime>,
    name: &'static str,
    sites: Arc<Sites>,
    shape: (usize, usize, i64),
    streams: Vec<Vec<Op>>,
    immune: Immune,
    bare: Bare,
    traced: Option<Traced>,
    /// Additions made through each substrate, for the conservation check.
    adds: [u64; 3],
    /// Acquisitions the runtime should have counted.
    acquisitions: u64,
    refused: u64,
    novel: Box<dyn Iterator<Item = Signature>>,
}

impl ThreadWorkload {
    fn new(
        rt: Arc<DimmunixRuntime>,
        inputs: &Inputs,
        mutexes: usize,
        rwlocks: usize,
        initial: i64,
    ) -> Self {
        ThreadWorkload {
            immune: Immune::new(&rt, &inputs.sites, mutexes, rwlocks, initial),
            bare: Bare::new(mutexes, rwlocks, initial),
            traced: None,
            rt,
            name: inputs.name,
            sites: Arc::clone(&inputs.sites),
            shape: (mutexes, rwlocks, initial),
            streams: inputs.streams.clone(),
            adds: [0; 3],
            acquisitions: 0,
            refused: 0,
            novel: Box::new((0..).map(|i| synthetic_signature("Novel", i))),
        }
    }

    /// Books a finished round: additions for the conservation check, and
    /// for the sides that call the runtime, the acquisitions it should have
    /// counted.
    fn account(&mut self, side: usize, (r, adds): (Round, u64)) -> Round {
        self.adds[side] += adds;
        if side != BARE {
            let per_op = if self.name == "nested_transfers" {
                2
            } else {
                1
            };
            self.acquisitions += r.ops * per_op;
            self.refused += r.failed;
        }
        r
    }
}

/// One round of a thread workload on substrate `s`. `history_churn` (one
/// stream) runs its writer beside the reader; `writes_to` is where the
/// writer installs, absent for the bare twin.
fn thread_round<S: Substrate>(
    s: &S,
    churn: bool,
    streams: &[Vec<Op>],
    len: Duration,
    writes_to: Option<&DimmunixRuntime>,
    novel: &mut impl Iterator<Item = Signature>,
) -> (Round, u64) {
    if !churn {
        return Round::from_workers(round(s, streams, len));
    }
    let (reader, writer) = churn_round(s, &streams[0], len, writes_to, novel);
    let (mut r, adds) = Round::from_workers(vec![reader]);
    r.due = writer.latency_ns.len() as u64;
    r.late = writer.late;
    r.installs_ns = writer.latency_ns;
    (r, adds)
}

impl Workload for ThreadWorkload {
    fn immune(&mut self, len: Duration) -> Round {
        let churn = self.name == "history_churn";
        let out = thread_round(
            &self.immune,
            churn,
            &self.streams,
            len,
            Some(&self.rt),
            &mut self.novel,
        );
        self.account(IMMUNE, out)
    }

    fn bare(&mut self, len: Duration) -> Round {
        let churn = self.name == "history_churn";
        let out = thread_round(&self.bare, churn, &self.streams, len, None, &mut self.novel);
        self.account(BARE, out)
    }

    fn traced(&mut self, len: Duration) -> Round {
        let (m, r, initial) = self.shape;
        let traced = self
            .traced
            .get_or_insert_with(|| Traced::new(&self.rt, &self.sites, m, r, initial));
        let churn = self.name == "history_churn";
        let out = thread_round(
            traced,
            churn,
            &self.streams,
            len,
            Some(&self.rt),
            &mut self.novel,
        );
        self.account(TRACED, out)
    }

    fn runtime(&self) -> &Arc<DimmunixRuntime> {
        &self.rt
    }

    fn check(self: Box<Self>) -> Vec<String> {
        let mut failures = Vec::new();
        let (m, r, initial) = self.shape;
        let start = (m + r) as i64 * initial;
        let totals = [
            ("immune", self.immune.total()),
            ("bare", self.bare.total()),
            ("traced", self.traced.as_ref().map_or(start, |t| t.total())),
        ];
        for (i, (side, total)) in totals.into_iter().enumerate() {
            let want = start + self.adds[i] as i64;
            if total != want {
                failures.push(format!(
                    "{side} locks hold {total} in total, expected {want}"
                ));
            }
        }
        // total() above took every immune lock once more.
        let expected = self.acquisitions + (m + r) as u64;
        check_runtime(&self.rt, expected, self.refused, true, &mut failures);
        failures
    }
}

/// Checks every workload makes of the runtime's own counters.
fn check_runtime(
    rt: &DimmunixRuntime,
    acquisitions: u64,
    refused: u64,
    clean: bool,
    failures: &mut Vec<String>,
) {
    let stats = rt.stats();
    if stats.acquisitions != stats.releases {
        failures.push(format!(
            "{} acquisitions but {} releases",
            stats.acquisitions, stats.releases
        ));
    }
    // A refused operation may have acquired its first lock or not.
    if refused == 0 && stats.acquisitions != acquisitions {
        failures.push(format!(
            "runtime counted {} acquisitions, the workload made {acquisitions}",
            stats.acquisitions
        ));
    }
    if stats.deadlocks_detected != 0 {
        failures.push(format!("{} deadlocks detected", stats.deadlocks_detected));
    }
    if clean && stats.yields != 0 {
        failures.push(format!("{} yields on a clean workload", stats.yields));
    }
}

/// `async_clean` and `async_replay`.
struct ServerWorkload {
    rt: Arc<DimmunixRuntime>,
    clean: bool,
    plan: Vec<Request>,
    immune: Rc<Locks<asyncio::Mutex<u64>>>,
    bare: Rc<Locks<BenchMutex>>,
    traced: Option<Rc<Locks<BenchMutex>>>,
    spans: Rc<RefCell<Spans>>,
    /// Requests served through each set of locks.
    served: [u64; 3],
    refused: u64,
}

impl ServerWorkload {
    fn new(rt: Arc<DimmunixRuntime>, inputs: &Inputs) -> Self {
        ServerWorkload {
            immune: Locks::new(SERVER_RESOURCES, || asyncio::Mutex::new_in(&rt, 0u64)),
            bare: Locks::new(SERVER_RESOURCES, BenchMutex::bare),
            traced: None,
            spans: Rc::default(),
            rt,
            clean: inputs.name == "async_clean",
            plan: inputs.plan.clone(),
            served: [0; 3],
            refused: 0,
        }
    }

    /// Serves the whole plan again and again until `len` has passed.
    fn rounds(
        &mut self,
        which: usize,
        len: Duration,
        mut pass: impl FnMut(&Self) -> ServeOut,
    ) -> Round {
        let mut r = Round {
            latency_ops: 1.0,
            ..Round::default()
        };
        let mut elapsed_ns = 0u64;
        while elapsed_ns < len.as_nanos() as u64 {
            let out = pass(self);
            r.ops += out.report.completed as u64;
            r.attempted += self.plan.len() as u64;
            r.failed += out.report.stuck as u64 + out.refused;
            r.polls += out.report.polls;
            r.latency_ns.extend(out.latency_ns);
            elapsed_ns += out.elapsed_ns;
            self.refused += out.refused;
        }
        self.served[which] += r.ops;
        r.ns_per_op = elapsed_ns as f64 / r.ops.max(1) as f64;
        r.ops_per_s = 1e9 / r.ns_per_op;
        r
    }
}

impl Workload for ServerWorkload {
    fn immune(&mut self, len: Duration) -> Round {
        self.rounds(IMMUNE, len, |w| {
            let ex = Executor::new_in(&w.rt, SERVER_WORKERS);
            serve(&ex, &w.immune, &w.plan, true)
        })
    }

    fn bare(&mut self, len: Duration) -> Round {
        self.rounds(BARE, len, |w| {
            serve(&BareExecutor::default(), &w.bare, &w.plan, false)
        })
    }

    fn traced(&mut self, len: Duration) -> Round {
        if self.traced.is_none() {
            let (rt, spans) = (&self.rt, &self.spans);
            self.traced = Some(Locks::new(SERVER_RESOURCES, || {
                BenchMutex::traced(rt, spans)
            }));
        }
        *self.spans.borrow_mut() = Spans::default();
        let mut r = self.rounds(TRACED, len, |w| {
            let ex = Executor::new_in(&w.rt, SERVER_WORKERS);
            serve(
                &ex,
                w.traced.as_ref().expect("created above"),
                &w.plan,
                true,
            )
        });
        r.spans = *self.spans.borrow();
        r
    }

    fn runtime(&self) -> &Arc<DimmunixRuntime> {
        &self.rt
    }

    fn check(self: Box<Self>) -> Vec<String> {
        let mut failures = Vec::new();
        fn counters<L: ServerLock>(
            side: &str,
            locks: Rc<Locks<L>>,
            served: u64,
            failures: &mut Vec<String>,
        ) {
            let Ok(locks) = Rc::try_unwrap(locks) else {
                failures.push(format!("{side}: a stuck task still owns the locks"));
                return;
            };
            let stats = locks.stats.into_value();
            let resources: u64 = locks.resources.into_iter().map(L::into_value).sum();
            if stats != served || resources != 2 * served {
                failures.push(format!(
                    "{side}: {served} requests served, statistics lock counts {stats}, resources {resources}"
                ));
            }
        }
        let this = *self;
        counters("immune", this.immune, this.served[IMMUNE], &mut failures);
        counters("bare", this.bare, this.served[BARE], &mut failures);
        if let Some(traced) = this.traced {
            counters("traced", traced, this.served[TRACED], &mut failures);
        }
        let acquisitions = (this.served[IMMUNE] + this.served[TRACED]) * 3;
        check_runtime(
            &this.rt,
            acquisitions,
            this.refused,
            this.clean,
            &mut failures,
        );
        failures
    }
}
