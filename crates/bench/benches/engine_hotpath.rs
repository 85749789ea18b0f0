//! Bench for the engine hot path: how the per-acquisition cost scales with
//! history size, thread count, and avoidance on/off. This backs the design
//! discussion of §3.1/§4 (the global lock is acceptable because the three
//! hooks are cheap) with concrete numbers from the reproduction.
//!
//! One cycle is a `request` / `acquired` / `released_into` of one logical
//! thread at a position no signature mentions. Each (threads, history) cell
//! times it twice — through `request(&CallStack)`, which interns the stack on
//! every call as the runtime's hooks do, and through `request_at(PositionId)`.
//! The two columns (`request_ns_per_cycle` vs `request_at_ns_per_cycle`) are
//! ablation A2: call-stack capture against the compiler-assigned static site
//! id the paper proposes in §4. Two counts sit beside the timings: the
//! engine's own accounting of the avoidance hot path (`signatures examined /
//! instantiation checks`: zero with the inverted position index, where a
//! linear scan would examine the *entire* history, e.g. 256 signatures, on
//! every check), and heap allocations per cycle from an allocator that counts
//! in this binary only.
//!
//! Those cells request at clean positions only. One more, the **hot cell**,
//! requests where the avoidance check has work to do: a 2-shard
//! [`ShardedDimmunix`] whose requesting position is co-indexed by 16
//! signatures of arity 6, each with four warm slots (2 000 owners queued on
//! them, spread over both shards) and one cold slot, so every request takes
//! the all-shard path and examines 16 signatures, none of which can match.
//! `hot_check_ns` is one request / acquired / released cycle there.
//! `BENCH_engine_hotpath.json` carries every cell; `check_bench` gates the
//! three counts (clean and hot allocations, clean signatures examined), which
//! do not depend on the host; the timings are recorded, not gated.

use dimmunix_bench::harness::bench;
use dimmunix_bench::report::{write_bench_json, BenchJson};
use dimmunix_bench::workloads::synthetic_history;
use dimmunix_core::{
    CallStack, Config, Dimmunix, Frame, History, LockId, PositionId, ShardedDimmunix, Signature,
    SignatureKind, SignaturePair, ThreadId,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How a cycle names its position.
enum Sites {
    Stacks(Vec<CallStack>),
    Positions(Vec<PositionId>),
}

/// Drives `threads` logical threads through one acquire/release each, round
/// robin, against a single engine (the substrate's global lock is not part of
/// the measurement).
fn drive(
    engine: &mut Dimmunix,
    threads: u64,
    sites: &Sites,
    wake: &mut Vec<dimmunix_core::SignatureId>,
) {
    for t in 0..threads {
        let thread = ThreadId::new(t + 1);
        let lock = LockId::new(t + 1);
        let granted = match sites {
            Sites::Stacks(s) => engine.request(thread, lock, &s[t as usize % s.len()]),
            Sites::Positions(p) => engine.request_at(thread, lock, p[t as usize % p.len()]),
        };
        assert!(granted.is_granted());
        engine.acquired(thread, lock);
    }
    for t in 0..threads {
        engine.released_into(ThreadId::new(t + 1), LockId::new(t + 1), wake);
    }
}

/// The hot cell (module docs): `(ns, allocations, signatures examined)` per
/// request / acquired / released cycle at the hot position.
fn hot_cell() -> (f64, f64, f64) {
    const SIGNATURES: u32 = 16;
    const WARM_SITES: u32 = 4;
    const OWNERS_PER_WARM_SITE: u64 = 500;
    const REQUEST: &str = "Hot.s0.request";
    const WARM: &str = "Hot.s1.warm";
    let site = |name: &str, i: u32| CallStack::single(Frame::new(name, "hot.rs", i));
    let pair = |outer: CallStack| SignaturePair::new(outer.clone(), outer);
    let mut history = History::new();
    for k in 0..SIGNATURES {
        // A signature keeps its pairs sorted, and these names sort the cold
        // slot last: a check that builds candidates slot by slot pays for
        // every warm one before it finds out.
        let mut pairs = vec![pair(site(REQUEST, 0))];
        pairs.extend((0..WARM_SITES).map(|w| pair(site(WARM, w))));
        pairs.push(pair(site("Hot.s2.cold", k)));
        history.add(Signature::new(SignatureKind::Deadlock, pairs));
    }
    let mut engine = ShardedDimmunix::with_history(Config::default(), 2, history);
    let mut next = 0u64;
    for w in 0..WARM_SITES {
        for _ in 0..OWNERS_PER_WARM_SITE {
            next += 1;
            let (owner, lock) = (ThreadId::new(next), LockId::new(next));
            assert!(engine.request(owner, lock, &site(WARM, w)).is_granted());
            engine.acquired(owner, lock);
        }
    }
    let (requester, hot) = (ThreadId::new(next + 1), site(REQUEST, 0));
    // One lock per home shard, taking turns.
    let lock_on = |shard| {
        (next + 1..)
            .map(LockId::new)
            .find(|l| engine.shard_of(*l) == shard)
    };
    let locks = [0, 1].map(|shard| lock_on(shard).expect("ids reach every shard"));
    let (mut wake, mut turn) = (Vec::new(), 0);
    let mut cycle = |engine: &mut ShardedDimmunix| {
        turn += 1;
        let lock = locks[turn % 2];
        assert!(engine.request(requester, lock, &hot).is_granted());
        engine.acquired(requester, lock);
        engine.released_into(requester, lock, &mut wake);
    };
    let m = bench("hot/shards2/sigs16/arity6", 20, 15, 200, || {
        cycle(&mut engine)
    });
    let (stats, before) = (engine.stats(), ALLOCS.load(Ordering::Relaxed));
    for _ in 0..1000 {
        cycle(&mut engine);
    }
    let allocs = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / 1000.0;
    let examined = (engine.stats().signatures_examined - stats.signatures_examined) as f64 / 1000.0;
    assert_eq!(engine.stats().yields, 0, "every signature has a cold slot");
    println!(
        "    hot position: {examined:.2} signatures examined, {allocs:.2} allocations per check"
    );
    (m.median_nanos(), allocs, examined)
}

fn main() {
    println!("engine_hotpath: per-batch cost of request/acquired/released");
    let mut cells = BenchJson::new();
    let (mut allocs_clean, mut examined_clean) = (0.0f64, 0.0f64);
    for &threads in &[2u64, 32, 128] {
        for &history in &[0usize, 256] {
            let mut engine = Dimmunix::with_history(Config::default(), synthetic_history(history));
            let stacks: Vec<CallStack> = (0..16)
                .map(|i| CallStack::single(Frame::new(format!("Worker.site{i}"), "hotpath.rs", i)))
                .collect();
            let positions = stacks.iter().map(|s| engine.intern_position(s)).collect();
            let mut wake = Vec::new();
            let name = format!("threads{threads}/history{history}");
            let mut ns_per_cycle = |label: &str, sites: Sites| {
                let m = bench(&format!("{name}/{label}"), 20, 15, 200, || {
                    drive(&mut engine, threads, &sites, &mut wake)
                });
                // Warm by now: count a batch of batches on its own.
                let before = ALLOCS.load(Ordering::Relaxed);
                for _ in 0..100 {
                    drive(&mut engine, threads, &sites, &mut wake);
                }
                let allocs = (ALLOCS.load(Ordering::Relaxed) - before) as f64;
                (
                    m.median_nanos() / threads as f64,
                    allocs / (100 * threads) as f64,
                )
            };
            let (request_ns, request_allocs) = ns_per_cycle("request", Sites::Stacks(stacks));
            let (request_at_ns, request_at_allocs) =
                ns_per_cycle("request_at", Sites::Positions(positions));
            let allocs_per_cycle = request_allocs.max(request_at_allocs);

            let stats = *engine.stats();
            let per_check = if stats.instantiation_checks == 0 {
                0.0
            } else {
                stats.signatures_examined as f64 / stats.instantiation_checks as f64
            };
            println!(
                "    avoidance accounting: {} checks, {} signatures examined \
                 ({per_check:.2} per check; a linear scan would examine {history} per check); \
                 {allocs_per_cycle:.2} allocations per cycle",
                stats.instantiation_checks, stats.signatures_examined
            );
            assert!(
                history == 0 || (per_check as usize) < history,
                "indexed avoidance must not scan the full history per acquisition"
            );
            allocs_clean = allocs_clean.max(allocs_per_cycle);
            examined_clean = examined_clean.max(per_check);
            cells = cells.obj(
                &format!("t{threads}_h{history}"),
                BenchJson::new()
                    .num("request_ns_per_cycle", request_ns)
                    .num("request_at_ns_per_cycle", request_at_ns)
                    .num("signatures_examined_per_check", per_check)
                    .num("allocs_per_cycle", allocs_per_cycle),
            );
        }
    }
    let (hot_ns, hot_allocs, hot_examined) = hot_cell();
    // Every cell above requests at clean positions, so the gated clean
    // figures are the worst cell's.
    let report = BenchJson::new()
        .str("bench", "engine_hotpath")
        .obj("cells", cells)
        .num("allocs_per_cycle_clean", allocs_clean)
        .num("signatures_examined_per_check_clean", examined_clean)
        .num("hot_check_ns", hot_ns)
        .num("hot_allocs_per_check", hot_allocs)
        .num("hot_signatures_examined_per_check", hot_examined);
    let path = write_bench_json("engine_hotpath", &report).expect("write bench report");
    println!("report: {}", path.display());
}
