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
//! `BENCH_engine_hotpath.json` carries every cell; `check_bench` gates the
//! two counts, which do not depend on the host.

use dimmunix_bench::harness::bench;
use dimmunix_bench::report::{write_bench_json, BenchJson};
use dimmunix_core::{CallStack, Config, Dimmunix, Frame, LockId, PositionId, ThreadId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::synthetic_history;

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
    // Every cell requests at clean positions, so the gated figures are the
    // worst cell's.
    let report = BenchJson::new()
        .str("bench", "engine_hotpath")
        .obj("cells", cells)
        .num("allocs_per_cycle_clean", allocs_clean)
        .num("signatures_examined_per_check_clean", examined_clean);
    let path = write_bench_json("engine_hotpath", &report).expect("write bench report");
    println!("report: {}", path.display());
}
