//! The allocation budget of start-up, counted by an allocator local to this
//! test binary: building the history a process replays, bulk-building its
//! snapshot, and replaying its log, each over 1024 two-pair signatures.
//!
//! The persistent tries under all three update in place any node nothing
//! else shares, so a bulk build allocates each node once. Path-copying every
//! update instead — a fresh root-to-leaf spine per pushed slot, interned
//! stack and index row — cost 14 814, 73 902 and 55 774 allocations here;
//! the first two bounds sit more than 2x below that. Most of what replay
//! still allocates is decoding: each record's JSON objects, strings and
//! frames. The counts do not depend on the host, only on the code, so a
//! bound that starts failing means start-up went back to copying.

use dimmunix_core::{
    CallStack, Frame, History, HistorySnapshot, Signature, SignatureKind, SignaturePair,
    DEFAULT_STACK_DEPTH,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter with a
// const initialiser and no destructor, so touching it allocates nothing and
// is valid for the whole life of a thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
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

/// Allocations this thread makes while running `f`, and its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const SIGNATURES: usize = 1024;

/// Counted 6 282.
const BUILD_HISTORY: u64 = 7_000;
/// Counted 30 027.
const BUILD_SNAPSHOT: u64 = 32_000;
/// Counted 38 026.
const REPLAY_LOG: u64 = 40_000;

/// Signature `i`: two pairs at four sites of their own, as a process that
/// learned 1024 distinct bugs would hold them.
fn signature(i: usize) -> Signature {
    let at = |role: &str| CallStack::single(Frame::new(format!("Svc{i}.{role}"), "svc.rs", 1));
    Signature::new(
        SignatureKind::Deadlock,
        vec![
            SignaturePair::new(at("outerA"), at("innerA")),
            SignaturePair::new(at("outerB"), at("innerB")),
        ],
    )
}

fn history() -> History {
    (0..SIGNATURES).map(signature).collect()
}

#[test]
fn the_counter_counts() {
    let buffer = || drop(std::hint::black_box(Vec::<u64>::with_capacity(8)));
    assert_eq!(allocations(buffer).0, 1);
}

/// `History::add` of 1024 new signatures, moved in (the signatures' own
/// allocations are made before counting).
#[test]
fn building_the_history_stays_within_budget() {
    let signatures: Vec<Signature> = (0..SIGNATURES).map(signature).collect();
    let (counted, history) = allocations(|| {
        let mut history = History::new();
        for sig in signatures {
            history.add(sig);
        }
        history
    });
    assert_eq!(history.len(), SIGNATURES);
    assert!(counted <= BUILD_HISTORY, "{counted} allocations");
}

/// `HistorySnapshot::build` over 1024 signatures: intern 2048 outer stacks
/// and index every signature under them.
#[test]
fn building_the_snapshot_stays_within_budget() {
    let history = history();
    let (counted, snapshot) = allocations(|| HistorySnapshot::build(history, DEFAULT_STACK_DEPTH));
    assert_eq!(snapshot.outer_len(), 2 * SIGNATURES);
    assert!(counted <= BUILD_SNAPSHOT, "{counted} allocations");
}

/// Replaying a 1024-record log: decode every record and add it once.
#[test]
fn replaying_the_log_stays_within_budget() {
    let text = history().to_text();
    let (counted, replay) = allocations(|| History::replay_log_text(&text));
    let replay = replay.expect("the log is whole");
    assert_eq!(replay.records, SIGNATURES);
    assert_eq!(replay.history.to_text(), text);
    assert!(counted <= REPLAY_LOG, "{counted} allocations");
}
