//! Everything a workload is given: histories, acquisition sites, and the
//! seeded operation streams. The library under test receives only these.
//!
//! History and site *names* are constants, not seeded: a site's Bloom-filter
//! collisions with the history depend on the names alone, so seeding them
//! would make the tier mix (and with it every timing) differ between seeds.
//! The seed decides which lock, which site, which amount, in which order.

use crate::rng::Rng;
use dimmunix_core::{
    AdmissionSummary, CallStack, Frame, History, HistorySnapshot, Signature, SignatureKind,
    SignaturePair, DEFAULT_STACK_DEPTH,
};
use dimmunix_rt::AcquisitionSite;

/// Signatures in the background history of the thread and async workloads —
/// the largest history of the paper's microbenchmark.
pub const BACKGROUND_SIGNATURES: usize = 256;
/// Base history of `history_churn`.
pub const CHURN_BASE_SIGNATURES: usize = 1024;
/// Locks in `flat_sections` (half mutexes, half rwlocks) and accounts in
/// `nested_transfers`.
pub const LOCKS: usize = 64;
/// Distinct acquisition sites per kind of acquisition.
pub const SITES_PER_KIND: usize = 16;
/// Operations per generated stream; workers cycle through their stream.
pub const STREAM_OPS: usize = 4096;
/// Every eighth rwlock section writes.
const WRITE_EVERY: usize = 8;

/// A two-thread deadlock signature at positions named after `family` and
/// `i`. No workload acquires at these positions, so the signature is loaded,
/// indexed and screened against, but never matched.
pub fn synthetic_signature(family: &str, i: usize) -> Signature {
    let at =
        |role: &str| CallStack::single(Frame::new(format!("{family}{i}.{role}"), "bg.java", 1));
    Signature::new(
        SignatureKind::Deadlock,
        vec![
            SignaturePair::new(at("outerA"), at("innerA")),
            SignaturePair::new(at("outerB"), at("innerB")),
        ],
    )
}

/// `count` never-matched signatures.
pub fn background_history(count: usize) -> History {
    (0..count).map(|i| synthetic_signature("Bg", i)).collect()
}

/// The admission Bloom filter a runtime loaded with `history` starts with.
pub fn admission_filter(history: &History) -> AdmissionSummary {
    let summary = AdmissionSummary::new();
    summary.absorb_snapshot(&HistorySnapshot::build(
        history.clone(),
        DEFAULT_STACK_DEPTH,
    ));
    summary
}

/// The first `count` sites named `{prefix}{i}` that `filter` has not marked.
///
/// The thread workloads acquire at sites "in no signature"; a site whose key
/// merely collides in the 4096-bit filter would take the engine path on
/// every acquisition, and `flat_sections` would stop being the workload on
/// which the engine does nothing. Collisions are `history_churn`'s subject,
/// where the filter fills up during the run.
///
/// A depth-1 site key hashes scope and file but not the line, so distinct
/// sites need distinct scopes; the names are leaked once at start-up
/// because sites hold `&'static str`.
pub fn clean_sites(prefix: &str, count: usize, filter: &AdmissionSummary) -> Vec<AcquisitionSite> {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .filter(|scope| {
            let key = CallStack::single(Frame::new(scope.clone(), SITE_FILE, 1)).site_key();
            !filter.site_may_be_in_history(key)
        })
        .take(count)
        .map(|scope| AcquisitionSite::new(Box::leak(scope.into_boxed_str()), SITE_FILE, 1))
        .collect()
}

const SITE_FILE: &str = "workload.rs";

/// What one operation of a thread workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Lock mutex `first`, add one.
    Mutex,
    /// Read-lock rwlock `first`.
    Read,
    /// Write-lock rwlock `first`, add one.
    Write,
    /// Lock accounts `first` then `second` (`first < second`), move `amount`.
    Transfer,
}

/// One operation. Indices are into the workload's own lock and site tables.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    pub first: u8,
    pub second: u8,
    pub site: u8,
    pub amount: u8,
}

/// Un-nested sections over `LOCKS / 2` mutexes and, unless `mutex_only`,
/// `LOCKS / 2` rwlocks at 7 reads : 1 write.
pub fn flat_stream(rng: &mut Rng, mutex_only: bool) -> Vec<Op> {
    (0..STREAM_OPS)
        .map(|_| {
            let first = rng.below(LOCKS / 2) as u8;
            let kind = if mutex_only || rng.below(2) == 0 {
                Kind::Mutex
            } else if rng.below(WRITE_EVERY) == 0 {
                Kind::Write
            } else {
                Kind::Read
            };
            Op {
                kind,
                first,
                second: 0,
                site: rng.below(SITES_PER_KIND) as u8,
                amount: 0,
            }
        })
        .collect()
}

/// Transfers between two distinct accounts, locked in canonical (ascending)
/// order so the stream itself can never deadlock.
pub fn transfer_stream(rng: &mut Rng) -> Vec<Op> {
    (0..STREAM_OPS)
        .map(|_| {
            let a = rng.below(LOCKS);
            let b = (a + 1 + rng.below(LOCKS - 1)) % LOCKS;
            Op {
                kind: Kind::Transfer,
                first: a.min(b) as u8,
                second: a.max(b) as u8,
                site: rng.below(SITES_PER_KIND) as u8,
                amount: 1 + rng.below(9) as u8,
            }
        })
        .collect()
}

/// One request of the async server: a resource pair in acquisition order.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub first: usize,
    pub second: usize,
    pub inverted: bool,
}

pub const SERVER_REQUESTS: usize = 10_000;
pub const SERVER_WORKERS: usize = 4;
pub const SERVER_RESOURCES: usize = 32;
/// On `async_replay` every 40th request takes its pair in inverted order.
pub const INVERT_EVERY: usize = 40;

/// The request schedule; `invert_every == 0` gives the inversion-free one.
pub fn request_plan(rng: &mut Rng, requests: usize, invert_every: usize) -> Vec<Request> {
    (0..requests)
        .map(|rid| {
            let a = rng.below(SERVER_RESOURCES);
            let b = (a + 1 + rng.below(SERVER_RESOURCES - 1)) % SERVER_RESOURCES;
            let (lo, hi) = (a.min(b), a.max(b));
            let inverted = invert_every != 0 && rid % invert_every == invert_every - 1;
            let (first, second) = if inverted { (hi, lo) } else { (lo, hi) };
            Request {
                first,
                second,
                inverted,
            }
        })
        .collect()
}
