//! The admission filter's seqlock under growth and rebuild, on real
//! threads. One writer appends signatures until the filter doubles, then
//! evicts them again, so the summary alternates between publishing a level
//! built off to the side and refilling the live level in place (clearing
//! it first). Reader threads meanwhile run the epoch-validated
//! `try_admit` at the sites of signatures that stay live throughout: an
//! admit there would be a live key read as clear, which is exactly what a
//! refill without its odd epoch lets through.

use dimmunix_core::{
    Admission, AdmissionSummary, CallStack, Frame, History, HistorySnapshot, OwnerId, Signature,
    SignatureId, SignatureKind, SignaturePair, SiteKey,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

const FILE: &str = "seqlock.rs";
/// Signatures live throughout: 400 outer keys, level 1 (up to 512).
const STABLE: usize = 200;
/// Signatures appended then evicted per cycle: 600 keys at the peak, which
/// is level 2, and back.
const CHURN: usize = 100;
const CYCLES: usize = 40;
const READERS: u64 = 2;

fn signature(family: &str, i: usize) -> Signature {
    let at = |role: &str| CallStack::single(Frame::new(format!("{family}{i}.{role}"), FILE, 1));
    Signature::new(
        SignatureKind::Deadlock,
        vec![
            SignaturePair::new(at("outerA"), at("innerA")),
            SignaturePair::new(at("outerB"), at("innerB")),
        ],
    )
}

#[test]
fn no_validated_read_reports_a_live_key_clear_during_growth_or_rebuild() {
    let stable: History = (0..STABLE).map(|i| signature("stable", i)).collect();
    let live_keys: Vec<SiteKey> = stable
        .iter()
        .flat_map(|(_, sig)| sig.outer_stacks())
        .map(CallStack::site_key)
        .collect();
    let mut snap = HistorySnapshot::build(stable, 1);
    let summary = AdmissionSummary::new();
    summary.absorb_snapshot(&snap);

    let done = AtomicBool::new(false);
    let admits = AtomicU64::new(0);
    let probes = AtomicU64::new(0);
    thread::scope(|scope| {
        for reader in 0..READERS {
            let (summary, live_keys) = (&summary, &live_keys);
            let (done, admits, probes) = (&done, &admits, &probes);
            scope.spawn(move || {
                let owner = OwnerId::thread(reader);
                let mut n = 0;
                while !done.load(Ordering::Relaxed) {
                    for &key in live_keys {
                        if let Admission::Admit { .. } = summary.try_admit(key, owner) {
                            admits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    n += live_keys.len() as u64;
                }
                probes.fetch_add(n, Ordering::Relaxed);
            });
        }

        let mut next = 0;
        for _ in 0..CYCLES {
            let first = snap.index().id_bound();
            for _ in 0..CHURN {
                snap = snap.append(signature("churn", next)).0;
                next += 1;
                summary.absorb_snapshot(&snap);
            }
            for id in first..first + CHURN {
                snap = snap.evict(SignatureId::new(id)).expect("churn is live");
                summary.absorb_snapshot(&snap);
            }
        }
        done.store(true, Ordering::Relaxed);
    });

    assert!(probes.load(Ordering::Relaxed) > 0, "the readers ran");
    assert_eq!(
        admits.load(Ordering::Relaxed),
        0,
        "a validated read admitted a live signature's site"
    );
    // The writer really grew, refilled in place and shrank the filter.
    assert_eq!(snap.len(), STABLE);
    assert!(format!("{summary:?}").contains("level: 1"), "{summary:?}");
    assert_eq!(summary.filter_bytes(), 512 + 1024 + 2048);
}
