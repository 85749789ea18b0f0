//! How tier 1 fares as the history grows, as exact counts. Each runtime
//! takes one un-nested section at each of 256 fixed site names no signature
//! mentions; every section is a tier-1 attempt, so `fast_admits +
//! slow_fallbacks == 256`, and the split is exactly the number of clean
//! names the admission filter reports as possibly in the history. The names
//! and histories are fixed, so the collisions are integers, not rates.

use dimmunix_core::{CallStack, Config, Frame, History, Signature, SignatureKind, SignaturePair};
use dimmunix_rt::{AcquisitionSite, DimmunixRuntime};
use std::sync::Arc;

const FILE: &str = "decay.rs";
/// Clean sites acquired per runtime.
const CLEAN: usize = 256;
/// The churned runtime's signature cap.
const CHURN_CAP: usize = 256;

/// A two-position deadlock signature no section of this test acquires at.
fn synthetic(i: usize) -> Signature {
    let at = |role: &str| CallStack::single(Frame::new(format!("bg{i}.{role}"), FILE, 1));
    Signature::new(
        SignatureKind::Deadlock,
        vec![
            SignaturePair::new(at("outerA"), at("innerA")),
            SignaturePair::new(at("outerB"), at("innerB")),
        ],
    )
}

/// The 256 clean site names, leaked once: sites hold `&'static str`. A
/// depth-1 site key ignores the line, so each site needs its own scope.
fn clean_sites() -> Vec<AcquisitionSite> {
    (0..CLEAN)
        .map(|i| AcquisitionSite::new(Box::leak(format!("clean{i}").into_boxed_str()), FILE, 1))
        .collect()
}

/// `(fast_admits, slow_fallbacks)` of one section at each clean site.
fn tier1_split(rt: &DimmunixRuntime, sites: &[AcquisitionSite]) -> (u64, u64) {
    let lock = rt.allocate_lock();
    let before = rt.stats();
    for &site in sites {
        rt.before_acquire(lock, site).unwrap();
        rt.after_acquire(lock);
        rt.before_release(lock);
    }
    let after = rt.stats();
    (
        after.fast_admits - before.fast_admits,
        after.slow_fallbacks - before.slow_fallbacks,
    )
}

fn loaded(signatures: usize) -> Arc<DimmunixRuntime> {
    DimmunixRuntime::builder()
        .shards(2)
        .history((0..signatures).map(synthetic).collect::<History>())
        .build()
}

#[test]
fn tier1_admits_clean_sites_at_every_history_size() {
    let sites = clean_sites();
    let mut split = Vec::new();
    for (label, signatures) in [("0", 0), ("256", 256), ("1024", 1024), ("4096", 4096)] {
        split.push((label, tier1_split(&loaded(signatures), &sites)));
    }

    // Ten times its cap installed through the detection path, so eviction
    // retires all but the last 256.
    let churned = DimmunixRuntime::builder()
        .shards(2)
        .config(Config::builder().max_signatures(CHURN_CAP).build())
        .build();
    for i in 0..11 * CHURN_CAP {
        churned.add_signature(synthetic(i));
    }
    let stats = churned.stats();
    assert_eq!(stats.signatures_evicted, (10 * CHURN_CAP) as u64);
    assert_eq!(churned.history().len(), CHURN_CAP);
    split.push(("churned", tier1_split(&churned, &sites)));

    for (_, (fast, slow)) in &split {
        assert_eq!(fast + slow, CLEAN as u64);
    }
    let fallbacks: Vec<(&str, u64)> = split.iter().map(|&(n, (_, slow))| (n, slow)).collect();
    // A filter sized to the live history and rebuilt on eviction: at least
    // 16 bits per live outer position, so at most a few clean sites of 256
    // collide at any size. (A fixed, set-only 4096-bit filter with two bits
    // per key sent 0 / 13 / 102 / 243 here, and 221 on the churned runtime.)
    assert_eq!(
        fallbacks,
        [
            ("0", 0),
            ("256", 0),
            ("1024", 1),
            ("4096", 0),
            ("churned", 0)
        ],
        "clean sites falling back, per history"
    );
}
