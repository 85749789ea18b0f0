//! Integration tests for the real-thread runtime (dimmunix-rt on
//! dimmunix-core): detect-then-avoid on mutexes, reader–writer locks and
//! across engine shards, history persistence to disk (with recovery
//! diagnostics), and a many-thread stress run that must never hang. Every
//! AB/BA schedule is ordered by request counts (`common::ab_ba`), never by
//! sleeps.

use dimmunix::core::SignatureKind;
use dimmunix::rt::{
    AcquisitionSite, DeadlockPolicy, DimmunixRuntime, ImmuneMutex, ImmuneRwLock, LockError,
};
use std::ops::Deref;
use std::sync::Arc;

mod common;

const OUTER_A: AcquisitionSite = AcquisitionSite::new("it.outerA", "it_rt.rs", 1);
const INNER_A: AcquisitionSite = AcquisitionSite::new("it.innerA", "it_rt.rs", 2);
const OUTER_B: AcquisitionSite = AcquisitionSite::new("it.outerB", "it_rt.rs", 3);
const INNER_B: AcquisitionSite = AcquisitionSite::new("it.innerB", "it_rt.rs", 4);

fn adversarial_run(rt: &Arc<DimmunixRuntime>) -> (Result<(), LockError>, Result<(), LockError>) {
    const SITES: [[AcquisitionSite; 2]; 2] = [[OUTER_A, INNER_A], [OUTER_B, INNER_B]];
    let (a, b) = (ImmuneMutex::new_in(rt, 0), ImmuneMutex::new_in(rt, 0));
    let [r1, r2] = common::ab_ba(rt, [&a, &b], |m, thread, inner| {
        m.lock_at(SITES[thread][usize::from(inner)])
    });
    (r1, r2)
}

/// End-to-end "immunity develops" on real threads: run 1 detects the AB/BA
/// deadlock, refuses it naming one of the two locks and the refused site,
/// and records one signature; run 2, with that history, completes and
/// learns nothing new.
#[test]
fn real_threads_learn_and_avoid_ab_ba() {
    const SITES: [[AcquisitionSite; 2]; 2] = [
        [
            AcquisitionSite::new("transfer.a_to_b", "bank.rs", 10),
            AcquisitionSite::new("transfer.a_to_b.inner", "bank.rs", 11),
        ],
        [
            AcquisitionSite::new("transfer.b_to_a", "bank.rs", 20),
            AcquisitionSite::new("transfer.b_to_a.inner", "bank.rs", 21),
        ],
    ];
    let run = |rt: &Arc<DimmunixRuntime>| {
        let (a, b) = (ImmuneMutex::new_in(rt, 0i64), ImmuneMutex::new_in(rt, 0i64));
        let results = common::ab_ba(rt, [&a, &b], |m, thread, inner| {
            m.lock_at(SITES[thread][usize::from(inner)])
        });
        (results, [a.lock_id(), b.lock_id()])
    };
    let builder = || DimmunixRuntime::builder().deadlock_policy(DeadlockPolicy::Error);

    // Run 1: the refusal names the antibody's lock and the refused call
    // site, what a fail-safe retry loop would log.
    let rt = builder().build();
    let ([r1, r2], locks) = run(&rt);
    let Some(LockError::WouldDeadlock { lock, site, .. }) = r1.err().or(r2.err()) else {
        panic!("the adversarial schedule must produce a detected deadlock");
    };
    assert!(locks.contains(&lock));
    assert_eq!(site.file, "bank.rs");
    let history = rt.history();
    assert_eq!(history.len(), 1);
    assert_eq!(
        history.iter().next().unwrap().1.kind(),
        SignatureKind::Deadlock
    );

    // Run 2: same lock order, antibody loaded, completes.
    let rt = builder().history(history).build();
    let ([r1, r2], _) = run(&rt);
    assert!(
        r1.is_ok() && r2.is_ok(),
        "replay must complete: {r1:?} {r2:?}"
    );
    assert_eq!(rt.stats().deadlocks_detected, 0);
    assert_eq!(rt.history().len(), 1, "no new signature on the replay");
}

/// Each thread of the writer/writer inversion write-locks its first lock
/// and then read-locks the other, at implicit sites of its own (one line
/// per thread and step).
fn write_then_read(
    l: &ImmuneRwLock<u32>,
    thread: usize,
    inner: bool,
) -> Result<Box<dyn Deref<Target = u32> + '_>, LockError> {
    Ok(match (thread, inner) {
        (0, false) => Box::new(l.write()?),
        (0, true) => Box::new(l.read()?),
        (_, false) => Box::new(l.write()?),
        (_, true) => Box::new(l.read()?),
    })
}

/// Writer/writer inversion across two `ImmuneRwLock`s, implicit sites:
/// detected once, avoided on the replay — the reader-writer scenario
/// family goes through the same engine path as monitors.
#[test]
fn rwlock_writer_writer_inversion_learns_and_avoids() {
    let run = |rt: &Arc<DimmunixRuntime>| {
        let (a, b) = (ImmuneRwLock::new_in(rt, 1), ImmuneRwLock::new_in(rt, 1));
        common::ab_ba(rt, [&a, &b], write_then_read)
    };
    let builder = || DimmunixRuntime::builder().deadlock_policy(DeadlockPolicy::Error);

    // Run 1: the write/read inversion deadlocks and is detected.
    let rt = builder().build();
    let [r1, r2] = run(&rt);
    assert!(
        r1.is_err() || r2.is_err(),
        "the adversarial schedule must deadlock: {r1:?} {r2:?}"
    );
    assert_eq!(rt.stats().deadlocks_detected, 1);
    let history = rt.history();
    assert_eq!(history.len(), 1);

    // Run 2: antibody loaded, the same code completes.
    let rt = builder().history(history).build();
    let [r1, r2] = run(&rt);
    assert!(
        r1.is_ok() && r2.is_ok(),
        "replay must complete: {r1:?} {r2:?}"
    );
    assert_eq!(rt.stats().deadlocks_detected, 0);
    assert_eq!(rt.history().len(), 1, "no new signature on the replay");
}

/// Allocates immune mutexes until two of them live on different shards
/// of `rt`, and returns that pair.
fn cross_shard_pair(rt: &Arc<DimmunixRuntime>) -> (ImmuneMutex<u64>, ImmuneMutex<u64>) {
    let first = ImmuneMutex::new_in(rt, 0u64);
    let home = rt.shard_of(first.lock_id());
    for _ in 0..64 {
        let other = ImmuneMutex::new_in(rt, 0u64);
        if rt.shard_of(other.lock_id()) != home {
            return (first, other);
        }
    }
    panic!("router failed to spread 64 sequential lock ids over shards");
}

/// Cross-shard detection: the AB/BA cycle where A and B live on
/// different engine shards must be detected through the multi-shard
/// snapshot path, recorded once, and avoided on the replay.
#[test]
fn cross_shard_deadlock_is_detected_and_avoided() {
    const SITES: [[AcquisitionSite; 2]; 2] = [
        [
            AcquisitionSite::new("xs.a_outer", "xs.rs", 10),
            AcquisitionSite::new("xs.a_inner", "xs.rs", 11),
        ],
        [
            AcquisitionSite::new("xs.b_outer", "xs.rs", 20),
            AcquisitionSite::new("xs.b_inner", "xs.rs", 21),
        ],
    ];
    let run = |rt: &Arc<DimmunixRuntime>| {
        let (a, b) = cross_shard_pair(rt);
        assert_ne!(
            rt.shard_of(a.lock_id()),
            rt.shard_of(b.lock_id()),
            "the cycle must span two shards"
        );
        common::ab_ba(rt, [&a, &b], |m, thread, inner| {
            m.lock_at(SITES[thread][usize::from(inner)])
        })
    };
    let builder = || {
        DimmunixRuntime::builder()
            .deadlock_policy(DeadlockPolicy::Error)
            .shards(4)
    };

    // Run 1: the cross-shard deadlock is detected and recorded.
    let rt = builder().build();
    let [r1, r2] = run(&rt);
    assert!(
        r1.is_err() || r2.is_err(),
        "the adversarial schedule must produce a detected cross-shard deadlock"
    );
    let history = rt.history();
    assert_eq!(history.len(), 1);
    assert_eq!(rt.stats().deadlocks_detected, 1);

    // Run 2: antibody loaded, the replay completes.
    let rt = builder().history(history).build();
    let [r1, r2] = run(&rt);
    assert!(
        r1.is_ok() && r2.is_ok(),
        "replay must complete: {r1:?} {r2:?}"
    );
    assert_eq!(rt.stats().deadlocks_detected, 0);
    assert_eq!(rt.history().len(), 1, "no new signature on the replay");
}

#[test]
fn immunity_persists_across_runtime_restarts_via_history_file() {
    let dir = std::env::temp_dir().join(format!("dimmunix-it-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let history_path = dir.join("app.history");

    let builder = || {
        DimmunixRuntime::builder()
            .deadlock_policy(DeadlockPolicy::Error)
            .history_path(&history_path)
    };

    // Run 1: the deadlock is detected, refused, and persisted to disk.
    {
        let rt = builder().build();
        let report = rt.recovery_report().expect("a log path is configured");
        assert_eq!(report.replayed, 0, "nothing on disk yet: {report}");
        assert!(report.is_clean());
        let (r1, r2) = adversarial_run(&rt);
        assert!(r1.is_err() || r2.is_err(), "run 1 must detect the deadlock");
        assert_eq!(rt.history().len(), 1);
        assert_eq!(
            rt.history().iter().next().unwrap().1.kind(),
            SignatureKind::Deadlock
        );
    }
    assert!(history_path.exists(), "history must be persisted");

    // Run 2: a *fresh* runtime (new process, conceptually) loads the file
    // — and says so in its recovery report — and the same schedule
    // completes.
    {
        let rt = builder().build();
        let report = rt.recovery_report().expect("a log path is configured");
        assert_eq!(report.replayed, 1, "one antibody replayed: {report}");
        assert!(report.is_clean());
        assert_eq!(rt.history().len(), 1, "antibody loaded from disk");
        let (r1, r2) = adversarial_run(&rt);
        assert!(
            r1.is_ok() && r2.is_ok(),
            "run 2 must complete: {r1:?} {r2:?}"
        );
        assert_eq!(rt.stats().deadlocks_detected, 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn many_threads_with_random_transfers_never_hang() {
    // A stress run in the spirit of the bank example: 8 tellers, 6 accounts,
    // random lock ordering, error policy. The invariants: the run finishes
    // (no hang), money is conserved, and every refused transfer corresponds
    // to a detected deadlock cycle.
    let rt = DimmunixRuntime::builder()
        .deadlock_policy(DeadlockPolicy::Error)
        .build();
    let accounts: Arc<Vec<ImmuneMutex<i64>>> =
        Arc::new((0..6).map(|_| ImmuneMutex::new_in(&rt, 100)).collect());
    let mut handles = Vec::new();
    for teller in 0..8u64 {
        let accounts = accounts.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = teller.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            let mut refused = 0u64;
            for _ in 0..200 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let from = (rng % 6) as usize;
                let to = ((rng >> 8) % 6) as usize;
                if from == to {
                    continue;
                }
                let res = (|| -> Result<(), LockError> {
                    let mut src = accounts[from].lock_at(AcquisitionSite::new(
                        "stress.from",
                        "it_rt.rs",
                        10,
                    ))?;
                    let mut dst =
                        accounts[to].lock_at(AcquisitionSite::new("stress.to", "it_rt.rs", 11))?;
                    *src -= 1;
                    *dst += 1;
                    Ok(())
                })();
                if res.is_err() {
                    refused += 1;
                }
            }
            refused
        }));
    }
    let refused: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let total: i64 = (0..6)
        .map(|i| {
            *accounts[i]
                .lock_at(AcquisitionSite::new("stress.sum", "it_rt.rs", 12))
                .unwrap()
        })
        .sum();
    assert_eq!(total, 600, "money conserved");
    let stats = rt.stats();
    assert!(refused <= stats.deadlocks_detected + stats.yields + 1_000);
    // Once recorded, the two-site pattern is avoided, so the history stays
    // tiny even under stress.
    assert!(rt.history().len() <= 8, "history: {}", rt.history().len());
}

#[test]
fn vendor_shipped_antibodies_protect_from_the_first_run() {
    // "Software vendors can use Dimmunix as a safety net": pre-seed the
    // runtime with the signature and the adversarial schedule never
    // deadlocks, even on its very first execution.
    let trained = DimmunixRuntime::builder()
        .deadlock_policy(DeadlockPolicy::Error)
        .build();
    let (r1, r2) = adversarial_run(&trained);
    assert!(r1.is_err() || r2.is_err());
    let shipped = trained.history();

    let rt = DimmunixRuntime::builder()
        .deadlock_policy(DeadlockPolicy::Error)
        .history(shipped)
        .build();
    let (r1, r2) = adversarial_run(&rt);
    assert!(r1.is_ok() && r2.is_ok());
    assert_eq!(rt.stats().deadlocks_detected, 0);
}

#[test]
fn refusal_errors_carry_lock_and_site_context() {
    let rt = DimmunixRuntime::builder()
        .deadlock_policy(DeadlockPolicy::Error)
        .build();
    let (r1, r2) = adversarial_run(&rt);
    let refusal = r1.err().or(r2.err()).expect("one acquisition is refused");
    let rendered = refusal.to_string();
    match refusal {
        LockError::WouldDeadlock {
            signature, site, ..
        } => {
            assert!(rt.history().get(signature).is_some(), "a real antibody id");
            assert_eq!(site.file, "it_rt.rs", "the refused call site: {site}");
            assert!(
                rendered.contains("it_rt.rs"),
                "loggable context: {rendered}"
            );
        }
        other => panic!("unexpected refusal shape: {other}"),
    }
}

/// Readers of an `ImmuneRwLock` share the lock while a writer excludes
/// them, across OS threads, with balanced engine accounting — the repo-level
/// smoke test of the reader-crowd model.
#[test]
fn rwlock_readers_share_and_writers_exclude() {
    let rt = DimmunixRuntime::builder()
        .deadlock_policy(DeadlockPolicy::Error)
        .build();
    let rw = Arc::new(ImmuneRwLock::new_in(&rt, 0i64));

    // Phase 1: a crowd of readers overlaps inside the section.
    let in_section = Arc::new(std::sync::Barrier::new(4));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let rw = rw.clone();
        let in_section = in_section.clone();
        handles.push(std::thread::spawn(move || {
            let g = rw.read().unwrap();
            in_section.wait(); // all four hold the read lock simultaneously
            *g
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), 0);
    }

    // Phase 2: writers are mutually exclusive.
    let mut handles = Vec::new();
    for _ in 0..4 {
        let rw = rw.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..250 {
                *rw.write().unwrap() += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*rw.read().unwrap(), 1000);
    let stats = rt.stats();
    assert_eq!(stats.acquisitions, stats.releases, "balanced: {stats}");
    assert_eq!(stats.deadlocks_detected, 0);
}
