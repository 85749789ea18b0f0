//! Integration tests for the persistent history: record-codec round trips,
//! vendor merging, compatibility between signatures produced by the VM
//! substrate and consumed by the real-thread runtime (they share the
//! engine's representation), the shared-snapshot memory accounting, and
//! crash recovery of the append-only history log.

use dimmunix::core::{
    signature_to_log_record, CallStack, Config, Frame, History, HistoryLog, ShardedDimmunix,
    Signature, SignatureKind, SignaturePair,
};
use dimmunix::vm::{ProcessBuilder, RunOutcome};
use dimmunix::workloads::{dining_philosophers, synthetic_history};

mod common;

fn train_philosophers() -> History {
    for seed in 0..400u64 {
        let (program, main) = dining_philosophers(3, 2);
        let mut p = ProcessBuilder::new("philosophers", program)
            .seed(seed)
            .spawn_main(main);
        let _ = p.run(300_000);
        if !p.engine().history().is_empty() {
            return p.engine().history().clone();
        }
    }
    panic!("philosophers never deadlocked");
}

/// The two readers of the one record format — the strict text reader and
/// the tail-tolerant log replay — reconstruct a VM-produced history alike.
#[test]
fn vm_produced_history_round_trips_through_both_codecs() {
    let history = train_philosophers();
    let text = history.to_text();
    let from_text = History::from_text(&text).unwrap();
    let from_log = History::replay_log_text(&text).unwrap().history;
    assert_eq!(from_text.to_text(), text);
    assert_eq!(from_log.to_text(), text);
    for (id, sig) in history.iter() {
        assert!(from_text.get(id).unwrap().same_bug(sig));
    }
}

#[test]
fn history_file_written_by_one_process_protects_another() {
    let dir = std::env::temp_dir().join(format!("dimmunix-it-hist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("philosophers.history");

    // Process 1 (simulated): deadlocks and persists its antibody.
    let mut seed_used = None;
    for seed in 0..400u64 {
        let (program, main) = dining_philosophers(3, 2);
        let mut p = ProcessBuilder::new("philosophers", program)
            .seed(seed)
            .config(Config::builder().history_path(&path).build())
            .spawn_main(main);
        let _ = p.run(300_000);
        if !p.engine().history().is_empty() {
            seed_used = Some(seed);
            break;
        }
    }
    let seed = seed_used.expect("a deadlocking seed exists");
    assert!(path.exists());

    // Process 2: a fresh simulated process reads the same file and completes
    // the same schedule.
    let (program, main) = dining_philosophers(3, 2);
    let mut p = ProcessBuilder::new("philosophers", program)
        .seed(seed)
        .config(Config::builder().history_path(&path).build())
        .spawn_main(main);
    let outcome = p.run(5_000_000);
    assert_eq!(outcome, RunOutcome::Completed);
    assert_eq!(p.stats().deadlocks_detected, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merging_vendor_histories_deduplicates() {
    let mut local = train_philosophers();
    let vendor: History = vec![Signature::new(
        SignatureKind::Deadlock,
        vec![
            SignaturePair::new(
                CallStack::single(Frame::new("Vendor.lockA", "vendor.java", 1)),
                CallStack::single(Frame::new("Vendor.waitB", "vendor.java", 2)),
            ),
            SignaturePair::new(
                CallStack::single(Frame::new("Vendor.lockB", "vendor.java", 3)),
                CallStack::single(Frame::new("Vendor.waitA", "vendor.java", 4)),
            ),
        ],
    )]
    .into_iter()
    .collect();

    let before = local.len();
    assert_eq!(local.merge(&vendor), 1);
    assert_eq!(local.len(), before + 1);
    // Merging again adds nothing.
    assert_eq!(local.merge(&vendor), 0);
}

/// The acceptance criterion of the shared-history refactor: with a
/// platform-scale synthetic history (1000 signatures), the sharded engine's
/// memory footprint at 16 shards must stay within ~1.1x of a single shard —
/// the history, outer table, and index exist once per process instead of
/// once per shard.
#[test]
fn platform_scale_history_is_not_replicated_per_shard() {
    let history = synthetic_history(1000);
    let one = ShardedDimmunix::with_history(Config::default(), 1, history.clone());
    let sixteen = ShardedDimmunix::with_history(Config::default(), 16, history);
    let (a, b) = (
        one.memory_footprint_bytes(),
        sixteen.memory_footprint_bytes(),
    );
    assert!(
        a > 100_000,
        "1k signatures must have a visible footprint, got {a}"
    );
    let ratio = b as f64 / a as f64;
    assert!(
        ratio <= 1.1,
        "16 shards must not replicate the history: {b} vs {a} bytes ({ratio:.3}x)"
    );
    // Every shard reads the same snapshot allocation.
    for i in 0..sixteen.shard_count() {
        assert!(std::sync::Arc::ptr_eq(
            sixteen.history_snapshot(),
            sixteen.shard(i).history_snapshot()
        ));
    }
}

/// Crash recovery through the real-thread runtime: a process that is killed
/// mid-append (simulated by truncating the log inside the final record)
/// restarts with exactly the committed antibodies, and new detections
/// append cleanly to the repaired log.
#[test]
fn history_log_survives_a_kill_during_detection() {
    use dimmunix::rt::{DeadlockPolicy, DimmunixRuntime};

    let dir = std::env::temp_dir().join(format!("dimmunix-it-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("history.log");
    let builder = || {
        DimmunixRuntime::builder()
            .deadlock_policy(DeadlockPolicy::Error)
            .history_path(&path)
    };

    // Provoke two distinct deadlocks; each appends one record.
    let rt = builder().build();
    provoke_deadlocks(&rt, 2, KILL);
    let full = rt.history();
    assert_eq!(full.len(), 2);
    drop(rt);

    // The "kill": the second append was cut short.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();

    // Restart: the committed record is restored identically; the partial
    // one is repaired away (and reported, not silently dropped) and the
    // log is clean again.
    let rt = builder().build();
    let report = rt.recovery_report().expect("a log path is configured");
    assert_eq!(report.replayed, 1, "{report}");
    assert!(
        report.truncated_tail,
        "the repair must be visible: {report}"
    );
    assert_eq!(report.quarantined_records, 0);
    let restored = rt.history();
    assert_eq!(restored.len(), 1);
    for (id, sig) in restored.iter() {
        assert!(full.get(id).unwrap().same_bug(sig));
    }
    drop(rt);
    let replay = HistoryLog::new(&path).replay().unwrap();
    assert!(!replay.truncated_tail);
    assert_eq!(replay.history.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Interior corruption: the log is quarantined and the runtime reports it
/// instead of starting silently empty.
#[test]
fn corrupt_history_log_is_quarantined_and_reported() {
    use dimmunix::rt::{DeadlockPolicy, DimmunixRuntime};

    let dir = std::env::temp_dir().join(format!("dimmunix-it-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("history.log");
    // Two raw records; the first (non-tail) one is garbage, which replay
    // must treat as genuine corruption, not a crash tail.
    std::fs::write(&path, "this is not a record\n{\"kind\": \"deadlock\"}\n").unwrap();

    let rt = DimmunixRuntime::builder()
        .deadlock_policy(DeadlockPolicy::Error)
        .history_path(&path)
        .build();
    let report = rt.recovery_report().expect("a log path is configured");
    assert_eq!(report.replayed, 0);
    assert_eq!(report.quarantined_records, 2, "{report}");
    let quarantine = report.quarantine_path.clone().expect("quarantined");
    assert!(quarantine.exists(), "bytes preserved for diagnosis");
    assert!(!path.exists(), "fresh log can start cleanly");
    assert!(rt.history().is_empty());
    assert!(!report.is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scope names of the AB/BA schedule's acquisitions, per thread (outer,
/// inner), and their file.
type Sites = ([[&'static str; 2]; 2], &'static str);

const KILL: Sites = (
    [
        ["kill.outerA", "kill.innerA"],
        ["kill.outerB", "kill.innerB"],
    ],
    "kill.rs",
);
const SEG: Sites = (
    [["seg.outerA", "seg.innerA"], ["seg.outerB", "seg.innerB"]],
    "seg.rs",
);

/// Provokes `rounds` distinct AB-BA deadlocks through the real-thread
/// runtime, each at its own lines (`round * 10` to `round * 10 + 3`) so each
/// learns a distinct antibody.
fn provoke_deadlocks(
    rt: &std::sync::Arc<dimmunix::rt::DimmunixRuntime>,
    rounds: u32,
    (scopes, file): Sites,
) {
    use dimmunix::rt::{AcquisitionSite, ImmuneMutex};

    for round in 0..rounds {
        let (a, b) = (ImmuneMutex::new_in(rt, 0), ImmuneMutex::new_in(rt, 0));
        let results = common::ab_ba(rt, [&a, &b], |m, thread, inner| {
            let line = round * 10 + 2 * thread as u32 + u32::from(inner);
            m.lock_at(AcquisitionSite::new(
                scopes[thread][usize::from(inner)],
                file,
                line,
            ))
        });
        assert!(
            results.iter().any(Result::is_err),
            "round {round} must deadlock"
        );
    }
}

/// Learns `rounds` distinct antibodies on an in-memory runtime and appends
/// them, in detection order, to a log at `path` that rolls to a new segment
/// every `segment_records` records. Returns the learned history.
fn segmented_log_of_detections(
    path: &std::path::Path,
    rounds: u32,
    segment_records: usize,
) -> History {
    use dimmunix::rt::{DeadlockPolicy, DimmunixRuntime};

    let rt = DimmunixRuntime::builder()
        .deadlock_policy(DeadlockPolicy::Error)
        .build();
    provoke_deadlocks(&rt, rounds, SEG);
    let history = rt.history();
    assert_eq!(history.len(), rounds as usize);
    let log = HistoryLog::new(path).with_segment_records(segment_records);
    for (_, sig) in history.iter() {
        log.append(sig).unwrap();
    }
    history
}

/// Crash recovery with a segmented log: a kill mid-append tears the tail of
/// the **last** segment, and restart repairs it exactly as in the
/// single-file case — committed records replay, the partial one is
/// truncated away, and the chain is clean again.
#[test]
fn segmented_log_survives_a_kill_in_the_last_segment() {
    use dimmunix::rt::{DeadlockPolicy, DimmunixRuntime};

    let dir = std::env::temp_dir().join(format!("dimmunix-it-segkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("history.log");

    // Three distinct antibodies at two records per segment: the third rolls
    // into a second segment. The engine replays whatever chain is on disk.
    segmented_log_of_detections(&path, 3, 2);
    let seg1 = dir.join("history.log.seg1");
    assert!(seg1.exists(), "the third record must roll to .seg1");

    // The "kill": the last segment's only record was cut short.
    let bytes = std::fs::read(&seg1).unwrap();
    std::fs::write(&seg1, &bytes[..bytes.len() - 9]).unwrap();

    let rt = DimmunixRuntime::builder()
        .history_path(&path)
        .deadlock_policy(DeadlockPolicy::Error)
        .build();
    let report = rt.recovery_report().expect("a log path is configured");
    assert_eq!(report.replayed, 2, "{report}");
    assert!(report.truncated_tail, "{report}");
    assert_eq!(report.quarantined_records, 0);
    assert_eq!(rt.history().len(), 2);
    drop(rt);
    // The repair landed in the torn segment, so a fresh handle (even one
    // that knows nothing of the writer's segment size) replays clean.
    let replay = HistoryLog::new(&path).replay().unwrap();
    assert!(!replay.truncated_tail);
    assert_eq!(replay.history.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption in an **earlier** segment is interior corruption: the whole
/// chain is quarantined through the same [`RecoveryReport`] surface as a
/// corrupt single-file log, preserving every segment's bytes for diagnosis.
#[test]
fn segmented_interior_corruption_quarantines_the_whole_chain() {
    use dimmunix::rt::{DeadlockPolicy, DimmunixRuntime};

    let dir = std::env::temp_dir().join(format!("dimmunix-it-segcorr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("history.log");
    let good = |line: u32| {
        signature_to_log_record(&Signature::new(
            SignatureKind::Deadlock,
            vec![SignaturePair::new(
                CallStack::single(Frame::new("seg.outer", "seg.rs", line)),
                CallStack::single(Frame::new("seg.inner", "seg.rs", line + 1)),
            )],
        ))
    };
    // Segment 0 has a garbage interior record; segment 1 is well-formed.
    std::fs::write(&path, format!("this is not a record\n{}\n", good(10))).unwrap();
    std::fs::write(dir.join("history.log.seg1"), format!("{}\n", good(20))).unwrap();

    let rt = DimmunixRuntime::builder()
        .deadlock_policy(DeadlockPolicy::Error)
        .history_path(&path)
        .build();
    let report = rt.recovery_report().expect("a log path is configured");
    assert_eq!(report.replayed, 0);
    assert_eq!(
        report.quarantined_records, 3,
        "every raw record across the chain counts: {report}"
    );
    assert!(!report.is_clean());
    let quarantine = report.quarantine_path.clone().expect("quarantined");
    assert!(quarantine.exists(), "segment 0 bytes preserved");
    let mut qseg1 = quarantine.clone().into_os_string();
    qseg1.push(".seg1");
    assert!(
        std::path::PathBuf::from(qseg1).exists(),
        "segment 1 moved with its chain"
    );
    assert!(!path.exists(), "fresh log can start cleanly");
    assert!(!dir.join("history.log.seg1").exists());
    assert!(rt.history().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cross-process byte-identical replay holds for a segmented writer: a
/// second process (and a segment-size-oblivious reader) reconstruct the
/// exact same history, record for record, in the same order.
#[test]
fn segmented_history_replays_byte_identically_across_processes() {
    use dimmunix::rt::{DeadlockPolicy, DimmunixRuntime};

    let dir = std::env::temp_dir().join(format!("dimmunix-it-segxproc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("history.log");

    // One record per segment: every detection rolls a fresh segment.
    let text_before = segmented_log_of_detections(&path, 3, 1).to_text();
    assert!(dir.join("history.log.seg1").exists());
    assert!(dir.join("history.log.seg2").exists());

    // "Process 2" replays the chain into the identical history.
    let rt = DimmunixRuntime::builder()
        .history_path(&path)
        .deadlock_policy(DeadlockPolicy::Error)
        .build();
    let report = rt.recovery_report().expect("a log path is configured");
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.replayed, 3);
    assert_eq!(
        rt.history().to_text(),
        text_before,
        "replayed history must be byte-identical"
    );
    drop(rt);
    // So does a bare log handle that never knew the segment size.
    let replay = HistoryLog::new(&path).replay().unwrap();
    assert_eq!(replay.history.to_text(), text_before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_history_files_are_rejected_not_misread() {
    assert!(History::from_text("{ not json\n").is_err());
    // The retired `#sig` text grammar and fp-less records are refused too.
    assert!(History::from_text("#sig deadlock 1\na@f:1\nb@f:2\n").is_err());
    let legacy = r#"{"kind": "deadlock", "pairs": [{"outer": "a@a.rs:1", "inner": "b@b.rs:2"}]}"#;
    assert!(History::from_text(&format!("{legacy}\n")).is_err());
    // An empty file is a valid, empty history (fresh phone).
    assert!(History::from_text("").unwrap().is_empty());
}
