//! The persisted regression corpus.
//!
//! Minimized deadlock traces (see [`crate::fuzz()`]) are checked into the
//! repository as `*.trace` files (the format of [`ScheduleTrace`]). CI
//! replays every file on each change: the scenario is resolved by catalog
//! name, the decisions are replayed through the real engine, and the run
//! must (a) still deadlock and (b) reproduce the stored
//! `sched_trace_hash`. Any engine, simulator, or scenario change that
//! shifts behaviour trips (b) loudly; a change that *fixes* nothing but
//! re-orders exploration cannot, because replays never consult a random
//! tail.

use crate::scenario::{by_name, Scenario};
use crate::sim::{run_schedule, DecisionSource, MonoDriver, RunOutcome, SimConfig};
use crate::trace::ScheduleTrace;
use dimmunix_core::History;
use std::path::Path;

/// Outcome of replaying one checked-in corpus.
#[derive(Clone, Debug, Default)]
pub struct CorpusReport {
    /// Traces replayed successfully (deadlock reproduced, hash matched).
    pub replayed: usize,
    /// One line per failure: file name plus what went wrong.
    pub failures: Vec<String>,
}

impl CorpusReport {
    /// True when every trace replayed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Loads every `*.trace` file under `dir`, sorted by file name (stable
/// order regardless of directory enumeration). Unparseable files are
/// reported as failures by [`replay_all`]; this loader returns them as
/// `Err` entries so callers can choose.
pub fn load_corpus(dir: &Path) -> std::io::Result<Vec<(String, Result<ScheduleTrace, String>)>> {
    let mut entries: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".trace"))
        .collect();
    entries.sort();
    let mut out = Vec::with_capacity(entries.len());
    for name in entries {
        let text = std::fs::read_to_string(dir.join(&name))?;
        out.push((name, ScheduleTrace::from_text(&text)));
    }
    Ok(out)
}

/// Writes `trace` into `dir` under its stable file name; returns the file
/// name.
pub fn save_trace(dir: &Path, trace: &ScheduleTrace) -> std::io::Result<String> {
    let name = trace.file_name();
    std::fs::write(dir.join(&name), trace.to_text())?;
    Ok(name)
}

/// Replays one trace of a catalog scenario (resolved by name) — see
/// [`replay_on`]. Returns a failure description, or `None` on success.
pub fn replay_trace(trace: &ScheduleTrace) -> Option<String> {
    match by_name(&trace.scenario) {
        Some(scenario) => replay_on(&scenario, trace),
        None => Some(format!("unknown scenario {:?}", trace.scenario)),
    }
}

/// Replays `trace` on `scenario` against a fresh (history-free) engine and
/// checks it still deadlocks with the recorded hash. Returns a failure
/// description, or `None` on success. For scenarios outside the catalog —
/// a lowered Dalvik program — the caller supplies the scenario itself.
pub fn replay_on(scenario: &Scenario, trace: &ScheduleTrace) -> Option<String> {
    let mut driver = MonoDriver::new(scenario, History::new());
    let mut source = DecisionSource::replay(trace.decisions.clone());
    let run = run_schedule(
        &mut driver,
        scenario,
        &mut source,
        &SimConfig::for_scenario(scenario),
    );
    if !matches!(run.outcome, RunOutcome::Deadlock { .. }) {
        return Some(format!(
            "expected deadlock, got {:?} (hash {:#018x})",
            run.outcome, run.sched_trace_hash
        ));
    }
    if run.sched_trace_hash != trace.sched_trace_hash {
        return Some(format!(
            "hash drift: stored {:#018x}, replayed {:#018x}",
            trace.sched_trace_hash, run.sched_trace_hash
        ));
    }
    None
}

/// Replays every trace in `dir`.
pub fn replay_all(dir: &Path) -> std::io::Result<CorpusReport> {
    let mut report = CorpusReport::default();
    for (name, parsed) in load_corpus(dir)? {
        match parsed {
            Err(e) => report.failures.push(format!("{name}: unparseable: {e}")),
            Ok(trace) => match replay_trace(&trace) {
                Some(why) => report.failures.push(format!("{name}: {why}")),
                None => report.replayed += 1,
            },
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{fuzz, FuzzConfig};
    use crate::scenario::dining_philosophers;

    /// Find → save → load → replay, end to end, in a temp dir.
    #[test]
    fn corpus_roundtrip_replays_clean() {
        let s = dining_philosophers(3, 1);
        let mut cfg = FuzzConfig::new(11, 3000);
        cfg.max_finds = 1;
        let report = fuzz(&s, &cfg);
        let f = report.found.first().expect("fuzzer must find the deadlock");

        let dir = std::env::temp_dir().join(format!(
            "dimmunix-sim-corpus-{}-{:x}",
            std::process::id(),
            f.minimized.sched_trace_hash
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let name = save_trace(&dir, &f.minimized).unwrap();
        assert!(dir.join(&name).exists());

        let replayed = replay_all(&dir).unwrap();
        assert!(replayed.is_clean(), "{:?}", replayed.failures);
        assert_eq!(replayed.replayed, 1);

        // A corrupted hash is caught.
        let mut bad = f.minimized.clone();
        bad.sched_trace_hash ^= 1;
        let bad_name = "zz-corrupt.trace".to_string();
        std::fs::write(dir.join(&bad_name), bad.to_text()).unwrap();
        let replayed = replay_all(&dir).unwrap();
        assert_eq!(replayed.failures.len(), 1);
        assert!(replayed.failures[0].contains("hash drift"));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_scenario_is_reported() {
        let t = ScheduleTrace {
            scenario: "no-such-scenario".into(),
            seed: 0,
            sched_trace_hash: 0,
            decisions: vec![],
        };
        assert!(replay_trace(&t).unwrap().contains("unknown scenario"));
    }
}
