//! Synthetic deadlock signatures.
//!
//! The paper's §5 microbenchmark loads 64–256 *synthetic* signatures into
//! the history "to simulate the scenario in which many synchronization
//! statements are involved in deadlock bugs": the avoidance code then has
//! to scan a realistically-sized history on every request, which is what
//! makes its measured 4–5% overhead an upper bound rather than a best case.
//! `tests/integration_workloads.rs` loads those sizes into a runtime and
//! checks that clean sections never match them: no park, no refusal, no
//! detection.
//!
//! Platform-scale experiments (the `engine_sharded` bench and the
//! shared-history memory test) push the same generator to 1000 signatures:
//! histories that size are bulk-built into one shared
//! [`HistorySnapshot`](dimmunix_core::HistorySnapshot) — outer stacks
//! interned first, the avoidance index constructed in a single deferred
//! pass — and shared by every engine shard.

use dimmunix_core::{CallStack, Frame, History, Signature, SignatureKind, SignaturePair};

/// Builds `count` two-thread deadlock signatures whose outer positions do not
/// correspond to any real acquisition site (so they are scanned but never
/// matched — pure overhead, as in the paper).
pub fn synthetic_history(count: usize) -> History {
    let mut history = History::new();
    for i in 0..count {
        let sig = Signature::new(
            SignatureKind::Deadlock,
            vec![
                SignaturePair::new(
                    CallStack::single(Frame::new(
                        format!("SyntheticService{i}.outerA"),
                        "synthetic.java",
                        (i * 2) as u32,
                    )),
                    CallStack::single(Frame::new(
                        format!("SyntheticService{i}.innerA"),
                        "synthetic.java",
                        (i * 2 + 1) as u32,
                    )),
                ),
                SignaturePair::new(
                    CallStack::single(Frame::new(
                        format!("SyntheticHelper{i}.outerB"),
                        "synthetic.java",
                        (i * 2 + 1000) as u32,
                    )),
                    CallStack::single(Frame::new(
                        format!("SyntheticHelper{i}.innerB"),
                        "synthetic.java",
                        (i * 2 + 1001) as u32,
                    )),
                ),
            ],
        );
        history.add(sig);
    }
    history
}

/// Like [`synthetic_history`], but the signatures' outer positions collide
/// with the benchmark's real acquisition sites (file/method names passed in),
/// so the avoidance path actually performs matching work and may yield.
/// Used by the hot-history variant of the overhead experiment.
pub fn colliding_history(count: usize, scope: &str, file: &str) -> History {
    let mut history = History::new();
    for i in 0..count {
        let sig = Signature::new(
            SignatureKind::Deadlock,
            vec![
                SignaturePair::new(
                    CallStack::single(Frame::new(scope, file, i as u32)),
                    CallStack::single(Frame::new(scope, file, (i + 10_000) as u32)),
                ),
                SignaturePair::new(
                    CallStack::single(Frame::new(
                        format!("{scope}.peer"),
                        file,
                        (i + 20_000) as u32,
                    )),
                    CallStack::single(Frame::new(
                        format!("{scope}.peer"),
                        file,
                        (i + 30_000) as u32,
                    )),
                ),
            ],
        );
        history.add(sig);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_history_has_requested_size() {
        for n in [0, 1, 64, 256] {
            assert_eq!(synthetic_history(n).len(), n);
        }
    }

    #[test]
    fn synthetic_signatures_are_distinct_bugs() {
        let h = synthetic_history(64);
        // Dedup would have collapsed identical ones; 64 distinct entries
        // proves they are all different bugs.
        assert_eq!(h.len(), 64);
    }

    #[test]
    fn colliding_history_mentions_the_scope() {
        let h = colliding_history(8, "Bench.worker", "bench.rs");
        assert_eq!(h.len(), 8);
        let (_, sig) = h.iter().next().unwrap();
        assert!(sig
            .outer_stacks()
            .any(|s| s.top().unwrap().method().contains("Bench.worker")));
    }
}
