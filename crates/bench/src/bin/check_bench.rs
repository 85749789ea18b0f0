//! CI gate over the machine-readable bench reports.
//!
//! Run after the bench targets have written their `BENCH_*.json` files at
//! the repo root (`cargo bench -p dimmunix-bench --bench rwlock_contention`
//! etc.). Exits non-zero when a gated figure regressed:
//!
//! * `BENCH_rwlock_contention.json` — the immune-vs-bare rwlock bench must
//!   keep a perfect acceptance ratio: 1.0 means no spurious park or
//!   refusal on a deadlock-free workload; anything below is a fail-safe
//!   regression (the reader-crowd false positives the multi-owner RAG
//!   exists to prevent).
//! * `BENCH_async_server.json` — the adversarial replay must avoid the
//!   learned cycle entirely (zero refusals) and actually exercise
//!   avoidance (non-zero yields).
//! * `BENCH_history_scale.json` — snapshot appends must stay near-constant
//!   as the history grows (p99 at 10k signatures within 1.5x of the p99 at
//!   100 — a regression to copy-everything snapshots would be ~100x), and
//!   the eviction churn workload must actually retire stale antibodies.
//! * `BENCH_sim_explorer.json` — the schedule fuzzer must stay fast enough
//!   for CI (≥ 100k schedules/s in virtual time), find and minimize the
//!   catalog deadlocks, vaccinate them to completion, and replay the
//!   checked-in regression corpus without a single hash drift.
//! * `BENCH_exchange.json` — collaborative immunity must be sound in both
//!   directions: every importer of an antibody pack avoids the bug on its
//!   first encounter (acceptance 1.0), and quarantined foreign antibodies
//!   cause zero refusals or parks before the trust gate activates them.
//! * `BENCH_contended_admission.json` — the lock-free admission path must
//!   carry a clean-history workload almost entirely (fast-admit ratio
//!   ≥ 0.99 — fallbacks there mean the epoch read is spuriously in doubt),
//!   and the 64-thread immune-vs-bare per-section overhead must stay
//!   within 5x for both mutexes and rwlocks: at high thread counts the
//!   bare substrate is convoy-contended, so a competitive admission path
//!   shows up as a small multiple.
//! * `BENCH_engine_sharded.json` — sharding the locked engine (the path
//!   the lock-free admission falls back to) must never *lose* throughput
//!   versus one global engine lock (host-independent floor; the ≥ 2x
//!   scaling assertion on many-core hosts lives in the bench itself), and
//!   its memory overhead must stay within 10% of the monolithic engine.
//! * `BENCH_engine_hotpath.json` — two counts, the same on every host: a
//!   request/acquired/released cycle at a clean position allocates (at
//!   most once; nothing, in fact) and examines no signature, whatever the
//!   size of the history.
//!
//! Reports that do not exist yet are an error too: the gate only means
//! something if the benches actually ran before it.

use dimmunix_bench::report::{read_number, repo_root};
use std::process::ExitCode;

/// One gated figure: file, field, check, expectation (for the message).
struct Gate {
    file: &'static str,
    field: &'static str,
    check: fn(f64) -> bool,
    expect: &'static str,
}

const GATES: &[Gate] = &[
    Gate {
        file: "BENCH_rwlock_contention.json",
        field: "acceptance_ratio",
        check: |v| v >= 1.0,
        expect: ">= 1.0 (no spurious parks/refusals on a deadlock-free rwlock workload)",
    },
    Gate {
        file: "BENCH_rwlock_contention.json",
        field: "yields",
        check: |v| v == 0.0,
        expect: "== 0 (no spurious avoidance parks)",
    },
    Gate {
        file: "BENCH_async_server.json",
        field: "acceptance_ratio",
        check: |v| v > 0.0,
        expect: "> 0 (replay acceptance recorded)",
    },
    Gate {
        file: "BENCH_async_server.json",
        field: "replay_yields",
        check: |v| v > 0.0,
        expect: "> 0 (the replay must exercise avoidance)",
    },
    Gate {
        file: "BENCH_async_server.json",
        field: "signatures_learned",
        check: |v| v >= 1.0,
        expect: ">= 1 (the learning run must record the task-level cycle)",
    },
    Gate {
        file: "BENCH_history_scale.json",
        field: "append_p99_ratio_10k_vs_100",
        check: |v| v > 0.0 && v <= 1.5,
        expect: "<= 1.5 (snapshot append must stay ~O(log n), not copy the whole history)",
    },
    Gate {
        file: "BENCH_history_scale.json",
        field: "evicted",
        check: |v| v >= 1.0,
        expect: ">= 1 (the churn workload must exercise generation-based eviction)",
    },
    Gate {
        file: "BENCH_history_scale.json",
        field: "lookup_p99_ns_post_eviction",
        check: |v| v > 0.0,
        expect: "> 0 (post-eviction lookup latency recorded)",
    },
    Gate {
        file: "BENCH_sim_explorer.json",
        field: "schedules_per_sec",
        check: |v| v >= 100_000.0,
        expect: ">= 100000 (virtual-time exploration must stay CI-viable)",
    },
    Gate {
        file: "BENCH_sim_explorer.json",
        field: "deadlocks_found",
        check: |v| v >= 2.0,
        expect: ">= 2 (the fuzzer must break philosophers AND the async server)",
    },
    Gate {
        file: "BENCH_sim_explorer.json",
        field: "unminimized",
        check: |v| v == 0.0,
        expect: "== 0 (every find must shrink to a reproducing minimized trace)",
    },
    Gate {
        file: "BENCH_sim_explorer.json",
        field: "immune_replay_deadlocks",
        check: |v| v == 0.0,
        expect: "== 0 (vaccinated replays must complete without detection)",
    },
    Gate {
        file: "BENCH_sim_explorer.json",
        field: "corpus_failures",
        check: |v| v == 0.0,
        expect: "== 0 (every checked-in regression trace must replay at its hash)",
    },
    Gate {
        file: "BENCH_exchange.json",
        field: "imported_avoided_acceptance",
        check: |v| v >= 1.0,
        expect: ">= 1.0 (every pack importer must avoid the bug on its first encounter)",
    },
    Gate {
        file: "BENCH_exchange.json",
        field: "foreign_refusals_before_activation",
        check: |v| v == 0.0,
        expect: "== 0 (quarantined foreign antibodies must never park or refuse anyone)",
    },
    Gate {
        file: "BENCH_contended_admission.json",
        field: "fast_admit_ratio",
        check: |v| v >= 0.99,
        expect: ">= 0.99 (clean-history admissions must take the no-engine fast path)",
    },
    Gate {
        file: "BENCH_contended_admission.json",
        field: "mutex_overhead_t64",
        check: |v| v > 0.0 && v <= 5.0,
        expect: "<= 5.0 (64-thread immune mutex within 5x of bare std::sync::Mutex)",
    },
    Gate {
        file: "BENCH_contended_admission.json",
        field: "rwlock_overhead_t64",
        check: |v| v > 0.0 && v <= 5.0,
        expect: "<= 5.0 (64-thread immune rwlock within 5x of bare std::sync::RwLock)",
    },
    Gate {
        file: "BENCH_engine_sharded.json",
        field: "ratio_at_16",
        check: |v| v >= 0.8,
        expect: ">= 0.8 (sharding must never lose throughput vs one engine lock)",
    },
    Gate {
        file: "BENCH_engine_sharded.json",
        field: "mem_ratio",
        check: |v| v > 0.0 && v <= 1.1,
        expect: "<= 1.1 (sharded engine memory within 10% of monolithic)",
    },
    Gate {
        file: "BENCH_engine_hotpath.json",
        field: "allocs_per_cycle_clean",
        check: |v| v <= 1.0,
        expect: "<= 1 (a clean-position engine cycle must stay off the heap)",
    },
    Gate {
        file: "BENCH_engine_hotpath.json",
        field: "signatures_examined_per_check_clean",
        check: |v| v == 0.0,
        expect: "== 0 (a clean position must not scan the history)",
    },
];

fn main() -> ExitCode {
    let root = repo_root();
    let mut failures = 0u32;
    for gate in GATES {
        let path = root.join(gate.file);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {}: unreadable ({e}) — run the bench first", gate.file);
                failures += 1;
                continue;
            }
        };
        match read_number(&text, gate.field) {
            Some(v) if (gate.check)(v) => {
                println!("ok   {} {} = {v} ({})", gate.file, gate.field, gate.expect);
            }
            Some(v) => {
                eprintln!(
                    "FAIL {} {} = {v}, expected {}",
                    gate.file, gate.field, gate.expect
                );
                failures += 1;
            }
            None => {
                eprintln!("FAIL {}: field {} missing", gate.file, gate.field);
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("all bench gates passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} bench gate(s) failed");
        ExitCode::FAILURE
    }
}
