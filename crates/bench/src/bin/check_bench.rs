//! CI gate over the machine-readable bench reports, and the trajectory line.
//!
//! ```text
//! check_bench                                      # the gates
//! check_bench --trajectory <result.json> --pr <n>  # the gates, then one line
//! ```
//!
//! Run after the five bench targets have rewritten their `BENCH_*.json` at
//! the repo root. [`GATES`] is the whole table: a report it names that is
//! missing fails (the gate only means something if the benches ran), and so
//! does a `BENCH_*.json` at the root that no gate names (a report nothing
//! reads is a figure nobody keeps). These are the figures only `crates/bench`
//! measures; immune-vs-bare timings belong to the `benchmark/` package and
//! counts that are exact on any host to tier-1 tests.
//!
//! With `--trajectory`, once the gates pass, the tool prints one JSON object
//! for `BENCH_TRAJECTORY.jsonl` — PR number, parent commit, the host record
//! and the five `immunity_cost_ns_per_op` of a `dimmunix-benchmark run --seed
//! 7 --trace 0 --out <result.json>`, workspace LoC and every gated value —
//! so a re-anchor reads a slope, not a snapshot. It writes no file: appending
//! is the shell's `>>`, done before the PR is committed, while `HEAD` is
//! still its parent.

use dimmunix_bench::report::{read_number, repo_root, BenchJson};
use dimmunix_core::json::{self, JsonValue};
use std::path::Path;
use std::process::{Command, ExitCode};

/// One gated figure: file, field, check, expectation (for the message).
struct Gate {
    file: &'static str,
    field: &'static str,
    check: fn(f64) -> bool,
    expect: &'static str,
}

impl Gate {
    /// The gate's key in a trajectory line: `<report>.<field>`.
    fn name(&self) -> String {
        let report = self.file.trim_start_matches("BENCH_");
        format!("{}.{}", report.trim_end_matches(".json"), self.field)
    }
}

const GATES: &[Gate] = &[
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
        file: "BENCH_engine_sharded.json",
        field: "tier1_contention_ratio",
        check: |v| v > 0.0 && v <= 1.5,
        expect: "<= 1.5 (two threads on disjoint locks must not slow each other: tier 1 shares no written line)",
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
    Gate {
        file: "BENCH_engine_hotpath.json",
        field: "hot_allocs_per_check",
        check: |v| v == 0.0,
        expect:
            "== 0 (a check that matches nothing must stay off the heap, however hot its position)",
    },
];

/// Checks every gate against the reports under `root`, and that `root`
/// holds no report the table does not name. Returns the gated values in
/// table order, or one message per failure.
fn check_gates(root: &Path) -> Result<Vec<f64>, Vec<String>> {
    let mut values = Vec::new();
    let mut failures = Vec::new();
    for gate in GATES {
        let Gate { file, field, .. } = gate;
        match std::fs::read_to_string(root.join(file)) {
            Err(e) => failures.push(format!("{file}: unreadable ({e}) — run the bench first")),
            Ok(text) => match read_number(&text, field) {
                Some(v) if (gate.check)(v) => {
                    println!("ok   {file} {field} = {v} ({})", gate.expect);
                    values.push(v);
                }
                Some(v) => failures.push(format!("{file} {field} = {v}, expected {}", gate.expect)),
                None => failures.push(format!("{file}: field {field} missing")),
            },
        }
    }
    match std::fs::read_dir(root) {
        Err(e) => failures.push(format!("{}: unreadable ({e})", root.display())),
        Ok(entries) => {
            for name in entries.filter_map(|e| e.ok()?.file_name().into_string().ok()) {
                let is_report = name.starts_with("BENCH_") && name.ends_with(".json");
                if is_report && !GATES.iter().any(|g| g.file == name) {
                    failures.push(format!(
                        "{name}: no gate reads this report — gate it or drop it"
                    ));
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(values)
    } else {
        Err(failures)
    }
}

/// Newlines in the `.rs` files under `dir`: what `find <dir> -name '*.rs' |
/// xargs cat | wc -l` counts.
fn rust_lines(dir: &Path) -> std::io::Result<u64> {
    let mut lines = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            lines += rust_lines(&path)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            lines += std::fs::read(&path)?
                .iter()
                .filter(|&&b| b == b'\n')
                .count() as u64;
        }
    }
    Ok(lines)
}

/// Renders one `BENCH_TRAJECTORY.jsonl` line from the gated values (in
/// table order) and the text of a benchmark result file, whose every
/// untraced result must carry an `immunity_cost_ns_per_op`.
fn trajectory_line(
    root: &Path,
    pr: u64,
    parent: &str,
    gate_values: &[f64],
    result_text: &str,
) -> Result<String, String> {
    let result = json::parse(result_text).map_err(|e| format!("result file: {e}"))?;
    let host = |key: &str| result.get("host").and_then(|h| h.get(key));
    let (Some(nproc), Some(rustc), Some(shards)) = (
        host("nproc").and_then(JsonValue::as_u64),
        host("rustc").and_then(JsonValue::as_str),
        host("shards").and_then(JsonValue::as_u64),
    ) else {
        return Err("result file: no host record".into());
    };
    let mut loc = 0;
    for dir in ["crates", "tests", "examples"] {
        loc += rust_lines(&root.join(dir)).map_err(|e| format!("{dir}: {e}"))?;
    }
    let mut gates = BenchJson::new();
    for (gate, value) in GATES.iter().zip(gate_values) {
        gates = gates.num(&gate.name(), *value);
    }
    let mut cost_ns = BenchJson::new();
    let results = result.get("results").and_then(JsonValue::as_array);
    for untraced in results
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("trace").and_then(JsonValue::as_u64) == Some(0))
    {
        let workload = untraced.get("workload").and_then(JsonValue::as_str);
        let cost = untraced
            .get("metrics")
            .and_then(|m| m.get("immunity_cost_ns_per_op")?.get("value")?.as_f64());
        let (Some(workload), Some(cost)) = (workload, cost) else {
            return Err("result file: an untraced result without a cost".into());
        };
        cost_ns = cost_ns.num(workload, cost);
    }
    let line = BenchJson::new()
        .int("pr", pr)
        .str("parent", parent)
        .obj(
            "host",
            BenchJson::new()
                .int("nproc", nproc)
                .str("rustc", rustc)
                .int("shards", shards),
        )
        .int("loc", loc)
        .obj("gates", gates)
        .obj("cost_ns", cost_ns);
    // One line: strings are escaped, so every newline is the renderer's.
    let rendered = line.render();
    let pieces: Vec<&str> = rendered.lines().map(str::trim_start).collect();
    Ok(pieces.join(" "))
}

/// `git rev-parse --short HEAD` in `root`.
fn head_commit(root: &Path) -> Result<String, String> {
    let out = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        return Err(format!("git rev-parse: {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

const USAGE: &str = "usage: check_bench [--trajectory <result.json> --pr <n>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let trajectory = match args[..] {
        [] => None,
        ["--trajectory", result, "--pr", pr] => match pr.parse::<u64>() {
            Ok(pr) => Some((result, pr)),
            Err(_) => {
                eprintln!("bad PR number `{pr}`\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let root = repo_root();
    let values = match check_gates(&root) {
        Ok(values) => values,
        Err(failures) => {
            for failure in &failures {
                eprintln!("FAIL {failure}");
            }
            eprintln!("{} bench gate(s) failed", failures.len());
            return ExitCode::FAILURE;
        }
    };
    println!("all bench gates passed ({0}/{0} ok)", values.len());

    if let Some((result, pr)) = trajectory {
        let line = std::fs::read_to_string(result)
            .map_err(|e| format!("{result}: {e}"))
            .and_then(|text| trajectory_line(&root, pr, &head_commit(&root)?, &values, &text));
        match line {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("FAIL trajectory: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn a_report_no_gate_names_fails_the_table() {
        let root = std::env::temp_dir().join(format!("check-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        for gate in GATES {
            std::fs::copy(repo_root().join(gate.file), root.join(gate.file)).unwrap();
        }
        // The trajectory is not a report: `.jsonl`, not `.json`.
        std::fs::write(root.join("BENCH_TRAJECTORY.jsonl"), "").unwrap();
        assert_eq!(check_gates(&root).map(|v| v.len()), Ok(GATES.len()));

        std::fs::write(root.join("BENCH_foo.json"), "{\"overhead\": 1.0}\n").unwrap();
        let failures = check_gates(&root).unwrap_err();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("BENCH_foo.json: no gate"));
        let _ = std::fs::remove_dir_all(&root);
    }

    fn keys(value: &JsonValue) -> BTreeSet<String> {
        match value {
            JsonValue::Object(map) => map.keys().cloned().collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    const RESULT: &str = r#"{"host": {"nproc": 2, "shards": 8, "rustc": "rustc 1.0"}, "results": [
        {"workload": "flat_sections", "trace": 0,
         "metrics": {"immunity_cost_ns_per_op": {"value": 214.5}}},
        {"workload": "flat_sections", "trace": 1, "metrics": {}}]}"#;

    /// Every checked-in trajectory line has the key set the tool prints
    /// today, and numbers where numbers belong.
    #[test]
    fn checked_in_trajectory_lines_have_the_printed_key_set() {
        let root = repo_root();
        let values = vec![1.0; GATES.len()];
        let printed = trajectory_line(&root, 17, "abc1234", &values, RESULT).unwrap();
        assert_eq!(printed.lines().count(), 1);
        let printed = json::parse(&printed).unwrap();
        assert_eq!(printed.get("pr").unwrap().as_u64(), Some(17));
        assert_eq!(printed.get("parent").unwrap().as_str(), Some("abc1234"));
        assert!(printed.get("loc").unwrap().as_u64().unwrap() > 10_000);
        let gate_names: BTreeSet<String> = GATES.iter().map(Gate::name).collect();
        assert_eq!(keys(printed.get("gates").unwrap()), gate_names);
        let cost = printed.get("cost_ns").unwrap();
        assert_eq!(cost.get("flat_sections").unwrap().as_f64(), Some(214.5));
        assert_eq!(keys(cost).len(), 1, "the traced result is skipped");

        let text = std::fs::read_to_string(root.join("BENCH_TRAJECTORY.jsonl")).unwrap();
        assert!(!text.is_empty(), "the trajectory has a first line");
        for line in text.lines() {
            let entry = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(keys(&entry), keys(&printed), "{line}");
            let host = |of: &JsonValue| keys(of.get("host").unwrap());
            assert_eq!(host(&entry), host(&printed), "{line}");
            assert!(entry.get("pr").unwrap().as_u64().is_some(), "{line}");
            assert!(entry.get("loc").unwrap().as_u64().is_some(), "{line}");
            for object in ["gates", "cost_ns"] {
                let JsonValue::Object(map) = entry.get(object).unwrap() else {
                    panic!("{object} is not an object: {line}");
                };
                assert!(!map.is_empty(), "{line}");
                assert!(map.values().all(|v| v.as_f64().is_some()), "{line}");
            }
        }
    }

    #[test]
    fn a_result_without_a_cost_prints_no_line() {
        let result = RESULT.replace("immunity_cost_ns_per_op", "overhead_vs_bare");
        let values = vec![1.0; GATES.len()];
        let err = trajectory_line(&repo_root(), 17, "abc1234", &values, &result).unwrap_err();
        assert!(err.contains("without a cost"), "{err}");
    }
}
