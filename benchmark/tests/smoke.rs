//! Every workload passes its own output checks at tiny sizes, prints
//! exactly the metrics `BENCHMARK.json` declares, and the hand-replayed hook
//! sequences of the traced runs make the decisions the real lock types make.

use dimmunix_benchmark::compare::{judge, worsening, Verdict};
use dimmunix_benchmark::inputs::{
    admission_filter, background_history, flat_stream, request_plan, transfer_stream,
    BACKGROUND_SIGNATURES, INVERT_EVERY, SERVER_RESOURCES, SERVER_WORKERS,
};
use dimmunix_benchmark::rng::Rng;
use dimmunix_benchmark::run::{run, Heartbeat, Plan};
use dimmunix_benchmark::server::{serve, BenchMutex, Locks};
use dimmunix_benchmark::spans::Spans;
use dimmunix_benchmark::spec::{Better, MetricSpec, END_TO_END, PER_LAYER};
use dimmunix_benchmark::stats::{greatest, least, median, quartiles};
use dimmunix_benchmark::threads::{Immune, Sites, Substrate, Traced};
use dimmunix_benchmark::workloads::WORKLOADS;
use dimmunix_core::json::{self, JsonValue};
use dimmunix_rt::asyncio::{self, Executor};
use dimmunix_rt::DimmunixRuntime;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("the target directory is writable");
    dir
}

fn tiny() -> Plan {
    Plan {
        seconds: 0.2,
        round: Duration::from_millis(20),
        warmup: Duration::from_millis(20),
        setups: 2,
        requests: 400,
    }
}

fn well_formed(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_passes_its_checks_and_prints_what_it_declares() {
    let dir = scratch("workloads");
    for (name, _) in WORKLOADS {
        for (traced, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let outcome = run(name, 7, &tiny(), traced, &dir, &Heartbeat::default());
            assert!(
                outcome.correct(),
                "{name} traced={traced}: {} failed of {}, checks: {:?}",
                outcome.failed,
                outcome.attempted,
                outcome.failures
            );
            assert!(outcome.attempted > 0);
            let printed: Vec<&str> = outcome.values.iter().map(|v| v.spec.name).collect();
            let wanted: Vec<&str> = declared.iter().map(|m| m.name).collect();
            assert_eq!(printed, wanted, "{name} traced={traced}");
            for v in &outcome.values {
                assert!(v.value.is_finite(), "{name} {}", v.spec.name);
                assert!(well_formed(v.spec.name), "{}", v.spec.name);
            }
            if !traced {
                for v in &outcome.values {
                    assert!(v.value > 0.0, "{name} {} must never be 0", v.spec.name);
                }
            }
        }
    }
}

fn declared(doc: &JsonValue, key: &str, with_bound: bool) -> Vec<(String, String, String, f64)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let text = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            let bound = if with_bound {
                m.get("bound").and_then(JsonValue::as_f64).expect("bound")
            } else {
                assert!(m.get("bound").is_none(), "per-layer metrics have no bound");
                0.0
            };
            (text("name"), text("unit"), text("better"), bound)
        })
        .collect()
}

fn in_code(specs: &[MetricSpec]) -> Vec<(String, String, String, f64)> {
    specs
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
                m.bound,
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_code_measures() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
        .expect("BENCHMARK.json parses");
    assert_eq!(declared(&doc, "end_to_end", true), in_code(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer", false), in_code(&PER_LAYER));

    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let text = |k| w.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (text("name"), text("why"))
        })
        .collect();
    let in_code: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(workloads, in_code);

    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .chain(WORKLOADS.iter().map(|(n, _)| *n))
        .collect();
    assert!(names.iter().all(|n| well_formed(n)));
    names.sort_unstable();
    let total = names.len();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    for (_, why) in WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    for m in END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
}

/// The traced thread run replays `lock_at` by hand. Same stream, same
/// history, a runtime each: the engine and the lock-free tier must count the
/// same requests, grants, fast admits, publishes and releases.
#[test]
fn hand_replayed_hooks_decide_as_lock_at_does() {
    let history = background_history(BACKGROUND_SIGNATURES);
    let sites = Arc::new(Sites::new(&admission_filter(&history)));
    let rng = Rng::new(11);
    let streams = [
        flat_stream(&mut rng.fork(0), false),
        transfer_stream(&mut rng.fork(1)),
    ];
    let through = |traced: bool| {
        let rt = DimmunixRuntime::builder().history(history.clone()).build();
        let immune = Immune::new(&rt, &sites, 64, 32, 1000);
        let replayed = Traced::new(&rt, &sites, 64, 32, 1000);
        let s: &dyn Substrate = if traced { &replayed } else { &immune };
        let mut spans = Spans::default();
        for op in streams.iter().flatten() {
            assert!(s.run(*op, &mut spans));
        }
        let summary = rt.admission_summary();
        let lock_free = (
            summary.fast_acquires(),
            summary.fast_releases(),
            summary.published(),
        );
        // Counters first: reading the totals takes every immune lock again.
        (rt.stats(), lock_free, s.total())
    };
    let (real, replayed) = (through(false), through(true));
    assert_eq!(real, replayed);
    let (stats, (fast_acquires, _, published), _) = replayed;
    assert!(stats.fast_admits > 0 && fast_acquires > 0 && published > 0);
    assert_eq!(stats.deadlocks_detected + stats.yields, 0);
}

/// The traced async run replays `asyncio::Mutex` by hand. On a plan with
/// inversions and no learned history the engine detects cycles, refuses
/// requests and parks tasks; both mutexes must see the same schedule.
#[test]
fn hand_replayed_task_hooks_decide_as_the_async_mutex_does() {
    let history = background_history(BACKGROUND_SIGNATURES);
    let plan = request_plan(&mut Rng::new(5), 2000, INVERT_EVERY);
    let real = {
        let rt = DimmunixRuntime::builder().history(history.clone()).build();
        let locks = Locks::new(SERVER_RESOURCES, || asyncio::Mutex::new_in(&rt, 0u64));
        let out = serve(&Executor::new_in(&rt, SERVER_WORKERS), &locks, &plan, true);
        (out.report, out.refused, rt.stats())
    };
    let replayed = {
        let rt = DimmunixRuntime::builder().history(history).build();
        let spans = Rc::new(RefCell::new(Spans::default()));
        let locks = Locks::new(SERVER_RESOURCES, || BenchMutex::traced(&rt, &spans));
        let out = serve(&Executor::new_in(&rt, SERVER_WORKERS), &locks, &plan, true);
        (out.report, out.refused, rt.stats())
    };
    assert_eq!(real, replayed);
    assert_eq!(real.0.completed, plan.len());
    assert!(
        real.2.deadlocks_detected > 0,
        "the plan must exercise refusals"
    );
}

#[test]
fn compare_follows_the_bound_and_the_spread() {
    // Lower is better: 100 -> 112 is 12 % worse.
    let worse = worsening(Better::Lower, 100.0, 112.0);
    assert!((worse - 0.12).abs() < 1e-12);
    assert_eq!(judge(worse, 0.02, 0.10), Verdict::Worse);
    assert_eq!(judge(worse, 0.02, 0.25), Verdict::Within);
    // The same move on a metric whose rounds spread wider than the bound.
    assert_eq!(judge(worse, 0.15, 0.10), Verdict::Unresolved);
    // Higher is better: 100 -> 112 is 12 % better.
    let better = worsening(Better::Higher, 100.0, 112.0);
    assert_eq!(judge(better, 0.02, 0.10), Verdict::Better);
    assert_eq!(judge(0.0, 0.0, 0.02), Verdict::Within);
}

#[test]
fn quartiles_are_pythons() {
    // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
    let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
    assert_eq!(quartiles(&values), (1.75, 5.25));
    assert_eq!(median(&values), 3.5);
    assert_eq!((least(&values), greatest(&values)), (1.0, 9.0));
    // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
    assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 40.0));
}
