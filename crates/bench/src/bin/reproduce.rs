//! `reproduce` — regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce [--exp all|table1|overhead|case-study|power|corpus|isolation|depth-ablation|starvation]
//!           [--scale N]
//! ```
//!
//! `--exp overhead` and `--exp power` time nothing: they read the last line
//! of the checked-in `BENCH_TRAJECTORY.jsonl` (the immunity-cost benchmark's
//! costs) and exit non-zero when that line cannot answer.

use dimmunix_bench as bench;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp = "all".to_string();
    let mut scale: u64 = 500;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                exp = args.get(i).cloned().unwrap_or_else(|| "all".into());
            }
            "--scale" => {
                i += 1;
                scale = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(500);
            }
            "--help" | "-h" => {
                println!(
                    "usage: reproduce [--exp all|table1|overhead|case-study|power|corpus|isolation|depth-ablation|starvation] [--scale N]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}`; try --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    const KNOWN: &[&str] = &[
        "all",
        "table1",
        "overhead",
        "case-study",
        "power",
        "corpus",
        "isolation",
        "depth-ablation",
        "starvation",
    ];
    if !KNOWN.contains(&exp.as_str()) {
        eprintln!(
            "unknown experiment `{exp}`; expected one of {}",
            KNOWN.join("|")
        );
        std::process::exit(2);
    }

    let run_all = exp == "all";
    if run_all || exp == "corpus" {
        print_corpus();
    }
    if run_all || exp == "table1" {
        print_table1(scale);
    }
    if run_all || exp == "overhead" {
        print_overhead();
    }
    if run_all || exp == "case-study" {
        print_case_study();
    }
    if run_all || exp == "power" {
        print_power();
    }
    if run_all || exp == "isolation" {
        print_isolation();
    }
    if run_all || exp == "depth-ablation" {
        print_depth_ablation();
    }
    if run_all || exp == "starvation" {
        print_starvation();
    }
}

fn print_table1(scale: u64) {
    println!("== Table 1: per-application statistics (profiles replayed at 1/{scale} of the 30 s window) ==");
    println!(
        "{:<12} {:>8} {:>14} {:>14} {:>14} {:>12} {:>10} {:>10}",
        "Application",
        "Threads",
        "Paper sync/s",
        "Meas. sync/s",
        "Dimmunix MB",
        "Vanilla MB",
        "Overhead",
        "Paper ovh"
    );
    let rows = bench::table1(scale);
    for r in &rows {
        println!(
            "{:<12} {:>8} {:>14} {:>14.0} {:>14.1} {:>12.1} {:>9.1}% {:>9.1}%",
            r.app,
            r.threads,
            r.paper_syncs_per_sec,
            r.measured_syncs_per_sec,
            r.dimmunix_mb,
            r.vanilla_mb,
            r.overhead * 100.0,
            r.paper_overhead * 100.0
        );
    }
    let platform = bench::platform_memory(&rows);
    println!(
        "Overall memory utilization: Dimmunix {:.0}%  Vanilla {:.0}%  (paper: 52% vs 50%); overall app overhead {:.1}% (paper: 4%)",
        platform.utilization_dimmunix() * 100.0,
        platform.utilization_vanilla() * 100.0,
        platform.overall_overhead() * 100.0
    );
    println!();
}

/// The costs on the last line of the checked-in `BENCH_TRAJECTORY.jsonl`;
/// exits non-zero, naming `experiment` and the reason, when that line cannot
/// answer.
fn trajectory_overhead(experiment: &str) -> bench::Overhead {
    let path = bench::report::repo_root().join("BENCH_TRAJECTORY.jsonl");
    let overhead = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|text| bench::overhead(&text));
    overhead.unwrap_or_else(|reason| {
        eprintln!("§5 {experiment}: {reason}");
        std::process::exit(1);
    })
}

fn print_overhead() {
    let o = trajectory_overhead("overhead");
    println!("== §5 overhead: Table 1's sync rates x the benchmark's measured immunity cost ==");
    println!(
        "PR {} line of BENCH_TRAJECTORY.jsonl, {} CPUs (paper: 4-5% overhead on its sync microbenchmark)",
        o.pr, o.nproc
    );
    let costs: Vec<String> = bench::OVERHEAD_PATHS
        .iter()
        .zip(o.cost_ns)
        .map(|((path, workload), ns)| format!("{path} {ns:.0} ns ({workload})"))
        .collect();
    println!("  {}", costs.join(", "));
    println!("  a benchmark operation makes at least one acquisition: each cost is an upper bound on one sync");
    println!("share of one core spent in the hooks at each application's Table 1 rate:");
    println!(
        "{:<12} {:>8} {:>9} {:>9} {:>9}",
        "Application", "sync/s", "tier 1", "nested", "task"
    );
    for row in &o.rows {
        let [tier1, nested, task] = row.core_share.map(|share| share * 100.0);
        println!(
            "{:<12} {:>8} {tier1:>8.3}% {nested:>8.3}% {task:>8.3}%",
            row.app, row.syncs_per_sec
        );
    }
    println!();
}

fn print_case_study() {
    println!(
        "== §5 case study: NotificationManagerService / StatusBarService deadlock (issue 7986) =="
    );
    let dir = std::env::temp_dir().join("dimmunix-reproduce-case-study");
    let result = bench::case_study(&dir);
    println!("freezing scheduler seed: {}", result.seed);
    println!(
        "first launch: frozen interface, {} deadlock(s) detected, {} signature(s) persisted",
        result.first_launch_detections, result.signatures_recorded
    );
    for (i, frozen) in result.launches_frozen.iter().enumerate().skip(1) {
        println!(
            "launch {} (after reboot): {}",
            i + 1,
            if *frozen {
                "FROZEN"
            } else {
                "completed, deadlock avoided"
            }
        );
    }
    println!();
}

fn print_power() {
    let o = trajectory_overhead("power");
    let p = bench::power(&o);
    println!("== §5 power consumption ==");
    println!(
        "immunity work per sync: {:.0} ns, {}'s cost on the PR {} line of BENCH_TRAJECTORY.jsonl (the dearest path, an upper bound)",
        p.cost_ns, p.workload, o.pr
    );
    println!(
        "applications+OS share of energy: vanilla {}%  with Dimmunix {}%  (paper: 14% both)",
        p.vanilla_percent, p.dimmunix_percent
    );
    println!(
        "with Dimmunix unrounded: {:.2}%; it would round up to {}% at {:.0} ns per sync",
        p.dimmunix_share_percent,
        p.dimmunix_percent + 1,
        p.round_up_cost_ns
    );
    println!();
}

fn print_corpus() {
    let c = bench::corpus();
    println!("== §3.2 static corpus of Android 2.2 essential applications ==");
    println!(
        "synchronized blocks/methods: {}   explicit lock()/unlock() sites: {}   monitor coverage: {:.1}%",
        c.synchronized_sites,
        c.explicit_lock_sites,
        c.coverage * 100.0
    );
    println!();
}

fn print_isolation() {
    let iso = bench::isolation();
    println!("== Figure 1: per-process Dimmunix isolation ==");
    println!(
        "processes forked: {}; buggy app signatures: {}; signatures seen by the other apps: {:?}",
        iso.processes, iso.buggy_process_signatures, iso.other_process_signatures
    );
    println!();
}

fn print_depth_ablation() {
    println!("== Ablation A1: outer call-stack depth on the MyLock wrapper workload (§3.2) ==");
    println!(
        "{:>6} {:>10} {:>12} {:>11}",
        "Depth", "Yields", "Positions", "Completed"
    );
    for row in bench::depth_ablation() {
        println!(
            "{:>6} {:>10} {:>12} {:>11}",
            row.depth, row.yields, row.positions, row.completed
        );
    }
    println!();
}

fn print_starvation() {
    let s = bench::starvation_experiment();
    println!("== Ablation A3: avoidance-induced deadlock (starvation) handling (§2.2) ==");
    println!(
        "replays: {}  completed: {}  starvation-resolution fired in: {}  hung: {}",
        s.replays, s.completed, s.starvations_resolved, s.hung
    );
    println!();
}
