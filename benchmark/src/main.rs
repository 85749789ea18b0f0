//! Command line of the immunity-cost benchmark.
//!
//! ```text
//! dimmunix-benchmark run --seed <n> [--workload <name>] [--seconds <s>]
//!                        [--trace <0|1>] [--out <file>]
//! dimmunix-benchmark compare <a.json> <b.json>
//! ```
//!
//! `run` prints every metric as `workload metric value unit` and, after each
//! (workload, trace mode) it ran, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Without `--workload` it runs all
//! five; without `--trace` it runs untraced (end-to-end metrics) and then
//! traced (per-layer metrics).

use dimmunix_benchmark::compare::compare;
use dimmunix_benchmark::report::{print_lines, result_line, write_file, Host};
use dimmunix_benchmark::run::{run, Heartbeat, Plan};
use dimmunix_benchmark::workloads::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: dimmunix-benchmark run --seed <n> [--workload <name>] \
[--seconds <s>] [--trace <0|1>] [--out <file>]\n       dimmunix-benchmark compare <a.json> <b.json>";

/// A phase that takes longer than this has hung (the longest, a learning
/// pass of `async_replay`, takes a few seconds).
const HANG_AFTER: Duration = Duration::from_secs(90);

struct RunArgs {
    seed: u64,
    workloads: Vec<&'static str>,
    seconds: f64,
    traces: Vec<bool>,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        seed: 0,
        workloads: WORKLOADS.iter().map(|(name, _)| *name).collect(),
        seconds: 20.0,
        traces: vec![false, true],
        out: None,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--workload" => {
                let known = WORKLOADS.iter().find(|(name, _)| name == value);
                let (name, _) = known.ok_or_else(|| format!("unknown workload {value}"))?;
                parsed.workloads = vec![name];
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                parsed.traces = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.seed = seed.ok_or("--seed is required")?;
    Ok(parsed)
}

/// Exits the process if the run stops advancing its heartbeat: a hang (a
/// lost wake-up, a real deadlock) becomes a failed run, not a stuck job.
fn watchdog(beat: Arc<Heartbeat>, scratch: PathBuf) {
    std::thread::spawn(move || {
        let mut last = (beat.count(), Instant::now());
        loop {
            std::thread::sleep(Duration::from_secs(1));
            let count = beat.count();
            if count != last.0 {
                last = (count, Instant::now());
            } else if last.1.elapsed() > HANG_AFTER {
                eprintln!(
                    "watchdog: no progress for {} s after phase {count}: the run has hung and fails",
                    HANG_AFTER.as_secs()
                );
                let _ = std::fs::remove_dir_all(&scratch);
                std::process::exit(3);
            }
        }
    });
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run(args)?;
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let scratch = results.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let beat = Arc::new(Heartbeat::default());
    watchdog(Arc::clone(&beat), scratch.clone());

    let plan = Plan::standard(args.seconds);
    let mut outcomes = Vec::new();
    for &traced in &args.traces {
        for name in &args.workloads {
            let outcome = run(name, args.seed, &plan, traced, &scratch, &beat);
            print_lines(&outcome);
            println!("{}", result_line(&outcome));
            outcomes.push(outcome);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let out = args
        .out
        .unwrap_or_else(|| results.join(format!("{}.json", args.seed)));
    write_file(&out, &Host::detect(), args.seed, args.seconds, &outcomes)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(if outcomes.iter().all(|o| o.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_command(rest),
        Some((cmd, [a, b])) if cmd == "compare" => {
            compare(Path::new(a), Path::new(b)).map(|worse| ExitCode::from(u8::from(worse > 0)))
        }
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
