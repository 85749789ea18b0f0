//! What a run leaves behind: one text line per metric, one JSON result line
//! per (workload, trace mode), and a result file with the host record.

use crate::run::Outcome;
use dimmunix_core::json::{self, write_escaped, JsonValue};
use std::fmt::Write as _;
use std::path::Path;

/// The machine a result was measured on; thread counts and shard counts
/// follow from it, so no figure should be read without it.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub rustc: String,
    pub shards: usize,
}

impl Host {
    pub fn detect() -> Host {
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc,
            shards: dimmunix_rt::DimmunixRuntime::new().shard_count(),
        }
    }
}

/// JSON has no NaN or infinity; a metric that came out as one is a bug in
/// the benchmark, reported as such instead of as a number.
fn number(value: f64) -> String {
    assert!(value.is_finite(), "a metric is not a finite number");
    format!("{value}")
}

/// `workload metric value unit`, one line per metric; latency percentiles
/// also say how many samples they rest on.
pub fn print_lines(outcome: &Outcome) {
    for v in &outcome.values {
        let samples = match v.samples {
            0 => String::new(),
            n => format!(" n={n}"),
        };
        println!(
            "{} {} {} {}{samples}",
            outcome.workload,
            v.spec.name,
            number(v.value),
            v.spec.unit
        );
    }
    for failure in &outcome.failures {
        println!("{} CHECK FAILED: {failure}", outcome.workload);
    }
}

/// The result object of one (workload, trace mode) run.
pub fn result_line(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, v) in outcome.values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_escaped(&mut out, v.spec.name);
        let _ = write!(out, ": {{\"value\": {}, \"unit\": ", number(v.value));
        write_escaped(&mut out, v.spec.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Writes every outcome of an invocation, with spreads and the host record.
pub fn write_file(
    path: &Path,
    host: &Host,
    seed: u64,
    seconds: f64,
    outcomes: &[Outcome],
) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"host\": {\"nproc\": ");
    let _ = write!(
        out,
        "{}, \"shards\": {}, \"rustc\": ",
        host.nproc, host.shards
    );
    write_escaped(&mut out, &host.rustc);
    let _ = write!(
        out,
        "}},\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"results\": [",
        number(seconds)
    );
    for (i, o) in outcomes.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    {" } else { "\n    {" });
        out.push_str("\"workload\": ");
        write_escaped(&mut out, o.workload);
        let _ = write!(
            out,
            ", \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            u8::from(o.traced),
            o.correct(),
            o.attempted,
            o.failed
        );
        for (j, v) in o.values.iter().enumerate() {
            out.push_str(if j > 0 { ",\n      " } else { "\n      " });
            write_escaped(&mut out, v.spec.name);
            let _ = write!(out, ": {{\"value\": {}, \"unit\": ", number(v.value));
            write_escaped(&mut out, v.spec.unit);
            let _ = write!(
                out,
                ", \"spread\": {}, \"samples\": {}}}",
                number(v.spread),
                v.samples
            );
        }
        out.push_str("\n    }}");
    }
    out.push_str("\n  ]\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// One end-to-end figure read back from a result file.
#[derive(Debug, Clone)]
pub struct Figure {
    pub workload: String,
    pub metric: String,
    pub value: f64,
    pub spread: f64,
}

/// The untraced figures of a result file written by [`write_file`].
pub fn read_file(path: &Path) -> Result<Vec<Figure>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let malformed = || format!("{}: not a result file of this benchmark", path.display());
    let results = doc
        .get("results")
        .and_then(JsonValue::as_array)
        .ok_or_else(malformed)?;
    let mut figures = Vec::new();
    for result in results {
        if result.get("trace").and_then(JsonValue::as_u64) != Some(0) {
            continue;
        }
        let workload = result
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(malformed)?;
        let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
            return Err(malformed());
        };
        for (metric, fields) in metrics {
            let field = |key| {
                fields
                    .get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(malformed)
            };
            figures.push(Figure {
                workload: workload.to_string(),
                metric: metric.clone(),
                value: field("value")?,
                spread: field("spread")?,
            });
        }
    }
    Ok(figures)
}
