//! Machine-readable bench reports: `BENCH_<name>.json` at the repo root.
//!
//! Every bench target renders its headline figures — counts, ratios,
//! latency percentiles — through [`BenchJson`] and drops them next to the
//! workspace `Cargo.toml` via [`write_bench_json`]. The `check_bench`
//! binary (run as a CI step after the benches) re-reads those files and
//! fails the build when a gated figure regresses.
//!
//! The container this reproduction builds in has no registry access, so
//! there is no serde: the writer here emits a flat-ish pretty-printed
//! object (strings escaped by `dimmunix_core::json::write_escaped`), and
//! [`read_number`] reads it back through `dimmunix_core::json::parse`, the
//! workspace's one JSON reader.

#![deny(missing_docs)]

use dimmunix_core::json::{self, write_escaped};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A JSON value the report writer knows how to render.
#[derive(Debug, Clone)]
pub enum JsonField {
    /// A floating-point number (rendered with enough digits to round-trip).
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// A string.
    Str(String),
    /// A nested object.
    Obj(BenchJson),
}

/// An insertion-ordered JSON object builder.
#[derive(Debug, Clone, Default)]
pub struct BenchJson {
    fields: Vec<(String, JsonField)>,
}

impl BenchJson {
    /// Creates an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a float field. Non-finite values are rendered as `null`.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_string(), JsonField::Num(value)));
        self
    }

    /// Appends an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), JsonField::Int(value)));
        self
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push((key.to_string(), JsonField::Str(value.to_string())));
        self
    }

    /// Appends a nested object field.
    pub fn obj(mut self, key: &str, value: BenchJson) -> Self {
        self.fields.push((key.to_string(), JsonField::Obj(value)));
        self
    }

    /// Renders the object as pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        out.push_str("{\n");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            out.push_str(&pad);
            write_escaped(out, key);
            out.push_str(": ");
            match value {
                JsonField::Num(v) if v.is_finite() => {
                    let _ = write!(out, "{v}");
                }
                JsonField::Num(_) => out.push_str("null"),
                JsonField::Int(v) => {
                    let _ = write!(out, "{v}");
                }
                JsonField::Str(v) => write_escaped(out, v),
                JsonField::Obj(v) => v.render_into(out, indent + 1),
            }
            if i + 1 < self.fields.len() {
                out.push(',');
            }
            out.push('\n');
        }
        let _ = write!(out, "{}}}", "  ".repeat(indent));
    }
}

/// The workspace root (where the `BENCH_*.json` files live), resolved
/// relative to this crate's manifest so it is correct from any working
/// directory cargo runs the bench in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Writes `BENCH_<name>.json` at the repo root and returns its path.
pub fn write_bench_json(name: &str, report: &BenchJson) -> io::Result<PathBuf> {
    let path = repo_root().join(format!("BENCH_{name}.json"));
    fs::write(&path, report.render())?;
    Ok(path)
}

/// p50 and p99 over a sample set, in the samples' own unit. Empty input
/// yields zeros.
pub fn percentiles(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must be finite"));
    let at = |p: f64| {
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    };
    (at(0.5), at(0.99))
}

/// Reads the numeric value of a top-level `"key": <number>` field from a
/// `BENCH_*.json` file written by [`write_bench_json`] — every figure the
/// CI gate consumes is top-level.
pub fn read_number(text: &str, key: &str) -> Option<f64> {
    json::parse(text).ok()?.get(key)?.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_reads_back() {
        let report = BenchJson::new()
            .str("bench", "demo")
            .num("acceptance_ratio", 1.0)
            .int("requests", 42)
            .obj("latency", BenchJson::new().num("p99_us", 12.5));
        let text = report.render();
        assert_eq!(read_number(&text, "acceptance_ratio"), Some(1.0));
        assert_eq!(read_number(&text, "requests"), Some(42.0));
        assert_eq!(read_number(&text, "missing"), None);
        assert_eq!(read_number(&text, "bench"), None, "not a number");
        assert_eq!(read_number(&text, "p99_us"), None, "nested, not top-level");
    }

    #[test]
    fn percentiles_pick_median_and_tail() {
        let samples: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentiles(&samples), (50.0, 99.0));
        assert_eq!(percentiles(&[]), (0.0, 0.0));
    }

    #[test]
    fn escapes_strings() {
        let text = BenchJson::new().str("k\"ey", "a\nb\\c").render();
        assert!(text.contains("\\\"") && text.contains("\\n") && text.contains("\\\\"));
    }
}
