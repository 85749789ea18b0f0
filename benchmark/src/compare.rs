//! `compare <a.json> <b.json>`: for every end-to-end metric of every
//! workload in both result files, whether `b` is better than `a`, within
//! the metric's bound, worse, or unresolved.
//!
//! The rule is the one the bounds were written for: a metric is worse (or
//! better) when its value moved against (or along) its direction by more
//! than the bound, as a share of `a`; and where the spread between the
//! rounds of either run is itself wider than the bound, the comparison
//! cannot tell a change from noise and says so instead of saying
//! "unchanged".

use crate::report::{read_file, Figure};
use crate::spec::{self, Better};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(worsening: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Prints one line per (workload, metric) and returns how many are worse.
pub fn compare(a: &Path, b: &Path) -> Result<usize, String> {
    let (a, b) = (read_file(a)?, read_file(b)?);
    let mut worse = 0;
    let mut compared = 0;
    for Figure {
        workload,
        metric,
        value,
        spread,
    } in &a
    {
        let Some(spec) = spec::end_to_end(metric) else {
            continue;
        };
        let Some(other) = b
            .iter()
            .find(|f| f.workload == *workload && f.metric == *metric)
        else {
            continue;
        };
        let moved = worsening(spec.better, *value, other.value);
        let verdict = judge(moved, spread.max(other.spread), spec.bound);
        worse += usize::from(verdict == Verdict::Worse);
        compared += 1;
        println!(
            "{workload} {metric} {value} -> {} {} ({:+.1}% {}, bound {:.0}%, round spread {:.1}%): {}",
            other.value,
            spec.unit,
            100.0 * (other.value - value) / value.abs(),
            if moved > 0.0 { "worse" } else { "better" },
            100.0 * spec.bound,
            100.0 * spread.max(other.spread),
            verdict.as_str()
        );
    }
    if compared == 0 {
        return Err("the two files share no untraced (workload, metric) pair".to_string());
    }
    Ok(worse)
}
