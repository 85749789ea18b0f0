//! Order statistics, matching Python's `statistics` module so the spreads
//! printed here are the ones the acceptance check computes.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest value: the best round of a timing.
pub fn least(values: &[f64]) -> f64 {
    sorted(values).first().copied().unwrap_or(0.0)
}

/// The largest value: the best round of a rate.
pub fn greatest(values: &[f64]) -> f64 {
    sorted(values).last().copied().unwrap_or(0.0)
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the steadiness figure the
/// bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The `p`-th percentile (0..=1) of latency samples, linearly interpolated
/// so the figure keeps all its digits instead of snapping to one sample.
pub fn percentile(samples_sorted: &[u32], p: f64) -> f64 {
    match samples_sorted.len() {
        0 => 0.0,
        1 => f64::from(samples_sorted[0]),
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let (a, b) = (f64::from(samples_sorted[lo]), f64::from(samples_sorted[hi]));
            a + (b - a) * (pos - lo as f64)
        }
    }
}
