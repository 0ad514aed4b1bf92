//! Order statistics: medians, latency percentiles under the ten-sample
//! rule, and the quartile spread used to calibrate regression bounds.

/// A latency percentile is only reported when at least this many samples
/// lie beyond it; otherwise one outlier decides the number.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The tail percentile every untraced run records (`latency_p90_ms` in
/// `results.json`).
pub const TAIL_PERCENTILE: f64 = 90.0;

/// Samples a run needs before `latency_p90_ms` is defined: ten beyond p90.
pub fn min_samples_for(percentile: f64) -> usize {
    (MIN_SAMPLES_BEYOND as f64 * 100.0 / (100.0 - percentile)).ceil() as usize
}

/// Whether `n` samples support reporting `percentile`.
pub fn supports(n: usize, percentile: f64) -> bool {
    n >= min_samples_for(percentile)
}

/// The highest of the usual percentiles that `n` samples support (for
/// the human-readable summary; `None` below 20 samples).
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| supports(n, p))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Percentile `p` (0–100) by linear interpolation between closest ranks;
/// `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Percentile `p` of a latency sample, enforcing the ten-sample rule.
pub fn tail(values: &[f64], p: f64) -> Result<f64, String> {
    if !supports(values.len(), p) {
        return Err(format!(
            "p{p} needs {} samples, got {}",
            min_samples_for(p),
            values.len()
        ));
    }
    percentile(values, p).ok_or_else(|| "empty sample".to_string())
}

/// The median (`None` for an empty sample).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them; `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let n = 4usize;
    let cut = |i: usize| {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// a regression bound must exceed.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
