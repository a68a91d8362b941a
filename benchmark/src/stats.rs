//! Order statistics over raw samples.

/// The ceil-rank percentile the repository's histograms use: the
/// smallest sample with at least `per_mille`/1000 of the samples at or
/// below it. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[u64], per_mille: u64) -> u64 {
    let rank = (sorted.len() as u64 * per_mille).div_ceil(1000).max(1);
    sorted[(rank as usize - 1).min(sorted.len() - 1)]
}

/// Median of a handful of floats (set-up times, repeat-run values).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is the rule the
/// acceptance check applies. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1); // in quarters of an index, 1-based
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the spread statistic
/// regression bounds are compared with.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((median(&[3.0, 1.0, 4.0, 1.0, 5.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_ceil_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 500), 500);
        assert_eq!(percentile(&v, 990), 990);
        assert_eq!(percentile(&v, 999), 999);
        assert_eq!(percentile(&[7], 999), 7);
    }
}
