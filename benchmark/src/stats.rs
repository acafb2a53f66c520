//! Order statistics for timing samples: medians, quartiles, nearest-rank
//! percentiles, and the rule for which tail percentile a sample supports.

/// Median, quartiles and range of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile distance as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle samples when `n` is even.
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the values Python's
/// `statistics.quantiles(values, n=4)` returns, so a spread computed here
/// equals the one the driver computes from the same numbers. A single
/// sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Python: j = k*(n+1) // 4 clamped to [1, n-1]; delta = k*(n+1) - 4j.
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Summarises a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let (q1, q3) = quartiles(values);
    Summary {
        n: v.len(),
        median: median(values),
        q1,
        q3,
        min: v[0],
        max: v[v.len() - 1],
    }
}

/// Nearest-rank percentile (`p` in (0, 100]): the smallest sample with at
/// least `p` percent of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p50/p90/p95/p99/p99.9 that still has ten samples beyond
/// it, or `None` when even the median has not (n < 20): a tail read from
/// fewer than ten samples is one slow run, not a percentile.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // In permille and integers: 100 × (1 − 0.9) is 9.999… in floating point.
    [999usize, 990, 950, 900, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn summary_reports_spread_as_share_of_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.min, s.max, s.median), (10, 1.0, 10.0, 5.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(15), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(240), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
