//! Order statistics used by every report: nearest-rank percentiles, the
//! "ten samples beyond" rule, geometric mean, and the quartiles the
//! acceptance check is defined in (Python's `statistics.quantiles(v, n=4)`).

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank_of(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps `99.9 / 100 * 10_000` (9990.000000000002) at rank 9990.
fn rank_of(p: f64, n: usize) -> usize {
    (p / 100.0 * n as f64 - 1e-9).ceil() as usize
}

/// The highest of p50/p90/p99/p99.9 that still has ten samples beyond it,
/// i.e. the highest percentile `n` samples support (p50 when none does).
pub fn supported_percentile(n: usize) -> f64 {
    let mut best = 50.0;
    for p in [90.0, 99.0, 99.9] {
        if n >= rank_of(p, n) + 10 {
            best = p;
        }
    }
    best
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the mean of the two middle samples for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile as `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) gives them. Needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let s = sorted(values.to_vec());
    let n = s.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of n samples sits at rank ceil(0.9 n): 100 samples leave
        // exactly ten beyond it, 99 leave nine
        assert_eq!(supported_percentile(99), 50.0);
        assert_eq!(supported_percentile(100), 90.0);
        assert_eq!(supported_percentile(999), 90.0);
        assert_eq!(supported_percentile(1000), 99.0);
        assert_eq!(supported_percentile(10_000), 99.9);
        assert_eq!(supported_percentile(3), 50.0);
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 40.0));
    }
}
