//! Order statistics for round timings and job latencies.

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so the spread this harness prints is the one
/// the acceptance runs compute. `None` below two samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median and inter-quartile range; a single sample has no spread.
#[must_use]
pub fn median_iqr(values: &[f64]) -> (f64, f64) {
    match quartiles(values) {
        Some([q1, q2, q3]) => (q2, q3 - q1),
        None => (values.first().copied().unwrap_or(0.0), 0.0),
    }
}

/// Smallest value; 0 for an empty slice.
#[must_use]
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile of an ascending slice (`p` in 1..=100).
#[must_use]
pub fn percentile(sorted: &[u64], p: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Percentiles a latency tail may be reported at, ascending.
const LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// The highest ladder percentile, at most `cap`, whose nearest-rank sample
/// has at least ten samples beyond it; the median when none qualifies.
#[must_use]
pub fn tail_percentile(samples: usize, cap: u32) -> u32 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap && samples - (samples * p as usize).div_ceil(100) >= 10)
        .max()
        .unwrap_or(50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_iqr() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median_iqr(&v), (5.5, 5.5));
        assert_eq!(median_iqr(&[4.0]), (4.0, 0.0));
        assert_eq!(median_iqr(&[]), (0.0, 0.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(tail_percentile(1000, 99), 99);
        assert_eq!(tail_percentile(999, 99), 95);
        assert_eq!(tail_percentile(200, 99), 95);
        assert_eq!(tail_percentile(199, 99), 90);
        assert_eq!(tail_percentile(100, 99), 90);
        assert_eq!(tail_percentile(40, 99), 75);
        assert_eq!(tail_percentile(39, 99), 50);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_percentile(12, 99), 50);
        // The cap wins over the sample count.
        assert_eq!(tail_percentile(5000, 90), 90);
    }
}
