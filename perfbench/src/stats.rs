//! Order statistics over timing samples.
//!
//! Every timing the benchmark reports is a median plus a tail: the highest
//! percentile that still has at least [`TAIL_BEYOND`] samples beyond it.
//! With `n` samples sorted ascending, the nearest-rank percentile `p` is the
//! sample at rank `ceil(p·n/100)`, and `n − ceil(p·n/100)` samples lie beyond
//! it; the largest `p` leaving at least ten beyond is `100·(n − 10)/n`, whose
//! sample is the eleventh largest. The percentile therefore moves smoothly
//! with the sample count instead of jumping between fixed rungs.

/// How many samples must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Iterations a closed loop makes even when `--seconds` ends sooner, so
/// that a tail with [`TAIL_BEYOND`] samples beyond it exists.
pub const MIN_ITERATIONS: usize = 2 * TAIL_BEYOND + 1;

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The tail of `samples`: `(value, percentile)` of the highest nearest-rank
/// percentile with at least [`TAIL_BEYOND`] samples beyond it. `None` when
/// there are too few samples for any such percentile.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some((sorted[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(sorted[rank - 1])
}

/// Arithmetic mean. `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=100: the eleventh largest is 90, at percentile 90.
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&samples), Some((90.0, 90.0)));
        // 1..=1000: rank 990, percentile 99.
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((990.0, 99.0)));
        // 30 000 samples: rank 29 990, percentile 99.9666…
        let samples: Vec<f64> = (1..=30_000).map(f64::from).collect();
        let (value, p) = tail(&samples).unwrap();
        assert_eq!(value, 29_990.0);
        assert!((p - 99.966_666).abs() < 1e-4, "{p}");
        // The reported percentile really has ten samples beyond it and no
        // higher nearest-rank percentile does.
        let beyond = samples.iter().filter(|&&s| s > value).count();
        assert_eq!(beyond, TAIL_BEYOND);
        assert_eq!(percentile(&samples, p), Some(value));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((0.0, 100.0 / 11.0)));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(10.0));
        assert_eq!(percentile(&samples, 99.0), Some(20.0));
        assert_eq!(percentile(&samples, 1.0), Some(1.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
