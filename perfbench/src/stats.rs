//! Order statistics for the reported timings.

/// The percentile ladder a tail is picked from, in percent.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A timing as the benchmark reports it: the median, the highest
/// percentile with at least [`TAIL_MIN_BEYOND`] samples beyond it, and
/// the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median (0 for no samples).
    pub median: f64,
    /// `(percentile, value)`, or `None` when too few samples support any
    /// rung of the ladder.
    pub tail: Option<(f64, f64)>,
    /// Number of samples.
    pub n: usize,
}

/// Nearest-rank 1-based rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank percentile `p` of `sorted` (ascending, non-empty).
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// The nearest-rank percentile `p` of `samples` (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile_sorted(&sorted(samples), p)
}

/// The median of `samples` (0 when empty): the mean of the two middle
/// values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// Median, supported tail and count of `samples`.
pub fn summarize(samples: &[f64]) -> Summary {
    let n = samples.len();
    let s = sorted(samples);
    let tail = LADDER
        .iter()
        .rev()
        .find(|&&p| n > 0 && n - rank(p, n) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile_sorted(&s, p)));
    Summary {
        median: median(samples),
        tail,
        n,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 19 samples: even p50 (rank 10) leaves only 9 beyond
        assert_eq!(summarize(&ramp(19)).tail, None);
        // 20 samples: p50 is rank 10 with exactly 10 beyond; p90 leaves 2
        assert_eq!(summarize(&ramp(20)).tail, Some((50.0, 10.0)));
        // 100 samples: p90 is rank 90 with 10 beyond, p99 only 1
        let s = summarize(&ramp(100));
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert_eq!(s.n, 100);
        // 1000 samples: p99 is rank 990 with 10 beyond
        assert_eq!(summarize(&ramp(1000)).tail, Some((99.0, 990.0)));
        // 999 samples: p99 is rank 990 with 9 beyond, so p90 is reported
        assert_eq!(summarize(&ramp(999)).tail, Some((90.0, 900.0)));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(summarize(&v).tail, Some((90.0, 180.0)));
        assert_eq!(summarize(&v).median, 100.5);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
