//! Medians and the tail-percentile rule.

/// Percentiles the tail rule may report, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Median (mean of the middle two for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A timing's median and its highest well-supported percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median.
    pub p50: f64,
    /// Value at [`Tail::pct`].
    pub tail: f64,
    /// The highest percentile of the ladder with at least ten samples
    /// beyond it; 50 when even the median lacks them (the value is then
    /// the median); 0 when there are no samples.
    pub pct: f64,
    /// Sample count.
    pub n: usize,
}

/// Nearest-rank rank (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps float error (99.9 % of 10000 = 9990.000…02)
    // from pushing an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Applies the tail rule: report the highest percentile (nearest rank)
/// that has at least ten samples beyond it, with the sample count.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n == 0 {
        return Tail { p50: 0.0, tail: 0.0, pct: 0.0, n: 0 };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let p50 = median(&v);
    for p in LADDER {
        let r = rank(p, n);
        if n - r >= MIN_BEYOND {
            // At the median itself, report the median (not its rank).
            let value = if p == 50.0 { p50 } else { v[r - 1] };
            return Tail { p50, tail: value, pct: p, n };
        }
    }
    Tail { p50, tail: p50, pct: 50.0, n }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.tail, t.n), (99.0, 990.0, 1000));
        // One sample fewer leaves only nine beyond p99: fall to p90.
        let t = tail(&xs[..999]);
        assert_eq!((t.pct, t.tail), (90.0, 900.0));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 99.9);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!((tail(&xs).pct, tail(&xs).tail), (50.0, 10.5));
    }

    #[test]
    fn tail_of_few_or_no_samples_falls_back_to_the_median() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.p50, t.tail, t.pct, t.n), (3.0, 3.0, 50.0, 3));
        assert_eq!(tail(&[]).n, 0);
    }
}
