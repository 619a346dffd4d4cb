//! Order statistics for the reported timings.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `xs`.
///
/// # Panics
/// On an empty slice or a NaN sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let s = sorted(xs);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples strictly above it in rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, as the share (in %) of samples at or below it.
    pub percentile: f64,
    /// Total number of samples.
    pub samples: usize,
}

/// The tail of `xs` by the "≥ 10 samples beyond it" rule; `None` when
/// there are too few samples for any percentile to qualify.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(xs);
    let k = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: s[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        samples: n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 11 samples: only the lowest has ten above it.
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&xs).expect("11 samples qualify");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        // 200 samples 1..=200: the 190th value is p95 with ten beyond.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs).expect("200 samples qualify");
        assert_eq!(t.value, 190.0);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn quantile_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
    }
}
