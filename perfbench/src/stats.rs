//! Order statistics for latency samples.
//!
//! The percentile rule: a percentile is reported only when at least
//! [`MIN_TAIL`] samples lie beyond it, so a tail figure never rests on a
//! handful of observations. Every percentile goes out with its sample
//! count.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// The percentiles the summary ladder considers, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Whether `n` samples support percentile `p`: at least [`MIN_TAIL`]
/// of them lie strictly above its rank.
pub fn supports(n: usize, p: f64) -> bool {
    let beyond = n as f64 * (1.0 - p / 100.0);
    beyond + 1e-9 >= MIN_TAIL as f64
}

/// The highest ladder percentile that `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| supports(n, p))
}

/// Percentile `p` of `samples` (nearest rank on the sorted copy), or
/// `None` when the sample count does not support it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !supports(samples.len(), p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `samples` (mean of the middle pair for an even count);
/// zero for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Arithmetic mean; zero for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(!supports(99, 90.0));
        assert!(supports(100, 90.0));
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
    }

    #[test]
    fn highest_supported_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        for n in [20usize, 57, 100, 345, 5000] {
            let p = highest_supported(n).unwrap();
            let samples: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let v = percentile(&samples, p).unwrap();
            let beyond = samples.iter().filter(|&&s| s > v).count();
            assert!(beyond >= MIN_TAIL, "n={n} p{p}: only {beyond} beyond");
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
