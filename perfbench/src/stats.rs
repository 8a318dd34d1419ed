//! Order statistics over timing samples.
//!
//! A tail is reported at the highest percentile that still has at least
//! [`MIN_BEYOND`] samples beyond it, so a short run never passes its
//! maximum off as a p99.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending slice (`None` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p)])
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9% of 10,000 = 9990.000…2) from
    // rounding an exact rank up.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n - (rank(n.max(1), p) + 1).min(n) >= MIN_BEYOND)
}

/// Median and rule-chosen tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile the tail is reported at.
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). `None` when there are too few
    /// samples for any tail percentile.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(sorted.len())?;
        Some(Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0)?,
            tail_p,
            tail: percentile(&sorted, tail_p)?,
        })
    }

    /// `p99`, `p99.9`, … — the label of the reported tail.
    pub fn tail_label(&self) -> String {
        format!("p{}", self.tail_p)
    }
}

/// Median of `values` (any order; `None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_nearest_rank_values() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_p, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_label(), "p99");
        // Exactly ten samples (991..=1000) lie beyond the reported tail.
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), MIN_BEYOND);
        assert!(Summary::of(&samples[..5]).is_none());
    }

    #[test]
    fn median_of_unsorted_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
