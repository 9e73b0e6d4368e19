//! Latency summaries under the reporting rule: a timing is a median plus
//! the highest percentile that still has at least ten samples beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a summary may report, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Zero-based nearest-rank index of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// Whether percentile `p` of `n` samples may be reported.
pub fn reportable(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile of the ladder that `n` samples support.
pub fn highest_reportable(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| reportable(n, p))
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p)]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A sorted latency sample set.
#[derive(Debug, Clone)]
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    /// Sorts `samples`.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Latencies { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `p`, or an error naming the shortfall when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn at(&self, p: f64) -> Result<f64, String> {
        if reportable(self.len(), p) {
            Ok(percentile(&self.sorted, p))
        } else {
            Err(format!(
                "p{p} of {} samples has {} beyond it (need {MIN_BEYOND})",
                self.len(),
                beyond(self.len(), p)
            ))
        }
    }

    /// One-line description: count, median and the highest reportable
    /// percentile.
    pub fn describe(&self) -> String {
        match highest_reportable(self.len()) {
            Some(p) => format!(
                "n={} p50={:.1} p{p}={:.1}",
                self.len(),
                percentile(&self.sorted, 50.0),
                percentile(&self.sorted, p)
            ),
            None => format!("n={} (too few samples for any percentile)", self.len()),
        }
    }
}

/// Percentile `p` of every group, then the median over the groups. Every
/// group must support `p` on its own. A burst of interference in one
/// group (one pass, build or simulation) moves only that group's value.
pub fn median_over_groups(groups: &[Latencies], p: f64) -> Result<f64, String> {
    let per_group = groups.iter().map(|g| g.at(p)).collect::<Result<Vec<f64>, String>>()?;
    if per_group.is_empty() {
        return Err("no samples".to_string());
    }
    Ok(median(&per_group))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_and_more_samples() {
        // 1000 samples: p99 is the 990th, and 10 lie beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(reportable(1000, 99.0));
        assert_eq!(beyond(999, 99.0), 9);
        assert!(!reportable(999, 99.0));
        assert_eq!(highest_reportable(999), Some(95.0));
        assert_eq!(highest_reportable(1000), Some(99.0));
        assert_eq!(highest_reportable(20_000), Some(99.9));
    }

    #[test]
    fn small_samples_fall_back_or_report_nothing() {
        assert_eq!(highest_reportable(0), None);
        assert_eq!(highest_reportable(5), None);
        // 20 samples: the median (rank 9) has 10 beyond it.
        assert_eq!(highest_reportable(20), Some(50.0));
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(100), Some(90.0));
        let lat = Latencies::new((1..=19).map(f64::from).collect());
        assert!(lat.at(50.0).is_err());
        assert!(lat.describe().contains("too few"));
    }

    #[test]
    fn group_medians_ignore_one_disturbed_group() {
        let calm = || Latencies::new((1..=1000).map(f64::from).collect());
        let disturbed = Latencies::new((1..=1000).map(|v| f64::from(v) * 5.0).collect());
        let groups = [calm(), disturbed, calm()];
        assert_eq!(median_over_groups(&groups, 99.0), Ok(990.0));
        let short = [calm(), Latencies::new(vec![1.0; 50])];
        assert!(median_over_groups(&short, 99.0).is_err(), "every group needs its own p99");
        assert!(median_over_groups(&[], 50.0).is_err());
    }

    #[test]
    fn nearest_rank_values() {
        let lat = Latencies::new((1..=2000).rev().map(f64::from).collect());
        assert_eq!(lat.at(50.0), Ok(1000.0));
        assert_eq!(lat.at(99.0), Ok(1980.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
