//! Experiment metrics: empirical distributions (for the CDF figures),
//! read-only sorted snapshots, run-level summaries, and the merge
//! operations the parallel runner uses to combine per-worker results.

use serde::{Deserialize, Serialize};

/// An empirical distribution of a scalar metric across runs, backing the
/// paper's CDF plots (Figs. 2 and 3).
///
/// The accumulator itself is append-only; order statistics (quantiles,
/// CDF values) live on the read-only [`SortedDistribution`] snapshot so
/// report code never needs `&mut` access to merged results.
///
/// # Examples
///
/// ```
/// use cvr_sim::metrics::EmpiricalDistribution;
///
/// let d: EmpiricalDistribution = [3.0, 1.0, 2.0].into_iter().collect();
/// assert_eq!(d.mean(), 2.0);
/// let s = d.sorted();
/// assert_eq!(s.quantile(0.5), 2.0);
/// assert!((s.cdf(1.5) - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EmpiricalDistribution {
    values: Vec<f64>,
}

impl EmpiricalDistribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        EmpiricalDistribution::default()
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN — a NaN observation indicates an upstream bug.
    pub fn push(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN observation");
        self.values.push(value);
    }

    /// Appends every observation of `other`, preserving `other`'s order —
    /// the concatenative merge the parallel runner relies on for
    /// bit-identical results at any thread count (merging chunk
    /// accumulators in chunk order reproduces the sequential insertion
    /// order exactly).
    pub fn merge(&mut self, other: &EmpiricalDistribution) {
        self.values.extend_from_slice(&other.values);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the distribution is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw observations in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Minimum observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// A read-only sorted snapshot for quantile/CDF queries.
    pub fn sorted(&self) -> SortedDistribution {
        let mut values = self.values.clone();
        values.sort_by(f64::total_cmp);
        SortedDistribution { values }
    }
}

impl FromIterator<f64> for EmpiricalDistribution {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut d = EmpiricalDistribution::new();
        for v in iter {
            d.push(v);
        }
        d
    }
}

impl Extend<f64> for EmpiricalDistribution {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

/// A sorted, read-only snapshot of an [`EmpiricalDistribution`]: every
/// order statistic is `&self`, so merged experiment results can be
/// queried without `mut` plumbing (and shared across report threads).
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct SortedDistribution {
    values: Vec<f64>,
}

impl SortedDistribution {
    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Minimum observation (0 when empty).
    pub fn min(&self) -> f64 {
        self.values.first().copied().unwrap_or(0.0)
    }

    /// Maximum observation (0 when empty).
    pub fn max(&self) -> f64 {
        self.values.last().copied().unwrap_or(0.0)
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), by nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is empty or `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.values.is_empty(), "quantile of empty distribution");
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let idx =
            ((q * (self.values.len() - 1) as f64).round() as usize).min(self.values.len() - 1);
        self.values[idx]
    }

    /// Empirical CDF value `P(X ≤ x)` (0 when empty).
    pub fn cdf(&self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let count = self.values.partition_point(|&v| v <= x);
        count as f64 / self.values.len() as f64
    }

    /// `(value, cdf)` points suitable for plotting the CDF curve.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let n = self.values.len();
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }
}

/// Per-slot, per-user time series of a run (`[user][slot]` layout).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    /// Chosen quality level per slot.
    pub chosen_level: Vec<Vec<u8>>,
    /// Successfully-viewed quality per slot (0 on a miss).
    pub viewed_quality: Vec<Vec<f32>>,
    /// Delivery delay per slot, in slot units.
    pub delay_slots: Vec<Vec<f32>>,
}

impl TimeSeries {
    /// Creates empty series sized for `users × slots`.
    pub fn with_capacity(users: usize, slots: usize) -> Self {
        TimeSeries {
            chosen_level: vec![Vec::with_capacity(slots); users],
            viewed_quality: vec![Vec::with_capacity(slots); users],
            delay_slots: vec![Vec::with_capacity(slots); users],
        }
    }

    /// Writes the series as long-format CSV
    /// (`slot,user,level,viewed,delay` rows).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn to_csv<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        writeln!(writer, "slot,user,level,viewed,delay")?;
        for (u, levels) in self.chosen_level.iter().enumerate() {
            for (slot, &level) in levels.iter().enumerate() {
                writeln!(
                    writer,
                    "{slot},{u},{level},{},{}",
                    self.viewed_quality[u][slot], self.delay_slots[u][slot]
                )?;
            }
        }
        Ok(())
    }
}

/// The four CDF metrics the paper plots per algorithm (Figs. 2 and 3):
/// average QoE, average viewed quality, average delivery delay, and the
/// variance of viewed quality.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricDistributions {
    /// Per-run average QoE per slot.
    pub qoe: EmpiricalDistribution,
    /// Per-run average viewed quality.
    pub quality: EmpiricalDistribution,
    /// Per-run average delivery delay.
    pub delay: EmpiricalDistribution,
    /// Per-run average variance of viewed quality.
    pub variance: EmpiricalDistribution,
}

impl MetricDistributions {
    /// Creates empty distributions.
    pub fn new() -> Self {
        MetricDistributions::default()
    }

    /// Records one run's system summary.
    pub fn push_summary(&mut self, s: &cvr_core::qoe::SystemQoeSummary) {
        self.qoe.push(s.avg_qoe);
        self.quality.push(s.avg_quality);
        self.delay.push(s.avg_delay);
        self.variance.push(s.avg_variance);
    }

    /// Appends every metric of `other` (concatenative — see
    /// [`EmpiricalDistribution::merge`]).
    pub fn merge(&mut self, other: &MetricDistributions) {
        self.qoe.merge(&other.qoe);
        self.quality.merge(&other.quality);
        self.delay.merge(&other.delay);
        self.variance.merge(&other.variance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_quantile_cdf() {
        let d: EmpiricalDistribution = (1..=10).map(|i| i as f64).collect();
        assert_eq!(d.len(), 10);
        assert!((d.mean() - 5.5).abs() < 1e-12);
        let s = d.sorted();
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 10.0);
        assert_eq!(s.quantile(0.5), 6.0); // nearest rank of index 4.5 → 5
        assert!((s.cdf(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.cdf(0.0), 0.0);
        assert_eq!(s.cdf(100.0), 1.0);
        assert_eq!(s.mean(), d.mean());
        assert_eq!(s.len(), d.len());
    }

    #[test]
    fn cdf_points_are_monotone() {
        let d: EmpiricalDistribution = [3.0, 1.0, 2.0, 2.0].into_iter().collect();
        let pts = d.sorted().cdf_points();
        assert_eq!(pts.len(), 4);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 > w[0].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn snapshot_reflects_later_pushes() {
        let mut d = EmpiricalDistribution::new();
        d.push(5.0);
        d.push(1.0);
        assert_eq!(d.sorted().quantile(0.0), 1.0);
        d.push(0.5);
        assert_eq!(d.sorted().quantile(0.0), 0.5);
    }

    #[test]
    fn min_max_extend() {
        let mut d = EmpiricalDistribution::new();
        d.extend([2.0, -1.0, 7.0]);
        assert_eq!(d.min(), -1.0);
        assert_eq!(d.max(), 7.0);
        let s = d.sorted();
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 7.0);
        assert_eq!(SortedDistribution::default().min(), 0.0);
        assert_eq!(SortedDistribution::default().max(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        EmpiricalDistribution::new().push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        EmpiricalDistribution::new().sorted().quantile(0.5);
    }

    #[test]
    fn merge_of_splits_equals_whole() {
        let whole: EmpiricalDistribution = (0..100).map(|i| (i * 37 % 50) as f64).collect();
        let mut merged: EmpiricalDistribution = whole.values()[..33].iter().copied().collect();
        let mid: EmpiricalDistribution = whole.values()[33..71].iter().copied().collect();
        let tail: EmpiricalDistribution = whole.values()[71..].iter().copied().collect();
        merged.merge(&mid);
        merged.merge(&tail);
        assert_eq!(merged, whole, "split/merge must reproduce the whole");
    }

    #[test]
    fn empty_merge_is_identity() {
        let d: EmpiricalDistribution = [1.0, 2.0, 3.0].into_iter().collect();
        let mut left = d.clone();
        left.merge(&EmpiricalDistribution::new());
        assert_eq!(left, d);
        let mut right = EmpiricalDistribution::new();
        right.merge(&d);
        assert_eq!(right, d);
    }

    #[test]
    fn metric_distributions_merge_matches_sequential() {
        use cvr_core::qoe::SystemQoeSummary;
        let summaries: Vec<SystemQoeSummary> = (0..10)
            .map(|i| SystemQoeSummary {
                users: 2,
                avg_qoe: i as f64 * 0.5,
                avg_quality: 4.0 - i as f64 * 0.1,
                avg_delay: 0.1 * i as f64,
                avg_variance: 1.0 / (1.0 + i as f64),
                avg_hit_rate: 0.9,
            })
            .collect();
        let mut sequential = MetricDistributions::new();
        for s in &summaries {
            sequential.push_summary(s);
        }
        let mut merged = MetricDistributions::new();
        for chunk in summaries.chunks(3) {
            let mut local = MetricDistributions::new();
            for s in chunk {
                local.push_summary(s);
            }
            merged.merge(&local);
        }
        assert_eq!(merged, sequential);
        let mut with_empty = merged.clone();
        with_empty.merge(&MetricDistributions::new());
        assert_eq!(with_empty, sequential);
    }

    #[test]
    fn metric_distributions_accumulate_summaries() {
        use cvr_core::qoe::SystemQoeSummary;
        let mut m = MetricDistributions::new();
        m.push_summary(&SystemQoeSummary {
            users: 2,
            avg_qoe: 3.0,
            avg_quality: 4.0,
            avg_delay: 0.5,
            avg_variance: 1.0,
            avg_hit_rate: 0.9,
        });
        assert_eq!(m.qoe.len(), 1);
        assert_eq!(m.quality.mean(), 4.0);
        assert_eq!(m.delay.mean(), 0.5);
        assert_eq!(m.variance.mean(), 1.0);
    }
}
