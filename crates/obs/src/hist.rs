//! Fixed-bucket histograms over integer observations.
//!
//! Values are `u64` in a caller-chosen unit (nanoseconds for timings,
//! quality levels for ladders, …). Keeping the whole histogram integral —
//! `u64` bucket counts, saturating `u64` sum, `min`/`max` — makes
//! [`Histogram::merge`] exactly associative and commutative, so per-worker
//! instances merged in chunk order are bit-identical at every thread
//! count. A floating-point sum would not survive that: f64 addition is not
//! associative, and chunk sizes depend on the worker count.

use serde::{Deserialize, Serialize};

/// Default bucket upper bounds for latency histograms, in nanoseconds:
/// 1 µs … 50 ms in a 1-2-5 progression. Spans everything from a single
/// engine stage (~µs) to a blown 15 ms slot deadline.
pub fn latency_bounds_ns() -> Vec<u64> {
    vec![
        1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000,
        2_000_000, 5_000_000, 10_000_000, 15_000_000, 50_000_000,
    ]
}

/// Fixed-bucket histogram with Prometheus-style cumulative `le`
/// (less-or-equal) semantics: an observation lands in the first bucket
/// whose upper bound is `>=` the value, and values above the last bound
/// land in the implicit `+Inf` overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Strictly increasing inclusive upper bounds, one per finite bucket.
    bounds: Vec<u64>,
    /// Per-bucket counts; `buckets.len() == bounds.len() + 1`, the last
    /// entry being the `+Inf` overflow bucket.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Observations refused by [`Histogram::observe_f64`] (NaN, ±inf,
    /// negative). Merges like a counter.
    rejected: u64,
}

impl Histogram {
    /// Creates a histogram with the given upper bounds.
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            rejected: 0,
        }
    }

    /// A histogram over [`latency_bounds_ns`].
    pub fn latency_ns() -> Self {
        Histogram::new(&latency_bounds_ns())
    }

    /// Records one observation. A value exactly on a bucket boundary
    /// counts toward that bucket (`le` is inclusive).
    #[inline]
    pub fn observe(&mut self, value: u64) {
        let idx = self.bucket_index(value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a float observation after validating it: NaN, ±infinity,
    /// and negative values are refused (returns `false` and bumps
    /// [`Histogram::rejected`]); finite non-negative values are rounded to
    /// the nearest integer unit and recorded.
    #[inline]
    pub fn observe_f64(&mut self, value: f64) -> bool {
        if !value.is_finite() || value < 0.0 {
            self.rejected += 1;
            return false;
        }
        self.observe(value.round() as u64);
        true
    }

    #[inline]
    fn bucket_index(&self, value: u64) -> usize {
        // Bounds are short (~16) and strictly increasing, so the bounds
        // below `value` are a prefix and their count is the index of the
        // first bound >= value. Counting them compiles branch-free.
        self.bounds.iter().map(|&b| usize::from(b < value)).sum()
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Observations refused by [`Histogram::observe_f64`].
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Smallest recorded observation.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded observation.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The configured finite upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the final entry is the `+Inf`
    /// overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Merges another histogram into this one. Pure integer adds plus
    /// min/max — exactly associative and commutative. Returns `false`, and
    /// leaves `self` untouched, when the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.rejected += other.rejected;
        true
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by nearest-rank bucket
    /// lookup with linear interpolation inside the bucket. The first
    /// bucket interpolates from 0; the overflow bucket is clamped to the
    /// observed maximum. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank target, 1-based: the k-th smallest observation.
        let rank = ((q * (self.count - 1) as f64).round() as u64) + 1;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cumulative + n >= rank {
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let upper = if i < self.bounds.len() {
                    self.bounds[i].min(self.max)
                } else {
                    self.max
                };
                let upper = upper.max(lower);
                let frac = (rank - cumulative) as f64 / n as f64;
                return Some(lower as f64 + (upper - lower) as f64 * frac);
            }
            cumulative += n;
        }
        Some(self.max as f64)
    }

    /// Condenses the histogram into a plain-old-data summary.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            mean: if self.count > 0 {
                self.sum as f64 / self.count as f64
            } else {
                0.0
            },
            p50: self.quantile(0.50).unwrap_or(0.0),
            p95: self.quantile(0.95).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
        }
    }
}

/// Plain-old-data summary of a [`Histogram`], in the histogram's native
/// unit (nanoseconds for latency histograms). Quantiles are bucket-edge
/// interpolations — see [`Histogram::quantile`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Mean observation (`0` when empty).
    pub mean: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Smallest observation (`0` when empty).
    pub min: u64,
    /// Largest observation (`0` when empty).
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The binary-search form `bucket_index` replaced: the first bound
    /// `>= value`.
    fn partition_point_index(h: &Histogram, value: u64) -> usize {
        h.bounds.partition_point(|&b| b < value)
    }

    /// 0, `u64::MAX`, and every bound and bound ± 1.
    fn edge_values(bounds: &[u64]) -> Vec<u64> {
        let mut values = vec![0, u64::MAX];
        for &b in bounds {
            values.extend([b.saturating_sub(1), b, b.saturating_add(1)]);
        }
        values
    }

    #[test]
    fn counted_bucket_index_equals_partition_point_at_the_edges() {
        let overlap_bounds: Vec<u64> = (0..=4).collect();
        for bounds in [latency_bounds_ns(), overlap_bounds] {
            let h = Histogram::new(&bounds);
            for value in edge_values(&bounds) {
                assert_eq!(
                    h.bucket_index(value),
                    partition_point_index(&h, value),
                    "bounds {bounds:?}, value {value}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn counted_bucket_index_equals_partition_point(
            start in 0u64..1_000,
            gaps in prop::collection::vec(1u64..1_000, 1..20),
            probes in prop::collection::vec(0u64..25_000, 1..40),
        ) {
            let bounds: Vec<u64> = gaps
                .iter()
                .scan(start, |bound, gap| {
                    *bound += gap;
                    Some(*bound)
                })
                .collect();
            let h = Histogram::new(&bounds);
            for value in edge_values(&bounds).into_iter().chain(probes) {
                prop_assert_eq!(h.bucket_index(value), partition_point_index(&h, value));
            }
        }
    }

    #[test]
    fn boundary_value_lands_in_its_bucket() {
        let mut h = Histogram::new(&[10, 20, 30]);
        h.observe(10); // exactly on the first bound -> bucket 0
        h.observe(11); // just above -> bucket 1
        h.observe(30); // exactly on the last bound -> bucket 2
        h.observe(31); // above every bound -> overflow
        assert_eq!(h.bucket_counts(), &[1, 1, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(31));
    }

    #[test]
    fn observe_f64_rejects_non_finite_and_negative() {
        let mut h = Histogram::new(&[10]);
        assert!(!h.observe_f64(f64::NAN));
        assert!(!h.observe_f64(f64::INFINITY));
        assert!(!h.observe_f64(f64::NEG_INFINITY));
        assert!(!h.observe_f64(-1.0));
        assert_eq!(h.count(), 0);
        assert_eq!(h.rejected(), 4);
        assert!(h.observe_f64(4.6));
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(5)); // rounded to nearest
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Histogram::new(&[10, 20]);
        let mut b = a.clone();
        a.observe(5);
        a.observe(25);
        b.observe(15);
        b.observe_f64(f64::NAN);
        assert!(a.merge(&b));
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 45);
        assert_eq!(a.bucket_counts(), &[1, 1, 1]);
        assert_eq!(a.rejected(), 1);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(25));
    }

    #[test]
    fn merge_refuses_mismatched_bounds_and_changes_nothing() {
        let mut a = Histogram::new(&[10]);
        a.observe(3);
        let before = a.clone();
        let mut b = Histogram::new(&[20]);
        b.observe(4);
        assert!(!a.merge(&b));
        assert_eq!(a, before);
    }

    #[test]
    fn quantiles_track_the_data() {
        let mut h = Histogram::latency_ns();
        for i in 1..=100u64 {
            h.observe(i * 1_000); // 1µs..100µs uniform
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        // p50 of 1..=100 µs sits near 50µs; in-bucket interpolation keeps
        // the estimate within a few µs of the true value.
        assert!((s.p50 - 50_500.0).abs() <= 5_000.0, "p50={}", s.p50);
        assert!(s.p99 >= 50_000.0 && s.p99 <= 100_000.0, "p99={}", s.p99);
        assert!((s.mean - 50_500.0).abs() < 1.0);
        assert_eq!(s.min, 1_000);
        assert_eq!(s.max, 100_000);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Histogram::new(&[1]).summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p99, 0.0);
    }
}
