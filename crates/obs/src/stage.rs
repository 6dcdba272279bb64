//! [`StageStats`] — the workspace's shared hot-path latency summary.

use serde::{Deserialize, Serialize};

use crate::hist::Histogram;

/// Latency summary of one hot-path stage across a run's slots, read out
/// of the stage's nanosecond [`Histogram`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StageStats {
    /// Number of recorded executions.
    pub count: usize,
    /// Total time spent in the stage, in milliseconds.
    pub total_ms: f64,
    /// Mean execution time, in microseconds.
    pub mean_us: f64,
    /// Median (p50) execution time, in microseconds (bucket-interpolated).
    pub p50_us: f64,
    /// 99th-percentile execution time, in microseconds
    /// (bucket-interpolated).
    pub p99_us: f64,
}

impl StageStats {
    /// Summarises a latency [`Histogram`] (nanosecond-valued). Count,
    /// total and mean are exact; p50/p99 are the histogram's
    /// bucket-interpolated quantile estimates. Zero stats when the stage
    /// never ran.
    pub fn from_histogram(hist: &Histogram) -> Self {
        if hist.count() == 0 {
            return StageStats::default();
        }
        let s = hist.summary();
        StageStats {
            count: s.count as usize,
            total_ms: s.sum as f64 / 1e6,
            mean_us: s.mean / 1e3,
            p50_us: s.p50 / 1e3,
            p99_us: s.p99 / 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_gives_zero_stats() {
        let h = Histogram::latency_ns();
        assert_eq!(StageStats::from_histogram(&h), StageStats::default());
    }

    #[test]
    fn from_histogram_matches_exact_moments() {
        let mut h = Histogram::latency_ns();
        for ns in [1_000u64, 2_000, 3_000, 4_000] {
            h.observe(ns);
        }
        let s = StageStats::from_histogram(&h);
        assert_eq!(s.count, 4);
        assert!((s.total_ms - 0.01).abs() < 1e-9);
        assert!((s.mean_us - 2.5).abs() < 1e-9);
        // Quantiles are bucket estimates — bounded by the bucket edges.
        assert!(s.p99_us >= 2.0 && s.p99_us <= 5.0, "p99={}", s.p99_us);
    }
}
