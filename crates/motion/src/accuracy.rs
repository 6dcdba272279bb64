//! Online estimation of the prediction-success probability `δ_n`.
//!
//! The per-slot objective `h_n` weighs the quality term by `δ_n = E[𝟙_n]`.
//! The paper estimates it with the running average hit rate `δ̄_n(t)`,
//! which converges to `δ_n`; an EWMA variant is provided for deployments
//! whose accuracy drifts (e.g. a user starts moving faster).

use serde::{Deserialize, Serialize};

/// Weight of the newest observation in the EWMA estimate.
const EWMA_WEIGHT: f64 = 0.02;

/// Running estimator of the FoV prediction hit probability. Both forms
/// start from an optimistic 1.0 (assume predictions work until shown
/// otherwise — the margin makes early hits very likely).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeltaEstimator {
    /// Cumulative average `hits / observations` (the paper's estimator).
    Average {
        /// Hits recorded so far.
        hits: u64,
        /// Total observations.
        total: u64,
    },
    /// Exponentially weighted moving average, weight 0.02 on the newest
    /// observation.
    Ewma {
        /// Current estimate.
        value: f64,
    },
}

impl DeltaEstimator {
    /// The paper's cumulative-average estimator.
    pub fn average() -> Self {
        DeltaEstimator::Average { hits: 0, total: 0 }
    }

    /// The EWMA estimator.
    pub fn ewma() -> Self {
        DeltaEstimator::Ewma { value: 1.0 }
    }

    /// Records one slot's outcome.
    pub fn record(&mut self, hit: bool) {
        match self {
            DeltaEstimator::Average { hits, total, .. } => {
                *total += 1;
                if hit {
                    *hits += 1;
                }
            }
            DeltaEstimator::Ewma { value } => {
                let x = if hit { 1.0 } else { 0.0 };
                *value = (1.0 - EWMA_WEIGHT) * *value + EWMA_WEIGHT * x;
            }
        }
    }

    /// The current estimate of `δ_n`.
    pub fn estimate(&self) -> f64 {
        match self {
            DeltaEstimator::Average { hits, total } => {
                if *total == 0 {
                    1.0
                } else {
                    *hits as f64 / *total as f64
                }
            }
            DeltaEstimator::Ewma { value } => *value,
        }
    }
}

impl Default for DeltaEstimator {
    fn default() -> Self {
        DeltaEstimator::average()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn average_converges_to_true_delta() {
        let mut est = DeltaEstimator::average();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let truth = 0.87;
        for _ in 0..50_000 {
            est.record(rng.gen_bool(truth));
        }
        assert!((est.estimate() - truth).abs() < 0.01);
    }

    #[test]
    fn prior_used_before_observations() {
        assert_eq!(DeltaEstimator::average().estimate(), 1.0);
        assert_eq!(DeltaEstimator::ewma().estimate(), 1.0);
    }

    #[test]
    fn average_exact_small_counts() {
        let mut est = DeltaEstimator::average();
        est.record(true);
        est.record(false);
        est.record(true);
        est.record(true);
        assert!((est.estimate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ewma_tracks_regime_change_faster_than_average() {
        let mut avg = DeltaEstimator::average();
        let mut ewma = DeltaEstimator::ewma();
        // 1000 hits, then 200 misses.
        for _ in 0..1000 {
            avg.record(true);
            ewma.record(true);
        }
        for _ in 0..200 {
            avg.record(false);
            ewma.record(false);
        }
        assert!(ewma.estimate() < avg.estimate());
        assert!(ewma.estimate() < 0.05);
    }

    #[test]
    fn estimates_stay_in_unit_interval() {
        let mut est = DeltaEstimator::ewma();
        for i in 0..100 {
            est.record(i % 3 == 0);
            let e = est.estimate();
            assert!((0.0..=1.0).contains(&e));
        }
    }
}
