//! Online estimators the real system runs in its control loop:
//!
//! * [`EmaEstimator`] — Exponential Moving Average throughput estimation
//!   (Section V: "We estimate the available bandwidth for each user using
//!   Exponential Moving Average").
//! * [`PolyRegression`] — polynomial regression of delay against rate
//!   (Section V: "we use polynomial regression to predict the delay instead
//!   of linear regression" because the relationship is non-linear).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// A bandwidth estimator: consumes noisy per-slot throughput observations
/// and produces the server's working estimate `B̂_n`.
///
/// The paper's system uses EMA; [`SlidingMeanEstimator`] and
/// [`HarmonicMeanEstimator`] are the other two standard choices from the
/// adaptive-streaming literature (harmonic mean is deliberately
/// pessimistic — it is dominated by throughput dips, which makes it
/// robust against overestimation).
pub trait BandwidthEstimator {
    /// Records an observation.
    fn update(&mut self, observation: f64);

    /// The current estimate, or `fallback` before any observation.
    fn estimate_or(&self, fallback: f64) -> f64;

    /// Clears all state.
    fn reset(&mut self);
}

/// Exponential-moving-average estimator of a noisy scalar (bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmaEstimator {
    weight: f64,
    value: Option<f64>,
}

impl EmaEstimator {
    /// Creates an estimator with smoothing weight `weight ∈ (0, 1]` on the
    /// newest observation.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is outside `(0, 1]`.
    pub fn new(weight: f64) -> Self {
        assert!(weight > 0.0 && weight <= 1.0, "weight must be in (0, 1]");
        EmaEstimator {
            weight,
            value: None,
        }
    }

    /// Records an observation and returns the updated estimate.
    pub fn update(&mut self, observation: f64) -> f64 {
        let next = match self.value {
            Some(v) => (1.0 - self.weight) * v + self.weight * observation,
            None => observation,
        };
        self.value = Some(next);
        next
    }

    /// The current estimate, or `None` before any observation.
    pub fn estimate(&self) -> Option<f64> {
        self.value
    }

    /// The current estimate, or `fallback` before any observation.
    pub fn estimate_or(&self, fallback: f64) -> f64 {
        self.value.unwrap_or(fallback)
    }

    /// Clears the estimator.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

impl BandwidthEstimator for EmaEstimator {
    fn update(&mut self, observation: f64) {
        EmaEstimator::update(self, observation);
    }

    fn estimate_or(&self, fallback: f64) -> f64 {
        EmaEstimator::estimate_or(self, fallback)
    }

    fn reset(&mut self) {
        EmaEstimator::reset(self);
    }
}

/// Arithmetic mean over a sliding window of observations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlidingMeanEstimator {
    window: usize,
    samples: VecDeque<f64>,
}

impl SlidingMeanEstimator {
    /// Creates an estimator averaging the last `window` observations.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        SlidingMeanEstimator {
            window,
            samples: VecDeque::new(),
        }
    }
}

impl BandwidthEstimator for SlidingMeanEstimator {
    fn update(&mut self, observation: f64) {
        self.samples.push_back(observation);
        if self.samples.len() > self.window {
            self.samples.pop_front();
        }
    }

    fn estimate_or(&self, fallback: f64) -> f64 {
        if self.samples.is_empty() {
            fallback
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    fn reset(&mut self) {
        self.samples.clear();
    }
}

/// Harmonic mean over a sliding window — the deliberately pessimistic
/// estimator popularised by throughput-based ABR (dips dominate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarmonicMeanEstimator {
    window: usize,
    samples: VecDeque<f64>,
}

impl HarmonicMeanEstimator {
    /// Creates an estimator over the last `window` observations.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        HarmonicMeanEstimator {
            window,
            samples: VecDeque::new(),
        }
    }
}

impl BandwidthEstimator for HarmonicMeanEstimator {
    fn update(&mut self, observation: f64) {
        // Non-positive observations would break the harmonic mean; clamp
        // to a tiny floor (a dead link reads as "almost nothing").
        self.samples.push_back(observation.max(1e-6));
        if self.samples.len() > self.window {
            self.samples.pop_front();
        }
    }

    fn estimate_or(&self, fallback: f64) -> f64 {
        if self.samples.is_empty() {
            fallback
        } else {
            self.samples.len() as f64 / self.samples.iter().map(|x| 1.0 / x).sum::<f64>()
        }
    }

    fn reset(&mut self) {
        self.samples.clear();
    }
}

/// Degree of the delay-vs-rate fit.
const DEGREE: usize = 2;
/// (rate, delay) measurements the fit covers.
const WINDOW: usize = 64;

/// Least-squares quadratic regression over the last 64 `(x, y)` samples,
/// with Gaussian-elimination normal equations.
///
/// Used by the server to map a candidate sending rate to a predicted
/// delivery delay from recent measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolyRegression {
    samples: VecDeque<(f64, f64)>,
}

impl PolyRegression {
    /// An empty regressor.
    pub fn paper_default() -> Self {
        PolyRegression {
            samples: VecDeque::new(),
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Adds a sample, evicting the oldest if the window is full.
    pub fn observe(&mut self, x: f64, y: f64) {
        self.samples.push_back((x, y));
        if self.samples.len() > WINDOW {
            self.samples.pop_front();
        }
    }

    /// Fits the polynomial and returns its coefficients
    /// `[c0, c1, c2]` (lowest order first), or `None` if there are not
    /// enough samples (fewer than three).
    pub fn fit(&self) -> Option<Vec<f64>> {
        let m = DEGREE + 1;
        if self.samples.len() < m {
            return None;
        }
        // Normal equations: (XᵀX) c = Xᵀy with X the Vandermonde matrix.
        let mut xtx = vec![vec![0.0f64; m]; m];
        let mut xty = vec![0.0f64; m];
        for &(x, y) in &self.samples {
            let mut powers = vec![1.0f64; 2 * m - 1];
            for i in 1..2 * m - 1 {
                powers[i] = powers[i - 1] * x;
            }
            for i in 0..m {
                for j in 0..m {
                    xtx[i][j] += powers[i + j];
                }
                xty[i] += powers[i] * y;
            }
        }
        solve_linear(&mut xtx, &mut xty)
    }

    /// Predicts `y` at `x` from the current fit; `None` without enough
    /// samples or on a singular fit.
    pub fn predict(&self, x: f64) -> Option<f64> {
        let coeffs = self.fit()?;
        let mut acc = 0.0;
        let mut p = 1.0;
        for c in coeffs {
            acc += c * p;
            p *= x;
        }
        Some(acc)
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.samples.clear();
    }
}

/// Solves `A·x = b` in place by Gaussian elimination with partial
/// pivoting; `None` if the system is singular.
fn solve_linear(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            #[allow(clippy::needless_range_loop)] // rows `row` and `col` are read together
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ema_first_observation_is_identity() {
        let mut e = EmaEstimator::new(0.2);
        assert_eq!(e.estimate(), None);
        assert_eq!(e.estimate_or(9.0), 9.0);
        assert_eq!(e.update(50.0), 50.0);
        assert_eq!(e.estimate(), Some(50.0));
    }

    #[test]
    fn ema_converges_to_constant_signal() {
        let mut e = EmaEstimator::new(0.1);
        for _ in 0..500 {
            e.update(42.0);
        }
        assert!((e.estimate().unwrap() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn ema_smooths_noise() {
        let mut e = EmaEstimator::new(0.1);
        // Alternating 40/60: estimate should hover near 50, well inside.
        for i in 0..1000 {
            e.update(if i % 2 == 0 { 40.0 } else { 60.0 });
        }
        let v = e.estimate().unwrap();
        assert!(v > 45.0 && v < 55.0);
    }

    #[test]
    fn ema_lags_step_change() {
        let mut e = EmaEstimator::new(0.05);
        for _ in 0..200 {
            e.update(100.0);
        }
        e.update(20.0);
        // One step after the drop the estimate barely moved — the lag the
        // paper exploits against estimation-driven baselines.
        assert!(e.estimate().unwrap() > 90.0);
        e.reset();
        assert_eq!(e.estimate(), None);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn ema_rejects_bad_weight() {
        let _ = EmaEstimator::new(1.5);
    }

    #[test]
    fn sliding_mean_averages_the_window() {
        let mut s = SlidingMeanEstimator::new(3);
        assert_eq!(BandwidthEstimator::estimate_or(&s, 7.0), 7.0);
        for x in [10.0, 20.0, 30.0, 40.0] {
            BandwidthEstimator::update(&mut s, x);
        }
        // Window holds {20, 30, 40}.
        assert!((BandwidthEstimator::estimate_or(&s, 0.0) - 30.0).abs() < 1e-12);
        BandwidthEstimator::reset(&mut s);
        assert_eq!(BandwidthEstimator::estimate_or(&s, 5.0), 5.0);
    }

    #[test]
    fn harmonic_mean_is_pessimistic() {
        let mut h = HarmonicMeanEstimator::new(8);
        let mut a = SlidingMeanEstimator::new(8);
        for x in [50.0, 50.0, 50.0, 5.0] {
            BandwidthEstimator::update(&mut h, x);
            BandwidthEstimator::update(&mut a, x);
        }
        let harmonic = BandwidthEstimator::estimate_or(&h, 0.0);
        let arithmetic = BandwidthEstimator::estimate_or(&a, 0.0);
        assert!(
            harmonic < arithmetic,
            "harmonic {harmonic} should undercut arithmetic {arithmetic} after a dip"
        );
        assert!(harmonic < 20.0);
    }

    #[test]
    fn harmonic_mean_survives_zero_observations() {
        let mut h = HarmonicMeanEstimator::new(4);
        BandwidthEstimator::update(&mut h, 0.0);
        BandwidthEstimator::update(&mut h, 10.0);
        let e = BandwidthEstimator::estimate_or(&h, 0.0);
        assert!(e.is_finite() && e >= 0.0);
    }

    #[test]
    fn ema_satisfies_the_trait() {
        let mut e: Box<dyn BandwidthEstimator> = Box::new(EmaEstimator::new(0.5));
        e.update(10.0);
        e.update(20.0);
        assert!((e.estimate_or(0.0) - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = SlidingMeanEstimator::new(0);
    }

    #[test]
    fn poly_recovers_exact_quadratic() {
        let mut p = PolyRegression::paper_default();
        for i in 0..20 {
            let x = i as f64 * 0.5;
            p.observe(x, 3.0 + 2.0 * x + 0.5 * x * x);
        }
        let c = p.fit().unwrap();
        assert!((c[0] - 3.0).abs() < 1e-6);
        assert!((c[1] - 2.0).abs() < 1e-6);
        assert!((c[2] - 0.5).abs() < 1e-6);
        let y = p.predict(10.0).unwrap();
        assert!((y - (3.0 + 20.0 + 50.0)).abs() < 1e-4);
    }

    #[test]
    fn poly_needs_enough_samples() {
        let mut p = PolyRegression::paper_default();
        p.observe(0.0, 1.0);
        p.observe(1.0, 2.0);
        assert!(p.fit().is_none());
        assert!(p.predict(0.5).is_none());
        p.observe(2.0, 5.0);
        assert!(p.fit().is_some());
    }

    #[test]
    fn poly_window_slides() {
        let mut p = PolyRegression::paper_default();
        // Old regime y = x, then new regime y = 2x: after the window slides
        // the fit should match the new line.
        for i in 0..WINDOW {
            let x = i as f64 * 0.1;
            p.observe(x, x);
        }
        for i in 0..WINDOW {
            let x = 10.0 + i as f64 * 0.1;
            p.observe(x, 2.0 * x);
        }
        assert_eq!(p.len(), WINDOW);
        let c = p.fit().unwrap();
        assert!(c[0].abs() < 1e-6 && (c[1] - 2.0).abs() < 1e-6 && c[2].abs() < 1e-6);
    }

    #[test]
    fn poly_degenerate_inputs_return_none() {
        // All x identical → singular normal equations for degree ≥ 1.
        let mut p = PolyRegression::paper_default();
        for _ in 0..5 {
            p.observe(1.0, 3.0);
        }
        assert!(p.fit().is_none());
    }

    #[test]
    fn poly_fits_noisy_mm1_shape_monotonically() {
        // Quadratic fit of an M/M/1-style curve should still be increasing
        // over the observed range.
        let mut p = PolyRegression::paper_default();
        for i in 1..40 {
            let r = i as f64;
            let d = r / (50.0 - r);
            p.observe(r, d);
        }
        let lo = p.predict(10.0).unwrap();
        let hi = p.predict(35.0).unwrap();
        assert!(hi > lo);
    }

    #[test]
    fn reset_and_len() {
        let mut p = PolyRegression::paper_default();
        assert!(p.is_empty());
        p.observe(0.0, 0.0);
        assert_eq!(p.len(), 1);
        p.reset();
        assert!(p.is_empty());
    }
}
