//! Adaptive FoV margins — an extension of the paper's fixed-margin design.
//!
//! The paper delivers the predicted FoV plus a *fixed* angular margin
//! (footnote 1). A fixed margin must be sized for the worst user: calm
//! viewers waste bandwidth, frantic viewers still miss. [`AdaptiveMargin`]
//! instead tracks each user's recent orientation-prediction errors and
//! sets the margin to a high quantile of them (plus a pad), so the margin
//! shrinks for predictable users and grows under rapid head motion.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Sliding-window quantile tracker over orientation prediction errors,
/// producing a per-user delivery margin.
///
/// # Examples
///
/// ```
/// use cvr_motion::margin::AdaptiveMargin;
///
/// let mut m = AdaptiveMargin::paper_compatible();
/// // A calm user with ~2° errors ends well below the fixed 15°.
/// for _ in 0..200 {
///     m.observe_error(2.0, 1.0);
/// }
/// assert!(m.margin_deg() < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveMargin {
    window: VecDeque<f64>,
    capacity: usize,
    quantile: f64,
    pad_deg: f64,
    min_deg: f64,
    max_deg: f64,
}

impl AdaptiveMargin {
    /// A configuration whose *maximum* equals the paper's fixed 15° margin:
    /// p95 of the last 256 errors plus a 2° pad, clamped to `[3°, 15°]`.
    pub fn paper_compatible() -> Self {
        AdaptiveMargin::new(256, 0.95, 2.0, 3.0, 15.0)
    }

    /// Creates a tracker.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, `quantile` outside `(0, 1]`, the pad
    /// negative, or the clamp bounds are not ordered non-negative numbers.
    pub fn new(capacity: usize, quantile: f64, pad_deg: f64, min_deg: f64, max_deg: f64) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(
            quantile > 0.0 && quantile <= 1.0,
            "quantile must be in (0, 1]"
        );
        assert!(pad_deg >= 0.0, "pad must be non-negative");
        assert!(
            min_deg >= 0.0 && max_deg >= min_deg,
            "clamp bounds must satisfy 0 <= min <= max"
        );
        AdaptiveMargin {
            window: VecDeque::with_capacity(capacity),
            capacity,
            quantile,
            pad_deg,
            min_deg,
            max_deg,
        }
    }

    /// Records one slot's prediction error (absolute yaw and pitch error,
    /// degrees); the larger of the two drives the margin.
    pub fn observe_error(&mut self, yaw_err_deg: f64, pitch_err_deg: f64) {
        let err = yaw_err_deg.abs().max(pitch_err_deg.abs());
        self.window.push_back(err);
        if self.window.len() > self.capacity {
            self.window.pop_front();
        }
    }

    /// The current margin: the configured error quantile plus the pad,
    /// clamped. Before any observation, the maximum (be conservative until
    /// the user's predictability is known).
    pub fn margin_deg(&self) -> f64 {
        if self.window.is_empty() {
            return self.max_deg;
        }
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let idx =
            ((self.quantile * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
        (sorted[idx] + self.pad_deg).clamp(self.min_deg, self.max_deg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservative_before_data() {
        let m = AdaptiveMargin::paper_compatible();
        assert_eq!(m.margin_deg(), 15.0);
    }

    #[test]
    fn calm_user_gets_a_small_margin() {
        let mut m = AdaptiveMargin::paper_compatible();
        for _ in 0..300 {
            m.observe_error(1.5, 0.5);
        }
        assert!((m.margin_deg() - 3.5).abs() < 0.51); // 1.5 + 2 pad, ≥ min 3
    }

    #[test]
    fn frantic_user_saturates_at_the_fixed_margin() {
        let mut m = AdaptiveMargin::paper_compatible();
        for i in 0..300 {
            m.observe_error(20.0 + (i % 7) as f64, 5.0);
        }
        assert_eq!(m.margin_deg(), 15.0);
    }

    #[test]
    fn reacts_to_regime_change_via_the_window() {
        let mut m = AdaptiveMargin::new(64, 0.95, 1.0, 1.0, 40.0);
        for _ in 0..64 {
            m.observe_error(30.0, 0.0);
        }
        let high = m.margin_deg();
        for _ in 0..64 {
            m.observe_error(2.0, 0.0);
        }
        let low = m.margin_deg();
        assert!(high > 25.0, "high margin {high}");
        assert!(low < 5.0, "low margin {low}");
    }

    #[test]
    fn larger_of_yaw_pitch_drives_margin() {
        let mut m = AdaptiveMargin::new(8, 1.0, 0.0, 0.0, 90.0);
        m.observe_error(1.0, 12.0);
        assert_eq!(m.margin_deg(), 12.0);
        m.observe_error(-20.0, 0.0); // absolute value used
        assert_eq!(m.margin_deg(), 20.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        let _ = AdaptiveMargin::new(8, 0.0, 1.0, 0.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "clamp bounds")]
    fn bad_bounds_panic() {
        let _ = AdaptiveMargin::new(8, 0.5, 1.0, 10.0, 5.0);
    }
}
