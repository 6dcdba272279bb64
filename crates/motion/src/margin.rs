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

/// Errors the window holds.
const WINDOW: usize = 256;
/// The error quantile the margin follows.
const QUANTILE: f64 = 0.95;
/// Degrees added to the quantile.
const PAD_DEG: f64 = 2.0;
/// Smallest margin, degrees.
const MIN_DEG: f64 = 3.0;
/// Largest margin, degrees: the paper's fixed 15°.
const MAX_DEG: f64 = 15.0;

/// Sliding-window quantile tracker over orientation prediction errors,
/// producing a per-user delivery margin: p95 of the last 256 errors plus a
/// 2° pad, clamped to `[3°, 15°]`, so its *maximum* equals the paper's
/// fixed 15° margin.
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
}

impl AdaptiveMargin {
    /// An empty tracker.
    pub fn paper_compatible() -> Self {
        AdaptiveMargin {
            window: VecDeque::with_capacity(WINDOW),
        }
    }

    /// Records one slot's prediction error (absolute yaw and pitch error,
    /// degrees); the larger of the two drives the margin.
    pub fn observe_error(&mut self, yaw_err_deg: f64, pitch_err_deg: f64) {
        let err = yaw_err_deg.abs().max(pitch_err_deg.abs());
        self.window.push_back(err);
        if self.window.len() > WINDOW {
            self.window.pop_front();
        }
    }

    /// The current margin: the error quantile plus the pad,
    /// clamped. Before any observation, the maximum (be conservative until
    /// the user's predictability is known).
    pub fn margin_deg(&self) -> f64 {
        if self.window.is_empty() {
            return MAX_DEG;
        }
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let idx = ((QUANTILE * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
        (sorted[idx] + PAD_DEG).clamp(MIN_DEG, MAX_DEG)
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
        let mut m = AdaptiveMargin::paper_compatible();
        for _ in 0..WINDOW {
            m.observe_error(30.0, 0.0);
        }
        let high = m.margin_deg();
        for _ in 0..WINDOW {
            m.observe_error(2.0, 0.0);
        }
        let low = m.margin_deg();
        assert_eq!(high, MAX_DEG);
        assert_eq!(low, 4.0); // 2 + 2 pad
    }

    #[test]
    fn larger_of_yaw_pitch_drives_margin() {
        let mut m = AdaptiveMargin::paper_compatible();
        m.observe_error(1.0, 5.0);
        assert_eq!(m.margin_deg(), 7.0);
        m.observe_error(-8.0, 0.0); // absolute value used
        assert_eq!(m.margin_deg(), 10.0);
    }
}
