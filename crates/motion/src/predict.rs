//! 6-DoF motion prediction by per-axis linear regression.
//!
//! The paper follows Firefly's methodology: each of the six pose components
//! is predicted independently with least-squares linear regression over a
//! short history window, extrapolated one (or more) slots ahead — the slot
//! the content will actually be displayed in, given the paper's
//! transmit-then-decode pipeline. Yaw is unwrapped before fitting so the
//! regression never sees the ±180° discontinuity.
//!
//! The window is one deque of six-component rows; every `observe` refits
//! all six lines in two passes over it, and a prediction evaluates the
//! stored `slope · x + intercept` per axis.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::pose::{wrap_degrees, Pose};

/// Per-axis sliding-window linear-regression predictor.
///
/// # Examples
///
/// ```
/// use cvr_motion::pose::{Orientation, Pose, Vec3};
/// use cvr_motion::predict::LinearPredictor;
///
/// let mut p = LinearPredictor::new(8);
/// for t in 0..8 {
///     let pose = Pose::new(Vec3::new(t as f64 * 0.1, 1.7, 0.0), Orientation::default());
///     p.observe(&pose);
/// }
/// // Linear motion extrapolates exactly.
/// let predicted = p.predict(1).unwrap();
/// assert!((predicted.position.x - 0.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearPredictor {
    window: usize,
    /// The last `window` observations, oldest first, one row of unwrapped
    /// components per pose.
    history: VecDeque<[f64; 6]>,
    /// Last raw yaw, for unwrapping.
    last_yaw: Option<f64>,
    /// Running unwrapped yaw.
    unwrapped_yaw: f64,
    /// Per-axis least-squares slope over the current window, refitted by
    /// every [`LinearPredictor::observe`] — the window only changes there,
    /// so every prediction between two observations shares one fit.
    slope: [f64; 6],
    /// Per-axis intercept of the same fit.
    intercept: [f64; 6],
}

impl LinearPredictor {
    /// Creates a predictor with a history window of `window` slots
    /// (at least 2).
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` — a line needs two points.
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "regression window must be at least 2");
        LinearPredictor {
            window,
            history: VecDeque::with_capacity(window + 1),
            last_yaw: None,
            unwrapped_yaw: 0.0,
            slope: [0.0; 6],
            intercept: [0.0; 6],
        }
    }

    /// The paper's window: 8 slots (120 ms at 66 FPS).
    pub fn paper_default() -> Self {
        LinearPredictor::new(8)
    }

    /// Feeds the pose measured in the current slot.
    pub fn observe(&mut self, pose: &Pose) {
        let mut c = pose.components();
        // Unwrap yaw: accumulate the wrapped delta.
        let raw_yaw = c[3];
        match self.last_yaw {
            Some(last) => {
                self.unwrapped_yaw += wrap_degrees(raw_yaw - last);
            }
            None => {
                self.unwrapped_yaw = raw_yaw;
            }
        }
        self.last_yaw = Some(raw_yaw);
        c[3] = self.unwrapped_yaw;

        self.history.push_back(c);
        if self.history.len() > self.window {
            self.history.pop_front();
        }
        self.refit();
    }

    /// Least-squares lines over the window at abscissae `0..n`, all six
    /// axes per pass; each axis still accumulates the terms of a one-axis
    /// fit in that fit's order, so fusing changes no bit (DESIGN §5.3).
    fn refit(&mut self) {
        let n = self.history.len() as f64;
        let mean_x = (n - 1.0) / 2.0;
        // `Iterator::sum` starts from −0.0: negative zeros stay negative.
        let mut sum_y = [-0.0f64; 6];
        for row in &self.history {
            for (sum, y) in sum_y.iter_mut().zip(row) {
                *sum += y;
            }
        }
        let mean_y = sum_y.map(|sum| sum / n);
        let mut sxy = [0.0f64; 6];
        let mut sxx = 0.0;
        for (i, row) in self.history.iter().enumerate() {
            let dx = i as f64 - mean_x;
            for axis in 0..6 {
                sxy[axis] += dx * (row[axis] - mean_y[axis]);
            }
            sxx += dx * dx;
        }
        for axis in 0..6 {
            let slope = if sxx > 0.0 { sxy[axis] / sxx } else { 0.0 };
            self.slope[axis] = slope;
            self.intercept[axis] = mean_y[axis] - slope * mean_x;
        }
    }

    /// Predicts the pose `horizon` **observation intervals** ahead of the
    /// last observation.
    ///
    /// The horizon unit is observation intervals, *not* slots: when poses
    /// are observed every `p` slots, `predict(k)` targets the slot `k * p`
    /// slots after the last observation. Equivalently, a target `k * p`
    /// slots ahead is `predict_fractional((k * p) as f64 / p as f64)` —
    /// the two agree bit-for-bit because the regression is fitted in
    /// observation-index space and only the evaluation abscissa scales
    /// (see `slot_boundary_semantics_agree_for_non_unit_periods`).
    ///
    /// Returns `None` until at least two observations have been made.
    pub fn predict(&self, horizon: usize) -> Option<Pose> {
        self.predict_fractional(horizon as f64)
    }

    /// Like [`LinearPredictor::predict`] but with a fractional horizon —
    /// needed when observations arrive every `p` slots and the target is
    /// `k` slots ahead (`horizon = k / p` observation intervals).
    ///
    /// Returns `None` until at least two observations have been made, and
    /// `None` for non-finite horizons: a NaN or infinite horizon would
    /// otherwise propagate NaN components into every downstream FoV
    /// computation, which silently poisons tile selection.
    #[inline]
    pub fn predict_fractional(&self, horizon: f64) -> Option<Pose> {
        if !horizon.is_finite() {
            return None;
        }
        let n = self.history.len();
        if n < 2 {
            return None;
        }
        // The line fitted at abscissae `0..n`, evaluated at `n - 1 + horizon`.
        let at = n as f64 - 1.0 + horizon;
        let mut out = [0.0f64; 6];
        for (axis, value) in out.iter_mut().enumerate() {
            *value = self.slope[axis] * at + self.intercept[axis];
        }
        // Re-wrap yaw into canonical range; clamp pitch/roll to physical
        // head limits (long extrapolations must not leave the sphere).
        out[3] = wrap_degrees(out[3]);
        out[4] = out[4].clamp(-90.0, 90.0);
        out[5] = out[5].clamp(-90.0, 90.0);
        Some(Pose::from_components(out))
    }

    /// Clears all history.
    pub fn reset(&mut self) {
        self.history.clear();
        self.last_yaw = None;
        self.unwrapped_yaw = 0.0;
        self.slope = [0.0; 6];
        self.intercept = [0.0; 6];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pose::{Orientation, Vec3};
    use proptest::prelude::*;

    fn linear_pose(t: f64) -> Pose {
        Pose::new(
            Vec3::new(0.1 * t, 1.7, -0.05 * t),
            Orientation::new(2.0 * t, 0.5 * t, 0.0),
        )
    }

    #[test]
    fn needs_two_observations() {
        let mut p = LinearPredictor::new(4);
        assert!(p.predict(1).is_none());
        p.observe(&linear_pose(0.0));
        assert!(p.predict(1).is_none());
        p.observe(&linear_pose(1.0));
        assert!(p.predict(1).is_some());
    }

    #[test]
    fn exact_on_linear_motion() {
        let mut p = LinearPredictor::new(8);
        for t in 0..8 {
            p.observe(&linear_pose(t as f64));
        }
        let predicted = p.predict(2).unwrap();
        let truth = linear_pose(9.0);
        assert!((predicted.position.x - truth.position.x).abs() < 1e-9);
        assert!((predicted.position.z - truth.position.z).abs() < 1e-9);
        assert!((predicted.orientation.yaw - truth.orientation.yaw).abs() < 1e-9);
        assert!((predicted.orientation.pitch - truth.orientation.pitch).abs() < 1e-9);
    }

    #[test]
    fn exact_on_static_pose() {
        let mut p = LinearPredictor::new(4);
        let pose = linear_pose(3.0);
        for _ in 0..4 {
            p.observe(&pose);
        }
        let predicted = p.predict(5).unwrap();
        assert!((predicted.position.x - pose.position.x).abs() < 1e-9);
        assert!((predicted.orientation.yaw - pose.orientation.yaw).abs() < 1e-9);
    }

    #[test]
    fn yaw_unwrapping_crosses_the_discontinuity() {
        // Yaw rotating +5°/slot through the ±180° wrap.
        let mut p = LinearPredictor::new(6);
        let yaws = [165.0, 170.0, 175.0, -180.0, -175.0, -170.0];
        for &y in &yaws {
            p.observe(&Pose::new(Vec3::default(), Orientation::new(y, 0.0, 0.0)));
        }
        let predicted = p.predict(1).unwrap();
        assert!(
            (predicted.orientation.yaw - (-165.0)).abs() < 1e-6,
            "got {}",
            predicted.orientation.yaw
        );
    }

    #[test]
    fn window_slides() {
        let mut p = LinearPredictor::new(3);
        // Early garbage followed by a clean linear segment.
        p.observe(&linear_pose(100.0));
        for t in 0..3 {
            p.observe(&linear_pose(t as f64));
        }
        let predicted = p.predict(1).unwrap();
        let truth = linear_pose(3.0);
        assert!((predicted.position.x - truth.position.x).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_history() {
        let mut p = LinearPredictor::new(4);
        p.observe(&linear_pose(0.0));
        p.observe(&linear_pose(1.0));
        p.reset();
        assert!(p.predict(1).is_none());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_tiny_window() {
        let _ = LinearPredictor::new(1);
    }

    #[test]
    fn paper_default_window_is_8() {
        let p = LinearPredictor::paper_default();
        assert_eq!(p.window, 8);
    }

    #[test]
    fn slot_boundary_semantics_agree_for_non_unit_periods() {
        // Poses observed every `p` slots with the paper-default window:
        // `predict(k)` (k observation intervals ahead) must agree bitwise
        // with `predict_fractional((k * p) / p)` — the slot-denominated
        // spelling used by callers that convert a slot horizon back into
        // observation intervals. Non-linear motion so the fit is not
        // trivially exact.
        for p in [2usize, 3, 5] {
            let mut predictor = LinearPredictor::paper_default();
            for i in 0..8 {
                let t = (i * p) as f64;
                predictor.observe(&Pose::new(
                    Vec3::new(0.07 * t + 0.001 * t * t, 1.7, -0.03 * t),
                    Orientation::new(1.5 * t, 0.25 * t, 0.0),
                ));
            }
            for k in 1usize..=8 {
                let by_intervals = predictor.predict(k).unwrap();
                let by_slots = predictor
                    .predict_fractional((k * p) as f64 / p as f64)
                    .unwrap();
                assert_eq!(
                    by_intervals.components().map(f64::to_bits),
                    by_slots.components().map(f64::to_bits),
                    "p={p} k={k}: interval- and slot-denominated horizons diverge"
                );
            }
        }
    }

    /// Oracle: the one-axis least-squares fit over `values` at abscissae
    /// `0..n`, `(slope, intercept)` — what `observe` ran per axis, on a
    /// deque per axis, before the window became rows.
    fn fit_line(values: &VecDeque<f64>) -> (f64, f64) {
        let n = values.len() as f64;
        let mean_x = (n - 1.0) / 2.0;
        let mean_y: f64 = values.iter().sum::<f64>() / n;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        for (i, &y) in values.iter().enumerate() {
            let dx = i as f64 - mean_x;
            sxy += dx * (y - mean_y);
            sxx += dx * dx;
        }
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        (slope, mean_y - slope * mean_x)
    }

    /// Oracle: refit the predictor's current window from scratch, axis by
    /// axis, and evaluate the prediction from that.
    fn predict_from_scratch(p: &LinearPredictor, horizon: f64) -> Option<Pose> {
        let n = p.history.len();
        if !horizon.is_finite() || n < 2 {
            return None;
        }
        let mut out = [0.0f64; 6];
        for (axis, value) in out.iter_mut().enumerate() {
            let column: VecDeque<f64> = p.history.iter().map(|row| row[axis]).collect();
            let (slope, intercept) = fit_line(&column);
            *value = slope * (n as f64 - 1.0 + horizon) + intercept;
        }
        out[3] = wrap_degrees(out[3]);
        out[4] = out[4].clamp(-90.0, 90.0);
        out[5] = out[5].clamp(-90.0, 90.0);
        Some(Pose::from_components(out))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn stored_fit_predicts_bit_equal_to_a_from_scratch_fit(
            window in 2usize..12,
            // Yaw steps up to ±170° per observation cross the ±180° seam
            // in both directions; `reset_at` clears mid-sequence.
            steps in prop::collection::vec(
                (-0.4f64..0.4, -170.0f64..170.0, -20.0f64..20.0, -9.0f64..9.0),
                1..40,
            ),
            reset_at in 0usize..40,
            horizons in prop::collection::vec(-6.0f64..12.0, 1..6),
        ) {
            let bits = |pose: Option<Pose>| pose.map(|p| p.components().map(f64::to_bits));
            let mut p = LinearPredictor::new(window);
            let (mut x, mut yaw, mut pitch) = (0.0f64, 0.0f64, 0.0f64);
            for (k, &(dx, dyaw, dpitch, roll)) in steps.iter().enumerate() {
                if k == reset_at {
                    p.reset();
                    prop_assert!(p.predict(1).is_none());
                }
                x += dx;
                yaw = wrap_degrees(yaw + dyaw);
                pitch = (pitch + dpitch).clamp(-120.0, 120.0);
                p.observe(&Pose::new(
                    Vec3::new(x, 1.6 + 0.01 * dx, -0.5 * x),
                    Orientation::new(yaw, pitch, roll),
                ));
                let whole = [0.0, 1.0, 3.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                for &h in horizons.iter().chain(&whole) {
                    prop_assert_eq!(
                        bits(p.predict_fractional(h)),
                        bits(predict_from_scratch(&p, h)),
                        "observation {} horizon {}", k, h
                    );
                }
                // Predicting is read-only: asking again changes nothing.
                prop_assert_eq!(bits(p.predict(2)), bits(predict_from_scratch(&p, 2.0)));
            }
        }
    }

    #[test]
    fn a_window_of_negative_zeros_fits_like_the_oracle() {
        // The per-axis mean is a sum that starts from −0.0, as
        // `Iterator::sum` does; started from +0.0 the intercept — and a
        // prediction behind the window — would come out +0.0.
        let zero = Pose::from_components([-0.0; 6]);
        let mut p = LinearPredictor::new(3);
        for _ in 0..4 {
            p.observe(&zero);
            for h in [-5.0, 0.0, 1.0] {
                assert_eq!(
                    p.predict_fractional(h)
                        .map(|q| q.components().map(f64::to_bits)),
                    predict_from_scratch(&p, h).map(|q| q.components().map(f64::to_bits)),
                );
            }
        }
        assert!(p
            .predict_fractional(-5.0)
            .unwrap()
            .position
            .x
            .is_sign_negative());
    }

    #[test]
    fn non_finite_horizons_are_rejected() {
        let mut p = LinearPredictor::new(4);
        for t in 0..4 {
            p.observe(&linear_pose(t as f64));
        }
        assert!(p.predict_fractional(f64::NAN).is_none());
        assert!(p.predict_fractional(f64::INFINITY).is_none());
        assert!(p.predict_fractional(f64::NEG_INFINITY).is_none());
        // Finite horizons still work after a rejection.
        assert!(p.predict_fractional(1.5).is_some());
    }
}
