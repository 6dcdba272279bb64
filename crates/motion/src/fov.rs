//! Field-of-view geometry and the hit test behind the indicator `𝟙_n(t)`.
//!
//! A user only sees ~20 % of the panorama (the FoV). The server delivers
//! the tiles covering the FoV *predicted* for the display slot, extended by
//! a fixed angular margin to absorb orientation-prediction error (the
//! paper's footnote 1: the margin only helps the 3 orientation DoFs — a
//! wrong *position* prediction means the wrong grid cell was rendered and
//! cannot be fixed by a margin).
//!
//! [`FovSpec::covers`] decides whether the delivered portion covered what
//! the user actually looked at: the positions must land in the same grid
//! cell and the orientation error must fit within the margin.

use serde::{Deserialize, Serialize};

use crate::pose::{angular_distance, floor_i64, Pose};

/// Angular field-of-view specification plus the delivery margin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FovSpec {
    /// Horizontal FoV width in degrees (typical mobile HMD ≈ 90°).
    pub width_deg: f64,
    /// Vertical FoV height in degrees.
    pub height_deg: f64,
    /// Extra angular margin (degrees) added on every side of the predicted
    /// FoV when selecting tiles to deliver.
    pub margin_deg: f64,
    /// Grid-cell edge used to match predicted vs actual position, metres.
    /// The paper's grid world uses 5 cm cells.
    pub cell_size_m: f64,
}

impl FovSpec {
    /// The configuration used throughout the reproduction: 90°×90° FoV
    /// (a 4-tile equirectangular split shows one tile ≈ quadrant), 15°
    /// margin, 5 cm grid.
    pub fn paper_default() -> Self {
        FovSpec {
            width_deg: 90.0,
            height_deg: 90.0,
            margin_deg: 15.0,
            cell_size_m: 0.05,
        }
    }

    /// Returns a copy with a different margin (for the margin ablation).
    pub fn with_margin(mut self, margin_deg: f64) -> Self {
        self.margin_deg = margin_deg;
        self
    }

    /// Whether the content delivered for `predicted` covers the FoV the
    /// user actually needs at `actual` — the indicator `𝟙_n(t)`.
    ///
    /// Orientation: the delivered portion spans the predicted FoV plus the
    /// margin, so the actual view is covered iff the yaw and pitch errors
    /// are within the margin. Position: predicted and actual must share a
    /// grid cell (content is rendered per cell).
    #[inline]
    pub fn covers(&self, predicted: &Pose, actual: &Pose) -> bool {
        let same_cell = self.cell_index(predicted) == self.cell_index(actual);
        let yaw_err = angular_distance(predicted.orientation.yaw, actual.orientation.yaw);
        let pitch_err = (predicted.orientation.pitch - actual.orientation.pitch).abs();
        same_cell && yaw_err <= self.margin_deg && pitch_err <= self.margin_deg
    }

    /// The integer grid cell of a pose's position (x/z plane; y is head
    /// height and does not change the rendered cell).
    #[inline]
    pub fn cell_index(&self, pose: &Pose) -> (i64, i64) {
        (
            floor_i64(pose.position.x / self.cell_size_m),
            floor_i64(pose.position.z / self.cell_size_m),
        )
    }

    /// Fraction of the full panorama the delivered portion occupies
    /// (with margin), used to scale delivered bytes: the paper notes the
    /// FoV is ≈ 20 % of the panorama and the margin increases that.
    pub fn delivered_fraction(&self) -> f64 {
        let w = (self.width_deg + 2.0 * self.margin_deg).min(360.0);
        let h = (self.height_deg + 2.0 * self.margin_deg).min(180.0);
        (w / 360.0) * (h / 180.0)
    }
}

impl Default for FovSpec {
    fn default() -> Self {
        FovSpec::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pose::{Orientation, Vec3};

    fn pose(x: f64, z: f64, yaw: f64, pitch: f64) -> Pose {
        Pose::new(Vec3::new(x, 1.7, z), Orientation::new(yaw, pitch, 0.0))
    }

    #[test]
    fn paper_default_fraction_is_reasonable() {
        let spec = FovSpec::paper_default();
        let f = spec.delivered_fraction();
        // 120/360 × 120/180 = 2/9 ≈ 0.22 — matches the ~20 % FoV plus margin.
        assert!((f - 2.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn exact_prediction_always_covers() {
        let spec = FovSpec::paper_default();
        let p = pose(1.0, 2.0, 37.0, -5.0);
        assert!(spec.covers(&p, &p));
    }

    #[test]
    fn small_orientation_error_within_margin_covers() {
        let spec = FovSpec::paper_default();
        let predicted = pose(1.0, 2.0, 30.0, 0.0);
        let actual = pose(1.0, 2.0, 44.0, 10.0);
        assert!(spec.covers(&predicted, &actual));
    }

    #[test]
    fn orientation_error_beyond_margin_misses() {
        let spec = FovSpec::paper_default();
        let predicted = pose(1.0, 2.0, 30.0, 0.0);
        let actual = pose(1.0, 2.0, 46.0, 0.0); // 16° > 15° margin
        assert!(!spec.covers(&predicted, &actual));
        let tilted = pose(1.0, 2.0, 30.0, 15.5);
        assert!(!spec.covers(&predicted, &tilted));
    }

    #[test]
    fn yaw_wraparound_is_handled() {
        let spec = FovSpec::paper_default();
        let predicted = pose(0.0, 0.0, 175.0, 0.0);
        let actual = pose(0.0, 0.0, -175.0, 0.0); // 10° across the wrap
        assert!(spec.covers(&predicted, &actual));
    }

    #[test]
    fn position_cell_mismatch_misses_despite_margin() {
        let spec = FovSpec::paper_default();
        let predicted = pose(0.0, 0.0, 0.0, 0.0);
        let actual = pose(0.06, 0.0, 0.0, 0.0); // next 5 cm cell
        assert!(!spec.covers(&predicted, &actual));
    }

    #[test]
    fn same_cell_tolerates_sub_cell_motion() {
        let spec = FovSpec::paper_default();
        let predicted = pose(0.01, 0.01, 0.0, 0.0);
        let actual = pose(0.04, 0.04, 0.0, 0.0);
        assert!(spec.covers(&predicted, &actual));
    }

    #[test]
    fn margin_zero_requires_exact_orientation_cell() {
        let spec = FovSpec::paper_default().with_margin(0.0);
        let predicted = pose(0.0, 0.0, 10.0, 0.0);
        assert!(spec.covers(&predicted, &predicted));
        let actual = pose(0.0, 0.0, 10.5, 0.0);
        assert!(!spec.covers(&predicted, &actual));
    }

    #[test]
    fn wider_margin_covers_more() {
        let tight = FovSpec::paper_default().with_margin(5.0);
        let wide = FovSpec::paper_default().with_margin(30.0);
        let predicted = pose(0.0, 0.0, 0.0, 0.0);
        let actual = pose(0.0, 0.0, 20.0, 0.0);
        assert!(!tight.covers(&predicted, &actual));
        assert!(wide.covers(&predicted, &actual));
        assert!(wide.delivered_fraction() > tight.delivered_fraction());
    }

    #[test]
    fn negative_positions_fall_in_distinct_cells() {
        let spec = FovSpec::paper_default();
        let a = pose(-0.01, 0.0, 0.0, 0.0);
        let b = pose(0.01, 0.0, 0.0, 0.0);
        assert_ne!(spec.cell_index(&a), spec.cell_index(&b));
    }
}
