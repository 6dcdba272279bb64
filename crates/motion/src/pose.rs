//! 6-Degree-of-Freedom poses: 3 DoF virtual position + 3 DoF head
//! orientation, the quantity the server predicts for every user each slot.

use serde::{Deserialize, Serialize};

/// A position in the virtual world, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// Horizontal axis.
    pub x: f64,
    /// Vertical axis (head height).
    pub y: f64,
    /// Depth axis.
    pub z: f64,
}

impl Vec3 {
    /// Creates a vector.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Vec3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Scales every component by `k`.
    pub fn scale(&self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

/// Head orientation as Euler angles in degrees.
///
/// Yaw wraps on `[−180, 180)`; pitch and roll are clamped by the generators
/// to physically plausible ranges but the type itself allows any finite
/// value (prediction can briefly extrapolate outside).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Orientation {
    /// Rotation around the vertical axis, degrees in `[−180, 180)`.
    pub yaw: f64,
    /// Up/down tilt, degrees.
    pub pitch: f64,
    /// Sideways tilt, degrees.
    pub roll: f64,
}

impl Orientation {
    /// Creates an orientation, normalising yaw into `[−180, 180)`.
    #[inline]
    pub fn new(yaw: f64, pitch: f64, roll: f64) -> Self {
        Orientation {
            yaw: wrap_degrees(yaw),
            pitch,
            roll,
        }
    }
}

/// Normalises an angle in degrees to `[−180, 180)`.
///
/// Bit-identical to the `%` reduction at the bottom, which is a library
/// call on the x86-64 baseline: an in-range angle comes back unchanged,
/// and one with |angle| < 540° needs a single ±360° shift, which is exact
/// (Sterbenz) just as `%` is. −360° is left to `%`, whose result is −0.0.
#[inline]
pub fn wrap_degrees(angle: f64) -> f64 {
    if (-180.0..180.0).contains(&angle) {
        return angle;
    }
    if angle.abs() < 540.0 && angle != -360.0 {
        return angle - 360.0f64.copysign(angle);
    }
    let mut a = angle % 360.0;
    if a < -180.0 {
        a += 360.0;
    } else if a >= 180.0 {
        a -= 360.0;
    }
    a
}

/// `x.floor() as i64`, for every `x`, without the library `floor` call the
/// x86-64 baseline makes: truncate with the saturating cast, then step
/// down once where truncation rounded a negative fraction up.
#[inline]
pub fn floor_i64(x: f64) -> i64 {
    let t = x as i64;
    t.saturating_sub(i64::from(t as f64 > x))
}

/// Smallest absolute angular difference between two angles, in degrees
/// (always in `[0, 180]`).
#[inline]
pub fn angular_distance(a: f64, b: f64) -> f64 {
    wrap_degrees(a - b).abs()
}

/// A full 6-DoF pose at one time slot.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Pose {
    /// Virtual-world position (3 DoF).
    pub position: Vec3,
    /// Head orientation (3 DoF).
    pub orientation: Orientation,
}

impl Pose {
    /// Creates a pose.
    pub fn new(position: Vec3, orientation: Orientation) -> Self {
        Pose {
            position,
            orientation,
        }
    }

    /// The six scalar components in prediction order
    /// `[x, y, z, yaw, pitch, roll]` — the per-axis representation the
    /// linear-regression predictor operates on.
    #[inline]
    pub fn components(&self) -> [f64; 6] {
        [
            self.position.x,
            self.position.y,
            self.position.z,
            self.orientation.yaw,
            self.orientation.pitch,
            self.orientation.roll,
        ]
    }

    /// Rebuilds a pose from the six components (inverse of
    /// [`Pose::components`]); yaw is re-normalised.
    #[inline]
    pub fn from_components(c: [f64; 6]) -> Self {
        Pose {
            position: Vec3::new(c[0], c[1], c[2]),
            orientation: Orientation::new(c[3], c[4], c[5]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec3_math() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 6.0, 3.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.scale(2.0), Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(Vec3::default(), Vec3::new(0.0, 0.0, 0.0));
    }

    #[test]
    fn wrap_degrees_normalises() {
        assert_eq!(wrap_degrees(0.0), 0.0);
        assert_eq!(wrap_degrees(180.0), -180.0);
        assert_eq!(wrap_degrees(-180.0), -180.0);
        assert_eq!(wrap_degrees(190.0), -170.0);
        assert_eq!(wrap_degrees(-190.0), 170.0);
        assert_eq!(wrap_degrees(540.0), -180.0);
        assert_eq!(wrap_degrees(359.0), -1.0);
    }

    /// The `%` form `wrap_degrees` must equal bit for bit: one library
    /// `fmod`, one shift.
    fn wrap_oracle(angle: f64) -> f64 {
        let mut a = angle % 360.0;
        if a < -180.0 {
            a += 360.0;
        } else if a >= 180.0 {
            a -= 360.0;
        }
        a
    }

    /// ±0, the range and shift edges ±180…±720 with three ulps either
    /// side, huge values and the non-finite ones.
    fn edge_cases() -> Vec<f64> {
        let mut out = vec![1e300, -1e300, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for x in [0.0, 180.0, 360.0, 540.0, 720.0] {
            for x in [x, -x] {
                let (mut lo, mut hi) = (x, x);
                out.push(x);
                for _ in 0..3 {
                    lo = lo.next_down();
                    hi = hi.next_up();
                    out.extend([lo, hi]);
                }
            }
        }
        out
    }

    fn assert_exact(x: f64) {
        assert_eq!(
            wrap_degrees(x).to_bits(),
            wrap_oracle(x).to_bits(),
            "wrap_degrees({x:e})"
        );
        assert_eq!(floor_i64(x), x.floor() as i64, "floor_i64({x:e})");
    }

    #[test]
    fn fast_paths_equal_the_library_calls_bit_for_bit_at_the_edges() {
        for x in edge_cases() {
            assert_exact(x);
        }
        assert_eq!(wrap_degrees(-360.0).to_bits(), (-0.0f64).to_bits());
    }

    proptest::proptest! {
        #[test]
        fn fast_paths_equal_the_library_calls_bit_for_bit(
            bits in 0u64..=u64::MAX,
            small in -1000.0f64..1000.0,
        ) {
            assert_exact(f64::from_bits(bits));
            assert_exact(small);
        }
    }

    #[test]
    fn angular_distance_is_shortest_arc() {
        assert!((angular_distance(170.0, -170.0) - 20.0).abs() < 1e-12);
        assert!((angular_distance(-170.0, 170.0) - 20.0).abs() < 1e-12);
        assert!((angular_distance(10.0, 30.0) - 20.0).abs() < 1e-12);
        assert_eq!(angular_distance(45.0, 45.0), 0.0);
    }

    #[test]
    fn orientation_normalises_yaw() {
        let o = Orientation::new(270.0, 10.0, 0.0);
        assert_eq!(o.yaw, -90.0);
        assert_eq!(o.pitch, 10.0);
    }

    #[test]
    fn components_round_trip() {
        let p = Pose::new(
            Vec3::new(1.0, 1.7, -2.0),
            Orientation::new(45.0, -10.0, 2.0),
        );
        let c = p.components();
        assert_eq!(Pose::from_components(c), p);
    }
}
