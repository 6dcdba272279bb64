//! Delay models `d_n(r)`: the average delivery delay as a function of the
//! content size / sending rate.
//!
//! The paper establishes (Fig. 1b) that the round-trip time is *convex and
//! increasing* in the sending rate, and its trace-based simulation models
//! delivery delay with the M/M/1 formula
//!
//! ```text
//! d_n(r) = r / (B_n(t) − r)          (Eq. 13)
//! ```
//!
//! where `B_n(t)` is the user's available throughput. [`Mm1Delay`]
//! implements exactly that, with a documented linear extension past the
//! saturation point so the model stays finite and monotone when a caller
//! probes an infeasible rate (the allocator's constraints normally keep
//! `r ≤ B_n`).

use serde::{Deserialize, Serialize};

use crate::error::ModelError;

/// Maps a sending rate/content size to an average delivery delay.
///
/// Delay is expressed in *slot durations*: a value of `1.0` means the
/// content takes a whole extra slot to arrive.
pub trait DelayModel {
    /// Average delay for delivering content of size (rate) `r`.
    fn delay(&self, r: f64) -> f64;
}

/// The M/M/1 queueing delay of Eq. (13), `d = r / (B − r)`.
///
/// # Saturation
///
/// The raw formula diverges as `r → B` and turns negative for `r > B`.
/// Beyond `saturation · B` (default 95 % of capacity) the model continues
/// linearly with the slope at the saturation point, which keeps it finite,
/// increasing, and convex everywhere — important for solvers that probe
/// candidate levels above the feasible range before rejecting them.
///
/// # Examples
///
/// ```
/// use cvr_core::delay::{DelayModel, Mm1Delay};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = Mm1Delay::new(50.0)?;
/// assert!((d.delay(25.0) - 1.0).abs() < 1e-12); // r = B/2 → d = 1
/// assert!(d.delay(40.0) > d.delay(25.0));       // increasing
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mm1Delay {
    capacity: f64,
    saturation: f64,
}

impl Mm1Delay {
    /// Default fraction of capacity at which the linear extension begins.
    pub const DEFAULT_SATURATION: f64 = 0.95;

    /// Creates the M/M/1 delay model for a link of throughput `capacity`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if `capacity` is not a
    /// positive finite number.
    pub fn new(capacity: f64) -> Result<Self, ModelError> {
        Self::with_saturation(capacity, Self::DEFAULT_SATURATION)
    }

    /// Creates the model with an explicit saturation fraction in `(0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for a non-positive or
    /// non-finite capacity, or a saturation outside `(0, 1)`.
    pub fn with_saturation(capacity: f64, saturation: f64) -> Result<Self, ModelError> {
        if !capacity.is_finite() || capacity <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "capacity",
                value: capacity,
            });
        }
        if !saturation.is_finite() || saturation <= 0.0 || saturation >= 1.0 {
            return Err(ModelError::InvalidParameter {
                name: "saturation",
                value: saturation,
            });
        }
        Ok(Mm1Delay {
            capacity,
            saturation,
        })
    }

    /// The link capacity `B` this model was built for.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }
}

impl DelayModel for Mm1Delay {
    fn delay(&self, r: f64) -> f64 {
        let r = r.max(0.0);
        let knee = self.saturation * self.capacity;
        if r <= knee {
            r / (self.capacity - r)
        } else {
            // Linear extension: value and slope matched at the knee.
            let base = knee / (self.capacity - knee);
            let slope = self.capacity / ((self.capacity - knee) * (self.capacity - knee));
            base + slope * (r - knee)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_matches_formula_below_saturation() {
        let d = Mm1Delay::new(100.0).unwrap();
        assert!((d.delay(50.0) - 1.0).abs() < 1e-12);
        assert!((d.delay(80.0) - 4.0).abs() < 1e-12);
        assert_eq!(d.delay(0.0), 0.0);
        assert_eq!(d.capacity(), 100.0);
    }

    #[test]
    fn mm1_is_monotone_and_convex_across_knee() {
        let d = Mm1Delay::new(40.0).unwrap();
        let xs: Vec<f64> = (0..200).map(|i| i as f64 * 0.4).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| d.delay(x)).collect();
        for w in ys.windows(2) {
            assert!(w[1] >= w[0], "delay must be non-decreasing");
        }
        for w in ys.windows(3) {
            assert!(
                (w[2] - w[1]) >= (w[1] - w[0]) - 1e-9,
                "delay must be convex"
            );
        }
        // Stays finite above capacity.
        assert!(d.delay(80.0).is_finite());
    }

    #[test]
    fn mm1_continuous_at_knee() {
        let d = Mm1Delay::new(10.0).unwrap();
        let knee = 9.5;
        let below = d.delay(knee - 1e-9);
        let above = d.delay(knee + 1e-9);
        assert!((below - above).abs() < 1e-6);
    }

    #[test]
    fn mm1_rejects_bad_parameters() {
        assert!(Mm1Delay::new(0.0).is_err());
        assert!(Mm1Delay::new(-3.0).is_err());
        assert!(Mm1Delay::new(f64::INFINITY).is_err());
        assert!(Mm1Delay::with_saturation(10.0, 0.0).is_err());
        assert!(Mm1Delay::with_saturation(10.0, 1.0).is_err());
    }

    #[test]
    fn negative_rate_clamps_to_zero_delay() {
        let d = Mm1Delay::new(10.0).unwrap();
        assert_eq!(d.delay(-5.0), 0.0);
    }
}
