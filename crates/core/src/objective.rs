//! The per-slot QoE objective `h_n(q)` (Eq. 9) of the slot allocation
//! problem (5)–(7), which [`crate::engine::SlotEngine`] stages and solves.
//!
//! After decomposing the horizon problem with the variance-iteration
//! identity, each slot `t` requires maximising
//!
//! ```text
//! Σ_n h_n(q_n)    subject to    Σ_n f^R(q_n) ≤ B(t),  f^R(q_n) ≤ B_n(t)
//! ```
//!
//! with
//!
//! ```text
//! h_n(q) = δ_n·q − α·d_n(f^R(q))
//!          − β·( δ_n·(t−1)(q − q̄)²/t + (1−δ_n)·(t−1)·q̄²/t )
//! ```
//!
//! where `δ_n` is the motion-prediction success probability and `q̄` the
//! running mean of the user's successfully-viewed quality.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::quality::QualityLevel;
use crate::variance::VarianceTracker;

/// Shared absolute tolerance for rate-feasibility comparisons, in Mbps.
///
/// Every budget check in the crate — the greedy passes' server and link
/// checks, [`SlotEngine::is_feasible`](crate::engine::SlotEngine::is_feasible)
/// and the oracles of [`crate::offline`] — accepts a rate that exceeds a
/// budget by at most this slack, so a level that one component deems
/// feasible is never rejected by another over floating-point noise in the
/// accumulated totals.
pub const RATE_EPS: f64 = 1e-9;

/// The QoE weights `α` (delay sensitivity) and `β` (variance sensitivity).
///
/// The paper uses `α = 0.02, β = 0.5` in the trace-based simulation and
/// `α = 0.1, β = 0.5` in the real-system evaluation.
///
/// # Examples
///
/// ```
/// use cvr_core::objective::QoeParams;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = QoeParams::new(0.02, 0.5)?;
/// assert_eq!(p, QoeParams::simulation_default());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QoeParams {
    /// Weight on the average content-delivery delay.
    pub alpha: f64,
    /// Weight on the variance of viewed quality.
    pub beta: f64,
}

impl QoeParams {
    /// Creates QoE weights.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if either weight is negative
    /// or non-finite.
    pub fn new(alpha: f64, beta: f64) -> Result<Self, ModelError> {
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "alpha",
                value: alpha,
            });
        }
        if !beta.is_finite() || beta < 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "beta",
                value: beta,
            });
        }
        Ok(QoeParams { alpha, beta })
    }

    /// Section IV trace-simulation weights: `α = 0.02, β = 0.5`.
    pub fn simulation_default() -> Self {
        QoeParams {
            alpha: 0.02,
            beta: 0.5,
        }
    }

    /// Section VI real-system weights: `α = 0.1, β = 0.5`.
    pub fn system_default() -> Self {
        QoeParams {
            alpha: 0.1,
            beta: 0.5,
        }
    }
}

impl Default for QoeParams {
    fn default() -> Self {
        QoeParams::simulation_default()
    }
}

/// Evaluates the per-slot objective `h_n(q)` of Eq. (9) for one user
/// whose delivery delay at level `q` is already known: `δ·q − α·d −
/// β·penalty`. Every slot loop prices its staged levels through this one
/// function; what differs per driver is only where `delay_slots` comes
/// from (Eq. (13), an estimated model, or zero for a delay-blind
/// objective) and which `δ` it passes (the loss-aware objective passes
/// `δ·P(survive)`).
///
/// `tracker` carries the user's viewed-quality history (`t−1` observations
/// and the running mean `q̄`); `delta` is the estimated prediction-success
/// probability `δ_n`.
#[inline]
pub fn h_at_delay(
    params: QoeParams,
    delta: f64,
    tracker: &VarianceTracker,
    q: QualityLevel,
    delay_slots: f64,
) -> f64 {
    let quality_term = delta * q.value();
    let delay_term = params.alpha * delay_slots;
    let variance_term = params.beta * tracker.expected_penalty(q.value(), delta);
    quality_term - delay_term - variance_term
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{DelayModel, Mm1Delay};
    use proptest::prelude::*;

    #[test]
    fn params_validate() {
        assert!(QoeParams::new(-0.1, 0.5).is_err());
        assert!(QoeParams::new(0.1, f64::NAN).is_err());
        assert_eq!(QoeParams::default(), QoeParams::simulation_default());
        assert_eq!(QoeParams::system_default().alpha, 0.1);
    }

    #[test]
    fn h_at_delay_composes_three_terms() {
        let params = QoeParams::new(0.5, 2.0).unwrap();
        let delay = Mm1Delay::new(40.0).unwrap().delay(20.0);
        let mut tracker = VarianceTracker::new();
        tracker.push(2.0); // mean 2, next slot t = 2

        let q = QualityLevel::new(2);
        let delta = 0.9;
        let expected_quality = 0.9 * 2.0;
        let expected_delay = 0.5 * (20.0 / 20.0);
        let expected_var = 2.0 * tracker.expected_penalty(2.0, delta);
        let h = h_at_delay(params, delta, &tracker, q, delay);
        assert!((h - (expected_quality - expected_delay - expected_var)).abs() < 1e-12);
    }

    // The three Eq. (9) formulas the slot loops carried before they all
    // called `h_at_delay`, kept verbatim as its oracles: the former
    // model-component wrapper's body (also the live session's inline
    // copy), and the full-system simulator's delay-blind and loss-aware arms.

    fn former_delay_aware(
        params: QoeParams,
        delta: f64,
        tracker: &VarianceTracker,
        q: QualityLevel,
        delay: f64,
    ) -> f64 {
        let quality_term = delta * q.value();
        let delay_term = params.alpha * delay;
        let variance_term = params.beta * tracker.expected_penalty(q.value(), delta);
        quality_term - delay_term - variance_term
    }

    fn former_delay_blind(
        params: QoeParams,
        delta: f64,
        tracker: &VarianceTracker,
        q: QualityLevel,
    ) -> f64 {
        let quality_term = delta * q.value();
        let delay_term = 0.0;
        let variance_term = params.beta * tracker.expected_penalty(q.value(), delta);
        quality_term - delay_term - variance_term
    }

    fn former_loss_aware(
        params: QoeParams,
        delta: f64,
        survive: f64,
        tracker: &VarianceTracker,
        q: QualityLevel,
        delay: f64,
    ) -> f64 {
        let delta_eff = delta * survive;
        let quality_term = delta_eff * q.value();
        let delay_term = params.alpha * delay;
        let variance_term = params.beta * tracker.expected_penalty(q.value(), delta_eff);
        quality_term - delay_term - variance_term
    }

    proptest! {
        #[test]
        fn h_at_delay_equals_the_three_former_formulas_bit_for_bit(
            alpha in 0.0f64..1.0,
            beta in 0.0f64..2.0,
            delta in 0.0f64..=1.0,
            survive in 0.0f64..=1.0,
            // Viewed quality per past slot: 0 is a miss.
            history in prop::collection::vec(0u8..=6, 0..40),
            level in 1u8..=6,
            // Zero, the drop cap the slot loops saturate at, or in between.
            delay_pick in 0u8..4,
            delay_between in 0.0f64..8.0,
        ) {
            let params = QoeParams::new(alpha, beta).unwrap();
            let mut tracker = VarianceTracker::new();
            for viewed in history {
                tracker.push(f64::from(viewed));
            }
            let q = QualityLevel::new(level);
            let delay = match delay_pick {
                0 => 0.0,
                1 => 8.0,
                _ => delay_between,
            };
            prop_assert_eq!(
                h_at_delay(params, delta, &tracker, q, delay).to_bits(),
                former_delay_aware(params, delta, &tracker, q, delay).to_bits()
            );
            prop_assert_eq!(
                h_at_delay(params, delta, &tracker, q, 0.0).to_bits(),
                former_delay_blind(params, delta, &tracker, q).to_bits()
            );
            prop_assert_eq!(
                h_at_delay(params, delta * survive, &tracker, q, delay).to_bits(),
                former_loss_aware(params, delta, survive, &tracker, q, delay).to_bits()
            );
        }
    }

    #[test]
    fn first_slot_objective_has_no_variance_term() {
        let params = QoeParams::new(0.0, 100.0).unwrap();
        let delay = Mm1Delay::new(10.0).unwrap().delay(2.0);
        let tracker = VarianceTracker::new();
        let h = h_at_delay(params, 0.5, &tracker, QualityLevel::new(2), delay);
        assert!((h - 1.0).abs() < 1e-12); // 0.5 · 2 only
    }
}
