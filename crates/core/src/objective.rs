//! The per-slot QoE objective `h_n(q)` (Eq. 9) and the slot allocation
//! problem (5)–(7) that the allocators solve.
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

use crate::delay::DelayModel;
use crate::error::ModelError;
use crate::quality::QualityLevel;
use crate::rate::RateFunction;
use crate::variance::VarianceTracker;

/// Shared absolute tolerance for rate-feasibility comparisons, in Mbps.
///
/// Every budget check in the crate — the greedy passes' server and link
/// checks and [`SlotProblem::is_feasible`] — accepts a rate that exceeds a
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

/// [`h_at_delay`] with the delay read off model components:
/// `d_n(f^R(q))`.
pub fn h_value<R: RateFunction, D: DelayModel>(
    params: QoeParams,
    delta: f64,
    tracker: &VarianceTracker,
    rate_fn: &R,
    delay_model: &D,
    q: QualityLevel,
) -> f64 {
    let delay_slots = delay_model.delay(rate_fn.rate(q));
    h_at_delay(params, delta, tracker, q, delay_slots)
}

/// One user's slice of the slot allocation problem: per-level rates and
/// objective values, plus the user's own link budget `B_n(t)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserSlot {
    /// Required rate per level (index 0 = level 1); strictly increasing.
    pub rates: Vec<f64>,
    /// Objective value `h_n` per level (index 0 = level 1).
    pub values: Vec<f64>,
    /// The user's available throughput `B_n(t)`.
    pub link_budget: f64,
}

impl UserSlot {
    /// Number of quality levels available to this user.
    pub fn levels(&self) -> usize {
        self.rates.len()
    }
}

/// A complete single-slot allocation problem: problem (5)–(7).
///
/// # Examples
///
/// ```
/// use cvr_core::objective::{SlotProblem, UserSlot};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let problem = SlotProblem::new(
///     vec![
///         UserSlot { rates: vec![1.0, 2.0], values: vec![0.5, 1.0], link_budget: 3.0 },
///         UserSlot { rates: vec![1.0, 2.5], values: vec![0.4, 1.2], link_budget: 2.0 },
///     ],
///     4.0,
/// )?;
/// assert_eq!(problem.num_users(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotProblem {
    users: Vec<UserSlot>,
    server_budget: f64,
}

impl SlotProblem {
    /// Creates a slot problem after validating its structure.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::AllocError::NoUsers`] when `users` is empty
    /// and [`crate::error::AllocError::MalformedUser`] when a user's tables
    /// are empty, differ in length, or the rates are not strictly
    /// increasing and positive.
    pub fn new(users: Vec<UserSlot>, server_budget: f64) -> Result<Self, crate::error::AllocError> {
        use crate::error::AllocError;
        if users.is_empty() {
            return Err(AllocError::NoUsers);
        }
        for (i, u) in users.iter().enumerate() {
            if u.rates.is_empty() {
                return Err(AllocError::MalformedUser {
                    user: i,
                    reason: "empty rate table",
                });
            }
            if u.rates.len() != u.values.len() {
                return Err(AllocError::MalformedUser {
                    user: i,
                    reason: "rates/values length mismatch",
                });
            }
            if u.rates.iter().any(|r| !r.is_finite() || *r <= 0.0) {
                return Err(AllocError::MalformedUser {
                    user: i,
                    reason: "rates must be positive and finite",
                });
            }
            if u.rates.windows(2).any(|w| w[1] <= w[0]) {
                return Err(AllocError::MalformedUser {
                    user: i,
                    reason: "rates must be strictly increasing",
                });
            }
            if u.values.iter().any(|v| !v.is_finite()) {
                return Err(AllocError::MalformedUser {
                    user: i,
                    reason: "values must be finite",
                });
            }
            if !u.link_budget.is_finite() || u.link_budget <= 0.0 {
                return Err(AllocError::MalformedUser {
                    user: i,
                    reason: "link budget must be positive and finite",
                });
            }
        }
        Ok(SlotProblem {
            users,
            server_budget,
        })
    }

    /// Number of users `N`.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// The shared server throughput `B(t)`.
    pub fn server_budget(&self) -> f64 {
        self.server_budget
    }

    /// The per-user problem slices.
    pub fn users(&self) -> &[UserSlot] {
        &self.users
    }

    /// Total rate consumed by an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` has the wrong length or a level out of range.
    pub fn total_rate(&self, assignment: &[QualityLevel]) -> f64 {
        assert_eq!(
            assignment.len(),
            self.users.len(),
            "assignment length mismatch"
        );
        assignment
            .iter()
            .zip(&self.users)
            .map(|(q, u)| u.rates[q.index()])
            .sum()
    }

    /// Total objective value `Σ h_n(q_n)` of an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` has the wrong length or a level out of range.
    pub fn objective(&self, assignment: &[QualityLevel]) -> f64 {
        assert_eq!(
            assignment.len(),
            self.users.len(),
            "assignment length mismatch"
        );
        assignment
            .iter()
            .zip(&self.users)
            .map(|(q, u)| u.values[q.index()])
            .sum()
    }

    /// Checks constraints (6) and (7). Levels above 1 must respect both the
    /// per-user and server budgets; the mandatory level-1 baseline is always
    /// considered feasible on the per-user constraint, matching the paper's
    /// Algorithm 1 which never rejects the starting allocation.
    pub fn is_feasible(&self, assignment: &[QualityLevel]) -> bool {
        if assignment.len() != self.users.len() {
            return false;
        }
        for (q, u) in assignment.iter().zip(&self.users) {
            if q.index() >= u.levels() {
                return false;
            }
            if q.get() > 1 && u.rates[q.index()] > u.link_budget + RATE_EPS {
                return false;
            }
        }
        self.total_rate(assignment) <= self.server_budget + RATE_EPS
    }

    /// The all-ones starting assignment of Algorithm 1.
    pub fn baseline_assignment(&self) -> Vec<QualityLevel> {
        vec![QualityLevel::MIN; self.users.len()]
    }
}

/// Convenience builder assembling a [`SlotProblem`] from model components,
/// evaluating `h_n` for every user and level.
#[derive(Debug, Default)]
pub struct SlotProblemBuilder {
    users: Vec<UserSlot>,
}

impl SlotProblemBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SlotProblemBuilder::default()
    }

    /// Adds a user, computing its per-level rates and `h_n` values from the
    /// supplied model components.
    pub fn user<R: RateFunction, D: DelayModel>(
        &mut self,
        params: QoeParams,
        delta: f64,
        tracker: &VarianceTracker,
        rate_fn: &R,
        delay_model: &D,
        link_budget: f64,
    ) -> &mut Self {
        let levels = usize::from(rate_fn.max_level().get());
        let mut rates = Vec::with_capacity(levels);
        let mut values = Vec::with_capacity(levels);
        for l in 1..=levels {
            let q = QualityLevel::new(l as u8);
            rates.push(rate_fn.rate(q));
            values.push(h_value(params, delta, tracker, rate_fn, delay_model, q));
        }
        self.users.push(UserSlot {
            rates,
            values,
            link_budget,
        });
        self
    }

    /// Finalises the problem with the shared server budget `B(t)`.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`SlotProblem::new`].
    pub fn build(&self, server_budget: f64) -> Result<SlotProblem, crate::error::AllocError> {
        SlotProblem::new(self.users.clone(), server_budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::Mm1Delay;
    use crate::rate::TabulatedRate;
    use proptest::prelude::*;

    fn sample_problem() -> SlotProblem {
        SlotProblem::new(
            vec![
                UserSlot {
                    rates: vec![1.0, 2.0, 4.0],
                    values: vec![0.5, 1.0, 1.2],
                    link_budget: 3.0,
                },
                UserSlot {
                    rates: vec![1.0, 2.5, 5.0],
                    values: vec![0.4, 1.2, 1.5],
                    link_budget: 6.0,
                },
            ],
            6.0,
        )
        .unwrap()
    }

    #[test]
    fn params_validate() {
        assert!(QoeParams::new(-0.1, 0.5).is_err());
        assert!(QoeParams::new(0.1, f64::NAN).is_err());
        assert_eq!(QoeParams::default(), QoeParams::simulation_default());
        assert_eq!(QoeParams::system_default().alpha, 0.1);
    }

    #[test]
    fn h_value_composes_three_terms() {
        let params = QoeParams::new(0.5, 2.0).unwrap();
        let rate_fn = TabulatedRate::new(vec![10.0, 20.0]).unwrap();
        let delay = Mm1Delay::new(40.0).unwrap();
        let mut tracker = VarianceTracker::new();
        tracker.push(2.0); // mean 2, next slot t = 2

        let q = QualityLevel::new(2);
        let delta = 0.9;
        let expected_quality = 0.9 * 2.0;
        let expected_delay = 0.5 * (20.0 / 20.0);
        let expected_var = 2.0 * tracker.expected_penalty(2.0, delta);
        let h = h_value(params, delta, &tracker, &rate_fn, &delay, q);
        assert!((h - (expected_quality - expected_delay - expected_var)).abs() < 1e-12);
    }

    // The three Eq. (9) formulas the slot loops carried before they all
    // called `h_at_delay`, kept verbatim as its oracles: `h_value`'s old
    // body (also the live session's inline copy), and the full-system
    // simulator's delay-blind and loss-aware arms.

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
        let rate_fn = TabulatedRate::new(vec![1.0, 2.0]).unwrap();
        let delay = Mm1Delay::new(10.0).unwrap();
        let tracker = VarianceTracker::new();
        let h = h_value(
            params,
            0.5,
            &tracker,
            &rate_fn,
            &delay,
            QualityLevel::new(2),
        );
        assert!((h - 1.0).abs() < 1e-12); // 0.5 · 2 only
    }

    #[test]
    fn problem_validation_catches_malformations() {
        use crate::error::AllocError;
        assert_eq!(
            SlotProblem::new(vec![], 1.0).unwrap_err(),
            AllocError::NoUsers
        );

        let bad_len = UserSlot {
            rates: vec![1.0, 2.0],
            values: vec![1.0],
            link_budget: 1.0,
        };
        assert!(matches!(
            SlotProblem::new(vec![bad_len], 1.0),
            Err(AllocError::MalformedUser { user: 0, .. })
        ));

        let bad_rates = UserSlot {
            rates: vec![2.0, 1.0],
            values: vec![1.0, 2.0],
            link_budget: 1.0,
        };
        assert!(SlotProblem::new(vec![bad_rates], 1.0).is_err());

        let bad_budget = UserSlot {
            rates: vec![1.0],
            values: vec![1.0],
            link_budget: 0.0,
        };
        assert!(SlotProblem::new(vec![bad_budget], 1.0).is_err());

        let bad_value = UserSlot {
            rates: vec![1.0],
            values: vec![f64::NAN],
            link_budget: 1.0,
        };
        assert!(SlotProblem::new(vec![bad_value], 1.0).is_err());
    }

    #[test]
    fn totals_and_feasibility() {
        let p = sample_problem();
        let a = vec![QualityLevel::new(2), QualityLevel::new(2)];
        assert!((p.total_rate(&a) - 4.5).abs() < 1e-12);
        assert!((p.objective(&a) - 2.2).abs() < 1e-12);
        assert!(p.is_feasible(&a));

        // Violates user 0's link budget (rate 4 > 3).
        let b = vec![QualityLevel::new(3), QualityLevel::new(1)];
        assert!(!p.is_feasible(&b));

        // Violates the server budget (4 + 5 > 6 — also violates link).
        let c = vec![QualityLevel::new(3), QualityLevel::new(3)];
        assert!(!p.is_feasible(&c));

        // Wrong length.
        assert!(!p.is_feasible(&[QualityLevel::MIN]));
    }

    #[test]
    fn baseline_assignment_is_all_ones() {
        let p = sample_problem();
        assert_eq!(p.baseline_assignment(), vec![QualityLevel::MIN; 2]);
    }

    #[test]
    fn builder_matches_manual_h() {
        let params = QoeParams::simulation_default();
        let rate_fn = TabulatedRate::paper_profile();
        let delay = Mm1Delay::new(60.0).unwrap();
        let tracker = VarianceTracker::new();
        let problem = SlotProblemBuilder::new()
            .user(params, 0.9, &tracker, &rate_fn, &delay, 60.0)
            .build(100.0)
            .unwrap();
        assert_eq!(problem.num_users(), 1);
        let u = &problem.users()[0];
        assert_eq!(u.levels(), 6);
        for (i, &v) in u.values.iter().enumerate() {
            let q = QualityLevel::new((i + 1) as u8);
            let manual = h_value(params, 0.9, &tracker, &rate_fn, &delay, q);
            assert!((v - manual).abs() < 1e-12);
        }
    }
}
