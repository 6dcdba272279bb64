//! Quality-level allocation algorithms.
//!
//! The central entry point is [`DensityValueGreedy`], the paper's
//! Algorithm 1, which carries a proven 1/2-approximation guarantee for the
//! per-slot problem (Theorem 1). The pure [`DensityGreedy`] and
//! [`ValueGreedy`] passes are also exposed individually — each alone can be
//! arbitrarily bad (the two counterexamples in Section III are unit tests
//! here), which is precisely why the paper combines them. All three run on
//! the [`SlotEngine`]'s zero-allocation passes.

use crate::engine::SlotEngine;
use crate::quality::QualityLevel;

/// A per-slot quality-level allocator.
///
/// Allocators may be stateful across slots (e.g. the PAVQ dual price or the
/// Firefly LRU queue), hence `&mut self`.
pub trait Allocator {
    /// Chooses a quality level for every user of the slot staged in
    /// `engine` and returns the assignment, stored in and borrowed from
    /// the engine.
    ///
    /// The assignment always has one entry per user and starts from the
    /// mandatory level-1 baseline; levels above 1 respect both rate
    /// constraints whenever the solver honours them (all solvers in this
    /// crate do).
    fn allocate<'e>(&mut self, engine: &'e mut SlotEngine) -> &'e [QualityLevel];
}

/// The paper's Algorithm 1: run density- and value-greedy, keep the better.
///
/// # Examples
///
/// ```
/// use cvr_core::alloc::{Allocator, DensityValueGreedy};
/// use cvr_core::engine::SlotEngine;
///
/// let mut engine = SlotEngine::new();
/// engine.begin_slot(4.0);
/// let user = engine.add_user(3, 4.0);
/// user.rates.copy_from_slice(&[1.0, 2.0, 4.0]);
/// user.values.copy_from_slice(&[1.0, 1.8, 2.2]);
/// let assignment = DensityValueGreedy::new().allocate(&mut engine);
/// assert_eq!(assignment[0].get(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DensityValueGreedy;

impl DensityValueGreedy {
    /// Creates the allocator.
    pub fn new() -> Self {
        DensityValueGreedy
    }
}

impl Allocator for DensityValueGreedy {
    fn allocate<'e>(&mut self, engine: &'e mut SlotEngine) -> &'e [QualityLevel] {
        engine.solve()
    }
}

/// The pure density-greedy pass (ablation; can lose badly alone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DensityGreedy;

impl DensityGreedy {
    /// Creates the allocator.
    pub fn new() -> Self {
        DensityGreedy
    }
}

impl Allocator for DensityGreedy {
    fn allocate<'e>(&mut self, engine: &'e mut SlotEngine) -> &'e [QualityLevel] {
        engine.solve_density()
    }
}

/// The pure value-greedy pass (ablation; can lose badly alone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValueGreedy;

impl ValueGreedy {
    /// Creates the allocator.
    pub fn new() -> Self {
        ValueGreedy
    }
}

impl Allocator for ValueGreedy {
    fn allocate<'e>(&mut self, engine: &'e mut SlotEngine) -> &'e [QualityLevel] {
        engine.solve_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::staged;
    use crate::objective::RATE_EPS;

    type User = (Vec<f64>, Vec<f64>, f64);

    /// Builds a user whose incremental values/rates are given; the tables
    /// are the running sums starting from (rate₁, value₁).
    fn user(rate1: f64, value1: f64, increments: &[(f64, f64)], link: f64) -> User {
        let mut rates = vec![rate1];
        let mut values = vec![value1];
        for &(dr, dv) in increments {
            rates.push(rates.last().unwrap() + dr);
            values.push(values.last().unwrap() + dv);
        }
        (rates, values, link)
    }

    /// Runs `alg` on a fresh staging of `users`, returning the engine (for
    /// its objective and feasibility checks) and the assignment.
    fn run(
        alg: &mut dyn Allocator,
        users: &[User],
        budget: f64,
    ) -> (SlotEngine, Vec<QualityLevel>) {
        let mut engine = staged(users, budget);
        let a = alg.allocate(&mut engine).to_vec();
        (engine, a)
    }

    /// Section III counterexample 1: density-greedy fails, value-greedy is
    /// optimal, so Algorithm 1 must be optimal.
    ///
    /// h₁(1)=1 at rate 0.5; h₂(2)=4 at rate 2.5; server budget 2.5.
    /// We encode "level 0" as the mandatory baseline with negligible rate
    /// and zero value so the interesting choice is the first upgrade.
    #[test]
    fn density_greedy_counterexample() {
        let eps = 1e-6;
        let users = [
            // Upgrade: +1 value for +0.5 rate (density 2).
            user(eps, 0.0, &[(0.5, 1.0)], 10.0),
            // Upgrade: +4 value for +2.5 rate (density 1.6).
            user(eps, 0.0, &[(2.5, 4.0)], 10.0),
        ];
        let budget = 2.5 + 2.0 * eps;
        let (p, d) = run(&mut DensityGreedy, &users, budget);
        let (_, v) = run(&mut ValueGreedy, &users, budget);
        let (_, best) = run(&mut DensityValueGreedy, &users, budget);

        // Density upgrades user 1 first (density 2 > 1.6), then cannot
        // afford user 2: objective 1.
        assert!((p.objective(&d) - 1.0).abs() < 1e-9);
        // Value upgrades user 2 (4 > 1): objective 4 — the optimum.
        assert!((p.objective(&v) - 4.0).abs() < 1e-9);
        assert!((p.objective(&best) - 4.0).abs() < 1e-9);
    }

    /// Section III counterexample 2: value-greedy fails, density-greedy is
    /// optimal.
    ///
    /// Four users each worth 2 at rate 0.5; one user worth 3 at rate 2;
    /// budget 2.
    #[test]
    fn value_greedy_counterexample() {
        let eps = 1e-7;
        let mut users: Vec<User> = (0..4)
            .map(|_| user(eps, 0.0, &[(0.5, 2.0)], 10.0))
            .collect();
        users.push(user(eps, 0.0, &[(2.0, 3.0)], 10.0));
        let budget = 2.0 + 5.0 * eps;
        let (p, d) = run(&mut DensityGreedy, &users, budget);
        let (_, v) = run(&mut ValueGreedy, &users, budget);
        let (_, best) = run(&mut DensityValueGreedy, &users, budget);

        // Value picks the 3-value upgrade and exhausts the budget: 3.
        assert!((p.objective(&v) - 3.0).abs() < 1e-9);
        // Density picks the four 0.5-rate upgrades (density 4 each): 8.
        assert!((p.objective(&d) - 8.0).abs() < 1e-9);
        assert!((p.objective(&best) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn respects_link_budget() {
        let users = [user(1.0, 0.0, &[(1.0, 5.0), (1.0, 5.0)], 2.5)];
        let (p, a) = run(&mut DensityValueGreedy, &users, 100.0);
        // Level 3 needs rate 3 > link 2.5, so the allocator stops at 2.
        assert_eq!(a[0].get(), 2);
        assert!(p.is_feasible(&a));
    }

    #[test]
    fn respects_server_budget() {
        let users = [
            user(1.0, 0.0, &[(2.0, 5.0)], 10.0),
            user(1.0, 0.0, &[(2.0, 4.0)], 10.0),
        ];
        let (p, a) = run(&mut DensityValueGreedy, &users, 4.5);
        // Only one upgrade fits (2 + 2·1 base = 4 ≤ 4.5; two would be 6).
        assert!(p.is_feasible(&a));
        assert_eq!(a.iter().filter(|q| q.get() == 2).count(), 1);
        // And it is the more valuable one.
        assert_eq!(a[0].get(), 2);
    }

    #[test]
    fn stops_on_negative_marginal() {
        // Second upgrade has negative marginal value; greedy must not take
        // it even though budget allows.
        let users = [user(1.0, 0.0, &[(1.0, 2.0), (1.0, -1.0)], 100.0)];
        let (_, a) = run(&mut DensityValueGreedy, &users, 100.0);
        assert_eq!(a[0].get(), 2);
    }

    #[test]
    fn negative_first_marginal_keeps_baseline() {
        let users = [user(1.0, 0.5, &[(1.0, -0.5)], 100.0)];
        let algorithms: [&mut dyn Allocator; 3] = [
            &mut DensityValueGreedy,
            &mut DensityGreedy,
            &mut ValueGreedy,
        ];
        for (i, alg) in algorithms.into_iter().enumerate() {
            let (_, a) = run(alg, &users, 100.0);
            assert_eq!(
                a[0],
                QualityLevel::MIN,
                "allocator {i} took a losing upgrade"
            );
        }
    }

    #[test]
    fn saturates_at_top_level() {
        let users = [user(1.0, 0.0, &[(1.0, 3.0), (1.0, 2.0)], 100.0)];
        let (_, a) = run(&mut DensityValueGreedy, &users, 100.0);
        assert_eq!(a[0].get(), 3);
    }

    #[test]
    fn tie_breaks_by_lowest_user_index() {
        let users = [
            user(1.0, 0.0, &[(1.0, 2.0)], 100.0),
            user(1.0, 0.0, &[(1.0, 2.0)], 100.0),
        ];
        // Only one upgrade fits (base 2 + 1).
        let (_, a) = run(&mut DensityValueGreedy, &users, 3.0);
        assert_eq!(a[0].get(), 2);
        assert_eq!(a[1].get(), 1);
    }

    /// Regression for the once-divergent feasibility tolerances: the greedy
    /// passes and `is_feasible` share [`RATE_EPS`], so an upgrade the
    /// allocator accepts at a budget boundary is never rejected by the
    /// feasibility check (and vice versa).
    #[test]
    fn budget_boundaries_share_one_tolerance() {
        // Link budget exactly equal to the level-2 rate plus half an
        // epsilon of float noise: the upgrade must be taken and the result
        // must verify as feasible.
        let noisy_link = 2.0 + 0.5 * RATE_EPS;
        let (p, a) = run(
            &mut DensityValueGreedy,
            &[user(1.0, 0.0, &[(1.0, 5.0)], noisy_link)],
            100.0,
        );
        assert_eq!(a[0].get(), 2, "within-eps link overshoot must be accepted");
        assert!(p.is_feasible(&a));

        // Beyond the shared tolerance both sides must reject.
        let tight_link = 2.0 - 10.0 * RATE_EPS;
        let (p, a) = run(
            &mut DensityValueGreedy,
            &[user(1.0, 0.0, &[(1.0, 5.0)], tight_link)],
            100.0,
        );
        assert_eq!(a[0].get(), 1, "beyond-eps link overshoot must be rejected");
        assert!(p.is_feasible(&a));
        assert!(!p.is_feasible(&[QualityLevel::new(2)]));

        // Same at the server budget: total rate may exceed the budget by at
        // most RATE_EPS, and what greedy accepts is_feasible also accepts.
        let users = [
            user(1.0, 0.0, &[(1.0, 5.0)], 100.0),
            user(1.0, 0.0, &[(1.0, 4.0)], 100.0),
        ];
        let (p, a) = run(&mut DensityValueGreedy, &users, 3.0 + 0.5 * RATE_EPS);
        assert_eq!(a.iter().filter(|q| q.get() == 2).count(), 1);
        assert!(p.is_feasible(&a));
    }
}
