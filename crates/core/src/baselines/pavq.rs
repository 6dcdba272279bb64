//! Modified PAVQ: variance-aware quality adaptation by dual pricing.
//!
//! Joseph & de Veciana (INFOCOM 2012) adapt per-user video quality to
//! optimise a mean/variance trade-off with a *stochastic-approximation*
//! online algorithm: a congestion price couples the users, each user picks
//! the quality that maximises its own utility minus the price-weighted
//! rate, and the price is updated incrementally from the observed load.
//!
//! As in Section IV of the reproduced paper, the per-user metric (their
//! `μ_i^P`) is modified to include the delivery-delay term, i.e. each user
//! maximises exactly the `h_n(q)` of Eq. (9) minus `λ·f^R(q)`.
//!
//! The defining behavioural property (and the reason the reproduced paper
//! beats it under bursty networks) is that the price `λ` adapts *across
//! slots* with a finite step size: under slowly varying bandwidth it
//! converges near the optimum, but when capacity jumps it lags, transiently
//! over- or under-subscribing the server link.

use crate::alloc::Allocator;
use crate::engine::SlotEngine;
use crate::quality::QualityLevel;

/// The modified-PAVQ allocator with a persistent dual price.
///
/// # Examples
///
/// ```
/// use cvr_core::alloc::Allocator;
/// use cvr_core::baselines::Pavq;
/// use cvr_core::engine::SlotEngine;
///
/// let mut engine = SlotEngine::new();
/// engine.begin_slot(4.0);
/// let user = engine.add_user(2, 4.0);
/// user.rates.copy_from_slice(&[1.0, 2.0]);
/// user.values.copy_from_slice(&[0.5, 1.5]);
/// let assignment = Pavq::new().allocate(&mut engine);
/// assert_eq!(assignment.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pavq {
    lambda: f64,
    step: f64,
    inner_iterations: u32,
}

impl Pavq {
    /// Default price step size; chosen so the price tracks bandwidth holds
    /// lasting hundreds of slots but lags abrupt changes, matching the
    /// behaviour the original stochastic-approximation scheme exhibits.
    pub const DEFAULT_STEP: f64 = 0.05;

    /// Creates the allocator with the default step and a single price
    /// update per slot (the faithful online variant).
    pub fn new() -> Self {
        Pavq {
            lambda: 0.0,
            step: Self::DEFAULT_STEP,
            inner_iterations: 1,
        }
    }

    /// Creates the allocator with an explicit step size.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive and finite.
    pub fn with_step(step: f64) -> Self {
        assert!(step.is_finite() && step > 0.0, "step must be positive");
        Pavq {
            lambda: 0.0,
            step,
            inner_iterations: 1,
        }
    }

    /// Sets how many price updates run per slot. Larger values make the
    /// price re-converge within a slot (an idealised, less "online"
    /// variant used for ablation).
    pub fn inner_iterations(mut self, iterations: u32) -> Self {
        assert!(iterations >= 1, "at least one iteration required");
        self.inner_iterations = iterations;
        self
    }

    /// The current dual price (diagnostic).
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Each user independently maximises `h_n(q) − λ·f^R(q)` over its
    /// link-feasible levels.
    fn price_response(&self, problem: &SlotEngine) -> Vec<usize> {
        (0..problem.num_users())
            .map(|u| {
                let (rates, values) = (problem.rates(u), problem.values(u));
                let mut best = 0usize;
                let mut best_score = values[0] - self.lambda * rates[0];
                for (i, (&r, &v)) in rates.iter().zip(values).enumerate().skip(1) {
                    if r > problem.link_budget(u) {
                        break; // rates increase; nothing further fits
                    }
                    let score = v - self.lambda * r;
                    if score > best_score {
                        best = i;
                        best_score = score;
                    }
                }
                best
            })
            .collect()
    }

    fn update_price(&mut self, total_rate: f64, budget: f64) {
        // Normalised subgradient step on the dual: overload raises the
        // price, slack lowers it.
        let overload = (total_rate - budget) / budget.max(1e-9);
        self.lambda = (self.lambda + self.step * overload).max(0.0);
    }
}

impl Default for Pavq {
    fn default() -> Self {
        Pavq::new()
    }
}

/// `Σ_n f^R(q_n)` over 0-based level indices.
fn total_rate(problem: &SlotEngine, levels: &[usize]) -> f64 {
    levels
        .iter()
        .enumerate()
        .map(|(u, &l)| problem.rates(u)[l])
        .sum()
}

impl Allocator for Pavq {
    /// # Panics
    ///
    /// Panics if the staged tables fail [`SlotEngine::validate`].
    fn allocate<'e>(&mut self, problem: &'e mut SlotEngine) -> &'e [QualityLevel] {
        problem
            .validate()
            .expect("staged slot problem must be valid");
        let budget = problem.server_budget();
        let mut levels = self.price_response(problem);
        for _ in 0..self.inner_iterations {
            let total = total_rate(problem, &levels);
            self.update_price(total, budget);
            levels = self.price_response(problem);
        }

        // PAVQ's raw response may exceed the server budget while the price
        // catches up; the server cannot send more than the link carries, so
        // shed load by downgrading the cheapest-loss users until feasible
        // (the real system's send queue effectively does this).
        let mut total = total_rate(problem, &levels);
        while total > budget + 1e-9 {
            let mut best: Option<(f64, usize)> = None;
            for (n, &l) in levels.iter().enumerate() {
                if l == 0 {
                    continue;
                }
                let values = problem.values(n);
                let loss = values[l] - values[l - 1];
                if best.is_none_or(|(bl, _)| loss < bl) {
                    best = Some((loss, n));
                }
            }
            let Some((_, n)) = best else { break };
            let rates = problem.rates(n);
            total -= rates[levels[n]] - rates[levels[n] - 1];
            levels[n] -= 1;
        }

        problem.set_assignment(levels.iter().map(|&i| QualityLevel::new((i + 1) as u8)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::staged;
    use crate::offline::exact_slot_optimum;

    type User = (&'static [f64], &'static [f64], f64);

    fn concave_user(link: f64) -> User {
        // Concave values over convex rates — the paper's structure.
        (&[1.0, 2.0, 4.0, 8.0], &[1.0, 1.8, 2.4, 2.8], link)
    }

    #[test]
    fn converges_near_optimum_on_static_problem() {
        let mut p = staged(&[concave_user(8.0), concave_user(8.0)], 8.0);
        let opt = exact_slot_optimum(&p).unwrap().value;
        let mut pavq = Pavq::new();
        let mut last = 0.0;
        for _ in 0..500 {
            let a = pavq.allocate(&mut p).to_vec();
            last = p.objective(&a);
        }
        assert!(last >= 0.9 * opt, "pavq {last} far from optimum {opt}");
    }

    #[test]
    fn shedding_keeps_assignment_feasible_every_slot() {
        let mut p = staged(&[concave_user(8.0); 4], 10.0);
        let mut pavq = Pavq::new();
        for _ in 0..50 {
            let a = pavq.allocate(&mut p).to_vec();
            assert!(p.is_feasible(&a));
        }
    }

    #[test]
    fn price_rises_under_overload_and_decays_with_slack() {
        let mut tight = staged(&[concave_user(8.0); 4], 5.0);
        let mut pavq = Pavq::new();
        for _ in 0..20 {
            pavq.allocate(&mut tight);
        }
        let high_price = pavq.lambda();
        assert!(high_price > 0.0);

        let mut loose = staged(&[concave_user(8.0); 4], 1000.0);
        for _ in 0..200 {
            pavq.allocate(&mut loose);
        }
        assert!(pavq.lambda() < high_price);
    }

    #[test]
    fn lags_after_abrupt_budget_change() {
        // Converge under a generous budget, then crash the budget: the
        // first post-change response (before shedding) over-subscribes.
        let mut loose = staged(&[concave_user(8.0); 4], 32.0);
        let mut pavq = Pavq::new();
        for _ in 0..200 {
            pavq.allocate(&mut loose);
        }
        let tight = staged(&[concave_user(8.0); 4], 6.0);
        let raw = total_rate(&tight, &pavq.price_response(&tight));
        assert!(raw > 6.0, "price should lag the sudden capacity drop");
    }

    #[test]
    fn respects_link_budget() {
        let mut p = staged(&[concave_user(3.0)], 100.0);
        let mut pavq = Pavq::new();
        for _ in 0..50 {
            let a = pavq.allocate(&mut p);
            assert!(a[0].get() <= 2); // level 3 needs rate 4 > 3
        }
    }

    #[test]
    fn inner_iterations_accelerate_convergence() {
        let mut p = staged(&[concave_user(8.0); 3], 9.0);
        let opt = exact_slot_optimum(&p).unwrap().value;
        let mut fast = Pavq::new().inner_iterations(200);
        fast.allocate(&mut p);
        let b = fast.allocate(&mut p).to_vec();
        assert!(p.objective(&b) >= 0.85 * opt);
    }

    #[test]
    #[should_panic(expected = "staged slot problem must be valid")]
    fn malformed_tables_panic() {
        Pavq::new().allocate(&mut staged(
            &[(&[1.0, 1.0][..], &[0.0, 1.0][..], 5.0)],
            10.0,
        ));
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn rejects_bad_step() {
        let _ = Pavq::with_step(0.0);
    }
}
