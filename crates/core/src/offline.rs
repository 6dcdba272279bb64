//! Exact and relaxation solvers for the per-slot problem, used as the
//! "offline optimal" comparator in the paper's Fig. 2 and to validate the
//! Theorem 1 approximation guarantee.
//!
//! * [`exact_slot_optimum`] — branch-and-bound over the multiple-choice
//!   knapsack, exact for the user counts the paper evaluates exactly (5
//!   users; the paper notes brute force is only viable for small `N`).
//! * [`exhaustive_slot_optimum`] — plain enumeration, used to cross-check
//!   the branch-and-bound in tests.
//! * [`fractional_upper_bound`] — the LP/convex-hull relaxation `V_p` from
//!   the proof of Theorem 1; an upper bound on the integer optimum for any
//!   instance and solvable in `O(N·L·log)`.
//!
//! Each validates the staged tables first ([`SlotEngine::validate`]) and
//! allows every budget the shared [`RATE_EPS`] of slack, exactly as
//! Algorithm 1 and [`SlotEngine::is_feasible`] do.
//!
//! The tests also solve the *horizon* problem (1)–(3) on tiny instances,
//! by enumeration and by a single-user DP, to measure the decomposition
//! gap of Eq. (8).

use crate::engine::SlotEngine;
use crate::error::AllocError;
use crate::objective::RATE_EPS;
use crate::quality::QualityLevel;

/// Hard cap on exact-solver instance size; beyond this the search space is
/// too large to guarantee a timely answer.
pub const MAX_EXACT_USERS: usize = 20;

/// Result of an exact per-slot solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSolution {
    /// The optimal assignment.
    pub assignment: Vec<QualityLevel>,
    /// Its objective value.
    pub value: f64,
    /// Search nodes visited (diagnostic).
    pub nodes: u64,
}

/// Feasible `(level index, rate, value)` choices for one user, respecting
/// the user's link budget; level 1 is always included (mandatory baseline).
fn feasible_choices(problem: &SlotEngine) -> Vec<Vec<(usize, f64, f64)>> {
    (0..problem.num_users())
        .map(|u| {
            let link = problem.link_budget(u) + RATE_EPS;
            problem
                .rates(u)
                .iter()
                .zip(problem.values(u))
                .enumerate()
                .filter(|&(i, (&r, _))| i == 0 || r <= link)
                .map(|(i, (&r, &v))| (i, r, v))
                .collect()
        })
        .collect()
}

/// Exact optimum of problem (5)–(7) by depth-first branch-and-bound.
///
/// If even the all-ones baseline exceeds the server budget the instance is
/// degenerate; the baseline is returned (matching what Algorithm 1 outputs
/// in that situation).
///
/// # Errors
///
/// Returns the [`SlotEngine::validate`] error for malformed tables and
/// [`AllocError::TooLarge`] for more than [`MAX_EXACT_USERS`] users.
pub fn exact_slot_optimum(problem: &SlotEngine) -> Result<ExactSolution, AllocError> {
    problem.validate()?;
    let n = problem.num_users();
    if n > MAX_EXACT_USERS {
        return Err(AllocError::TooLarge {
            users: n,
            max_users: MAX_EXACT_USERS,
        });
    }

    let choices = feasible_choices(problem);
    let budget = problem.server_budget() + RATE_EPS;

    // Baseline fallback for degenerate instances.
    let baseline = problem.baseline_assignment();
    let baseline_rate = problem.total_rate(&baseline);
    if baseline_rate > budget {
        let value = problem.objective(&baseline);
        return Ok(ExactSolution {
            assignment: baseline,
            value,
            nodes: 0,
        });
    }

    // Suffix bounds: max attainable value and min required rate from user i on.
    let mut suffix_max_value = vec![0.0f64; n + 1];
    let mut suffix_min_rate = vec![0.0f64; n + 1];
    for i in (0..n).rev() {
        let max_v = choices[i]
            .iter()
            .map(|&(_, _, v)| v)
            .fold(f64::NEG_INFINITY, f64::max);
        let min_r = choices[i]
            .iter()
            .map(|&(_, r, _)| r)
            .fold(f64::INFINITY, f64::min);
        suffix_max_value[i] = suffix_max_value[i + 1] + max_v;
        suffix_min_rate[i] = suffix_min_rate[i + 1] + min_r;
    }

    // Per-user choices in descending value order for better early incumbents.
    let mut ordered: Vec<Vec<(usize, f64, f64)>> = choices;
    for c in &mut ordered {
        c.sort_by(|a, b| b.2.total_cmp(&a.2));
    }

    struct Search<'a> {
        ordered: &'a [Vec<(usize, f64, f64)>],
        suffix_max_value: &'a [f64],
        suffix_min_rate: &'a [f64],
        budget: f64,
        best_value: f64,
        best: Vec<usize>,
        current: Vec<usize>,
        nodes: u64,
    }

    impl Search<'_> {
        fn dfs(&mut self, user: usize, spent: f64, value: f64) {
            self.nodes += 1;
            if user == self.ordered.len() {
                if value > self.best_value {
                    self.best_value = value;
                    self.best.copy_from_slice(&self.current);
                }
                return;
            }
            // Value-bound prune.
            if value + self.suffix_max_value[user] <= self.best_value + 1e-15 {
                return;
            }
            for &(level, rate, v) in &self.ordered[user] {
                let new_spent = spent + rate;
                if new_spent + self.suffix_min_rate[user + 1] > self.budget {
                    continue;
                }
                self.current[user] = level;
                self.dfs(user + 1, new_spent, value + v);
            }
        }
    }

    let mut search = Search {
        ordered: &ordered,
        suffix_max_value: &suffix_max_value,
        suffix_min_rate: &suffix_min_rate,
        budget,
        best_value: f64::NEG_INFINITY,
        best: vec![0; n],
        current: vec![0; n],
        nodes: 0,
    };
    search.dfs(0, 0.0, 0.0);

    let assignment: Vec<QualityLevel> = search
        .best
        .iter()
        .map(|&i| QualityLevel::new((i + 1) as u8))
        .collect();
    let value = problem.objective(&assignment);
    Ok(ExactSolution {
        assignment,
        value,
        nodes: search.nodes,
    })
}

/// Exact optimum by full enumeration (test oracle; exponential).
///
/// # Errors
///
/// Returns the [`SlotEngine::validate`] error for malformed tables and
/// [`AllocError::TooLarge`] for more than 8 users.
pub fn exhaustive_slot_optimum(problem: &SlotEngine) -> Result<ExactSolution, AllocError> {
    problem.validate()?;
    let n = problem.num_users();
    if n > 8 {
        return Err(AllocError::TooLarge {
            users: n,
            max_users: 8,
        });
    }
    let choices = feasible_choices(problem);
    let budget = problem.server_budget() + RATE_EPS;

    let baseline = problem.baseline_assignment();
    let baseline_rate = problem.total_rate(&baseline);

    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut stack = vec![0usize; n];
    let mut nodes = 0u64;
    loop {
        nodes += 1;
        let mut rate = 0.0;
        let mut value = 0.0;
        for (u, &ci) in stack.iter().enumerate() {
            let (_, r, v) = choices[u][ci];
            rate += r;
            value += v;
        }
        if rate <= budget && best.as_ref().is_none_or(|(bv, _)| value > *bv) {
            best = Some((value, stack.clone()));
        }
        // Odometer increment.
        let mut pos = 0;
        loop {
            if pos == n {
                let (value, idxs) = match best {
                    Some((v, idxs)) => {
                        let assignment: Vec<QualityLevel> = idxs
                            .iter()
                            .enumerate()
                            .map(|(u, &ci)| QualityLevel::new((choices[u][ci].0 + 1) as u8))
                            .collect();
                        (v, assignment)
                    }
                    None => {
                        // Degenerate: even the baseline busts the budget.
                        debug_assert!(baseline_rate > budget);
                        (problem.objective(&baseline), baseline)
                    }
                };
                return Ok(ExactSolution {
                    assignment: idxs,
                    value,
                    nodes,
                });
            }
            stack[pos] += 1;
            if stack[pos] < choices[pos].len() {
                break;
            }
            stack[pos] = 0;
            pos += 1;
        }
    }
}

/// The fractional (LP / convex hull) upper bound `V_p ≥ OPT` from the proof
/// of Theorem 1: follow the density-greedy order over the LP-dominant
/// upgrades and take a fraction of the first upgrade that busts the budget.
///
/// # Errors
///
/// Returns the [`SlotEngine::validate`] error for malformed tables.
pub fn fractional_upper_bound(problem: &SlotEngine) -> Result<f64, AllocError> {
    problem.validate()?;
    let choices = feasible_choices(problem);

    // Baseline.
    let mut value: f64 = choices.iter().map(|c| c[0].2).sum();
    let spent: f64 = choices.iter().map(|c| c[0].1).sum();
    let budget = problem.server_budget() + RATE_EPS;
    if spent >= budget {
        return Ok(value);
    }

    // Per user: upper-hull increments with decreasing density.
    // Starting from the baseline point, repeatedly take, among remaining
    // higher levels, the one maximising marginal density; by construction
    // the resulting per-user increment densities are non-increasing, and
    // relaxing each user's curve to this hull only increases the LP value.
    let mut increments: Vec<(f64, f64)> = Vec::new(); // (density, rate)
    for c in &choices {
        let mut cur = 0usize; // index into c
        while cur + 1 < c.len() {
            let (_, r0, v0) = c[cur];
            let mut best: Option<(f64, usize)> = None;
            for (j, &(_, r1, v1)) in c.iter().enumerate().skip(cur + 1) {
                let dr = r1 - r0;
                if dr <= 0.0 {
                    continue;
                }
                let density = (v1 - v0) / dr;
                if best.is_none_or(|(bd, _)| density > bd) {
                    best = Some((density, j));
                }
            }
            match best {
                Some((density, j)) if density > 0.0 => {
                    increments.push((density, c[j].1 - r0));
                    cur = j;
                }
                _ => break,
            }
        }
    }

    increments.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut remaining = budget - spent;
    for (density, rate) in increments {
        if rate <= remaining {
            value += density * rate;
            remaining -= rate;
        } else {
            value += density * remaining;
            break;
        }
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::staged;
    use crate::variance::VarianceTracker;

    type User = (Vec<f64>, Vec<f64>, f64);

    fn problem(users: Vec<User>, budget: f64) -> SlotEngine {
        staged(&users, budget)
    }

    fn user(rates: Vec<f64>, values: Vec<f64>, link: f64) -> User {
        (rates, values, link)
    }

    #[test]
    fn exact_matches_exhaustive_on_small_instances() {
        let p = problem(
            vec![
                user(vec![1.0, 2.0, 4.0], vec![0.5, 1.6, 2.0], 3.0),
                user(vec![1.0, 3.0, 6.0], vec![0.3, 1.9, 2.5], 6.0),
                user(vec![1.0, 1.5, 2.0], vec![0.2, 0.9, 1.4], 2.0),
            ],
            7.0,
        );
        let bb = exact_slot_optimum(&p).unwrap();
        let ex = exhaustive_slot_optimum(&p).unwrap();
        assert!((bb.value - ex.value).abs() < 1e-12);
        assert!(p.is_feasible(&bb.assignment));
    }

    #[test]
    fn exact_rejects_huge_instances() {
        let users: Vec<User> = (0..25)
            .map(|_| user(vec![1.0, 2.0], vec![0.1, 0.2], 5.0))
            .collect();
        let p = problem(users, 100.0);
        assert!(matches!(
            exact_slot_optimum(&p),
            Err(AllocError::TooLarge { users: 25, .. })
        ));
    }

    #[test]
    fn degenerate_baseline_is_returned() {
        let p = problem(
            vec![
                user(vec![5.0, 6.0], vec![1.0, 2.0], 10.0),
                user(vec![5.0, 6.0], vec![1.0, 2.0], 10.0),
            ],
            4.0, // baseline needs 10
        );
        let s = exact_slot_optimum(&p).unwrap();
        assert_eq!(s.assignment, p.baseline_assignment());
        let e = exhaustive_slot_optimum(&p).unwrap();
        assert_eq!(e.assignment, p.baseline_assignment());
    }

    #[test]
    fn fractional_bound_dominates_integer_optimum() {
        let p = problem(
            vec![
                user(vec![1.0, 2.0, 4.0], vec![0.5, 1.6, 2.0], 4.0),
                user(vec![1.0, 3.0, 6.0], vec![0.3, 1.9, 2.5], 6.0),
            ],
            6.0,
        );
        let opt = exact_slot_optimum(&p).unwrap().value;
        let bound = fractional_upper_bound(&p).unwrap();
        assert!(bound >= opt - 1e-12, "bound {bound} < opt {opt}");
    }

    #[test]
    fn fractional_bound_tight_when_budget_slack() {
        // With an unconstrained budget the bound equals the sum of best values.
        let p = problem(vec![user(vec![1.0, 2.0], vec![0.5, 2.0], 10.0)], 100.0);
        let bound = fractional_upper_bound(&p).unwrap();
        assert!((bound - 2.0).abs() < 1e-12);
    }

    /// Every oracle allows both budgets the `RATE_EPS` slack Algorithm 1
    /// and `is_feasible` allow: a level within 1e-9 of the link or the
    /// server budget is feasible for all of them alike.
    #[test]
    fn oracles_share_the_rate_eps_tolerance() {
        let near = 2.0 - 5e-10;
        for (link, server) in [(near, 10.0), (5.0, near)] {
            let mut p = problem(vec![user(vec![1.0, 2.0], vec![0.0, 1.0], link)], server);
            let greedy = p.solve().to_vec();
            assert_eq!(greedy, [QualityLevel::new(2)]);
            assert!(p.is_feasible(&greedy));
            assert_eq!(p.objective(&greedy), 1.0);
            for solution in [
                exact_slot_optimum(&p).unwrap(),
                exhaustive_slot_optimum(&p).unwrap(),
            ] {
                assert_eq!(solution.assignment, greedy, "link {link}, server {server}");
                assert_eq!(solution.value, 1.0);
            }
            let bound = fractional_upper_bound(&p).unwrap();
            assert!(bound >= 1.0, "bound {bound} below the optimum 1");
        }
    }

    #[test]
    fn oracles_reject_malformed_tables() {
        let bad = problem(vec![user(vec![2.0, 1.0], vec![0.0, 1.0], 5.0)], 10.0);
        let malformed = AllocError::MalformedUser {
            user: 0,
            reason: "rates must be strictly increasing",
        };
        assert_eq!(exact_slot_optimum(&bad), Err(malformed.clone()));
        assert_eq!(exhaustive_slot_optimum(&bad), Err(malformed.clone()));
        assert_eq!(fractional_upper_bound(&bad), Err(malformed));
        let empty = problem(vec![], 10.0);
        assert_eq!(exact_slot_optimum(&empty), Err(AllocError::NoUsers));
    }

    #[test]
    fn theorem1_holds_on_counterexample_instances() {
        // The two Section III instances: Algorithm 1 ≥ OPT/2 (here = OPT).
        let eps = 1e-6;
        let mut p1 = problem(
            vec![
                user(vec![eps, 0.5 + eps], vec![0.0, 1.0], 10.0),
                user(vec![eps, 2.5 + eps], vec![0.0, 4.0], 10.0),
            ],
            2.5 + 2.0 * eps,
        );
        let opt = exact_slot_optimum(&p1).unwrap().value;
        let greedy = p1.solve().to_vec();
        let alg = p1.objective(&greedy);
        assert!(alg >= opt / 2.0 - 1e-9);
    }

    #[test]
    fn horizon_decomposition_gap_is_small_on_tiny_instance() {
        // 1 user, 3 levels, 3 slots: the per-slot decomposition should get
        // close to the exhaustive horizon optimum (Eq. 8 says the average
        // gap vanishes as T grows; at tiny T we only require sanity).
        let inst = HorizonInstance {
            rates: vec![vec![1.0, 2.0, 4.0]],
            link_budgets: vec![4.0],
            server_budgets: vec![4.0, 2.0, 4.0],
            delays: vec![vec![0.1, 0.3, 1.0]],
            alpha: 0.1,
            beta: 0.5,
        };
        let opt = inst.exhaustive_optimum(3).unwrap();
        let dec = inst.decomposed_qoe(3).unwrap();
        assert!(dec <= opt + 1e-9);
        assert!(dec >= 0.5 * opt, "decomposed {dec} far below optimum {opt}");
    }

    #[test]
    fn single_user_dp_matches_exhaustive() {
        let inst = HorizonInstance {
            rates: vec![vec![1.0, 2.0, 4.0]],
            link_budgets: vec![4.0],
            server_budgets: vec![4.0, 2.0, 4.0, 3.0],
            delays: vec![vec![0.1, 0.3, 1.0]],
            alpha: 0.1,
            beta: 0.5,
        };
        for horizon in 1..=4 {
            let dp = inst.single_user_dp(horizon).unwrap();
            let ex = inst.exhaustive_optimum(horizon).unwrap();
            assert!(
                (dp - ex).abs() < 1e-9,
                "horizon {horizon}: dp {dp} vs exhaustive {ex}"
            );
        }
    }

    #[test]
    fn single_user_dp_scales_beyond_exhaustive() {
        // A horizon far past exhaustive's reach still solves instantly and
        // upper-bounds the decomposed heuristic.
        let inst = HorizonInstance {
            rates: vec![vec![1.0, 2.0, 4.0, 8.0]],
            link_budgets: vec![8.0],
            server_budgets: vec![8.0; 200],
            delays: vec![vec![0.1, 0.3, 1.0, 3.0]],
            alpha: 0.05,
            beta: 0.5,
        };
        let dp = inst.single_user_dp(200).unwrap();
        let dec = inst.decomposed_qoe(200).unwrap();
        assert!(dec <= dp + 1e-6, "decomposed {dec} exceeds DP optimum {dp}");
        // The Eq. (8) claim: the per-slot decomposition approaches the
        // offline optimum; at T = 200 they should be close.
        assert!(dec >= 0.95 * dp, "decomposed {dec} far below optimum {dp}");
    }

    #[test]
    fn single_user_dp_rejects_multi_user() {
        let inst = HorizonInstance {
            rates: vec![vec![1.0]; 2],
            link_budgets: vec![1.0; 2],
            server_budgets: vec![2.0; 3],
            delays: vec![vec![0.0]; 2],
            alpha: 0.0,
            beta: 0.0,
        };
        assert!(matches!(
            inst.single_user_dp(3),
            Err(AllocError::TooLarge { users: 2, .. })
        ));
    }

    #[test]
    fn horizon_exhaustive_rejects_large() {
        let inst = HorizonInstance {
            rates: vec![vec![1.0; 6]; 4],
            link_budgets: vec![10.0; 4],
            server_budgets: vec![10.0; 10],
            delays: vec![vec![0.0; 6]; 4],
            alpha: 0.0,
            beta: 0.0,
        };
        assert!(inst.exhaustive_optimum(10).is_err());
    }

    #[test]
    fn node_counter_reports_pruning() {
        let p = problem(
            vec![
                user(vec![1.0, 2.0, 4.0], vec![0.5, 1.6, 2.0], 3.0),
                user(vec![1.0, 3.0, 6.0], vec![0.3, 1.9, 2.5], 6.0),
            ],
            7.0,
        );
        let bb = exact_slot_optimum(&p).unwrap();
        let ex = exhaustive_slot_optimum(&p).unwrap();
        assert!(bb.nodes > 0);
        assert!(ex.nodes >= 6); // 2 × 3 feasible combinations (link caps user 0)
    }

    /// One tiny-instance horizon problem for validating the decomposition:
    /// deterministic prediction (`δ = 1`), fixed per-slot budgets.
    #[derive(Debug, Clone)]
    struct HorizonInstance {
        /// Per-slot problems (all users present in each; the per-slot `values`
        /// tables are ignored — the horizon objective is computed from scratch).
        rates: Vec<Vec<f64>>,
        /// Per-user link budgets, constant over the horizon.
        link_budgets: Vec<f64>,
        /// Per-slot server budgets `B(t)`.
        server_budgets: Vec<f64>,
        /// Per-user, per-level delay `d_n(f^R(q))`, constant over the horizon.
        delays: Vec<Vec<f64>>,
        /// QoE weights.
        alpha: f64,
        /// QoE weights.
        beta: f64,
    }

    impl HorizonInstance {
        /// Total horizon QoE (1) of a sequence of assignments (slot-major),
        /// with deterministic prediction.
        fn horizon_qoe(&self, plan: &[Vec<usize>]) -> f64 {
            let n = self.rates.len();
            let t_len = plan.len();
            let mut total = 0.0;
            #[allow(clippy::needless_range_loop)] // `u` indexes the inner axis of `plan`
            for u in 0..n {
                let viewed: Vec<f64> = (0..t_len).map(|t| (plan[t][u] + 1) as f64).collect();
                let mean = viewed.iter().sum::<f64>() / t_len as f64;
                let var =
                    viewed.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / t_len as f64;
                let quality: f64 = viewed.iter().sum();
                let delay: f64 = (0..t_len).map(|t| self.delays[u][plan[t][u]]).sum();
                total += quality - self.alpha * delay - self.beta * (t_len as f64) * var;
            }
            total
        }

        /// Enumerates all feasible plans and returns the best horizon QoE.
        ///
        /// # Errors
        ///
        /// Returns [`AllocError::TooLarge`] when `L^(N·T)` exceeds one million
        /// combinations.
        fn exhaustive_optimum(&self, horizon: usize) -> Result<f64, AllocError> {
            let n = self.rates.len();
            let l = self.rates[0].len();
            let combos = (l as f64).powi((n * horizon) as i32);
            if combos > 1e6 {
                return Err(AllocError::TooLarge {
                    users: n * horizon,
                    max_users: 20,
                });
            }
            let mut plan = vec![vec![0usize; n]; horizon];
            let mut best = f64::NEG_INFINITY;
            loop {
                // Feasibility.
                let mut ok = true;
                'outer: for (t, slot) in plan.iter().enumerate() {
                    let mut total = 0.0;
                    for (u, &q) in slot.iter().enumerate() {
                        let r = self.rates[u][q];
                        if q > 0 && r > self.link_budgets[u] {
                            ok = false;
                            break 'outer;
                        }
                        total += r;
                    }
                    if total > self.server_budgets[t] + 1e-12 {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    best = best.max(self.horizon_qoe(&plan));
                }
                // Odometer.
                let mut t = 0;
                let mut u = 0;
                loop {
                    if t == horizon {
                        return Ok(best);
                    }
                    plan[t][u] += 1;
                    if plan[t][u] < l {
                        break;
                    }
                    plan[t][u] = 0;
                    u += 1;
                    if u == n {
                        u = 0;
                        t += 1;
                    }
                }
            }
        }

        /// Runs the paper's per-slot decomposition greedily (with exact per-slot
        /// solves) and returns the achieved horizon QoE — the `QoE^(T)` of
        /// Eq. (8)'s left side.
        ///
        /// # Errors
        ///
        /// Propagates [`AllocError`] from problem construction or the solver.
        fn decomposed_qoe(&self, horizon: usize) -> Result<f64, AllocError> {
            let n = self.rates.len();
            let mut trackers = vec![VarianceTracker::new(); n];
            let mut plan: Vec<Vec<usize>> = Vec::with_capacity(horizon);
            let mut problem = SlotEngine::new();
            for t in 0..horizon {
                problem.begin_slot(self.server_budgets[t]);
                for (u, tracker) in trackers.iter().enumerate() {
                    let row = problem.add_user(self.rates[u].len(), self.link_budgets[u]);
                    row.rates.copy_from_slice(&self.rates[u]);
                    for (i, value) in row.values.iter_mut().enumerate() {
                        let q = (i + 1) as f64;
                        *value = q
                            - self.alpha * self.delays[u][i]
                            - self.beta * tracker.expected_penalty(q, 1.0);
                    }
                }
                let solution = exact_slot_optimum(&problem)?;
                for (u, q) in solution.assignment.iter().enumerate() {
                    trackers[u].push(q.value());
                }
                plan.push(solution.assignment.iter().map(|q| q.index()).collect());
            }
            Ok(self.horizon_qoe(&plan))
        }
    }

    impl HorizonInstance {
        /// Exact horizon optimum for a **single user** by dynamic programming —
        /// the approach the paper notes for the offline problem ("can be
        /// obtained via the dynamic programming approach").
        ///
        /// With deterministic prediction the horizon QoE decomposes as
        /// `Σ q_t − α Σ d_t − β (Σ q_t² − (Σ q_t)²/T)`: every term is additive
        /// except `(Σ q_t)²/T`, so the accumulated quality sum is a sufficient
        /// DP state. States are integers in `[t, L·t]`, giving `O(T²·L²)` time.
        ///
        /// # Errors
        ///
        /// Returns [`AllocError::TooLarge`] unless the instance has exactly one
        /// user (multi-user joint state grows exponentially; use
        /// [`HorizonInstance::exhaustive_optimum`] for tiny multi-user cases).
        fn single_user_dp(&self, horizon: usize) -> Result<f64, AllocError> {
            if self.rates.len() != 1 {
                return Err(AllocError::TooLarge {
                    users: self.rates.len(),
                    max_users: 1,
                });
            }
            let levels = self.rates[0].len();
            let max_sum = levels * horizon;
            const NEG: f64 = f64::NEG_INFINITY;

            // value[s] = max over feasible prefixes with quality-sum s of
            // Σ(−α d − β q²) … plus Σq added at the end via s itself.
            let mut value = vec![NEG; max_sum + 1];
            value[0] = 0.0;
            for t in 0..horizon {
                let mut next = vec![NEG; max_sum + 1];
                for (s, &v) in value.iter().enumerate() {
                    if v == NEG {
                        continue;
                    }
                    for q in 1..=levels {
                        let rate = self.rates[0][q - 1];
                        if (q > 1 && rate > self.link_budgets[0]) || rate > self.server_budgets[t] {
                            continue;
                        }
                        let ns = s + q;
                        let gain = -self.alpha * self.delays[0][q - 1] - self.beta * (q * q) as f64;
                        if v + gain > next[ns] {
                            next[ns] = v + gain;
                        }
                    }
                }
                value = next;
            }

            let t = horizon as f64;
            let mut best = NEG;
            for (s, &v) in value.iter().enumerate() {
                if v == NEG {
                    continue;
                }
                let sum = s as f64;
                let total = sum + v + self.beta * sum * sum / t;
                if total > best {
                    best = total;
                }
            }
            if best == NEG {
                return Err(AllocError::NoUsers);
            }
            Ok(best)
        }
    }
}
