//! Property-based tests for the core invariants:
//!
//! * Algorithm 1 always returns a feasible assignment and dominates both
//!   pure greedy passes.
//! * Theorem 1: Algorithm 1 achieves at least half the exact optimum (and
//!   of the fractional bound) on random concave instances.
//! * The Welford tracker matches the two-pass variance and the Eq. (4)
//!   identity on arbitrary streams.

use cvr_core::engine::SlotEngine;
use cvr_core::offline::{exact_slot_optimum, exhaustive_slot_optimum, fractional_upper_bound};
use cvr_core::stage::{accumulate_group_values, stage_rates_values, stage_rates_values_with};
use cvr_core::variance::{population_variance, VarianceTracker};
use proptest::prelude::*;

/// Staging-kernel operand strategy: ordinary magnitudes plus the awkward
/// bit patterns (±0.0, denormals) where `a + b` bit-identity could slip.
fn staging_f64() -> impl Strategy<Value = f64> {
    // Selector values >= 5 mean "ordinary magnitude" (the shim has no
    // weighted-union strategy, so a byte picks the case).
    (0u8..10, -1.0e3f64..1.0e3).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => 4.9e-324,  // smallest positive denormal
        3 => -4.9e-324, // smallest negative denormal
        4 => 1.0e-310,  // mid-range denormal
        _ => x,
    })
}

/// One user's row: per-level rates, per-level values, link budget.
type Row = (Vec<f64>, Vec<f64>, f64);

/// A generated slot instance, staged into a [`SlotEngine`] on demand.
#[derive(Debug, Clone)]
struct Instance {
    users: Vec<Row>,
    budget: f64,
}

impl Instance {
    /// Raises `budget` until the all-ones baseline fits, so instances are
    /// non-degenerate.
    fn fitting(users: Vec<Row>, budget: f64) -> Self {
        let base: f64 = users.iter().map(|u| u.0[0]).sum();
        Instance {
            users,
            budget: budget.max(base + 0.1),
        }
    }

    fn stage_into(&self, engine: &mut SlotEngine) {
        engine.begin_slot(self.budget);
        for (rates, values, link) in &self.users {
            let tables = engine.add_user(rates.len(), *link);
            tables.rates.copy_from_slice(rates);
            tables.values.copy_from_slice(values);
        }
    }

    fn engine(&self) -> SlotEngine {
        let mut engine = SlotEngine::new();
        self.stage_into(&mut engine);
        engine
    }
}

/// Strategy: one user with concave values over convex-ish increasing rates.
fn concave_user() -> impl Strategy<Value = Row> {
    (
        2usize..=6,                            // number of levels
        0.5f64..3.0,                           // base rate
        prop::collection::vec(0.2f64..4.0, 5), // rate increments
        0.0f64..2.0,                           // base value
        0.1f64..2.0,                           // first marginal value
        0.3f64..0.95,                          // marginal decay (concavity)
        1.0f64..200.0,                         // link budget
    )
        .prop_map(|(levels, r0, dr, v0, dv0, decay, link)| {
            let mut rates = vec![r0];
            let mut values = vec![v0];
            let mut dv = dv0;
            for i in 1..levels {
                rates.push(rates[i - 1] + dr[i - 1].max(0.2));
                values.push(values[i - 1] + dv);
                dv *= decay;
            }
            (rates, values, link)
        })
}

fn concave_problem(max_users: usize) -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec(concave_user(), 1..=max_users),
        2.0f64..60.0,
    )
        .prop_map(|(users, budget)| Instance::fitting(users, budget))
}

/// Like [`concave_problem`], but with at most 5 levels per user and the
/// level-1 value pinned to zero, so the objective *is* the knapsack gain
/// Theorem 1 bounds (no baseline subtraction needed).
fn small_nonneg_problem() -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec(
            (
                2usize..=5,                            // number of levels
                0.5f64..3.0,                           // base rate
                prop::collection::vec(0.2f64..4.0, 4), // rate increments
                0.1f64..2.0,                           // first marginal value
                0.3f64..0.95,                          // marginal decay
                1.0f64..200.0,                         // link budget
            ),
            1..=6,
        ),
        2.0f64..60.0,
    )
        .prop_map(|(raw, budget)| {
            let users = raw
                .into_iter()
                .map(|(levels, r0, dr, dv0, decay, link)| {
                    let mut rates = vec![r0];
                    let mut values = vec![0.0];
                    let mut dv = dv0;
                    for i in 1..levels {
                        rates.push(rates[i - 1] + dr[i - 1].max(0.2));
                        values.push(values[i - 1] + dv);
                        dv *= decay;
                    }
                    (rates, values, link)
                })
                .collect();
            Instance::fitting(users, budget)
        })
}

/// Arbitrary (not necessarily concave) instances for feasibility checks.
fn arbitrary_problem() -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec(
            (
                prop::collection::vec(0.2f64..3.0, 1..=6),
                prop::collection::vec(-2.0f64..4.0, 6),
                0.5f64..50.0,
            ),
            1..=8,
        ),
        1.0f64..40.0,
    )
        .prop_map(|(raw, budget)| {
            let users = raw
                .into_iter()
                .map(|(drs, vals, link)| {
                    let mut rates = Vec::with_capacity(drs.len());
                    let mut acc = 0.0;
                    for d in &drs {
                        acc += d;
                        rates.push(acc);
                    }
                    let values = vals[..rates.len()].to_vec();
                    (rates, values, link)
                })
                .collect();
            Instance::fitting(users, budget)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn algorithm1_is_feasible(instance in arbitrary_problem()) {
        let mut problem = instance.engine();
        let a = problem.solve().to_vec();
        prop_assert!(problem.is_feasible(&a));
    }

    #[test]
    fn pure_passes_are_feasible(instance in arbitrary_problem()) {
        let mut problem = instance.engine();
        let d = problem.solve_density().to_vec();
        let v = problem.solve_value().to_vec();
        prop_assert!(problem.is_feasible(&d));
        prop_assert!(problem.is_feasible(&v));
    }

    #[test]
    fn algorithm1_dominates_both_passes(instance in arbitrary_problem()) {
        let mut problem = instance.engine();
        let best = problem.solve().to_vec();
        let d = problem.solve_density().to_vec();
        let v = problem.solve_value().to_vec();
        let best = problem.objective(&best);
        prop_assert!(best >= problem.objective(&d) - 1e-9);
        prop_assert!(best >= problem.objective(&v) - 1e-9);
    }

    #[test]
    fn theorem1_half_of_exact_optimum(instance in concave_problem(6)) {
        let mut problem = instance.engine();
        let greedy = problem.solve().to_vec();
        let alg = problem.objective(&greedy);
        let opt = exact_slot_optimum(&problem).unwrap().value;
        // Values can be negative in general; Theorem 1 is stated for the
        // knapsack's nonnegative gains, so compare against the gain above
        // the baseline.
        let base = problem.objective(&problem.baseline_assignment());
        let alg_gain = alg - base;
        let opt_gain = opt - base;
        prop_assert!(opt_gain >= -1e-9);
        prop_assert!(
            alg_gain >= 0.5 * opt_gain - 1e-9,
            "alg gain {} below half of optimal gain {}",
            alg_gain,
            opt_gain
        );
    }

    #[test]
    fn fractional_bound_dominates_exact(instance in concave_problem(6)) {
        let problem = instance.engine();
        let opt = exact_slot_optimum(&problem).unwrap().value;
        let bound = fractional_upper_bound(&problem).unwrap();
        prop_assert!(bound >= opt - 1e-9, "bound {} < opt {}", bound, opt);
    }

    #[test]
    fn branch_and_bound_matches_exhaustive(instance in concave_problem(4)) {
        let problem = instance.engine();
        let bb = exact_slot_optimum(&problem).unwrap();
        let ex = exhaustive_slot_optimum(&problem).unwrap();
        prop_assert!((bb.value - ex.value).abs() < 1e-9);
        prop_assert!(problem.is_feasible(&bb.assignment));
    }

    #[test]
    fn theorem1_best_value_half_of_oracle(instance in small_nonneg_problem()) {
        // Theorem 1 stated directly on max(V_d, V_v): with level-1 values
        // pinned at zero the objective equals the knapsack gain, so no
        // baseline correction is needed.
        let mut problem = instance.engine();
        problem.solve();
        let best = problem.density_value().max(problem.value_value());
        let bb = exact_slot_optimum(&problem).unwrap();
        prop_assert!(
            best >= 0.5 * bb.value - 1e-9,
            "best {} below half of exact optimum {}",
            best,
            bb.value
        );
    }

    #[test]
    fn reused_engine_matches_a_fresh_one(
        first in arbitrary_problem(),
        second in arbitrary_problem(),
    ) {
        // An engine reused for a slot of a different shape — how every slot
        // loop drives it — must solve exactly as a freshly built one.
        let mut engine = SlotEngine::new();
        for instance in [&first, &second, &first] {
            instance.stage_into(&mut engine);
            let reused = engine.solve().to_vec();
            let mut fresh = instance.engine();
            prop_assert_eq!(reused.as_slice(), fresh.solve());
            prop_assert_eq!(engine.density_value().to_bits(), fresh.density_value().to_bits());
            prop_assert_eq!(engine.value_value().to_bits(), fresh.value_value().to_bits());
        }
    }

    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(0.0f64..8.0, 1..200)) {
        let mut tracker = VarianceTracker::new();
        for &x in &xs {
            tracker.push(x);
        }
        let direct = population_variance(&xs);
        prop_assert!((tracker.variance() - direct).abs() < 1e-9);
    }

    #[test]
    fn eq4_identity(xs in prop::collection::vec(0.0f64..8.0, 1..200)) {
        let mut tracker = VarianceTracker::new();
        let sum: f64 = xs.iter().map(|&x| tracker.push(x)).sum();
        let t_sigma2 = xs.len() as f64 * population_variance(&xs);
        prop_assert!((sum - t_sigma2).abs() < 1e-8);
    }

    #[test]
    fn expected_penalty_interpolates_hit_miss(
        xs in prop::collection::vec(0.0f64..8.0, 1..50),
        q in 1.0f64..6.0,
        delta in 0.0f64..1.0,
    ) {
        let mut tracker = VarianceTracker::new();
        for &x in &xs {
            tracker.push(x);
        }
        let hit = tracker.peek_penalty(q);
        let miss = tracker.peek_penalty(0.0);
        let expected = tracker.expected_penalty(q, delta);
        let lo = hit.min(miss) - 1e-12;
        let hi = hit.max(miss) + 1e-12;
        prop_assert!(expected >= lo && expected <= hi);
    }

    // The fused staging kernels must be *bitwise* equal to their scalar
    // reference loops at every length — including tails that are not a
    // multiple of the 4-wide lane — and for denormal and ±0.0 operands.
    #[test]
    fn stage_rates_values_copies_weights_and_adds_overhead_bitwise(
        rows in prop::collection::vec((staging_f64(), staging_f64()), 0..23),
        overhead in staging_f64(),
    ) {
        let sums: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let weights: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let mut rates = vec![f64::NAN; sums.len()];
        let mut values = vec![f64::NAN; sums.len()];
        stage_rates_values(&sums, overhead, &weights, &mut rates, &mut values);
        for l in 0..sums.len() {
            prop_assert_eq!((sums[l] + overhead).to_bits(), rates[l].to_bits());
            prop_assert_eq!(weights[l].to_bits(), values[l].to_bits());
        }
    }

    #[test]
    fn stage_rates_values_with_hands_raw_rate_to_the_closure(
        sums in prop::collection::vec(staging_f64(), 0..23),
        overhead in staging_f64(),
        scale in staging_f64(),
    ) {
        let mut rates = vec![f64::NAN; sums.len()];
        let mut values = vec![f64::NAN; sums.len()];
        stage_rates_values_with(&sums, overhead, &mut rates, &mut values, |l, raw| {
            scale * (l + 1) as f64 + raw
        });
        for l in 0..sums.len() {
            let raw = sums[l] + overhead;
            prop_assert_eq!(raw.to_bits(), rates[l].to_bits());
            prop_assert_eq!((scale * (l + 1) as f64 + raw).to_bits(), values[l].to_bits());
        }
    }

    #[test]
    fn accumulate_group_values_matches_clamped_scalar_fold(
        member in prop::collection::vec(staging_f64(), 1..23),
        seed in prop::collection::vec(staging_f64(), 1..23),
        cap_raw in 0usize..23,
    ) {
        let levels = member.len().min(seed.len());
        let member = &member[..levels];
        let seed = &seed[..levels];
        let cap = cap_raw % levels;
        let mut fused = seed.to_vec();
        accumulate_group_values(member, cap, &mut fused);
        for l in 0..levels {
            let expect = seed[l] + member[l.min(cap)];
            prop_assert_eq!(expect.to_bits(), fused[l].to_bits(), "level {} drifted", l);
        }
    }
}
