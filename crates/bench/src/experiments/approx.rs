//! Adversarial search for Algorithm 1's worst-case approximation ratio.
//!
//! Theorem 1 guarantees ≥ 1/2 of the per-slot optimum **for the paper's
//! problem class**: concave per-user objectives over convex rate
//! functions. Random sampling (see `ablation_greedy`) rarely strays below
//! 0.9, so this harness hunts harder: random restarts followed by
//! hill-climbing perturbations that *minimise* the ratio (gain over
//! baseline, algorithm vs exact optimum), constrained to the theorem's
//! hypothesis class. The classic tight family — one big indivisible
//! upgrade vs many small ones — is scored directly, and a second,
//! *unconstrained* search demonstrates that outside the concave/convex
//! class the guarantee genuinely evaporates (greedy level-by-level
//! upgrades cannot skip over a worthless intermediate level).

use cvr_bench::{FigureArgs, Table};
use cvr_core::engine::SlotEngine;
use cvr_core::offline::exact_slot_optimum;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Per user: (base rate, per-level (Δrate, Δvalue) increments, link).
type RawUser = (f64, Vec<(f64, f64)>, f64);

/// Raw instance the search perturbs: per-user increments, plus a budget.
#[derive(Clone, Debug)]
struct Instance {
    users: Vec<RawUser>,
    budget_slack: f64,
}

impl Instance {
    /// Sorts each user's increments into the theorem's hypothesis class:
    /// value increments non-increasing (concave h) and rate increments
    /// non-decreasing (convex f^R).
    fn make_concave(&mut self) {
        for (_, increments, _) in &mut self.users {
            let mut drs: Vec<f64> = increments.iter().map(|i| i.0).collect();
            let mut dvs: Vec<f64> = increments.iter().map(|i| i.1).collect();
            drs.sort_by(f64::total_cmp);
            dvs.sort_by(|a, b| b.total_cmp(a));
            for (inc, (dr, dv)) in increments.iter_mut().zip(drs.into_iter().zip(dvs)) {
                *inc = (dr, dv);
            }
        }
    }

    /// Stages the instance into `engine`: rates and values are the running
    /// sums of the increments, the budget is the baseline's plus the slack.
    fn stage_into(&self, engine: &mut SlotEngine) {
        let base: f64 = self.users.iter().map(|(r0, _, _)| r0.max(0.01)).sum();
        engine.begin_slot(base + self.budget_slack.max(0.01));
        for (r0, increments, link) in &self.users {
            let user = engine.add_user(increments.len() + 1, link.max(0.02));
            user.rates[0] = r0.max(0.01);
            user.values[0] = 0.0;
            for (l, &(dr, dv)) in increments.iter().enumerate() {
                user.rates[l + 1] = user.rates[l] + dr.max(0.01);
                user.values[l + 1] = user.values[l] + dv.max(0.0);
            }
        }
    }

    fn random(rng: &mut ChaCha8Rng) -> Instance {
        let n = rng.gen_range(2..7);
        let users = (0..n)
            .map(|_| {
                let levels = rng.gen_range(1..4);
                let increments = (0..levels)
                    .map(|_| (rng.gen_range(0.05..4.0), rng.gen_range(0.0..4.0)))
                    .collect();
                (
                    rng.gen_range(0.01..0.5),
                    increments,
                    rng.gen_range(0.5..20.0),
                )
            })
            .collect();
        Instance {
            users,
            budget_slack: rng.gen_range(0.2..8.0),
        }
    }

    fn perturb(&self, rng: &mut ChaCha8Rng) -> Instance {
        let mut next = self.clone();
        for _ in 0..rng.gen_range(1..4) {
            match rng.gen_range(0..4) {
                0 => next.budget_slack *= rng.gen_range(0.8..1.25),
                1 => {
                    let u = rng.gen_range(0..next.users.len());
                    next.users[u].2 *= rng.gen_range(0.8..1.25);
                }
                2 => {
                    let u = rng.gen_range(0..next.users.len());
                    if !next.users[u].1.is_empty() {
                        let l = rng.gen_range(0..next.users[u].1.len());
                        next.users[u].1[l].0 *= rng.gen_range(0.7..1.4);
                    }
                }
                _ => {
                    let u = rng.gen_range(0..next.users.len());
                    if !next.users[u].1.is_empty() {
                        let l = rng.gen_range(0..next.users[u].1.len());
                        next.users[u].1[l].1 *= rng.gen_range(0.7..1.4);
                    }
                }
            }
        }
        next
    }
}

/// Gain ratio of Algorithm 1 vs the exact optimum on the staged slot;
/// `None` for degenerate or near-degenerate instances (a materially
/// positive optimal gain is required, else the ratio is floating-point
/// noise).
fn ratio(problem: &mut SlotEngine) -> Option<f64> {
    let opt = exact_slot_optimum(problem).ok()?;
    let base = problem.objective(&problem.baseline_assignment());
    let opt_gain = opt.value - base;
    if opt_gain < 0.05 {
        return None;
    }
    problem.solve();
    let alg = problem.objective(problem.assignment());
    Some(((alg - base) / opt_gain).clamp(0.0, 2.0))
}

/// Runs one adversarial search; `concave` keeps every candidate inside the
/// theorem's hypothesis class.
fn search(rng: &mut ChaCha8Rng, restarts: usize, climb_steps: usize, concave: bool) -> f64 {
    let mut engine = SlotEngine::new();
    let mut ratio_of = |inst: &Instance| {
        inst.stage_into(&mut engine);
        ratio(&mut engine)
    };
    let mut worst: f64 = 1.0;
    for _ in 0..restarts {
        let mut inst = Instance::random(rng);
        if concave {
            inst.make_concave();
        }
        let mut cur = match ratio_of(&inst) {
            Some(r) => r,
            None => continue,
        };
        for _ in 0..climb_steps {
            let mut cand = inst.perturb(rng);
            if concave {
                cand.make_concave();
            }
            if let Some(r) = ratio_of(&cand) {
                if r < cur {
                    cur = r;
                    inst = cand;
                }
            }
        }
        worst = worst.min(cur);
    }
    worst
}

/// A structured stress family: `k` users with small dense upgrades plus
/// one user with a single huge upgrade — each single greedy pass can be
/// fooled, but the combined algorithm recovers the optimum.
fn tight_family(k: usize, epsilon: f64) -> SlotEngine {
    let kf = k as f64;
    let mut engine = SlotEngine::new();
    // The k + 1 baseline rates, summed one by one as they are staged.
    let base: f64 = (0..=k).map(|_| 1e-3).sum();
    engine.begin_slot(base + kf);
    let rows = (0..k)
        .map(|_| (1.0, 1.0))
        .chain([(kf, kf * (1.0 + epsilon))]);
    for (dr, dv) in rows {
        let user = engine.add_user(2, 10.0 * kf);
        user.rates.copy_from_slice(&[1e-3, 1e-3 + dr]);
        user.values.copy_from_slice(&[0.0, dv]);
    }
    engine
}

/// Runs both searches and scores the structured stress family.
///
/// # Panics
///
/// Panics if any instance inside the theorem's class falls below ½.
pub fn approx_worst_case(args: &FigureArgs) {
    let restarts = args.runs_or(400);
    let climb_steps = 200;
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);

    println!("# Worst-case search: {restarts} restarts × {climb_steps} hill-climb steps\n");

    let worst = search(&mut rng, restarts, climb_steps, true);
    println!("worst ratio, theorem's class (concave h, convex f^R): {worst:.4} (bound: 0.5)");
    assert!(worst >= 0.5 - 1e-9, "Theorem 1 violated!");

    let unconstrained = search(&mut rng, restarts, climb_steps, false);
    println!(
        "worst ratio, unconstrained instances:                 {unconstrained:.4} (no guarantee applies)"
    );
    println!("\nOutside the concave/convex class the greedy must pass through a");
    println!("worthless intermediate level while the optimum jumps over it — the");
    println!("guarantee genuinely needs the paper's structural assumptions.");

    println!("\n# Structured stress family (one big upgrade vs k small ones)\n");
    let mut table = Table::titled(&["k", "epsilon", "ratio"]);
    for &(k, eps) in &[(2usize, 0.5), (4, 0.2), (8, 0.05), (16, 0.01), (18, 0.001)] {
        let r = ratio(&mut tight_family(k, eps)).expect("non-degenerate");
        table.row(vec![k.into(), format!("{eps}").into(), r.into()]);
        assert!(r >= 0.5 - 1e-9);
    }
    println!("\nEvery measured ratio inside the theorem's class stays at or above the");
    println!("proven 1/2 bound. This family defeats each *single* greedy pass, but");
    println!("taking the better of the two recovers the optimum — the mechanism");
    println!("behind the paper's combined design.");
}
