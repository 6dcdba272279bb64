//! Quickstart: build one slot's allocation problem by hand, run the
//! paper's Algorithm 1, and verify the Theorem 1 guarantee against the
//! exact optimum and the fractional bound.
//!
//! Run: `cargo run --release --example quickstart`

use collaborative_vr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // QoE weights: α (delay), β (variance). Section IV values.
    let params = QoeParams::simulation_default();

    // The paper's six-level rate profile (Fig. 1a operating point):
    // level 4 = 36 Mbps, convex growth.
    let rate_fn = TabulatedRate::paper_profile();

    // Three users with heterogeneous links sharing a 36·N Mbps server.
    let links = [40.0, 55.0, 75.0];
    let server_budget = 36.0 * links.len() as f64;

    // Fresh session: no viewing history yet.
    let tracker = VarianceTracker::new();

    // Stage the slot problem: per level, the rate f^R(q) and the
    // objective h_n(q) of Eq. (9).
    let mut problem = SlotEngine::new();
    problem.begin_slot(server_budget);
    for &link in &links {
        let delay = Mm1Delay::new(link)?; // Eq. (13): d = r / (B − r)
        let delta = 0.95; // motion-prediction success probability
        let user = problem.add_user(rate_fn.as_slice().len(), link);
        user.rates.copy_from_slice(rate_fn.as_slice());
        for (l, value) in user.values.iter_mut().enumerate() {
            let q = QualityLevel::new(l as u8 + 1);
            *value = h_at_delay(params, delta, &tracker, q, delay.delay(rate_fn.rate(q)));
        }
    }

    // Algorithm 1: density/value-greedy.
    let mut algorithm = DensityValueGreedy::new();
    let assignment = algorithm.allocate(&mut problem).to_vec();
    let achieved = problem.objective(&assignment);

    // Certificates.
    let exact = exact_slot_optimum(&problem)?;
    let bound = fractional_upper_bound(&problem)?;

    println!("per-user links (Mbps): {links:?}");
    println!("server budget (Mbps):  {server_budget}");
    println!();
    for (i, q) in assignment.iter().enumerate() {
        println!(
            "user {i}: quality level {} ({} Mbps)",
            q.get(),
            rate_fn.rate(*q)
        );
    }
    println!();
    println!("objective achieved by Algorithm 1: {achieved:.4}");
    println!("exact per-slot optimum:            {:.4}", exact.value);
    println!("fractional upper bound:            {bound:.4}");
    println!(
        "ratio to optimum: {:.4} (Theorem 1 guarantees ≥ 0.5)",
        achieved / exact.value
    );

    assert!(problem.is_feasible(&assignment));
    assert!(achieved >= 0.5 * exact.value - 1e-9);
    Ok(())
}
