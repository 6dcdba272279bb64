//! Integration-level validation of Theorem 1 on paper-realistic problem
//! instances: slot problems built from the *actual* content/motion/network
//! substrates rather than synthetic tables, and the rows the slot planner
//! itself stages.

use collaborative_vr::core::offline::{exact_slot_optimum, fractional_upper_bound};
use collaborative_vr::prelude::*;
use collaborative_vr::sim::pipeline::SlotPlanner;
use cvr_content::id::VideoId;

/// Stages one slot of `users` users into `problem`, each with its real
/// request's rate table and Eq. (9) values at the M/M/1 delay.
fn stage_realistic(problem: &mut SlotEngine, seed: u64, users: usize) {
    let library = ContentLibrary::paper_default();
    let params = QoeParams::simulation_default();
    problem.begin_slot(36.0 * users as f64);
    for u in 0..users {
        let mut generator = MotionGenerator::new(
            MotionConfig::paper_default(),
            seed.wrapping_mul(31).wrapping_add(u as u64),
        );
        let mut tracker = VarianceTracker::new();
        for i in 0..40 {
            tracker.push(f64::from(1 + ((i + u) % 4) as u8));
        }
        let pose = generator.take_trace(50).pop().expect("nonempty");
        let request = library.request_for(&pose);
        let trace = TraceGeneratorConfig::paper_default(if u % 2 == 0 {
            TraceProfile::FccLike
        } else {
            TraceProfile::LteLike
        })
        .generate(seed ^ u as u64);
        let link = trace.at(10.0);
        let delay = Mm1Delay::new(link).expect("positive");
        let rates = request.rate_table.as_slice();
        let user = problem.add_user(rates.len(), link);
        user.rates.copy_from_slice(rates);
        for (l, value) in user.values.iter_mut().enumerate() {
            let q = QualityLevel::new(l as u8 + 1);
            *value = h_at_delay(params, 0.93, &tracker, q, delay.delay(rates[l]));
        }
    }
}

/// Algorithm 1's objective on the staged slot.
fn greedy_objective(problem: &mut SlotEngine) -> f64 {
    problem.solve();
    problem.objective(problem.assignment())
}

#[test]
fn theorem1_on_realistic_instances() {
    let mut problem = SlotEngine::new();
    for seed in 0..30u64 {
        stage_realistic(&mut problem, seed, 5);
        let achieved = greedy_objective(&mut problem);
        assert!(problem.is_feasible(problem.assignment()));
        let opt = exact_slot_optimum(&problem).expect("small instance").value;
        let base = problem.objective(&problem.baseline_assignment());
        assert!(
            achieved - base >= 0.5 * (opt - base) - 1e-9,
            "seed {seed}: achieved gain {} < half of optimal gain {}",
            achieved - base,
            opt - base
        );
    }
}

#[test]
fn fractional_bound_certifies_realistic_instances() {
    let mut problem = SlotEngine::new();
    for seed in 0..30u64 {
        stage_realistic(&mut problem, seed, 8);
        let opt = exact_slot_optimum(&problem).expect("small instance").value;
        let bound = fractional_upper_bound(&problem).expect("valid instance");
        assert!(
            bound >= opt - 1e-9,
            "seed {seed}: bound {bound} < opt {opt}"
        );
    }
}

#[test]
fn greedy_is_near_optimal_on_realistic_instances() {
    // The paper observes near-optimality in practice, far above the 1/2
    // worst case. Check the average ratio over realistic instances.
    let mut ratios = Vec::new();
    let mut problem = SlotEngine::new();
    for seed in 100..160u64 {
        stage_realistic(&mut problem, seed, 5);
        let achieved = greedy_objective(&mut problem);
        let opt = exact_slot_optimum(&problem).expect("small instance").value;
        let base = problem.objective(&problem.baseline_assignment());
        if opt - base > 1e-9 {
            ratios.push((achieved - base) / (opt - base));
        }
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(mean > 0.95, "mean ratio {mean} unexpectedly low");
}

const USERS: usize = 12;
const CLUSTERS: usize = 3;

/// User `u`'s gaze at `slot`: clustered around one of [`CLUSTERS`] shared
/// targets (mid-bucket, so co-gazing users share an orientation bucket)
/// with smooth jitter, plus a periodic two-slot glance at the next
/// cluster's target that pulls the user out of its group.
fn gaze(u: usize, slot: u64) -> Pose {
    let t = slot as f64;
    let mut yaw = (u % CLUSTERS) as f64 * 30.0 + 3.75 + 2.0 * (0.11 * t).sin();
    let pitch = 3.75 + 2.0 * (0.07 * t + u as f64 * 0.01).cos();
    if (slot + 37 * u as u64) % 150 < 2 {
        yaw += 30.0;
    }
    Pose::new(
        Vec3::new(0.51, 1.7, 0.52),
        Orientation::new(yaw, pitch, 0.0),
    )
}

/// User `u`'s link budget `B_n` at `slot`, Mbps: a per-user level that
/// spreads the members of each cluster across the rate ladder, with a
/// slow swing.
fn link(u: usize, slot: u64) -> f64 {
    10.0 + 3.0 * u as f64 + 4.0 * (0.03 * slot as f64 + u as f64).sin()
}

/// Theorem 1 on the rows the planner actually stages: groupable users in
/// co-gazing clusters share rows whose value is the clamped member sum at
/// unequal caps, ACKs and releases churn the ledgers, and the values are
/// Eq. (9) at the M/M/1 delay. Every slot's staged engine goes to the
/// oracles as is.
#[test]
fn theorem1_on_the_rows_the_planner_stages() {
    let params = QoeParams::simulation_default();
    let mut planner = SlotPlanner::new(ContentLibrary::paper_default(), 1, 8);
    for u in 0..USERS {
        planner.join(u);
    }
    let mut trackers = vec![VarianceTracker::new(); USERS];
    let mut held: Vec<Vec<VideoId>> = vec![Vec::new(); USERS];
    let mut manifest = Vec::new();
    let (mut worst, mut ratio_sum, mut ratios) = (f64::INFINITY, 0.0, 0u32);
    let (mut shared_slots, mut unequal_cap_rows) = (0u32, 0u32);
    let slots = 1_200u64;
    for slot in 0..slots {
        planner.begin_slot(slot, 8.0 * USERS as f64);
        for u in 0..USERS {
            // Users are pushed in index order, so plan index = user.
            planner.push_user(u, &gaze(u, slot), link(u, slot), true);
        }
        planner.stage(CONTROL_OVERHEAD_MBPS, |u, bn| {
            let delay = Mm1Delay::new(bn).expect("positive link");
            let tracker = trackers[u];
            move |l, rate| {
                let q = QualityLevel::new(l as u8 + 1);
                h_at_delay(params, 0.9, &tracker, q, delay.delay(rate))
            }
        });

        let engine = planner.engine();
        let optimum = exact_slot_optimum(engine).expect("at most one row per user");
        let bound = fractional_upper_bound(engine).expect("staged rows are valid");
        assert!(
            bound >= optimum.value - 1e-9,
            "slot {slot}: bound {bound} < optimum {}",
            optimum.value
        );
        let base = engine.objective(&engine.baseline_assignment());
        let achieved = greedy_objective(planner.engine_mut());
        let (gain, opt_gain) = (achieved - base, optimum.value - base);
        assert!(
            gain >= 0.5 * opt_gain - 1e-9,
            "slot {slot}: greedy gain {gain} below half of the optimal gain {opt_gain}"
        );
        if opt_gain > 1e-9 {
            let ratio = gain / opt_gain;
            worst = worst.min(ratio);
            ratio_sum += ratio;
            ratios += 1;
        }

        // Deliver: every member of a row receives the row's frame and
        // ACKs it, except on slots where the row's frame is lost; every
        // 40 slots a cluster's clients drop what they hold.
        let mut shared = false;
        for r in 0..planner.rows() {
            let row = planner.row(r);
            if row.members.len() >= 2 {
                shared = true;
                if row.caps.iter().any(|&c| c != row.caps[0]) {
                    unequal_cap_rows += 1;
                }
            }
            if (slot + r as u64) % 7 == 3 {
                continue;
            }
            let (members, assigned) = (row.members.to_vec(), row.assigned);
            for (k, &m) in members.iter().enumerate() {
                let cap = planner.row(r).caps[k];
                trackers[m].push(f64::from(assigned.get().min(cap as u8 + 1)));
                planner.manifest_into(m, assigned, &mut manifest);
                planner.acknowledge(m, manifest.iter().copied());
                held[m].extend_from_slice(&manifest);
            }
        }
        shared_slots += u32::from(shared);
        for (u, ids) in held.iter_mut().enumerate() {
            if (slot + (u % CLUSTERS) as u64 * 13) % 40 == 39 {
                planner.release(u, ids.drain(..));
            }
        }
    }
    let mean = ratio_sum / f64::from(ratios);
    println!(
        "planner-staged Theorem 1: {slots} slots, {shared_slots} with a shared row, \
         {unequal_cap_rows} rows with unequal caps, ratio min {worst:.4} mean {mean:.4} over {ratios}"
    );
    assert!(ratios > 0, "no slot had anything to gain");
    assert!(shared_slots > 0, "no multi-member row was staged");
    assert!(unequal_cap_rows > 0, "no shared row carried unequal caps");
}
