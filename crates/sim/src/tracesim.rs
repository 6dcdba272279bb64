//! The Section IV trace-based simulation: perfect network knowledge,
//! synthetic FCC/LTE throughput traces, real motion prediction over
//! synthetic motion, and the M/M/1 delay of Eq. (13).
//!
//! Every slot the simulator:
//!
//! 1. predicts each user's 6-DoF pose with linear regression and resolves
//!    the tiles (and hence the per-level rate table) for that prediction;
//! 2. builds the per-slot problem (5)–(7) with the *true* `B_n(t)`/`B(t)`
//!    (the paper: "the server has the perfect knowledge of the delay and
//!    throughput");
//! 3. runs the chosen allocator;
//! 4. reveals the actual pose, scores the FoV hit `𝟙_n(t)`, computes the
//!    delay from Eq. (13), and updates the per-user QoE accounting.
//!
//! If an allocator over-subscribes the server budget (PAVQ can transiently)
//! the server link becomes the bottleneck: every user's effective
//! throughput is scaled by `B / Σ rates`, which feeds back into the delay.
//!
//! The loop is the paper's myopic one: the planner runs at `H = 1`, so
//! each user is planned against this slot's true trace sample. Horizon-H
//! prefetch and anticipatory degrade are measured where they act on
//! estimates, in [`crate::system`] and the live server.

use cvr_content::library::ContentLibrary;
use cvr_core::alloc::Allocator;
use cvr_core::delay::{DelayModel, Mm1Delay};
use cvr_core::objective::{h_at_delay, QoeParams};
use cvr_core::offline::fractional_upper_bound;
use cvr_core::qoe::{SystemQoeSummary, UserQoeAccumulator, UserQoeSummary};
use cvr_core::quality::QualityLevel;
use cvr_motion::accuracy::DeltaEstimator;
use cvr_motion::predict::LinearPredictor;
use cvr_motion::synthetic::{MotionConfig, MotionGenerator};
use cvr_net::trace::{ThroughputTrace, TraceGeneratorConfig, TraceProfile};

use crate::allocators::{AllocatorKind, ObjectiveMode};
use crate::pipeline::SlotPlanner;

/// Slot duration in seconds (paper: 15 ms at 66 FPS).
const SLOT_DURATION_S: f64 = 0.015;
/// Floor of the per-user throughput envelope, Mbps (paper: 20–100 Mbps).
const USER_MIN_MBPS: f64 = 20.0;
/// Ceiling of the per-user throughput envelope, Mbps.
const USER_MAX_MBPS: f64 = 100.0;

/// Configuration of one trace-based simulation run.
#[derive(Debug, Clone)]
pub struct TraceSimConfig {
    /// Number of users `N`.
    pub num_users: usize,
    /// Trace duration in seconds (paper: 300).
    pub duration_s: f64,
    /// QoE weights (paper: α = 0.02, β = 0.5).
    pub params: QoeParams,
    /// Server budget per user, Mbps (paper: 36 × N total).
    pub server_budget_per_user_mbps: f64,
    /// Master seed; everything (motion, traces) derives from it, so two
    /// runs with the same seed see identical workloads regardless of the
    /// allocator.
    pub seed: u64,
    /// Whether to also compute the per-slot fractional upper bound
    /// (diagnostic; adds CPU cost).
    pub compute_bound: bool,
    /// Optional explicit per-user throughput traces, replacing the
    /// generated FCC/LTE mixture — for controlled experiments and failure
    /// injection (e.g. a mid-run bandwidth collapse). Must contain exactly
    /// `num_users` traces when set.
    pub trace_override: Option<Vec<ThroughputTrace>>,
    /// Optional explicit per-user pose traces (one `Vec<Pose>` per user),
    /// replacing the synthetic motion — e.g. real datasets loaded via
    /// [`cvr_motion::io::read_pose_csv`]. Traces shorter than the horizon
    /// repeat cyclically; must contain exactly `num_users` traces when set.
    pub motion_override: Option<Vec<Vec<cvr_motion::pose::Pose>>>,
    /// Record per-slot, per-user time series (chosen level, viewed
    /// quality, delay) into the run result — for slot-level analysis and
    /// plotting. Costs memory proportional to `users × slots`.
    pub record_timeseries: bool,
}

impl TraceSimConfig {
    /// The paper's Section IV setup for `num_users` users.
    pub fn paper_default(num_users: usize, seed: u64) -> Self {
        TraceSimConfig {
            num_users,
            duration_s: 300.0,
            params: QoeParams::simulation_default(),
            server_budget_per_user_mbps: 36.0,
            seed,
            compute_bound: false,
            trace_override: None,
            motion_override: None,
            record_timeseries: false,
        }
    }

    /// Number of slots in the horizon.
    pub fn slots(&self) -> usize {
        (self.duration_s / SLOT_DURATION_S).round() as usize
    }
}

pub use crate::metrics::TimeSeries;

/// Result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Which algorithm produced it.
    pub label: &'static str,
    /// Cross-user averages (what the figures plot).
    pub summary: SystemQoeSummary,
    /// Per-user summaries.
    pub users: Vec<UserQoeSummary>,
    /// Mean per-slot fractional upper bound on the objective (0 when not
    /// computed).
    pub mean_fractional_bound: f64,
    /// Per-slot series, present when
    /// [`TraceSimConfig::record_timeseries`] is set.
    pub timeseries: Option<TimeSeries>,
}

/// Runs one trace-based simulation with the given allocator kind.
pub fn run(config: &TraceSimConfig, kind: AllocatorKind) -> RunResult {
    run_with(config, &mut *kind.build(), kind.label(), kind.objective())
}

/// Runs one simulation with an explicit allocator instance (e.g. a tuned
/// PAVQ variant for ablations). `mode` decides whether the objective
/// handed to the allocator contains the rate-dependent delay term; the
/// trace links lose no packets, so [`ObjectiveMode::LossAware`] prices as
/// [`ObjectiveMode::DelayAware`]. QoE accounting always charges the real
/// delay.
pub fn run_with(
    config: &TraceSimConfig,
    allocator: &mut dyn Allocator,
    label: &'static str,
    mode: ObjectiveMode,
) -> RunResult {
    assert!(config.num_users > 0, "need at least one user");
    let n = config.num_users;
    let slots = config.slots();
    let server_budget = config.server_budget_per_user_mbps * n as f64;

    // Per-user state, all seeded from the master seed. Motion comes from
    // the synthetic generator, or from replayed pose traces when supplied.
    enum MotionSource {
        Synthetic(Box<MotionGenerator>),
        Replay {
            trace: Vec<cvr_motion::pose::Pose>,
            cursor: usize,
        },
    }
    impl MotionSource {
        fn step(&mut self) -> cvr_motion::pose::Pose {
            match self {
                MotionSource::Synthetic(g) => g.step(),
                MotionSource::Replay { trace, cursor } => {
                    let pose = trace[*cursor % trace.len()];
                    *cursor += 1;
                    pose
                }
            }
        }
    }
    let mut motion: Vec<MotionSource> = match &config.motion_override {
        Some(traces) => {
            assert_eq!(traces.len(), n, "motion_override must cover every user");
            traces
                .iter()
                .map(|t| {
                    assert!(!t.is_empty(), "motion_override traces must be non-empty");
                    MotionSource::Replay {
                        trace: t.clone(),
                        cursor: 0,
                    }
                })
                .collect()
        }
        None => (0..n)
            .map(|u| {
                MotionSource::Synthetic(Box::new(MotionGenerator::new(
                    MotionConfig {
                        slot_duration_s: SLOT_DURATION_S,
                        ..MotionConfig::paper_default()
                    },
                    config.seed.wrapping_mul(0xA24B_AED4).wrapping_add(u as u64),
                )))
            })
            .collect(),
    };
    let traces: Vec<ThroughputTrace> = match &config.trace_override {
        Some(traces) => {
            assert_eq!(traces.len(), n, "trace_override must cover every user");
            traces.clone()
        }
        None => (0..n)
            .map(|u| {
                let profile = if u % 2 == 0 {
                    TraceProfile::FccLike
                } else {
                    TraceProfile::LteLike
                };
                TraceGeneratorConfig {
                    min_mbps: USER_MIN_MBPS,
                    max_mbps: USER_MAX_MBPS,
                    duration_s: config.duration_s,
                    profile,
                }
                .generate(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(u as u64))
            })
            .collect(),
    };
    let mut predictors: Vec<LinearPredictor> =
        (0..n).map(|_| LinearPredictor::paper_default()).collect();
    let mut deltas: Vec<DeltaEstimator> = (0..n).map(|_| DeltaEstimator::average()).collect();
    let mut accumulators: Vec<UserQoeAccumulator> = (0..n)
        .map(|_| UserQoeAccumulator::new(config.params))
        .collect();

    let mut bound_sum = 0.0;
    let mut timeseries = config
        .record_timeseries
        .then(|| TimeSeries::with_capacity(n, slots));

    // The shared slot planner owns the engine, the data plane and
    // per-user delivery state. The trace simulation has perfect network
    // knowledge and no retransmission suppression: nothing is ever
    // acknowledged, so every ledger stays empty and each user's
    // undelivered sums are exactly the per-level rate table of its
    // request, cached until the predicted pose leaves the current cell or
    // orientation bucket. Horizon 1: the paper's myopic loop.
    let mut planner = SlotPlanner::new(ContentLibrary::paper_default(), 1, 0);
    for u in 0..n {
        planner.join(u);
    }
    let mut actual: Vec<cvr_motion::pose::Pose> = Vec::with_capacity(n);
    let mut predicted: Vec<cvr_motion::pose::Pose> = Vec::with_capacity(n);
    let mut link_budgets: Vec<f64> = Vec::with_capacity(n);
    let mut assignment: Vec<QualityLevel> = Vec::with_capacity(n);

    for slot in 0..slots {
        let now = slot as f64 * SLOT_DURATION_S;

        // Reveal this slot's actual poses, but predict from history first.
        actual.clear();
        actual.extend(motion.iter_mut().map(|g| g.step()));
        predicted.clear();
        predicted.extend(
            predictors
                .iter()
                .enumerate()
                .map(|(u, p)| p.predict(1).unwrap_or(actual[u])),
        );

        // Resolve content and build the slot problem into the engine.
        planner.begin_slot(slot as u64, server_budget);
        link_budgets.clear();
        for u in 0..n {
            let bn = traces[u].at(now);
            link_budgets.push(bn);
            planner.push_user(u, &predicted[u], bn, false);
        }
        // The Section-IV trace model has no control stream, so the staged
        // rate row is the undelivered sums verbatim: zero overhead keeps
        // the kernel's `sums[l] + 0.0` a bitwise copy (the sums are
        // non-negative fold results, never -0.0).
        let params = config.params;
        planner.stage(0.0, |u, bn| {
            let delay_model = Mm1Delay::new(bn).expect("trace throughput is positive");
            let delta = deltas[u].estimate();
            let tracker = *accumulators[u].tracker();
            move |l, rate| {
                let level = QualityLevel::new((l + 1) as u8);
                let delay = match mode {
                    ObjectiveMode::DelayBlind => 0.0,
                    ObjectiveMode::DelayAware | ObjectiveMode::LossAware => delay_model.delay(rate),
                };
                h_at_delay(params, delta, &tracker, level, delay)
            }
        });

        if config.compute_bound {
            bound_sum +=
                fractional_upper_bound(planner.engine()).expect("constructed problem is valid");
        }

        assignment.clear();
        assignment.extend_from_slice(allocator.allocate(planner.engine_mut()));
        let engine = planner.engine();

        // Consequences: server-bottleneck sharing, Eq. (13) delay, FoV hit.
        let total_rate: f64 = (0..n).map(|u| engine.rates(u)[assignment[u].index()]).sum();
        let over = if total_rate > server_budget {
            server_budget / total_rate
        } else {
            1.0
        };
        for u in 0..n {
            let rate = engine.rates(u)[assignment[u].index()];
            let effective_link = link_budgets[u] * over;
            let delay = Mm1Delay::new(effective_link)
                .expect("positive link")
                .delay(rate);
            let hit = planner.library().fov().covers(&predicted[u], &actual[u]);
            accumulators[u].record(assignment[u], hit, delay);
            deltas[u].record(hit);
            predictors[u].observe(&actual[u]);
            if let Some(ts) = &mut timeseries {
                ts.chosen_level[u].push(assignment[u].get());
                ts.viewed_quality[u].push(if hit {
                    assignment[u].value() as f32
                } else {
                    0.0
                });
                ts.delay_slots[u].push(delay as f32);
            }
        }
    }

    let users: Vec<UserQoeSummary> = accumulators.iter().map(|a| a.summary()).collect();
    RunResult {
        label,
        summary: SystemQoeSummary::from_users(&users),
        users,
        mean_fractional_bound: if config.compute_bound {
            bound_sum / slots as f64
        } else {
            0.0
        },
        timeseries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64) -> TraceSimConfig {
        TraceSimConfig {
            duration_s: 15.0, // 1000 slots
            ..TraceSimConfig::paper_default(3, seed)
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let cfg = small_config(11);
        let a = run(&cfg, AllocatorKind::DensityValueGreedy);
        let b = run(&cfg, AllocatorKind::DensityValueGreedy);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&small_config(1), AllocatorKind::DensityValueGreedy);
        let b = run(&small_config(2), AllocatorKind::DensityValueGreedy);
        assert_ne!(a.summary, b.summary);
    }

    #[test]
    fn prediction_hit_rate_is_realistic() {
        let r = run(&small_config(5), AllocatorKind::DensityValueGreedy);
        assert!(
            r.summary.avg_hit_rate > 0.7 && r.summary.avg_hit_rate <= 1.0,
            "hit rate {} outside the realistic band",
            r.summary.avg_hit_rate
        );
    }

    #[test]
    fn ours_beats_baselines_on_average_qoe() {
        let mut ours = 0.0;
        let mut firefly = 0.0;
        let mut pavq = 0.0;
        for seed in 0..5 {
            let cfg = small_config(100 + seed);
            ours += run(&cfg, AllocatorKind::DensityValueGreedy).summary.avg_qoe;
            firefly += run(&cfg, AllocatorKind::Firefly).summary.avg_qoe;
            pavq += run(&cfg, AllocatorKind::Pavq).summary.avg_qoe;
        }
        assert!(ours > firefly, "ours {ours} should beat firefly {firefly}");
        assert!(
            ours > pavq - 0.15 * pavq.abs(),
            "ours {ours} far below pavq {pavq}"
        );
    }

    #[test]
    fn ours_tracks_optimal_closely() {
        let cfg = small_config(42);
        let ours = run(&cfg, AllocatorKind::DensityValueGreedy).summary.avg_qoe;
        let optimal = run(&cfg, AllocatorKind::Optimal).summary.avg_qoe;
        assert!(optimal >= ours - 1e-9 || (optimal - ours).abs() < 0.05 * optimal.abs());
        assert!(
            ours >= 0.9 * optimal,
            "ours {ours} should be within 10% of optimal {optimal}"
        );
    }

    #[test]
    fn fractional_bound_dominates_achieved_objective() {
        let mut cfg = small_config(7);
        cfg.compute_bound = true;
        let r = run(&cfg, AllocatorKind::Optimal);
        assert!(r.mean_fractional_bound > 0.0);
        // The bound is on the per-slot surrogate objective, which upper
        // bounds what any allocation can collect per slot in expectation.
        assert!(r.mean_fractional_bound >= r.summary.avg_qoe - 1e-6);
    }

    #[test]
    fn slot_count_matches_duration() {
        let cfg = TraceSimConfig::paper_default(5, 0);
        assert_eq!(cfg.slots(), 20_000);
        assert_eq!(small_config(0).slots(), 1000);
    }

    #[test]
    fn timeseries_recording_is_consistent_with_summaries() {
        let mut cfg = small_config(13);
        cfg.record_timeseries = true;
        let r = run(&cfg, AllocatorKind::DensityValueGreedy);
        let ts = r.timeseries.as_ref().expect("requested");
        assert_eq!(ts.chosen_level.len(), cfg.num_users);
        for u in 0..cfg.num_users {
            assert_eq!(ts.chosen_level[u].len(), cfg.slots());
            // Per-slot series must average to the summary numbers.
            let mean_viewed: f64 =
                ts.viewed_quality[u].iter().map(|&v| v as f64).sum::<f64>() / cfg.slots() as f64;
            assert!((mean_viewed - r.users[u].avg_viewed_quality).abs() < 1e-4);
            let mean_delay: f64 =
                ts.delay_slots[u].iter().map(|&v| v as f64).sum::<f64>() / cfg.slots() as f64;
            assert!((mean_delay - r.users[u].avg_delay).abs() < 1e-3);
        }
    }

    #[test]
    fn timeseries_absent_by_default() {
        let r = run(&small_config(13), AllocatorKind::DensityValueGreedy);
        assert!(r.timeseries.is_none());
    }

    #[test]
    fn motion_replay_drives_the_simulation() {
        use cvr_motion::synthetic::{MotionConfig, MotionGenerator};
        // Replaying the exact trace the synthetic source would produce
        // must give identical results.
        let base = small_config(31);
        let synthetic = run(&base, AllocatorKind::DensityValueGreedy);

        let traces: Vec<Vec<cvr_motion::pose::Pose>> = (0..base.num_users)
            .map(|u| {
                MotionGenerator::new(
                    MotionConfig {
                        slot_duration_s: SLOT_DURATION_S,
                        ..MotionConfig::paper_default()
                    },
                    base.seed.wrapping_mul(0xA24B_AED4).wrapping_add(u as u64),
                )
                .take_trace(base.slots())
            })
            .collect();
        let replayed_cfg = TraceSimConfig {
            motion_override: Some(traces),
            ..base
        };
        let replayed = run(&replayed_cfg, AllocatorKind::DensityValueGreedy);
        assert_eq!(synthetic, replayed);
    }

    #[test]
    fn short_motion_traces_repeat_cyclically() {
        // A 10-pose trace across a 1000-slot run: must not panic, and the
        // stationary pose makes prediction trivial.
        let mut cfg = small_config(7);
        let pose = cvr_motion::pose::Pose::default();
        cfg.motion_override = Some(vec![vec![pose; 10]; cfg.num_users]);
        let r = run(&cfg, AllocatorKind::DensityValueGreedy);
        assert!(r.summary.avg_hit_rate > 0.99);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_panics() {
        let cfg = TraceSimConfig::paper_default(0, 0);
        let _ = run(&cfg, AllocatorKind::DensityValueGreedy);
    }
}
