//! Failure-injection tests: the system must stay sane — no panics, no NaN,
//! graceful QoE degradation and recovery — under hostile network regimes.

use collaborative_vr::net::ThroughputTrace;
use collaborative_vr::prelude::*;
use collaborative_vr::sim::{system, tracesim};

fn constant_traces(n: usize, mbps: f64, duration: f64) -> Vec<ThroughputTrace> {
    (0..n)
        .map(|_| ThroughputTrace::constant(mbps, duration))
        .collect()
}

#[test]
#[ignore = "slow: 70 s four-user trace run; CI covers it via --include-ignored"]
fn mid_run_bandwidth_collapse_recovers() {
    // 30 s comfortable, 10 s collapse to near-starvation, 30 s recovery.
    let n = 4;
    let collapse: Vec<ThroughputTrace> = (0..n)
        .map(|_| {
            ThroughputTrace::from_segments(vec![
                (30.0, 80.0),
                (10.0, 12.0), // just above the level-1 rate
                (30.0, 80.0),
            ])
        })
        .collect();
    let config = TraceSimConfig {
        duration_s: 70.0,
        trace_override: Some(collapse),
        ..TraceSimConfig::paper_default(n, 1)
    };
    let r = tracesim::run(&config, AllocatorKind::DensityValueGreedy);
    assert!(r.summary.avg_qoe.is_finite());
    // Quality survives on average (two thirds of the run is comfortable).
    assert!(
        r.summary.avg_quality > 2.0,
        "quality {} did not recover",
        r.summary.avg_quality
    );
    for u in &r.users {
        assert!(u.variance.is_finite() && u.avg_delay.is_finite());
    }
}

#[test]
fn starvation_pins_to_lowest_level_without_panic() {
    // Barely more than the level-1 rate for everyone, for the entire run.
    let n = 3;
    let config = TraceSimConfig {
        duration_s: 20.0,
        trace_override: Some(constant_traces(n, 13.0, 20.0)),
        ..TraceSimConfig::paper_default(n, 2)
    };
    for kind in [
        AllocatorKind::DensityValueGreedy,
        AllocatorKind::Pavq,
        AllocatorKind::Firefly,
        AllocatorKind::Optimal,
    ] {
        let r = tracesim::run(&config, kind);
        let chosen = mean_chosen(&r.users);
        assert!(
            chosen <= 2.2,
            "{}: chose {chosen} under starvation",
            kind.label()
        );
        assert!(r.summary.avg_qoe.is_finite());
    }
}

#[test]
fn a_zero_throughput_window_in_a_replayed_trace_does_not_panic() {
    // A recorded trace with a half-second handover outage at 0 Mbps,
    // loaded as a replayed trace is.
    let csv = "duration_s,mbps\n2.0,60\n0.5,0\n2.5,60\n";
    let trace = ThroughputTrace::from_csv(csv.as_bytes()).expect("a valid trace");
    let n = 2;
    let config = TraceSimConfig {
        duration_s: 5.0,
        trace_override: Some(vec![trace; n]),
        record_timeseries: true,
        ..TraceSimConfig::paper_default(n, 3)
    };
    for kind in [
        AllocatorKind::DensityValueGreedy,
        AllocatorKind::Pavq,
        AllocatorKind::Firefly,
    ] {
        let r = tracesim::run(&config, kind);
        assert!(r.summary.avg_qoe.is_finite(), "{kind:?}");
        let ts = r.timeseries.expect("recorded");
        for u in 0..n {
            assert!(r.users[u].avg_delay.is_finite(), "{kind:?}");
            // Well inside the outage (slots 134–166) only level 1 is sent.
            assert!(
                ts.chosen_level[u][140..160].iter().all(|&l| l == 1),
                "{kind:?} user {u} sent above level 1 over a dead link"
            );
        }
    }
}

#[test]
fn abundant_bandwidth_saturates_quality() {
    let n = 3;
    let config = TraceSimConfig {
        duration_s: 20.0,
        server_budget_per_user_mbps: 200.0,
        trace_override: Some(constant_traces(n, 500.0, 20.0)),
        ..TraceSimConfig::paper_default(n, 3)
    };
    let r = tracesim::run(&config, AllocatorKind::DensityValueGreedy);
    assert!(
        r.summary.avg_quality > 4.5,
        "quality {} should approach the top level when bandwidth is free",
        r.summary.avg_quality
    );
}

#[test]
fn extreme_packet_loss_degrades_but_never_crashes() {
    let config = SystemConfig {
        num_users: 3,
        duration_s: 8.0,
        packet_loss_probability: 0.05, // brutal: most transfers die
        ..SystemConfig::setup1(4)
    };
    for kind in [
        AllocatorKind::DensityValueGreedy,
        AllocatorKind::LossAwareGreedy,
    ] {
        let r = system::run(&config, kind);
        assert!(
            r.loss_rate > 0.3,
            "{}: loss {} too low",
            kind.label(),
            r.loss_rate
        );
        assert!(r.summary.avg_qoe.is_finite());
        assert!(r.fps >= 0.0 && r.fps <= 60.0);
    }
}

#[test]
fn single_user_degenerate_system() {
    let config = SystemConfig {
        num_users: 1,
        duration_s: 5.0,
        ..SystemConfig::setup1(5)
    };
    let r = system::run(&config, AllocatorKind::DensityValueGreedy);
    assert_eq!(r.users.len(), 1);
    assert!(r.summary.avg_qoe.is_finite());
}

#[test]
fn tiny_server_budget_forces_baseline() {
    // Server budget below everyone's level-1 needs: the degenerate branch.
    let n = 4;
    let config = TraceSimConfig {
        duration_s: 10.0,
        server_budget_per_user_mbps: 1.0,
        trace_override: Some(constant_traces(n, 50.0, 10.0)),
        ..TraceSimConfig::paper_default(n, 6)
    };
    for kind in [AllocatorKind::DensityValueGreedy, AllocatorKind::Optimal] {
        let r = tracesim::run(&config, kind);
        let chosen = mean_chosen(&r.users);
        assert!(
            chosen < 1.05,
            "{}: budget-starved server must pin level 1 (chose {chosen})",
            kind.label()
        );
    }
}

#[test]
#[ignore = "slow: multi-run parallel stress; CI covers it via --include-ignored"]
fn parallel_determinism_survives_bandwidth_collapse() {
    // The parallel runner must stay bit-identical even on the hostile
    // collapse regime, where per-run trajectories diverge hard and any
    // scheduling-dependent accumulation would show up immediately.
    use collaborative_vr::sim::experiment::trace_experiment;
    let n = 4;
    let collapse: Vec<ThroughputTrace> = (0..n)
        .map(|_| ThroughputTrace::from_segments(vec![(8.0, 80.0), (4.0, 12.0), (8.0, 80.0)]))
        .collect();
    let config = TraceSimConfig {
        duration_s: 20.0,
        trace_override: Some(collapse),
        ..TraceSimConfig::paper_default(n, 11)
    };
    let kinds = [AllocatorKind::DensityValueGreedy, AllocatorKind::Firefly];
    let baseline = trace_experiment(&config, &kinds, 12, Some(1));
    for threads in [2, 4] {
        let parallel = trace_experiment(&config, &kinds, 12, Some(threads));
        assert_eq!(
            parallel, baseline,
            "{threads}-thread run diverged from the 1-thread baseline"
        );
    }
}

/// Mean *chosen* quality across users (viewed quality is lower whenever
/// predictions miss, so the chosen level is the right starvation metric).
fn mean_chosen(users: &[UserQoeSummary]) -> f64 {
    users.iter().map(|u| u.avg_chosen_quality).sum::<f64>() / users.len() as f64
}
