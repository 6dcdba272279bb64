//! Cross-crate integration tests: the paper's qualitative claims must hold
//! end-to-end on seeded workloads.

use collaborative_vr::prelude::*;
use collaborative_vr::sim::{system, tracesim};

fn trace_config(users: usize, seed: u64) -> TraceSimConfig {
    TraceSimConfig {
        duration_s: 20.0,
        ..TraceSimConfig::paper_default(users, seed)
    }
}

#[test]
fn ours_matches_per_slot_optimum_closely() {
    let cfg = trace_config(4, 101);
    let ours = tracesim::run(&cfg, AllocatorKind::DensityValueGreedy);
    let optimal = tracesim::run(&cfg, AllocatorKind::Optimal);
    assert!(
        ours.summary.avg_qoe >= 0.95 * optimal.summary.avg_qoe,
        "ours {} vs optimal {}",
        ours.summary.avg_qoe,
        optimal.summary.avg_qoe
    );
}

#[test]
fn paper_ordering_holds_in_trace_simulation() {
    // Average over several seeds: ours ≥ pavq ≥ firefly on QoE.
    let mut ours = 0.0;
    let mut pavq = 0.0;
    let mut firefly = 0.0;
    for seed in 0..4 {
        let cfg = trace_config(5, 200 + seed);
        ours += tracesim::run(&cfg, AllocatorKind::DensityValueGreedy)
            .summary
            .avg_qoe;
        pavq += tracesim::run(&cfg, AllocatorKind::Pavq).summary.avg_qoe;
        firefly += tracesim::run(&cfg, AllocatorKind::Firefly).summary.avg_qoe;
    }
    assert!(ours > pavq, "ours {ours} should beat pavq {pavq}");
    assert!(pavq > firefly, "pavq {pavq} should beat firefly {firefly}");
}

#[test]
fn firefly_has_worst_variance_and_delay_in_trace_simulation() {
    let cfg = trace_config(5, 301);
    let ours = tracesim::run(&cfg, AllocatorKind::DensityValueGreedy).summary;
    let firefly = tracesim::run(&cfg, AllocatorKind::Firefly).summary;
    assert!(firefly.avg_variance > ours.avg_variance);
    assert!(firefly.avg_delay > ours.avg_delay);
}

#[test]
fn full_system_ordering_and_fps() {
    let cfg = SystemConfig {
        duration_s: 15.0,
        ..SystemConfig::setup1(401)
    };
    let ours = system::run(&cfg, AllocatorKind::DensityValueGreedy);
    let pavq = system::run(&cfg, AllocatorKind::Pavq);
    let firefly = system::run(&cfg, AllocatorKind::Firefly);

    assert!(ours.summary.avg_qoe > pavq.summary.avg_qoe);
    assert!(pavq.summary.avg_qoe > firefly.summary.avg_qoe);
    assert!(ours.fps > pavq.fps);
    assert!(ours.fps > firefly.fps);
    assert!(ours.fps > 45.0, "ours fps {} too low", ours.fps);
}

#[test]
fn interference_setup_degrades_baselines_more() {
    let s1 = SystemConfig {
        duration_s: 15.0,
        ..SystemConfig::setup1(77)
    };
    let s2 = SystemConfig {
        duration_s: 15.0,
        ..SystemConfig::setup2(77)
    };

    let ours1 = system::run(&s1, AllocatorKind::DensityValueGreedy)
        .summary
        .avg_qoe;
    let pavq1 = system::run(&s1, AllocatorKind::Pavq).summary.avg_qoe;
    let ours2 = system::run(&s2, AllocatorKind::DensityValueGreedy)
        .summary
        .avg_qoe;
    let pavq2 = system::run(&s2, AllocatorKind::Pavq).summary.avg_qoe;

    let gap1 = (ours1 - pavq1) / pavq1.abs();
    let gap2 = (ours2 - pavq2) / pavq2.abs();
    assert!(
        gap2 > gap1 * 0.8,
        "interference should not shrink the advantage much: {gap1} -> {gap2}"
    );
    assert!(ours2 > 0.0, "ours must stay positive under interference");
}

#[test]
fn deterministic_experiments() {
    let cfg = trace_config(3, 55);
    let a = tracesim::run(&cfg, AllocatorKind::DensityValueGreedy);
    let b = tracesim::run(&cfg, AllocatorKind::DensityValueGreedy);
    assert_eq!(a, b);

    let sys = SystemConfig {
        num_users: 3,
        duration_s: 5.0,
        ..SystemConfig::setup1(55)
    };
    let c = system::run(&sys, AllocatorKind::Firefly);
    let d = system::run(&sys, AllocatorKind::Firefly);
    assert_eq!(c, d);
}

#[test]
fn prediction_pipeline_is_accurate_on_synthetic_motion() {
    let mut generator = MotionGenerator::new(MotionConfig::paper_default(), 5);
    let mut predictor = LinearPredictor::paper_default();
    let mut delta = DeltaEstimator::average();
    let fov = FovSpec::paper_default();
    let mut pending: Option<Pose> = None;
    for _ in 0..20_000 {
        let actual = generator.step();
        if let Some(predicted) = pending.take() {
            delta.record(fov.covers(&predicted, &actual));
        }
        predictor.observe(&actual);
        pending = predictor.predict(1);
    }
    let hit = delta.estimate();
    assert!(hit > 0.9, "hit rate {hit} below the realistic band");
}

#[test]
fn content_pipeline_round_trip() {
    // pose → request → ids → cache/ledger interplay works across crates.
    use collaborative_vr::content::cache::{ClientTileBuffer, DeliveryLedger};
    use collaborative_vr::content::id::VideoId;

    let library = ContentLibrary::paper_default();
    let pose = Pose::new(Vec3::new(0.5, 1.7, -0.5), Orientation::new(45.0, 10.0, 0.0));
    let request = library.request_for(&pose);
    assert!(!request.tiles.is_empty());

    let mut ledger = DeliveryLedger::new();
    let mut buffer = ClientTileBuffer::new(8);
    let ids: Vec<VideoId> = (request.tiles.iter())
        .map(|&tile| VideoId::new(request.cell, tile, QualityLevel::new(3)))
        .collect();
    assert!(ids.iter().all(|id| !ledger.is_delivered(id)));

    for id in &ids {
        ledger.acknowledge(*id);
        buffer.store(*id);
    }
    assert!(ids.iter().all(|id| ledger.is_delivered(id)));
    assert_eq!(buffer.len(), ids.len());
}

#[test]
fn qoe_weights_steer_the_tradeoff_end_to_end() {
    let base = trace_config(5, 21);
    let gaming = TraceSimConfig {
        params: QoeParams::new(0.3, 0.1).expect("valid"),
        ..base.clone()
    };
    let museum = TraceSimConfig {
        params: QoeParams::new(0.02, 3.0).expect("valid"),
        ..base
    };
    let g = tracesim::run(&gaming, AllocatorKind::DensityValueGreedy).summary;
    let m = tracesim::run(&museum, AllocatorKind::DensityValueGreedy).summary;
    assert!(g.avg_delay < m.avg_delay, "large α must cut delay");
    assert!(m.avg_variance < g.avg_variance, "large β must cut variance");
}
