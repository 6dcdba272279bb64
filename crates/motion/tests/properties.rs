//! Property-based tests for the motion substrate.

use cvr_motion::fov::FovSpec;
use cvr_motion::pose::{angular_distance, wrap_degrees, Orientation, Pose, Vec3};
use cvr_motion::predict::LinearPredictor;
use cvr_motion::synthetic::{MotionConfig, MotionGenerator, ROOM_EXTENT_M, WALK_SPEED_MPS};
use proptest::prelude::*;

proptest! {
    #[test]
    fn wrap_degrees_lands_in_range(angle in -100_000.0f64..100_000.0) {
        let w = wrap_degrees(angle);
        prop_assert!((-180.0..180.0).contains(&w));
        // Wrapping is idempotent.
        prop_assert!((wrap_degrees(w) - w).abs() < 1e-9);
    }

    #[test]
    fn angular_distance_is_a_metric_on_the_circle(a in -720.0f64..720.0, b in -720.0f64..720.0) {
        let d = angular_distance(a, b);
        prop_assert!((0.0..=180.0).contains(&d));
        prop_assert!((angular_distance(b, a) - d).abs() < 1e-9);
        prop_assert!(angular_distance(a, a) < 1e-9);
    }

    #[test]
    fn predictor_is_exact_on_affine_motion(
        slopes in prop::collection::vec(-2.0f64..2.0, 6),
        intercepts in prop::collection::vec(-20.0f64..20.0, 6),
        window in 3usize..12,
        horizon in 1usize..5,
    ) {
        // Keep yaw slope small enough that unwrapping is unambiguous.
        let yaw_slope = slopes[3].clamp(-1.0, 1.0) * 10.0;
        let mut p = LinearPredictor::new(window);
        for t in 0..window {
            let tf = t as f64;
            p.observe(&Pose::from_components([
                slopes[0] * tf + intercepts[0],
                slopes[1] * tf + intercepts[1],
                slopes[2] * tf + intercepts[2],
                wrap_degrees(yaw_slope * tf + intercepts[3]),
                (slopes[4] * tf + intercepts[4]).clamp(-80.0, 80.0),
                0.0,
            ]));
        }
        let predicted = p.predict(horizon).expect("enough history");
        let tf = (window - 1 + horizon) as f64;
        prop_assert!((predicted.position.x - (slopes[0] * tf + intercepts[0])).abs() < 1e-6);
        prop_assert!((predicted.position.z - (slopes[2] * tf + intercepts[2])).abs() < 1e-6);
        let expected_yaw = wrap_degrees(yaw_slope * tf + intercepts[3]);
        prop_assert!(
            angular_distance(predicted.orientation.yaw, expected_yaw) < 1e-6,
            "yaw {} vs expected {}",
            predicted.orientation.yaw,
            expected_yaw
        );
    }

    #[test]
    fn covers_is_reflexive(x in -5.0f64..5.0, z in -5.0f64..5.0, yaw in -180.0f64..180.0, pitch in -85.0f64..85.0) {
        let spec = FovSpec::paper_default();
        let pose = Pose::new(Vec3::new(x, 1.7, z), Orientation::new(yaw, pitch, 0.0));
        prop_assert!(spec.covers(&pose, &pose));
    }

    #[test]
    fn covers_is_monotone_in_margin(
        x in -1.0f64..1.0,
        yaw_a in -180.0f64..180.0,
        yaw_err in -30.0f64..30.0,
        m in 0.0f64..30.0,
        extra in 0.0f64..30.0,
    ) {
        let a = Pose::new(Vec3::new(x, 1.7, 0.0), Orientation::new(yaw_a, 0.0, 0.0));
        let b = Pose::new(Vec3::new(x, 1.7, 0.0), Orientation::new(yaw_a + yaw_err, 0.0, 0.0));
        let tight = FovSpec::paper_default().with_margin(m);
        let wide = FovSpec::paper_default().with_margin(m + extra);
        if tight.covers(&a, &b) {
            prop_assert!(wide.covers(&a, &b));
        }
    }

    #[test]
    fn generator_respects_physics(seed in 0u64..200, slots in 100usize..2000) {
        let cfg = MotionConfig::paper_default();
        let trace = MotionGenerator::new(cfg, seed).take_trace(slots);
        let max_step = WALK_SPEED_MPS * cfg.slot_duration_s + 1e-9;
        for w in trace.windows(2) {
            prop_assert!(w[0].position.distance(&w[1].position) <= max_step);
        }
        for p in &trace {
            prop_assert!(p.position.x.abs() <= ROOM_EXTENT_M + 1e-9);
            prop_assert!(p.position.z.abs() <= ROOM_EXTENT_M + 1e-9);
            prop_assert!((-180.0..180.0).contains(&p.orientation.yaw));
            prop_assert!(p.orientation.pitch.abs() <= 60.0 + 1e-9);
        }
    }

    #[test]
    fn fractional_prediction_interpolates(
        slope in -1.0f64..1.0,
        window in 4usize..10,
    ) {
        let mut p = LinearPredictor::new(window);
        for t in 0..window {
            p.observe(&Pose::new(
                Vec3::new(slope * t as f64, 1.7, 0.0),
                Orientation::default(),
            ));
        }
        let half = p.predict_fractional(0.5).expect("history");
        let one = p.predict(1).expect("history");
        let zero = p.predict_fractional(0.0).expect("history");
        // Linearity of the extrapolation: half-horizon is the midpoint.
        let mid = (zero.position.x + one.position.x) / 2.0;
        prop_assert!((half.position.x - mid).abs() < 1e-9);
    }
}
