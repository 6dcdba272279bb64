//! Property-based tests for the network substrate.

use cvr_net::estimate::{EmaEstimator, PolyRegression};
use cvr_net::impair::{BufferbloatQueue, ImpairmentConfig, Pathology};
use cvr_net::multilink::{BondedLink, FailoverPolicy, LinkId};
use cvr_net::trace::{TraceGeneratorConfig, TraceProfile};
use proptest::prelude::*;

fn pathology() -> impl Strategy<Value = Pathology> {
    (0usize..Pathology::ALL.len()).prop_map(|i| Pathology::ALL[i])
}

proptest! {
    #[test]
    fn traces_respect_envelope(
        seed in 0u64..5000,
        min in 5.0f64..40.0,
        span in 10.0f64..80.0,
        duration in 10.0f64..200.0,
        lte in proptest::bool::ANY,
    ) {
        let cfg = TraceGeneratorConfig {
            profile: if lte { TraceProfile::LteLike } else { TraceProfile::FccLike },
            min_mbps: min,
            max_mbps: min + span,
            duration_s: duration,
        };
        let t = cfg.generate(seed);
        prop_assert!((t.duration() - duration).abs() < 1e-6);
        prop_assert!(t.min() >= min - 1e-9);
        prop_assert!(t.max() <= min + span + 1e-9);
        // Lookup at arbitrary times stays within the envelope, including
        // past the end (cyclic).
        for i in 0..20 {
            let v = t.at(duration * i as f64 / 7.3);
            prop_assert!(v >= min - 1e-9 && v <= min + span + 1e-9);
        }
    }

    #[test]
    fn ema_stays_within_observed_range(
        weight in 0.01f64..1.0,
        xs in prop::collection::vec(1.0f64..100.0, 1..100),
    ) {
        let mut e = EmaEstimator::new(weight);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &x in &xs {
            let v = e.update(x);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn poly_regression_recovers_lines(
        slope in -5.0f64..5.0,
        intercept in -10.0f64..10.0,
        n in 4usize..40,
    ) {
        let mut p = PolyRegression::paper_default();
        for i in 0..n {
            let x = i as f64 * 0.7;
            p.observe(x, slope * x + intercept);
        }
        // The fit is quadratic: a line comes back with a zero square term.
        let c = p.fit().expect("enough samples");
        prop_assert!((c[0] - intercept).abs() < 1e-6);
        prop_assert!((c[1] - slope).abs() < 1e-6);
        prop_assert!(c[2].abs() < 1e-6);
    }

    // Every impairment pathology is a pure function of (config, seed):
    // regenerating must reproduce the segment list bit for bit, per user.
    #[test]
    fn impairment_generation_is_seed_deterministic(
        seed in 0u64..=u64::MAX,
        p in pathology(),
        users in 1usize..6,
    ) {
        let cfg = ImpairmentConfig {
            duration_s: 60.0,
            ..ImpairmentConfig::paper_default(p)
        };
        let a = cfg.generate_group(users, seed);
        let b = cfg.generate_group(users, seed);
        prop_assert_eq!(a.len(), users);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.segments(), y.segments());
        }
    }

    // Whatever the pathology, traces stay inside [0, max_mbps] and hit
    // the requested duration exactly.
    #[test]
    fn impairment_traces_respect_envelope_and_duration(
        seed in 0u64..5000,
        p in pathology(),
        duration in 30.0f64..120.0,
    ) {
        let cfg = ImpairmentConfig {
            duration_s: duration,
            ..ImpairmentConfig::paper_default(p)
        };
        let t = cfg.generate(seed);
        prop_assert!((t.duration() - duration).abs() < 1e-6);
        prop_assert!(t.min() >= 0.0);
        prop_assert!(t.max() <= cfg.max_mbps * 1.05 + 1e-9);
    }

    // Markov fading spends most of its time in the good state, so the
    // long-run mean must sit well above the deep-fade floor and inside
    // the envelope; dwell times must match the per-state bounds.
    #[test]
    fn markov_fading_mean_and_dwells_are_sane(seed in 0u64..2000) {
        let cfg = ImpairmentConfig {
            duration_s: 120.0,
            ..ImpairmentConfig::paper_default(Pathology::MarkovFading)
        };
        let t = cfg.generate(seed);
        prop_assert!(t.mean() > cfg.min_mbps * 0.25, "mean {} too low", t.mean());
        prop_assert!(t.mean() <= cfg.max_mbps);
        // No dwell shorter than the deepest state's lower bound; the
        // final segment may be clipped by the duration cut.
        let segments = t.segments();
        for &(dwell, _) in &segments[..segments.len() - 1] {
            prop_assert!(dwell >= 0.15 - 1e-9, "dwell {dwell} below bound");
        }
    }

    // Handover gaps are *exact* zeros — not small floats — and every
    // non-gap segment respects the envelope floor.
    #[test]
    fn handover_gaps_are_exact_zeros(seed in 0u64..2000) {
        let cfg = ImpairmentConfig {
            duration_s: 90.0,
            ..ImpairmentConfig::paper_default(Pathology::Handover)
        };
        let t = cfg.generate(seed);
        let mut gaps = 0usize;
        let segments = t.segments();
        for (i, &(dwell, mbps)) in segments.iter().enumerate() {
            if mbps == 0.0 {
                gaps += 1;
                if i + 1 < segments.len() {
                    prop_assert!((0.25 - 1e-9..=1.5 + 1e-9).contains(&dwell));
                }
            } else {
                prop_assert!(mbps >= cfg.min_mbps - 1e-9);
            }
        }
        prop_assert!(gaps >= 2, "90 s must contain at least two handovers");
    }

    // The fluid bufferbloat model: under constant overload the queue
    // only grows, so reported latency is monotone in queue depth (until
    // the RLC buffer cap), and it never goes negative or NaN.
    #[test]
    fn bufferbloat_latency_is_monotone_in_queue_depth(
        capacity in 1.0f64..50.0,
        overload in 1.1f64..4.0,
        dt in 0.005f64..0.1,
    ) {
        let mut q = BufferbloatQueue::rlc_default();
        let offered = capacity * overload;
        let mut last = 0.0f64;
        for _ in 0..2000 {
            let delay = q.step(offered, capacity, dt);
            prop_assert!(delay.is_finite() && delay >= 0.0);
            prop_assert!(delay >= last - 1e-9, "delay shrank under overload");
            last = delay;
        }
        // And the queue drains back to exactly zero delay when idle.
        for _ in 0..100_000 {
            q.step(0.0, capacity, 0.1);
        }
        prop_assert_eq!(q.delay_s(capacity), 0.0);
    }

    // Whatever garbage the traces contain (including hard zeros), a
    // bonded link never reports a negative, NaN, or infinite bandwidth,
    // and the active rate always equals the chosen link's rate.
    #[test]
    fn bonded_failover_never_reports_negative_or_nan(
        wifi in prop::collection::vec((0.1f64..5.0, 0.0f64..100.0), 1..8),
        lte in prop::collection::vec((0.1f64..5.0, 0.0f64..100.0), 1..8),
        failover in 1.0f64..10.0,
        recover_extra in 0.5f64..20.0,
        hold in 1u32..6,
    ) {
        use cvr_net::trace::ThroughputTrace;
        let policy = FailoverPolicy {
            failover_mbps: failover,
            recover_mbps: failover + recover_extra,
            recover_hold: hold,
        };
        let mut link = BondedLink::new(
            ThroughputTrace::from_segments(wifi),
            ThroughputTrace::from_segments(lte),
            policy,
        );
        for i in 0..200 {
            let s = link.sample(i as f64 * 0.05);
            for v in [s.wifi_mbps, s.lte_mbps, s.active_mbps] {
                prop_assert!(v.is_finite() && v >= 0.0, "bad bandwidth {v}");
            }
            let expected = match s.active {
                LinkId::Wifi => s.wifi_mbps,
                LinkId::Lte => s.lte_mbps,
            };
            prop_assert_eq!(s.active_mbps, expected);
        }
    }
}
