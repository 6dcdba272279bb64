//! Property-based tests for the simulator infrastructure.

use cvr_sim::event::EventQueue;
use cvr_sim::metrics::EmpiricalDistribution;
use cvr_sim::system::{packets_for_rate, transfer_loss_probability};
use proptest::prelude::*;

proptest! {
    #[test]
    fn event_queue_pops_in_nondecreasing_time_order(
        times in prop::collection::vec(0.0f64..1000.0, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn event_queue_equal_times_are_fifo(
        n in 1usize..50,
        t in 0.0f64..10.0,
    ) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(t, i);
        }
        for expect in 0..n {
            let (_, got) = q.pop().expect("scheduled");
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        xs in prop::collection::vec(-100.0f64..100.0, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let d: EmpiricalDistribution = xs.iter().copied().collect();
        let s = d.sorted();
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let v_lo = s.quantile(lo);
        let v_hi = s.quantile(hi);
        prop_assert!(v_lo <= v_hi + 1e-12);
        prop_assert!(v_lo >= d.min() - 1e-12);
        prop_assert!(v_hi <= d.max() + 1e-12);
    }

    #[test]
    fn chunked_accumulation_matches_sequential(
        rows in prop::collection::vec(
            (0.0f64..10.0, 0.0f64..6.0, 0.0f64..8.0, 0.0f64..4.0),
            1..60,
        ),
        chunk in 1usize..12,
    ) {
        // The parallel runner folds runs into per-worker MetricDistributions
        // and merges the chunks in order; that must reproduce the sequential
        // accumulation bit for bit, whatever the chunk size.
        use cvr_core::qoe::SystemQoeSummary;
        use cvr_sim::metrics::MetricDistributions;
        let summaries: Vec<SystemQoeSummary> = rows
            .iter()
            .map(|&(qoe, quality, delay, variance)| SystemQoeSummary {
                users: 1,
                avg_qoe: qoe,
                avg_quality: quality,
                avg_delay: delay,
                avg_variance: variance,
                avg_hit_rate: 1.0,
            })
            .collect();
        let mut sequential = MetricDistributions::new();
        for s in &summaries {
            sequential.push_summary(s);
        }
        let mut chunked = MetricDistributions::new();
        for block in summaries.chunks(chunk) {
            let mut worker = MetricDistributions::new();
            for s in block {
                worker.push_summary(s);
            }
            chunked.merge(&worker);
        }
        prop_assert_eq!(&chunked, &sequential);
        prop_assert_eq!(
            chunked.qoe.sorted().quantile(0.5),
            sequential.qoe.sorted().quantile(0.5)
        );
    }

    #[test]
    fn transfer_loss_monotone_in_size(p in 0.0f64..0.1, n1 in 1u32..200, extra in 0u32..200) {
        let small = transfer_loss_probability(p, n1);
        let large = transfer_loss_probability(p, n1 + extra);
        prop_assert!((0.0..=1.0).contains(&small));
        prop_assert!(large >= small - 1e-12);
    }

    #[test]
    fn packets_scale_with_rate(rate in 0.1f64..200.0, extra in 0.1f64..100.0) {
        let slot = 1.0 / 60.0;
        let a = packets_for_rate(rate, slot, 12.0);
        let b = packets_for_rate(rate + extra, slot, 12.0);
        prop_assert!(b >= a);
        prop_assert!(a >= 1);
    }
}
