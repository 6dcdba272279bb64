//! Property-based tests for histogram and registry merge invariants —
//! the same discipline as the simulator's merge-op proptests: chunked,
//! merged-in-order aggregation must be indistinguishable from sequential
//! accumulation, regardless of how the input is split.

use cvr_obs::{GaugeMerge, Histogram, Registry};
use proptest::prelude::*;

const BOUNDS: [u64; 5] = [10, 50, 100, 500, 1000];

fn fill(values: &[u64]) -> Histogram {
    let mut h = Histogram::new(&BOUNDS);
    for &v in values {
        h.observe(v);
    }
    h
}

proptest! {
    #[test]
    fn count_is_conserved_under_merge(
        xs in prop::collection::vec(0u64..2000, 0..120),
        ys in prop::collection::vec(0u64..2000, 0..120),
    ) {
        let mut a = fill(&xs);
        let b = fill(&ys);
        a.merge(&b);
        prop_assert_eq!(a.count(), (xs.len() + ys.len()) as u64);
        // Bucket counts partition the observations exactly.
        prop_assert_eq!(a.bucket_counts().iter().sum::<u64>(), a.count());
        let total: u64 = xs.iter().chain(ys.iter()).sum();
        prop_assert_eq!(a.sum(), total);
    }

    #[test]
    fn merge_is_commutative(
        xs in prop::collection::vec(0u64..2000, 0..100),
        ys in prop::collection::vec(0u64..2000, 0..100),
    ) {
        let mut ab = fill(&xs);
        ab.merge(&fill(&ys));
        let mut ba = fill(&ys);
        ba.merge(&fill(&xs));
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        xs in prop::collection::vec(0u64..2000, 0..80),
        ys in prop::collection::vec(0u64..2000, 0..80),
        zs in prop::collection::vec(0u64..2000, 0..80),
    ) {
        // (x ⊕ y) ⊕ z
        let mut left = fill(&xs);
        left.merge(&fill(&ys));
        left.merge(&fill(&zs));
        // x ⊕ (y ⊕ z)
        let mut yz = fill(&ys);
        yz.merge(&fill(&zs));
        let mut right = fill(&xs);
        right.merge(&yz);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn arbitrary_chunking_matches_sequential(
        values in prop::collection::vec(0u64..2000, 1..200),
        chunk in 1usize..40,
    ) {
        // The parallel-runner property: split the stream into chunks,
        // one histogram per chunk, merge in chunk order — must be
        // bit-identical to one histogram fed sequentially.
        let sequential = fill(&values);
        let mut merged = Histogram::new(&BOUNDS);
        for part in values.chunks(chunk) {
            merged.merge(&fill(part));
        }
        prop_assert_eq!(sequential, merged);
    }

    #[test]
    fn boundary_values_count_into_their_bucket(
        bucket in 0usize..BOUNDS.len(),
    ) {
        // A value exactly on an upper bound lands in that bucket, not
        // the next one (`le` is inclusive).
        let mut h = Histogram::new(&BOUNDS);
        h.observe(BOUNDS[bucket]);
        prop_assert_eq!(h.bucket_counts()[bucket], 1);
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), 1);
        // One more: just above the bound lands strictly later.
        h.observe(BOUNDS[bucket] + 1);
        prop_assert_eq!(h.bucket_counts()[bucket], 1);
    }

    #[test]
    fn non_finite_and_negative_floats_are_rejected(
        xs in prop::collection::vec(0.0f64..5000.0, 0..50),
    ) {
        let mut h = Histogram::new(&BOUNDS);
        for &x in &xs {
            prop_assert!(h.observe_f64(x));
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.51] {
            prop_assert!(!h.observe_f64(bad));
        }
        prop_assert_eq!(h.count(), xs.len() as u64);
        prop_assert_eq!(h.rejected(), 4);
    }

    #[test]
    fn quantiles_stay_within_observed_range(
        values in prop::collection::vec(0u64..5000, 1..200),
        q in 0.0f64..1.0,
    ) {
        let h = fill(&values);
        let v = h.quantile(q).expect("non-empty");
        let min = *values.iter().min().expect("non-empty") as f64;
        let max = *values.iter().max().expect("non-empty") as f64;
        // Quantile estimates interpolate within a bucket, clamped to the
        // observed max; the lower edge can undershoot min by at most one
        // bucket width, never below 0.
        prop_assert!(v >= 0.0);
        prop_assert!(v <= max + 1e-9);
        prop_assert!(h.quantile(1.0).expect("non-empty") >= min);
    }

    #[test]
    fn registry_chunked_merge_matches_sequential(
        values in prop::collection::vec((0u64..3, 0u64..2000), 1..150),
        chunk in 1usize..30,
    ) {
        // Mixed-kind registry: per-label counters, a histogram, a summed
        // and a maximum gauge, fed as (label, value) pairs. Chunked
        // per-worker registries merged in chunk order must equal the
        // sequentially-filled registry.
        let feed = |r: &mut Registry, part: &[(u64, u64)]| {
            for &(label, v) in part {
                let c = r.counter("events_total", &format!("kind=\"{label}\""), "events");
                r.inc(c, 1);
                let h = r.histogram("value", "", "observed values", &BOUNDS);
                r.observe(h, v);
                let g = r.gauge("net", "", "signed accumulation", GaugeMerge::Sum);
                r.set_gauge(g, r.gauge_value(g) + v as i64 - 1000);
                let peak = r.gauge("peak", "", "largest value", GaugeMerge::Max);
                r.set_gauge(peak, r.gauge_value(peak).max(v as i64));
            }
        };
        let mut sequential = Registry::new();
        feed(&mut sequential, &values);
        let mut merged = Registry::new();
        for part in values.chunks(chunk) {
            let mut worker = Registry::new();
            feed(&mut worker, part);
            merged.merge(&worker);
        }
        prop_assert_eq!(&sequential, &merged);
        prop_assert_eq!(sequential.render(), merged.render());
    }
}
