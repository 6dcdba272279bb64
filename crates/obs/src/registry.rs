//! A lock-cheap metrics registry: counters, gauges, histograms.
//!
//! The registry is a plain owned value — no interior mutability, no
//! atomics. Concurrency follows the workspace's merge discipline instead:
//! each worker/session owns its own `Registry` and updates it through
//! copy-cheap handles ([`CounterId`] / [`GaugeId`] / [`HistogramId`],
//! plain indices resolved at registration time, so the hot path is one
//! bounds-checked slot access with no map lookup and no lock). Aggregation
//! merges registries **in chunk order**; every combine is an integer add
//! or maximum or a [`Histogram::merge`], so the result is bit-identical at
//! any thread count. Live exposition snapshots the registry to a rendered
//! string (see `cvr-serve`'s exporter) rather than sharing the registry
//! across threads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Histogram;

/// Handle to a counter series in a [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a gauge series in a [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a histogram series in a [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// One metric series: a `(name, labels)` pair and its value.
#[derive(Debug, Clone, PartialEq)]
struct Series {
    name: String,
    /// Rendered label pairs, e.g. `stage="build"`. Empty for none.
    labels: String,
    help: String,
    value: Value,
    /// How a gauge combines under [`Registry::merge`]; other kinds have
    /// one meaningful combine each and leave this unread.
    gauge_merge: GaugeMerge,
}

/// How a gauge combines when registries merge: an instantaneous value
/// has no combine of its own, so each states one where it is registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeMerge {
    /// The total (occupancies: clients, groups).
    Sum,
    /// The largest (high-water marks, progress).
    Max,
}

/// The value of a metric series.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Monotonically increasing `u64`.
    Counter(u64),
    /// Signed instantaneous value.
    Gauge(i64),
    /// Fixed-bucket distribution.
    Histogram(Histogram),
}

/// A registry of metric series, preserving registration order and indexed
/// by `(name, labels)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    series: Vec<Series>,
    index: BTreeMap<(String, String), usize>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when no series are registered.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    fn get_or_insert(&mut self, name: &str, labels: &str, help: &str, value: Value) -> usize {
        let key = (name.to_string(), labels.to_string());
        if let Some(&idx) = self.index.get(&key) {
            let existing = &self.series[idx];
            assert!(
                std::mem::discriminant(&existing.value) == std::mem::discriminant(&value),
                "series {name}{{{labels}}} re-registered as a different kind"
            );
            if let (Value::Histogram(a), Value::Histogram(b)) = (&existing.value, &value) {
                assert_eq!(
                    a.bounds(),
                    b.bounds(),
                    "histogram {name}{{{labels}}} re-registered with different bounds"
                );
            }
            return idx;
        }
        let idx = self.series.len();
        self.series.push(Series {
            name: key.0.clone(),
            labels: key.1.clone(),
            help: help.to_string(),
            value,
            gauge_merge: GaugeMerge::Sum,
        });
        self.index.insert(key, idx);
        idx
    }

    /// Registers (or looks up) a counter series.
    pub fn counter(&mut self, name: &str, labels: &str, help: &str) -> CounterId {
        CounterId(self.get_or_insert(name, labels, help, Value::Counter(0)))
    }

    /// Registers (or looks up) a gauge series that combines by `merge`
    /// when registries merge.
    pub fn gauge(&mut self, name: &str, labels: &str, help: &str, merge: GaugeMerge) -> GaugeId {
        let idx = self.get_or_insert(name, labels, help, Value::Gauge(0));
        self.series[idx].gauge_merge = merge;
        GaugeId(idx)
    }

    /// Registers (or looks up) a histogram series with the given bucket
    /// bounds. Re-registration with different bounds panics.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &str,
        help: &str,
        bounds: &[u64],
    ) -> HistogramId {
        HistogramId(self.get_or_insert(
            name,
            labels,
            help,
            Value::Histogram(Histogram::new(bounds)),
        ))
    }

    /// Increments a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        match &mut self.series[id.0].value {
            Value::Counter(v) => *v += by,
            _ => unreachable!("CounterId points at a counter"),
        }
    }

    /// Sets a gauge to an absolute value.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: i64) {
        match &mut self.series[id.0].value {
            Value::Gauge(v) => *v = value,
            _ => unreachable!("GaugeId points at a gauge"),
        }
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        match &mut self.series[id.0].value {
            Value::Histogram(h) => h.observe(value),
            _ => unreachable!("HistogramId points at a histogram"),
        }
    }

    /// Records a float histogram observation; see
    /// [`Histogram::observe_f64`] for the rejection rules.
    #[inline]
    pub fn observe_f64(&mut self, id: HistogramId, value: f64) -> bool {
        match &mut self.series[id.0].value {
            Value::Histogram(h) => h.observe_f64(value),
            _ => unreachable!("HistogramId points at a histogram"),
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        match &self.series[id.0].value {
            Value::Counter(v) => *v,
            _ => unreachable!(),
        }
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> i64 {
        match &self.series[id.0].value {
            Value::Gauge(v) => *v,
            _ => unreachable!(),
        }
    }

    /// The histogram behind a handle.
    pub fn histogram_value(&self, id: HistogramId) -> &Histogram {
        match &self.series[id.0].value {
            Value::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Looks up a series value by name and rendered labels.
    pub fn get(&self, name: &str, labels: &str) -> Option<&Value> {
        self.index
            .get(&(name.to_string(), labels.to_string()))
            .map(|&idx| &self.series[idx].value)
    }

    /// Merges another registry into this one: matching `(name, labels)`
    /// series combine (counters add, histograms merge bucket-wise, a
    /// gauge follows the [`GaugeMerge`] rule `self` registered it with);
    /// series unknown to `self` are appended in `other`'s registration
    /// order, rule included. Every combine is exact integer arithmetic,
    /// so chunk-ordered merges are bit-identical at any thread count.
    ///
    /// # Panics
    /// If a shared series has a different kind or histogram bounds.
    pub fn merge(&mut self, other: &Registry) {
        for s in &other.series {
            let key = (s.name.clone(), s.labels.clone());
            match self.index.get(&key) {
                Some(&idx) => {
                    let mine = &mut self.series[idx];
                    match (&mut mine.value, &s.value) {
                        (Value::Counter(a), Value::Counter(b)) => *a += b,
                        (Value::Gauge(a), Value::Gauge(b)) => match mine.gauge_merge {
                            GaugeMerge::Sum => *a += b,
                            GaugeMerge::Max => *a = (*a).max(*b),
                        },
                        (Value::Histogram(a), Value::Histogram(b)) => a.merge(b),
                        _ => panic!(
                            "series {}{{{}}} has different kinds across registries",
                            s.name, s.labels
                        ),
                    }
                }
                None => {
                    let idx = self.series.len();
                    self.series.push(s.clone());
                    self.index.insert(key, idx);
                }
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4): families sorted by metric name, `# HELP` /
    /// `# TYPE` headers, cumulative `le` buckets plus `_sum` and `_count`
    /// for histograms.
    pub fn render(&self) -> String {
        // Group series indices by family name, keeping registration order
        // within a family.
        let mut families: BTreeMap<&str, Vec<&Series>> = BTreeMap::new();
        for s in &self.series {
            families.entry(&s.name).or_default().push(s);
        }
        let mut out = String::new();
        for (name, series) in families {
            let first = series[0];
            if !first.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", first.help);
            }
            let kind = match first.value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) => "gauge",
                Value::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for s in series {
                match &s.value {
                    Value::Counter(v) => {
                        let _ = writeln!(out, "{}{} {v}", name, brace(&s.labels));
                    }
                    Value::Gauge(v) => {
                        let _ = writeln!(out, "{}{} {v}", name, brace(&s.labels));
                    }
                    Value::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (bound, n) in h.bounds().iter().zip(h.bucket_counts()) {
                            cumulative += n;
                            let le = join_labels(&s.labels, &format!("le=\"{bound}\""));
                            let _ = writeln!(out, "{name}_bucket{{{le}}} {cumulative}");
                        }
                        let le = join_labels(&s.labels, "le=\"+Inf\"");
                        let _ = writeln!(out, "{name}_bucket{{{le}}} {}", h.count());
                        let _ = writeln!(out, "{name}_sum{} {}", brace(&s.labels), h.sum());
                        let _ = writeln!(out, "{name}_count{} {}", brace(&s.labels), h.count());
                    }
                }
            }
        }
        out
    }
}

fn brace(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

fn join_labels(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        extra.to_string()
    } else {
        format!("{labels},{extra}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_reregistration_is_idempotent() {
        let mut r = Registry::new();
        let c1 = r.counter("ticks_total", "", "slots executed");
        let c2 = r.counter("ticks_total", "", "slots executed");
        assert_eq!(c1, c2);
        r.inc(c1, 3);
        r.inc(c2, 2);
        assert_eq!(r.counter_value(c1), 5);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn reregistering_as_other_kind_panics() {
        let mut r = Registry::new();
        r.counter("x", "", "");
        r.gauge("x", "", "", GaugeMerge::Sum);
    }

    #[test]
    fn merge_combines_matching_and_appends_unknown() {
        let mut a = Registry::new();
        let ca = a.counter("runs_total", "algo=\"greedy\"", "runs");
        a.inc(ca, 2);
        let ga = a.gauge("clients", "", "live clients", GaugeMerge::Sum);
        a.set_gauge(ga, 4);
        let da = a.gauge("depth_max", "", "deepest queue", GaugeMerge::Max);
        a.set_gauge(da, 7);

        let mut b = Registry::new();
        let cb = b.counter("runs_total", "algo=\"greedy\"", "runs");
        b.inc(cb, 3);
        let cb2 = b.counter("runs_total", "algo=\"optimal\"", "runs");
        b.inc(cb2, 1);
        let gb = b.gauge("clients", "", "live clients", GaugeMerge::Sum);
        b.set_gauge(gb, -1);
        let db = b.gauge("depth_max", "", "deepest queue", GaugeMerge::Max);
        b.set_gauge(db, 5);

        a.merge(&b);
        assert_eq!(
            a.get("runs_total", "algo=\"greedy\""),
            Some(&Value::Counter(5))
        );
        assert_eq!(
            a.get("runs_total", "algo=\"optimal\""),
            Some(&Value::Counter(1))
        );
        assert_eq!(a.get("clients", ""), Some(&Value::Gauge(3)));
        assert_eq!(a.get("depth_max", ""), Some(&Value::Gauge(7)));
        // Into an empty registry the series arrives with its rule.
        let mut fresh = Registry::new();
        fresh.merge(&b);
        fresh.merge(&a);
        assert_eq!(fresh.get("depth_max", ""), Some(&Value::Gauge(7)));
        assert_eq!(fresh.get("clients", ""), Some(&Value::Gauge(2)));
    }

    #[test]
    fn merge_order_of_disjoint_chunks_is_deterministic() {
        // Same observations split two ways must merge to identical
        // registries (the parallel-runner property).
        let observe = |r: &mut Registry, values: &[u64]| {
            let h = r.histogram("stage_ns", "stage=\"build\"", "", &[10, 100]);
            for &v in values {
                r.observe(h, v);
            }
        };
        let all = [3u64, 12, 150, 7, 99, 10];
        let mut whole = Registry::new();
        observe(&mut whole, &all);

        let mut left = Registry::new();
        observe(&mut left, &all[..2]);
        let mut right = Registry::new();
        observe(&mut right, &all[2..]);
        left.merge(&right);
        assert_eq!(whole, left);
    }

    #[test]
    fn render_emits_prometheus_families() {
        let mut r = Registry::new();
        let c = r.counter("cvr_ticks_total", "", "slots executed");
        r.inc(c, 7);
        let g = r.gauge(
            "cvr_session_clients",
            "",
            "connected clients",
            GaugeMerge::Sum,
        );
        r.set_gauge(g, 2);
        let h = r.histogram(
            "cvr_slot_stage_ns",
            "stage=\"build\"",
            "stage latency",
            &[10, 100],
        );
        r.observe(h, 5);
        r.observe(h, 50);
        r.observe(h, 500);
        let text = r.render();
        assert!(text.contains("# TYPE cvr_ticks_total counter"));
        assert!(text.contains("cvr_ticks_total 7"));
        assert!(text.contains("# TYPE cvr_session_clients gauge"));
        assert!(text.contains("cvr_session_clients 2"));
        assert!(text.contains("# TYPE cvr_slot_stage_ns histogram"));
        assert!(text.contains("cvr_slot_stage_ns_bucket{stage=\"build\",le=\"10\"} 1"));
        assert!(text.contains("cvr_slot_stage_ns_bucket{stage=\"build\",le=\"100\"} 2"));
        assert!(text.contains("cvr_slot_stage_ns_bucket{stage=\"build\",le=\"+Inf\"} 3"));
        assert!(text.contains("cvr_slot_stage_ns_sum{stage=\"build\"} 555"));
        assert!(text.contains("cvr_slot_stage_ns_count{stage=\"build\"} 3"));
    }
}
