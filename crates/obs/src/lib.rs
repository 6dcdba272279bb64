//! # cvr-obs — observability subsystem
//!
//! Metrics, event tracing, and exposition-text rendering for the
//! collaborative-VR workspace. Std-only, like everything else here.
//!
//! The crate has three pillars:
//!
//! - [`hist`] / [`registry`] — a **metrics registry** of counters, gauges,
//!   and fixed-bucket [`Histogram`]s. All observed values are integers
//!   (`u64`; timings are nanoseconds), so every merge is a plain integer
//!   add or maximum — exactly associative and commutative, the same discipline as the
//!   simulator's concatenative merge ops. Per-worker / per-session
//!   registries therefore combine deterministically: merging in chunk
//!   order produces bit-identical aggregates at every thread count.
//! - [`trace`] — a **structured event tracer**: a bounded ring buffer of
//!   typed events (slot start/end, stage timings, tick overruns, client
//!   join/leave/degrade, queue drops, protocol errors) with per-event-kind
//!   sampling and JSONL export. A disabled tracer costs one branch per
//!   call site, so the sim hot path pays ~nothing.
//! - [`stage`] — the [`StageStats`] latency summary the live server's
//!   reports print, read out of a stage's latency [`Histogram`].
//!
//! ## Determinism rules
//!
//! Wall-clock-derived values (stage latencies, RTTs) flow *into* the
//! registry, never out of it into simulation-visible state: nothing in the
//! allocator, predictor, or transmit path reads a metric. In the parallel
//! experiment runner only deterministic quantities (run counts, QoE
//! aggregates) are registered, so experiment outputs — including the
//! merged registry — stay bit-identical across thread counts.

pub mod hist;
pub mod registry;
pub mod stage;
pub mod trace;

pub use hist::{latency_bounds_ns, Histogram, HistogramSummary};
pub use registry::{CounterId, GaugeId, GaugeMerge, HistogramId, Registry};
pub use stage::StageStats;
pub use trace::{TraceEvent, TraceRecord, Tracer};
