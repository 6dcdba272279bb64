//! # collaborative-vr
//!
//! A from-scratch Rust reproduction of *Enhancing Quality of Experience
//! for Collaborative Virtual Reality with Commodity Mobile Devices*
//! (ICDCS 2022): the QoE model, the per-slot decomposition, the
//! density/value-greedy allocator with its 1/2-approximation guarantee,
//! the Firefly and PAVQ baselines, and every substrate the evaluation
//! needs — tile content pipeline, 6-DoF motion + prediction, network
//! traces/queueing/estimation, and the full multi-user system simulator.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`cvr_core`] (re-exported as `core`) — QoE model and allocation algorithms;
//! * [`cvr_content`] (`content`) — tiles, grid world, sizing, caching;
//! * [`cvr_motion`] (`motion`) — poses, FoV, synthetic traces, prediction;
//! * [`cvr_net`] (`net`) — throughput traces, queueing, estimators, channels;
//! * [`cvr_obs`] (`obs`) — observability: metrics registry with
//!   deterministic merges, event tracer, Prometheus text rendering;
//! * [`cvr_render`] (`render`) — online GPU render/encode farm (§VIII future work);
//! * [`cvr_sim`] (`sim`) — trace-based and full-system simulators;
//! * [`cvr_serve`] (`serve`) — live edge-server runtime: sessions, wire
//!   protocol, transports, trace-replay clients.
//!
//! ## Quickstart
//!
//! ```
//! use collaborative_vr::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One slot: three users share a 90 Mbps server link.
//! let params = QoeParams::simulation_default();
//! let rate_fn = TabulatedRate::paper_profile();
//! let tracker = VarianceTracker::new();
//! let mut builder = SlotProblemBuilder::new();
//! for link in [40.0, 50.0, 60.0] {
//!     let delay = Mm1Delay::new(link)?;
//!     builder.user(params, 0.95, &tracker, &rate_fn, &delay, link);
//! }
//! let problem = builder.build(90.0)?;
//!
//! let assignment = DensityValueGreedy::new().allocate(&problem);
//! assert!(problem.is_feasible(&assignment));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use cvr_content as content;
pub use cvr_core as core;
pub use cvr_motion as motion;
pub use cvr_net as net;
pub use cvr_obs as obs;
pub use cvr_render as render;
pub use cvr_serve as serve;
pub use cvr_sim as sim;

/// The most commonly used items across all member crates.
pub mod prelude {
    pub use cvr_content::library::{ContentLibrary, ContentRequest};
    pub use cvr_core::prelude::*;
    pub use cvr_motion::{
        DeltaEstimator, FovSpec, LinearPredictor, MotionConfig, MotionGenerator, Orientation, Pose,
        Vec3,
    };
    pub use cvr_net::{
        EmaEstimator, InterferenceMode, PolyRegression, ThroughputTrace, TraceGeneratorConfig,
        TraceProfile, WirelessRouter,
    };
    pub use cvr_obs::{Histogram, HistogramSummary, Registry, StageStats, TraceEvent, Tracer};
    pub use cvr_sim::{
        system_experiment, trace_experiment, AllocatorKind, SystemConfig, TraceSimConfig,
    };
}
