//! # cvr-sim
//!
//! Simulators for the collaborative VR reproduction:
//!
//! * [`tracesim`] — the Section IV trace-based simulation (perfect network
//!   knowledge, Eq. 13 delay), behind Figs. 2 and 3;
//! * [`system`] — the Sections V–VI full system (imperfect estimation,
//!   packet loss, tile caching/ACKs, router interference), behind Figs. 7
//!   and 8;
//! * [`experiment`] — multi-run harnesses with thread-parallel execution;
//! * [`parallel`] — the parallel runner (deterministic per-run seeding,
//!   results returned in run order);
//! * [`pipeline`] — the one slot planner (target → stage → group → solve →
//!   prefetch → manifest) and per-user QoE account (expect → reveal) that
//!   every simulator above and the live server drive;
//! * [`allocators`] — the algorithm registry shared by all experiments;
//! * [`event`] / [`metrics`] — the discrete-event queue and the CDF
//!   machinery.
//!
//! ```
//! use cvr_sim::allocators::AllocatorKind;
//! use cvr_sim::tracesim::{self, TraceSimConfig};
//!
//! let config = TraceSimConfig {
//!     duration_s: 2.0, // shortened for the doctest
//!     ..TraceSimConfig::paper_default(2, 7)
//! };
//! let result = tracesim::run(&config, AllocatorKind::DensityValueGreedy);
//! assert_eq!(result.users.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocators;
pub mod event;
pub mod experiment;
pub mod metrics;
pub mod parallel;
pub mod pipeline;
pub mod system;
pub mod tracesim;

pub use allocators::{AllocatorKind, ObjectiveMode};
pub use event::EventQueue;
pub use experiment::{
    scenario_matrix, system_experiment, trace_experiment, ScenarioMatrixResult, ScenarioRow,
    SystemAverages, SystemExperimentResult, TraceExperimentResult,
};
pub use metrics::{EmpiricalDistribution, MetricDistributions, SortedDistribution};
pub use parallel::RunSpec;
pub use system::{RenderingMode, SystemConfig, SystemRunResult};
pub use tracesim::{RunResult, TimeSeries, TraceSimConfig};
