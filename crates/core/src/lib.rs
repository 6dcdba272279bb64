//! # cvr-core
//!
//! Core QoE model and quality-level allocation algorithms from
//! *Enhancing Quality of Experience for Collaborative Virtual Reality with
//! Commodity Mobile Devices* (ICDCS 2022).
//!
//! A collaborative VR edge server must pick, every ~15 ms slot, a quality
//! level for each of `N` users sharing limited wireless bandwidth. The
//! paper maximises a QoE that combines viewed quality, delivery delay and
//! quality variance, decomposes the horizon problem into per-slot nonlinear
//! knapsacks (via the Welford variance-iteration identity), and solves each
//! slot with a **density/value-greedy** algorithm carrying a proven 1/2
//! approximation guarantee.
//!
//! ## Quick tour
//!
//! ```
//! use cvr_core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = QoeParams::simulation_default();       // α = 0.02, β = 0.5
//! let rate_fn = TabulatedRate::paper_profile();       // Fig. 1a operating point
//! let delay = Mm1Delay::new(60.0)?;                    // Eq. 13 with B_n = 60 Mbps
//! let tracker = VarianceTracker::new();               // q̄, σ² state
//!
//! // Build the slot problem for two identical users and a 72 Mbps server.
//! let mut builder = SlotProblemBuilder::new();
//! for _ in 0..2 {
//!     builder.user(params, 0.95, &tracker, &rate_fn, &delay, 60.0);
//! }
//! let problem = builder.build(72.0)?;
//!
//! // Algorithm 1.
//! let assignment = DensityValueGreedy::new().allocate(&problem);
//! assert!(problem.is_feasible(&assignment));
//!
//! // Theorem 1: within 1/2 of the fractional upper bound.
//! let bound = cvr_core::offline::fractional_upper_bound(&problem);
//! assert!(problem.objective(&assignment) >= 0.5 * bound - 1e-9);
//! # Ok(())
//! # }
//! ```
//!
//! ## Modules
//!
//! * [`quality`] — quality levels and CRF mappings.
//! * [`rate`] — convex rate functions `f_c^R(q)` (Fig. 1a).
//! * [`delay`] — convex delay models `d_n(r)` (Fig. 1b / Eq. 13).
//! * [`variance`] — Welford variance iteration (Eq. 4 / Appendix A).
//! * [`objective`] — the per-slot objective `h_n` (Eq. 9) and slot problem.
//! * [`alloc`] — Algorithm 1 and its pure-greedy ablations.
//! * [`engine`] — the reusable zero-allocation slot solver with stage timing.
//! * [`fnv`] — the one FNV-1a helper behind every fingerprint.
//! * [`stage`] — fused, autovectorisable staging kernels shared by every
//!   per-slot problem-build path.
//! * [`baselines`] — Firefly LRU and modified PAVQ comparators.
//! * [`offline`] — exact solvers and the fractional bound (Theorem 1).
//! * [`qoe`] — horizon QoE accounting.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod baselines;
pub mod delay;
pub mod engine;
pub mod error;
pub mod fnv;
pub mod objective;
pub mod offline;
pub mod qoe;
pub mod quality;
pub mod rate;
pub mod stage;
pub mod variance;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::alloc::{Allocator, DensityGreedy, DensityValueGreedy, ValueGreedy};
    pub use crate::baselines::{FireflyLru, Pavq};
    pub use crate::delay::{DelayModel, Mm1Delay, TabulatedDelay};
    pub use crate::engine::SlotEngine;
    pub use crate::error::{AllocError, ModelError};
    pub use crate::objective::{QoeParams, SlotProblem, SlotProblemBuilder, UserSlot, RATE_EPS};
    pub use crate::offline::{exact_slot_optimum, fractional_upper_bound, ExactSolution};
    pub use crate::qoe::{SystemQoeSummary, UserQoeAccumulator, UserQoeSummary};
    pub use crate::quality::{QualityLevel, QualitySet};
    pub use crate::rate::{RateFunction, TabulatedRate};
    pub use crate::stage::{
        accumulate_group_values, stage_rates, stage_rates_values, stage_rates_values_with,
        CONTROL_OVERHEAD_MBPS,
    };
    pub use crate::variance::VarianceTracker;
}
