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
//! // Stage the slot problem for two identical users and a 72 Mbps server:
//! // per level, the rate f^R(q) and the objective h_n(q) of Eq. 9.
//! let mut problem = SlotEngine::new();
//! problem.begin_slot(72.0);
//! let rates = rate_fn.as_slice();
//! for _ in 0..2 {
//!     let user = problem.add_user(rates.len(), 60.0);
//!     user.rates.copy_from_slice(rates);
//!     for (l, value) in user.values.iter_mut().enumerate() {
//!         let q = QualityLevel::new(l as u8 + 1);
//!         *value = h_at_delay(params, 0.95, &tracker, q, delay.delay(rates[l]));
//!     }
//! }
//!
//! // Algorithm 1.
//! let assignment = DensityValueGreedy::new().allocate(&mut problem).to_vec();
//! assert!(problem.is_feasible(&assignment));
//!
//! // Theorem 1: within 1/2 of the fractional upper bound.
//! let bound = fractional_upper_bound(&problem)?;
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
//! * [`objective`] — the per-slot objective `h_n` (Eq. 9) and the QoE
//!   weights.
//! * [`engine`] — the slot problem (5)–(7) as reusable flat tables, and its
//!   zero-allocation Algorithm 1 solver with stage timing.
//! * [`alloc`] — the `Allocator` trait, Algorithm 1 and its pure-greedy
//!   ablations.
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
    pub use crate::delay::{DelayModel, Mm1Delay};
    pub use crate::engine::SlotEngine;
    pub use crate::error::{AllocError, ModelError};
    pub use crate::objective::{h_at_delay, QoeParams, RATE_EPS};
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
