//! # cvr-lookahead
//!
//! Horizon-H predictive allocation on top of the per-slot engine: the
//! paper's Algorithm 1 is myopic, but the motion predictor already
//! extrapolates poses several slots ahead. This crate turns that window
//! into two bounded, deterministic policies that compose with the
//! existing staging/ledger machinery instead of replacing it:
//!
//! * **Prefetch credit** ([`prefetch`]): when the current slot's
//!   allocation leaves slack against the server budget — constraint (7) —
//!   a bounded credit pre-stages base-quality tiles for FoVs predicted at
//!   slots `t+1..t+H`, charged to the [`cvr_content::DeliveryLedger`] so
//!   retransmission suppression sees them the moment the user arrives.
//! * **Anticipatory degrade** ([`degrade`]): a per-user state machine
//!   that trend-extrapolates the bandwidth estimate over the horizon and
//!   ramps the link budget down smoothly *ahead* of predicted dips (and
//!   back up slowly after them) instead of cliff-dropping quality when
//!   the EMA finally catches up.
//!
//! Both policies are pure functions of their inputs — no clocks, no
//! randomness — so horizon-H runs stay bit-identical at every thread
//! count. The one caller is `cvr_sim::pipeline::SlotPlanner`, and `H = 1`
//! is its myopic case, not a separate path: the prefetch step walks
//! `1..H` future slots, which is nothing at `H = 1`, so no credit is
//! spent and no ledger is touched. The degrade ramp is the exception —
//! a ramp limiter is *not* the identity even with nothing forecast — so
//! the planner's `clamp_budget` returns its input at `H = 1` instead of
//! stepping the state machine; that is the only `horizon > 1` test in
//! the pipeline. `tests/golden_fingerprints.rs` pins the H = 1 runs to
//! the pre-lookahead allocator bit for bit.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod degrade;
pub mod prefetch;

pub use degrade::{AnticipatoryDegrade, DegradeConfig, DegradePhase};
pub use prefetch::{slot_credit, Prefetcher};
