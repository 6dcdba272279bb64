//! The experiments behind the rows of the driver's table, grouped by
//! what they reproduce.

pub mod ablations;
pub mod approx;
pub mod figures;
pub mod mcast;
pub mod obs;
pub mod scale;
pub mod scenarios;
