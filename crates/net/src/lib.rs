//! # cvr-net
//!
//! Network substrate for the collaborative VR reproduction: synthetic
//! throughput traces standing in for the FCC and Ghent 4G/LTE datasets,
//! M/M/1 RTT characterisation (Fig. 1b), online EMA/polynomial estimators
//! used in the real system's control loop, the ACK channel, and wireless
//! routers with co-channel interference.
//!
//! ```
//! use cvr_net::trace::{TraceGeneratorConfig, TraceProfile};
//!
//! let config = TraceGeneratorConfig::paper_default(TraceProfile::LteLike);
//! let trace = config.generate(42);
//! assert!((trace.duration() - 300.0).abs() < 1e-9);
//! assert!(trace.min() >= 20.0 && trace.max() <= 100.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod channel;
pub mod estimate;
pub mod impair;
pub mod multilink;
pub mod queueing;
pub mod router;
pub mod trace;

pub use channel::AckChannel;
pub use estimate::{
    BandwidthEstimator, EmaEstimator, HarmonicMeanEstimator, PolyRegression, SlidingMeanEstimator,
};
pub use impair::{BufferbloatQueue, ImpairmentConfig, Pathology};
pub use multilink::{BondedLink, FailoverPolicy, LinkId, LinkSample};
pub use queueing::RttSampler;
pub use router::{InterferenceMode, WirelessRouter};
pub use trace::{ThroughputTrace, TraceCsvError, TraceGeneratorConfig, TraceProfile};
