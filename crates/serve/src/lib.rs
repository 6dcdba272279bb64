//! `cvr-serve`: the live edge-server runtime.
//!
//! Where `cvr-sim` *models* the paper's testbed (Java server + 15
//! Android phones), this crate *runs* it: a [`server::Session`] hosts
//! one `cvr_core::engine::SlotEngine` per session and drives the
//! ingest → predict → allocate → transmit loop on a real 15 ms slot
//! ticker, against real transports.
//!
//! The pieces:
//!
//! * [`protocol`] — the versioned length-prefixed binary wire protocol
//!   (poses, ACKs, bandwidth samples upstream; quality assignments and
//!   tile manifests downstream) with a std-only codec.
//! * [`transport`] — the transport traits and an in-process loopback
//!   pair for deterministic tests, with bounded queues and a drop-oldest
//!   backpressure policy.
//! * [`readiness`] — both ends' TCP transports: non-blocking sockets
//!   multiplexed by one poll loop per shard (the replay client services
//!   its own from its slot loop), so connection count does not dictate
//!   thread count.
//! * [`server`] — the session/user registry and the per-slot control
//!   loop, with slow-client degradation and observability counters.
//! * [`shard`] — the sharded multi-session host: N worker shards, each
//!   running a set of sessions off one amortised tick loop, with a
//!   control plane for session placement and join routing.
//! * [`expose`] — a minimal embedded HTTP responder serving the session's
//!   `cvr-obs` metrics registry as Prometheus text (`--metrics-addr`).
//! * [`client`] — the headless replay client that stands in for one
//!   phone, replaying `cvr-motion` synthetic traces.
//! * [`ticker`] — realtime slot pacing with deadline accounting.
//! * [`harness`] — lockstep drivers wiring a sharded host to a fleet of
//!   replay clients.

#![warn(missing_docs)]

pub mod client;
pub mod expose;
pub mod harness;
pub mod protocol;
pub mod readiness;
pub mod server;
pub mod shard;
pub mod ticker;
pub mod transport;
