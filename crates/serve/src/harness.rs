//! Drivers that wire a [`Session`] to a fleet of [`ReplayClient`]s.
//!
//! [`run_lockstep`] is single-threaded, interleaved stepping over
//! loopback transports. No clocks, no sleeps: the same seeds produce
//! bit-identical reports on every run, which is what the determinism
//! tests assert. Realtime pacing is [`ShardHost::run_realtime`]'s job;
//! deadline behaviour under it is measured by `benchmark/`
//! (`fleet64_paced`), not here.
//!
//! The multi-session counterparts ([`sharded_loopback_fleet`],
//! [`run_host_lockstep`]) drive a whole [`ShardHost`], routing every
//! client through the host's control plane so client→session assignment
//! is identical at any shard count.

use crate::client::{ClientConfig, ClientReport, ReplayClient};
use crate::server::{ServeConfig, ServeReport, Session};
use crate::shard::{HostConfig, SessionId, ShardHost};
use crate::transport::{loopback, LoopbackClientEnd};

/// Builds a session plus `client_configs.len()` loopback replay clients,
/// already registered with the session (their Hellos are queued).
pub fn loopback_fleet(
    server_config: ServeConfig,
    client_configs: &[ClientConfig],
) -> (Session, Vec<ReplayClient<LoopbackClientEnd>>) {
    let mut session = Session::new(server_config.clone());
    let clients = client_configs
        .iter()
        .map(|config| {
            let (server_end, client_end) = loopback(server_config.outbound_queue_frames);
            session.add_connection(Box::new(server_end));
            ReplayClient::new(client_end, config.clone())
        })
        .collect();
    (session, clients)
}

/// Interleaves server and client slots deterministically for `slots`
/// slots, then shuts down and reports. Every slot is counted on time
/// (lockstep has no deadline).
pub fn run_lockstep(
    mut session: Session,
    mut clients: Vec<ReplayClient<LoopbackClientEnd>>,
    slots: u64,
) -> (ServeReport, Vec<ClientReport>) {
    for _ in 0..slots {
        for client in &mut clients {
            client.step_slot();
        }
        session.step_slot();
        session.note_tick(true, 0);
    }
    session.shutdown();
    let client_reports = clients.into_iter().map(ReplayClient::finish).collect();
    (session.report(), client_reports)
}

/// Builds a [`ShardHost`] with `sessions` sessions plus one loopback
/// replay client per entry of `client_configs`, each routed through the
/// host's control plane ([`ShardHost::route_join`]) — so client→session
/// assignment depends only on join order, never on the shard count.
/// Returns the host and each client tagged with the session it joined.
pub fn sharded_loopback_fleet(
    host_config: HostConfig,
    sessions: usize,
    client_configs: &[ClientConfig],
) -> (ShardHost, Vec<(SessionId, ReplayClient<LoopbackClientEnd>)>) {
    let queue_frames = host_config.session.outbound_queue_frames;
    let mut host = ShardHost::new(host_config);
    for _ in 0..sessions {
        host.add_session();
    }
    let clients = client_configs
        .iter()
        .map(|config| {
            let session = host.route_join();
            let (server_end, client_end) = loopback(queue_frames);
            host.add_transport(session, Box::new(server_end));
            (session, ReplayClient::new(client_end, config.clone()))
        })
        .collect();
    (host, clients)
}

/// Interleaves every client and every hosted session deterministically
/// for `slots` slots, then shuts down and reports. The per-session
/// reports come back in session-ID order; client reports in join order.
pub fn run_host_lockstep(
    mut host: ShardHost,
    mut clients: Vec<(SessionId, ReplayClient<LoopbackClientEnd>)>,
    slots: u64,
) -> (Vec<(SessionId, ServeReport)>, Vec<ClientReport>) {
    for _ in 0..slots {
        for (_, client) in &mut clients {
            client.step_slot();
        }
        host.step_slot();
    }
    host.shutdown();
    let client_reports = clients
        .into_iter()
        .map(|(_, client)| client.finish())
        .collect();
    (host.reports(), client_reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet_configs(n: usize) -> Vec<ClientConfig> {
        (0..n)
            .map(|u| ClientConfig {
                seed: 1000 + u as u64,
                ..ClientConfig::default()
            })
            .collect()
    }

    #[test]
    fn lockstep_fleet_serves_every_client() {
        let (session, clients) = loopback_fleet(ServeConfig::default(), &fleet_configs(3));
        let (server_report, client_reports) = run_lockstep(session, clients, 60);
        assert_eq!(server_report.counters.joins, 3);
        assert_eq!(server_report.counters.protocol_errors, 0);
        assert_eq!(server_report.counters.ticks, 60);
        assert_eq!(client_reports.len(), 3);
        for report in &client_reports {
            assert!(report.welcomed);
            assert!(report.assignments > 40);
            assert_eq!(report.protocol_errors, 0);
        }
    }
}
