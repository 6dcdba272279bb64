//! Drivers that wire a [`ShardHost`] to a fleet of [`ReplayClient`]s.
//!
//! [`run_host_lockstep`] is single-threaded, interleaved stepping over
//! loopback transports. No clocks, no sleeps: the same seeds produce
//! bit-identical reports on every run, which is what the determinism
//! tests assert. Realtime pacing is [`ShardHost::run_realtime`]'s job;
//! deadline behaviour under it is measured by `benchmark/`
//! (`fleet64_paced`), not here.
//!
//! [`sharded_loopback_fleet`] routes every client through the host's
//! control plane, so client→session assignment is identical at any shard
//! count. One session on one shard is the single-classroom case.

use crate::client::{ClientConfig, ClientReport, ReplayClient};
use crate::server::ServeReport;
use crate::shard::{HostConfig, SessionId, ShardHost};
use crate::transport::{loopback, LoopbackClientEnd};

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
    use crate::server::ServeConfig;

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
        let (host, clients) = sharded_loopback_fleet(HostConfig::default(), 1, &fleet_configs(3));
        let (server_reports, client_reports) = run_host_lockstep(host, clients, 60);
        let [(0, server_report)] = &server_reports[..] else {
            panic!("one session expected");
        };
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

    /// `cvr_slot_budget_contended_total` counts the slots whose passes ran
    /// the heap: none in a default classroom, whose 400 Mbps server budget
    /// never binds, and every solved slot under a budget below the
    /// all-lowest baseline.
    #[test]
    fn budget_contended_counts_slots_where_the_server_budget_can_bind() {
        let contended = |server_total_mbps| {
            let mut config = HostConfig::default();
            config.session.server_total_mbps = server_total_mbps;
            let (host, clients) = sharded_loopback_fleet(config, 1, &fleet_configs(8));
            let (reports, _) = run_host_lockstep(host, clients, 60);
            let report = &reports[0].1;
            assert!(report.density.count > 40, "the classroom was planned");
            (
                report.counters.budget_contended,
                report.density.count as u64,
            )
        };
        assert_eq!(contended(ServeConfig::default().server_total_mbps).0, 0);
        let (tight, solved) = contended(1.0);
        assert_eq!(tight, solved);
    }
}
