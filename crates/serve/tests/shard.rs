//! Sharded-host determinism: the same multi-session fleet, run in
//! lockstep on a 1-shard host and on a 4-shard host, must produce
//! bit-identical per-session QoE — shard placement is a scheduling
//! decision, never a behavioural one.

use cvr_serve::client::{ClientConfig, ClientReport};
use cvr_serve::harness::{run_host_lockstep, sharded_loopback_fleet};
use cvr_serve::server::{ServeConfig, ServeReport};
use cvr_serve::shard::{HostConfig, SessionId, ShardHost};
use std::time::Duration;

const SESSIONS: usize = 6;
const CLIENTS: usize = 18;
const SLOTS: u64 = 200;

fn fleet_configs() -> Vec<ClientConfig> {
    (0..CLIENTS)
        .map(|u| ClientConfig {
            seed: 0x5AD0 + u as u64,
            bandwidth_mbps: 35.0 + 3.0 * (u % 5) as f64,
            ..ClientConfig::default()
        })
        .collect()
}

fn one_run(shards: usize) -> (Vec<(SessionId, ServeReport)>, Vec<ClientReport>) {
    let (host, clients) = sharded_loopback_fleet(
        HostConfig {
            shards,
            session: ServeConfig::default(),
        },
        SESSIONS,
        &fleet_configs(),
    );
    run_host_lockstep(host, clients, SLOTS)
}

#[test]
fn one_shard_and_four_shards_are_bit_identical() {
    let (sessions_one, clients_one) = one_run(1);
    let (sessions_four, clients_four) = one_run(4);

    assert_eq!(sessions_one.len(), SESSIONS);
    assert_eq!(sessions_four.len(), SESSIONS);
    for ((id_a, a), (id_b, b)) in sessions_one.iter().zip(&sessions_four) {
        assert_eq!(id_a, id_b);
        // Bit-identical per-session QoE: UserServerSummary compares raw
        // f64s (QoE, δ, bandwidth estimate), so this is exact equality.
        assert_eq!(
            a.users, b.users,
            "session {id_a} diverged across shard counts"
        );
        assert_eq!(a.counters.joins, b.counters.joins);
        assert_eq!(a.counters.leaves, b.counters.leaves);
        assert_eq!(a.counters.ticks, b.counters.ticks);
        assert_eq!(a.counters.protocol_errors, b.counters.protocol_errors);
        assert_eq!(a.counters.frames_dropped, b.counters.frames_dropped);
    }

    // Client-side reports (session routing, assignments, QoE summaries)
    // must match too — routing is shard-blind by construction.
    assert_eq!(clients_one.len(), CLIENTS);
    for (a, b) in clients_one.iter().zip(&clients_four) {
        assert_eq!(a.user_id, b.user_id);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.summary, b.summary);
    }
}

#[test]
fn sharded_lockstep_run_is_healthy() {
    let (sessions, clients) = one_run(4);
    // 18 clients over 6 sessions: the control plane round-robins ties,
    // so every session gets exactly 3.
    for (id, report) in &sessions {
        assert_eq!(report.counters.joins, 3, "session {id}");
        assert_eq!(report.counters.protocol_errors, 0);
        assert_eq!(report.counters.ticks, SLOTS);
        assert_eq!(report.on_time_fraction(), 1.0);
    }
    for report in &clients {
        assert!(report.welcomed);
        assert!(report.assignments >= SLOTS - 2);
        assert!(report.summary.avg_chosen_quality >= 1.0);
        assert_eq!(report.protocol_errors, 0);
    }
}

/// A realtime host counts each slot's deadline verdict once, in the
/// session's registry: at a 1 ns period no slot's work fits, so all three
/// slots are overruns.
#[test]
fn run_realtime_counts_every_overrun_once_in_the_registry() {
    let mut host = ShardHost::new(HostConfig {
        shards: 1,
        session: ServeConfig::default(),
    });
    host.add_session();
    host.run_realtime(3, Duration::from_nanos(1), None, None);
    let reports = host.reports();
    assert_eq!(reports.len(), 1);
    let counters = &reports[0].1.counters;
    assert_eq!(counters.ticks, 3);
    assert_eq!(counters.tick_overruns, 3);
    assert_eq!(counters.on_time_ticks, 0);
}
