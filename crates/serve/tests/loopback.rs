//! Deterministic end-to-end run over the loopback transport: four replay
//! clients with fixed seeds, driven in lockstep, must produce
//! bit-identical per-user QoE summaries across two independent runs.

use cvr_serve::client::{ClientConfig, ClientReport, ReplayClient};
use cvr_serve::harness::{run_host_lockstep, sharded_loopback_fleet};
use cvr_serve::protocol::{ClientMessage, PROTOCOL_VERSION};
use cvr_serve::server::{ServeConfig, ServeReport};
use cvr_serve::shard::{HostConfig, SessionId, ShardHost};
use cvr_serve::transport::{loopback, ClientTransport, LoopbackClientEnd};

const SLOTS: u64 = 300;

fn fleet_configs() -> Vec<ClientConfig> {
    (0..4)
        .map(|u| ClientConfig {
            seed: 0xD15C0 + u as u64,
            bandwidth_mbps: 40.0 + 5.0 * u as f64,
            ..ClientConfig::default()
        })
        .collect()
}

type Fleet = Vec<(SessionId, ReplayClient<LoopbackClientEnd>)>;

/// One session on one shard, one loopback replay client per config.
fn classroom(config: ServeConfig, clients: &[ClientConfig]) -> (ShardHost, Fleet) {
    let host = HostConfig {
        shards: 1,
        session: config,
    };
    sharded_loopback_fleet(host, 1, clients)
}

/// Steps a [`classroom`] for `slots` lockstep slots, then reports.
fn run(host: ShardHost, clients: Fleet, slots: u64) -> (ServeReport, Vec<ClientReport>) {
    let (mut servers, clients) = run_host_lockstep(host, clients, slots);
    let (_, server) = servers.pop().expect("one session");
    (server, clients)
}

fn one_run() -> (ServeReport, Vec<ClientReport>) {
    let (host, clients) = classroom(ServeConfig::default(), &fleet_configs());
    run(host, clients, SLOTS)
}

#[test]
fn two_runs_are_bit_identical() {
    let (server_a, clients_a) = one_run();
    let (server_b, clients_b) = one_run();

    // Client-side: the full report (QoE summary, assignment counts, IDs)
    // must match field for field. StageStats RTT uses wall clocks, so
    // compare everything except it.
    assert_eq!(clients_a.len(), 4);
    for (a, b) in clients_a.iter().zip(&clients_b) {
        assert_eq!(a.user_id, b.user_id);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.protocol_errors, 0);
        assert_eq!(b.protocol_errors, 0);
        // Bit-identical QoE: UserQoeSummary is PartialEq over raw f64s,
        // so this is exact equality, not approximate.
        assert_eq!(a.summary, b.summary);
    }

    // Server-side: per-user summaries (QoE, δ, bandwidth estimate) must
    // also be bit-identical, as must every behavioural counter.
    assert_eq!(server_a.users, server_b.users);
    assert_eq!(server_a.counters.joins, server_b.counters.joins);
    assert_eq!(server_a.counters.leaves, server_b.counters.leaves);
    assert_eq!(
        server_a.counters.frames_dropped,
        server_b.counters.frames_dropped
    );
    assert_eq!(
        server_a.counters.protocol_errors,
        server_b.counters.protocol_errors
    );
}

#[test]
fn lockstep_run_is_healthy() {
    let (server, clients) = one_run();
    assert_eq!(server.counters.joins, 4);
    assert_eq!(server.counters.protocol_errors, 0);
    assert_eq!(server.counters.ticks, SLOTS);
    assert_eq!(server.on_time_fraction(), 1.0);
    for report in &clients {
        assert!(report.welcomed);
        // Every slot after the handshake produces an assignment.
        assert!(report.assignments >= SLOTS - 2);
        // The client displayed real content at real quality.
        assert!(report.summary.slots >= SLOTS - 3);
        assert!(report.summary.avg_chosen_quality >= 1.0);
        assert!(report.summary.avg_viewed_quality > 0.0);
    }
    // Retransmission suppression works end to end: with ~50 Mbps per
    // client the manifests shrink to deltas, so the server-side ledger
    // produced hits and the prediction accuracy estimate moved off its
    // 1.0 prior only where misses happened.
    for user in &server.users {
        assert!(user.delta > 0.0 && user.delta <= 1.0);
        assert!(user.bandwidth_mbps > 0.0);
        // A healthy fleet drains its queues: the per-user backpressure
        // fields surface in the summary and read zero here.
        assert_eq!(user.frames_dropped, 0);
        assert_eq!(user.degrade_transitions, 0);
    }
}

/// The end-of-run summary must surface what the counters only counted
/// before: ticker overruns, per-user queue drops, and degrade
/// transitions — and the same numbers must appear in the scrapeable
/// metrics text.
#[test]
fn summary_surfaces_overruns_drops_and_degrades() {
    // A healthy lockstep fleet plus one "stuck" client whose loopback
    // queue is tiny and never drained: its assignments pile up, drop,
    // and degrade it.
    let (mut host, mut clients) = classroom(ServeConfig::default(), &fleet_configs()[..2]);
    let session = host.session_mut(0);
    session.enable_tracing(512);
    let (stuck_server_end, mut stuck_client) = loopback(3);
    session.add_connection(Box::new(stuck_server_end));
    stuck_client.send(&ClientMessage::Hello {
        version: PROTOCOL_VERSION,
        seed: 99,
    });

    for slot in 0..60u64 {
        for (_, client) in &mut clients {
            client.step_slot();
        }
        session.step_slot();
        // The lockstep clock is ours: miss every tenth deadline so the
        // overrun path is exercised.
        let on_time = slot % 10 != 9;
        session.note_tick(on_time, 2_000_000);
    }
    session.shutdown();

    let metrics = session.render_metrics();
    let report = session.report();

    // Overruns: counted AND reported.
    assert_eq!(report.counters.tick_overruns, 6);
    assert!(metrics.contains("cvr_tick_overruns_total 6"), "{metrics}");

    // The stuck user's drops and degrade transitions surface per user.
    let stuck = report
        .users
        .iter()
        .find(|u| u.seed == 99)
        .expect("stuck user joined");
    assert!(stuck.frames_dropped > 0);
    assert!(stuck.degrade_transitions >= 1);
    // Per-user drops are at least what the transmit path counted.
    let per_user_drops: u64 = report.users.iter().map(|u| u.frames_dropped).sum();
    assert!(per_user_drops >= report.counters.frames_dropped);
    assert!(report.counters.frames_dropped > 0);
    assert!(report.counters.degraded_transitions >= 1);

    // The same families are scrapeable: slot-stage histograms, overrun
    // counters, client gauges — what the obs-smoke CI step greps for.
    for family in [
        "cvr_slot_stage_ns_bucket{stage=\"build\"",
        "cvr_slot_stage_ns_bucket{stage=\"ingest\"",
        "cvr_ticks_total 60",
        "cvr_frames_dropped_total",
        "cvr_degraded_transitions_total",
        "cvr_slot_budget_contended_total 0",
        "cvr_session_clients",
        "cvr_session_joins_total 3",
    ] {
        assert!(metrics.contains(family), "missing {family} in:\n{metrics}");
    }

    // The tracer saw the lifecycle: drops, degrades, and overruns all
    // export as typed JSONL events.
    let trace = session.tracer().to_jsonl();
    assert!(trace.contains("\"kind\":\"queue_drop\""), "{trace}");
    assert!(trace.contains("\"kind\":\"degrade\""), "{trace}");
    assert!(trace.contains("\"kind\":\"tick_overrun\""), "{trace}");
    assert!(trace.contains("\"kind\":\"client_join\""), "{trace}");
}

/// The worst a bad peer can do is lose its own connection. A peer whose
/// first frames after `Hello` name tiles the library does not hold — a
/// cell half a million cells outside the world, or level 7 of a six-level
/// ladder; both decode — is dropped in the slot it is heard, counted once,
/// and recorded nowhere: the honest client beside it is served every slot
/// and finishes exactly as it does in a run that never saw the peer.
#[test]
fn a_peer_naming_tiles_outside_the_library_loses_only_its_own_connection() {
    use cvr_content::grid::CellId;
    use cvr_content::id::VideoId;
    use cvr_content::tile::TileId;
    use cvr_core::quality::QualityLevel;

    const SLOTS: u64 = 80;
    let honest = &fleet_configs()[..1];
    let (host, clients) = classroom(ServeConfig::default(), honest);
    let (alone_server, alone_clients) = run(host, clients, SLOTS);
    assert!(alone_clients[0].assignments >= SLOTS - 2);

    let id = |x, z, q| VideoId::new(CellId { x, z }, TileId::new(1), QualityLevel::new(q));
    // 131 k ids is what one maximum-size frame carries.
    let far_away: Vec<VideoId> = (0..131_000)
        .map(|i| id(400_000 + i / 1000, i % 1000, 3))
        .collect();
    let hostile_frames = [
        ClientMessage::Ack {
            ids: far_away.clone(),
        },
        ClientMessage::Release { ids: far_away },
        ClientMessage::Ack {
            ids: vec![id(0, 0, 7)],
        },
        // One bad id among good ones spoils the frame.
        ClientMessage::Ack {
            ids: vec![id(0, 0, 6), id(-120, 120, 1), id(0, 121, 1)],
        },
    ];
    for frame in hostile_frames {
        let (mut host, mut clients) = classroom(ServeConfig::default(), honest);
        let (hostile_server_end, mut hostile) = loopback(64);
        host.add_transport(0, Box::new(hostile_server_end));
        hostile.send(&ClientMessage::Hello {
            version: PROTOCOL_VERSION,
            seed: 666,
        });
        hostile.send(&frame);

        clients[0].1.step_slot();
        host.step_slot();
        assert_eq!(host.active_users(), 1, "the peer is gone after one slot");
        assert_eq!(host.session_mut(0).counters().protocol_errors, 1);
        assert!(hostile.is_closed());

        let (server, reports) = run(host, clients, SLOTS - 1);
        assert_eq!(server.counters.joins, 2);
        assert_eq!(server.counters.protocol_errors, 1);
        assert_eq!(server.counters.ticks, SLOTS);
        assert_eq!(reports[0].protocol_errors, 0);
        assert_eq!(reports[0].assignments, alone_clients[0].assignments);
        assert_eq!(reports[0].summary, alone_clients[0].summary);
        let served = server
            .users
            .iter()
            .find(|u| u.seed == honest[0].seed)
            .expect("the honest user's summary");
        assert_eq!(*served, alone_server.users[0]);
    }
}

/// A frame the client rejects is one it does not act on: an
/// `Assignment` above the Welcome's ladder is counted once and dropped
/// whole — none of its tiles is buffered or ACKed.
#[test]
fn an_assignment_above_the_ladder_is_dropped_whole() {
    use cvr_content::grid::CellId;
    use cvr_content::id::VideoId;
    use cvr_content::tile::TileId;
    use cvr_core::quality::QualityLevel;
    use cvr_serve::protocol::ServerMessage;
    use cvr_serve::transport::ServerTransport;

    let (mut server, client_end) = loopback(64);
    let mut client = ReplayClient::new(client_end, ClientConfig::default());
    server.send(&ServerMessage::Welcome {
        version: PROTOCOL_VERSION,
        user_id: 0,
        slot_us: 15_000,
        levels: 6,
    });
    let id = |tile| {
        VideoId::new(
            CellId { x: 0, z: 0 },
            TileId::new(tile),
            QualityLevel::new(6),
        )
    };
    // Quality 7 of a six-level ladder, then a valid frame.
    for (quality, tile) in [(7, 0), (6, 1)] {
        server.send(&ServerMessage::Assignment {
            slot: 0,
            pose_seq: 0,
            quality,
            rate_mbps: 10.0,
            manifest: vec![id(tile)],
        });
        client.step_slot();
    }
    let mut acked = Vec::new();
    while let Some(Ok(message)) = server.try_recv() {
        if let ClientMessage::Ack { ids } = message {
            acked.extend(ids);
        }
    }
    assert_eq!(acked, vec![id(1)], "only the valid frame is ACKed");
    let report = client.finish();
    assert_eq!(report.protocol_errors, 1);
    assert_eq!(report.assignments, 1);
}

/// Decodable but hostile values never panic a session: every finite pose
/// component and every finite non-negative bandwidth decodes, so the
/// predictor, the estimators and the planner must take the extremes of
/// `f64` — with the sign flipping slot to slot, so the regression
/// extrapolates them — without leaving the arithmetic the slot loop
/// `expect`s to hold. The peers stay joined: nothing they sent is a
/// protocol error.
#[test]
fn decodable_but_hostile_values_never_panic_a_session() {
    use cvr_content::grid::GridWorld;
    use cvr_motion::pose::Pose;
    use cvr_net::multilink::LinkId;
    use cvr_serve::protocol::ServerMessage;
    use cvr_serve::server::Session;

    const SLOTS: u64 = 12;
    let edge = GridWorld::paper_default().extent_m;
    let hostile = [
        0.0,
        1e15,
        -1e15,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN,
        5e-324,
        edge,
        -edge,
    ];
    // Walk `w` holds all six components at `hostile[w]`; the one past the
    // end rotates the values through the components.
    let pose_of = |w: usize, seq: u64| {
        let sign = if seq.is_multiple_of(2) { 1.0 } else { -1.0 };
        Pose::from_components(std::array::from_fn(|k| {
            let rotated = (k + seq as usize) % hostile.len();
            sign * hostile[if w < hostile.len() { w } else { rotated }]
        }))
    };
    for w in 0..=hostile.len() {
        for (multicast, horizon) in [(false, 1), (false, 4), (true, 1), (true, 4)] {
            let mut session = Session::new(ServeConfig {
                multicast,
                horizon,
                ..ServeConfig::default()
            });
            // Two peers on one walk, so a multicast session groups them.
            let mut peers: Vec<_> = (0..2)
                .map(|seed| {
                    let (server_end, mut peer) = loopback(64);
                    session.add_connection(Box::new(server_end));
                    peer.send(&ClientMessage::Hello {
                        version: PROTOCOL_VERSION,
                        seed,
                    });
                    peer
                })
                .collect();
            for seq in 0..SLOTS {
                let mbps = if seq.is_multiple_of(2) { 0.0 } else { f64::MAX };
                let link = if seq % 4 < 2 {
                    LinkId::Wifi
                } else {
                    LinkId::Lte
                };
                for peer in &mut peers {
                    peer.send(&ClientMessage::Pose {
                        seq,
                        pose: pose_of(w, seq),
                    });
                    peer.send(&ClientMessage::BandwidthSample { mbps });
                    peer.send(&ClientMessage::LinkSample { link, mbps });
                }
                session.step_slot();
                for peer in &mut peers {
                    while let Some(Ok(message)) = peer.try_recv() {
                        if let ServerMessage::Assignment { manifest, .. }
                        | ServerMessage::GroupAssign { manifest, .. } = message
                        {
                            peer.send(&ClientMessage::Ack { ids: manifest });
                        }
                    }
                }
            }
            assert_eq!(session.active_users(), 2);
            assert_eq!(session.counters().protocol_errors, 0);
        }
    }
}
