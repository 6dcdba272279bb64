//! Multicast-mode determinism and compatibility:
//!
//! * co-located users form groups and the full downstream frame stream
//!   (kind, group id, quality, rate bits, manifest) is bit-identical
//!   between two runs;
//! * a multicast session whose users all gaze in different directions
//!   degenerates to singletons and reproduces the unicast session bit
//!   for bit (the session-level face of the Theorem-1 parity guarantee);
//! * shard layout never changes multicast outcomes (1 vs 4 shards);
//! * a member leaving mid-sequence stops receiving immediately and the
//!   survivors keep their group;
//! * a protocol-v2 client in a multicast session is served over the
//!   unicast fallback with zero protocol errors on either side.

use cvr_content::id::VideoId;
use cvr_motion::pose::{Orientation, Pose, Vec3};
use cvr_serve::client::{ClientConfig, ClientReport};
use cvr_serve::harness::{loopback_fleet, run_lockstep, sharded_loopback_fleet};
use cvr_serve::protocol::{ClientMessage, ServerMessage, PROTOCOL_VERSION};
use cvr_serve::server::{ServeConfig, Session};
use cvr_serve::shard::HostConfig;
use cvr_serve::transport::{loopback, ClientTransport, LoopbackClientEnd};

/// One downstream frame: (client, slot, kind, group_id, quality,
/// rate bits, manifest). Unicast assignments carry `kind = 0` and a
/// `u64::MAX` group id; group assignments carry `kind = 1`.
type Frame = (usize, u64, u8, u64, u8, u64, Vec<VideoId>);

fn join_with(session: &mut Session, seed: u64, version: u16) -> LoopbackClientEnd {
    let (server_end, mut client_end) = loopback(64);
    session.add_connection(Box::new(server_end));
    client_end.send(&ClientMessage::Hello { version, seed });
    client_end
}

/// A pose safely inside one orientation bucket; equal yaws share a FoV
/// tile set, yaws ~90° apart land in different buckets.
fn gaze(yaw: f64) -> Pose {
    Pose {
        position: Vec3::new(0.4, 1.6, -0.3),
        orientation: Orientation {
            yaw,
            pitch: 5.0,
            roll: 0.0,
        },
    }
}

/// Drains one client, recording every downstream frame and ACKing every
/// manifest so co-gazing clients stay ledger-identical.
fn drain_and_ack(c: usize, client: &mut LoopbackClientEnd, frames: &mut Vec<Frame>) {
    while let Some(Ok(message)) = client.try_recv() {
        match message {
            ServerMessage::Assignment {
                slot,
                quality,
                rate_mbps,
                manifest,
                ..
            } => {
                frames.push((
                    c,
                    slot,
                    0,
                    u64::MAX,
                    quality,
                    rate_mbps.to_bits(),
                    manifest.clone(),
                ));
                if !manifest.is_empty() {
                    client.send(&ClientMessage::Ack { ids: manifest });
                }
            }
            ServerMessage::GroupAssign {
                slot,
                group_id,
                quality,
                rate_mbps,
                manifest,
            } => {
                frames.push((
                    c,
                    slot,
                    1,
                    group_id,
                    quality,
                    rate_mbps.to_bits(),
                    manifest.clone(),
                ));
                if !manifest.is_empty() {
                    client.send(&ClientMessage::Ack { ids: manifest });
                }
            }
            _ => {}
        }
    }
}

/// Drives `yaws.len()` hand-rolled loopback clients, each holding a
/// fixed gaze, for `slots` slots. Returns the frame stream, the final
/// per-user QoE bits, and the peak multicast group count.
fn drive(config: ServeConfig, yaws: &[f64], slots: u64) -> (Vec<Frame>, Vec<u64>, usize) {
    let mut session = Session::new(config);
    let mut clients: Vec<_> = yaws
        .iter()
        .enumerate()
        .map(|(c, _)| join_with(&mut session, 100 + c as u64, PROTOCOL_VERSION))
        .collect();
    let mut frames = Vec::new();
    let mut max_groups = 0;
    for seq in 0..slots {
        for (c, client) in clients.iter_mut().enumerate() {
            client.send(&ClientMessage::Pose {
                seq,
                pose: gaze(yaws[c]),
            });
            client.send(&ClientMessage::BandwidthSample {
                mbps: 30.0 + 5.0 * c as f64,
            });
        }
        session.step_slot();
        max_groups = max_groups.max(session.multicast_groups());
        for (c, client) in clients.iter_mut().enumerate() {
            drain_and_ack(c, client, &mut frames);
        }
    }
    assert_eq!(session.counters().protocol_errors, 0);
    session.shutdown();
    let qoe = session
        .report()
        .users
        .iter()
        .map(|u| u.qoe.qoe_per_slot.to_bits())
        .collect();
    (frames, qoe, max_groups)
}

#[test]
fn co_gazing_users_group_and_a_second_run_serves_the_same_stream() {
    // Two co-located gaze clusters of two users each.
    let yaws = [10.0, 10.0, 100.0, 100.0];
    let run = || {
        drive(
            ServeConfig {
                multicast: true,
                ..ServeConfig::default()
            },
            &yaws,
            32,
        )
    };
    let (frames, qoe, max_groups) = run();
    assert!(
        max_groups >= 1,
        "co-gazing users never formed a multicast group"
    );
    assert!(
        frames.iter().any(|f| f.2 == 1),
        "no GroupAssign frame was delivered"
    );
    // Both members of the first gaze cluster see the same group id in
    // every slot where the group delivered.
    for slot in frames.iter().filter(|f| f.2 == 1).map(|f| f.1) {
        let gids: Vec<u64> = frames
            .iter()
            .filter(|f| f.2 == 1 && f.1 == slot && f.0 < 2)
            .map(|f| f.3)
            .collect();
        assert!(
            gids.windows(2).all(|w| w[0] == w[1]),
            "slot {slot}: cluster members disagree on group id: {gids:?}"
        );
    }
    assert_eq!((frames, qoe, max_groups), run());
}

#[test]
fn disjoint_gaze_multicast_is_bit_identical_to_unicast() {
    // Four users, four distinct orientation buckets: every group is a
    // singleton, so the multicast session must reproduce the unicast
    // session bit for bit — same frames (all plain assignments, since
    // singletons take the unicast transmit path), same QoE.
    let yaws = [10.0, 100.0, 190.0, 280.0];
    let (mc_frames, mc_qoe, max_groups) = drive(
        ServeConfig {
            multicast: true,
            ..ServeConfig::default()
        },
        &yaws,
        32,
    );
    let (uc_frames, uc_qoe, _) = drive(ServeConfig::default(), &yaws, 32);
    assert_eq!(max_groups, 0, "disjoint gazes must never group");
    assert!(mc_frames.iter().all(|f| f.2 == 0));
    assert_eq!(mc_frames, uc_frames);
    assert_eq!(mc_qoe, uc_qoe);
}

/// FNV-1a fingerprint of a frame stream (the bench fingerprint idiom, so
/// parity failures print as two comparable hashes).
fn stream_fingerprint(frames: &[Frame]) -> u64 {
    use cvr_core::fnv::fold_u64 as mix;
    let mut h = cvr_core::fnv::OFFSET;
    for (c, slot, kind, gid, quality, rate, manifest) in frames {
        h = mix(h, *c as u64);
        h = mix(h, *slot);
        h = mix(h, *kind as u64);
        h = mix(h, *gid);
        h = mix(h, *quality as u64);
        h = mix(h, *rate);
        for vid in manifest {
            h = mix(h, vid.cell().x as u64);
            h = mix(h, vid.cell().z as u64);
            h = mix(h, vid.tile().get() as u64);
            h = mix(h, vid.quality().get() as u64);
        }
    }
    h
}

#[test]
fn prefetching_singleton_session_keeps_unicast_parity() {
    // One walking user at lookahead horizon 4: the prefetch pass engages
    // (predicted future cells differ from the current cell, so manifests
    // carry cross-cell prefetch extensions), and since a lone user only
    // ever forms a singleton group, the multicast session must still
    // reproduce the unicast session bit for bit.
    let walk = |multicast: bool| {
        let mut session = Session::new(ServeConfig {
            multicast,
            horizon: 4,
            ..ServeConfig::default()
        });
        let mut client = join_with(&mut session, 500, PROTOCOL_VERSION);
        let mut frames = Vec::new();
        for seq in 0..48u64 {
            let t = seq as f64;
            client.send(&ClientMessage::Pose {
                seq,
                pose: Pose {
                    position: Vec3::new(0.08 * t, 1.6, -0.06 * t),
                    orientation: Orientation {
                        yaw: 4.0 * t,
                        pitch: 0.0,
                        roll: 0.0,
                    },
                },
            });
            client.send(&ClientMessage::BandwidthSample { mbps: 45.0 });
            session.step_slot();
            assert_eq!(session.multicast_groups(), 0);
            drain_and_ack(0, &mut client, &mut frames);
        }
        assert_eq!(session.counters().protocol_errors, 0);
        frames
    };
    let unicast = walk(false);
    let mcast = walk(true);
    assert!(
        unicast
            .iter()
            .any(|f| f.6.windows(2).any(|w| w[0].cell() != w[1].cell())),
        "prefetch never extended a manifest with a future-cell tile"
    );
    assert!(
        mcast.iter().all(|f| f.2 == 0),
        "singletons must stay unicast"
    );
    assert_eq!(stream_fingerprint(&unicast), stream_fingerprint(&mcast));
    assert_eq!(unicast, mcast);
}

#[test]
fn shard_layout_does_not_change_multicast_outcomes() {
    // 8 replay clients over 2 sessions. Join routing alternates
    // sessions, so seed pairs arranged A B A B C D C D land as
    // {A A C C} and {B B D D}: every session holds two co-moving pairs
    // (identical seed => identical pose walk => shared FoV).
    let seeds = [11u64, 21, 11, 21, 31, 41, 31, 41];
    let configs: Vec<ClientConfig> = seeds
        .iter()
        .map(|&seed| ClientConfig {
            seed,
            bandwidth_mbps: 40.0,
            ..ClientConfig::default()
        })
        .collect();
    let run = |shards: usize| {
        let (mut host, mut clients) = sharded_loopback_fleet(
            HostConfig {
                shards,
                session: ServeConfig {
                    multicast: true,
                    ..ServeConfig::default()
                },
            },
            2,
            &configs,
        );
        let mut max_groups = 0;
        for _ in 0..120 {
            for (_, client) in &mut clients {
                client.step_slot();
            }
            host.step_slot();
            for sid in 0..2 {
                max_groups = max_groups.max(host.session_mut(sid).multicast_groups());
            }
        }
        host.shutdown();
        let sessions: Vec<_> = host
            .reports()
            .into_iter()
            .map(|(id, report)| {
                (
                    id,
                    report.counters.joins,
                    report.counters.protocol_errors,
                    report.users.clone(),
                )
            })
            .collect();
        let clients: Vec<ClientReport> = clients.into_iter().map(|(_, c)| c.finish()).collect();
        (sessions, clients, max_groups)
    };
    let (sessions_one, clients_one, groups_one) = run(1);
    let (sessions_four, clients_four, groups_four) = run(4);
    assert!(groups_one >= 1, "co-moving seed pairs never formed a group");
    assert_eq!(groups_one, groups_four);
    assert_eq!(sessions_one, sessions_four);
    assert_eq!(clients_one.len(), clients_four.len());
    for (a, b) in clients_one.iter().zip(&clients_four) {
        assert_eq!(a.user_id, b.user_id);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.protocol_errors, 0);
    }
}

#[test]
fn departed_member_stops_receiving_and_survivors_keep_their_group() {
    let mut session = Session::new(ServeConfig {
        multicast: true,
        ..ServeConfig::default()
    });
    let mut clients: Vec<_> = (0..3)
        .map(|c| join_with(&mut session, 200 + c as u64, PROTOCOL_VERSION))
        .collect();
    let mut frames = Vec::new();
    let step = |session: &mut Session,
                clients: &mut Vec<LoopbackClientEnd>,
                frames: &mut Vec<Frame>,
                seq: u64,
                skip: Option<usize>| {
        for (c, client) in clients.iter_mut().enumerate() {
            if Some(c) == skip {
                continue;
            }
            client.send(&ClientMessage::Pose {
                seq,
                pose: gaze(10.0),
            });
            client.send(&ClientMessage::BandwidthSample { mbps: 40.0 });
        }
        session.step_slot();
        for (c, client) in clients.iter_mut().enumerate() {
            if Some(c) == skip {
                continue;
            }
            drain_and_ack(c, client, frames);
        }
    };
    for seq in 0..8 {
        step(&mut session, &mut clients, &mut frames, seq, None);
    }
    assert!(session.multicast_groups() >= 1);

    // User 1 leaves mid-sequence; the departure slot is the next slot
    // the server plans.
    let bye_slot = session.slot();
    clients[1].send(&ClientMessage::Bye);
    for seq in 8..20 {
        step(&mut session, &mut clients, &mut frames, seq, Some(1));
    }
    assert_eq!(session.active_users(), 2);
    assert_eq!(session.counters().leaves, 1);
    assert_eq!(session.counters().protocol_errors, 0);

    // No frame reaches the departed user at or after the Bye slot — a
    // stale group row must never deliver to a member who left.
    let mut departed = Vec::new();
    drain_and_ack(1, &mut clients[1], &mut departed);
    assert!(
        departed.iter().all(|f| f.1 < bye_slot),
        "departed user received frames after leaving: {departed:?}"
    );
    // The two survivors re-form a group of two and keep receiving.
    assert!(session.multicast_groups() >= 1);
    for c in [0usize, 2] {
        assert!(
            frames
                .iter()
                .any(|f| f.0 == c && f.2 == 1 && f.1 >= bye_slot),
            "survivor {c} stopped receiving group assignments"
        );
    }
}

#[test]
fn a_silent_group_member_keeps_its_welcome() {
    let mut session = Session::new(ServeConfig {
        multicast: true,
        ..ServeConfig::default()
    });
    let mut reader = join_with(&mut session, 600, PROTOCOL_VERSION);
    let mut silent = join_with(&mut session, 601, PROTOCOL_VERSION);
    // One gaze well inside its cell and orientation bucket, so both users
    // share a group row. Neither ACKs, so their ledgers stay identical.
    let pose = Pose {
        position: Vec3::new(0.51, 1.7, 0.52),
        orientation: Orientation {
            yaw: 3.75,
            pitch: 3.75,
            roll: 0.0,
        },
    };
    let mut max_groups = 0;
    for seq in 0..100 {
        for client in [&mut reader, &mut silent] {
            client.send(&ClientMessage::Pose { seq, pose });
            client.send(&ClientMessage::BandwidthSample { mbps: 40.0 });
        }
        session.step_slot();
        max_groups = max_groups.max(session.multicast_groups());
        while reader.try_recv().is_some() {}
    }
    assert!(max_groups >= 1, "the two users never shared a group row");
    // The silent user's queue overflowed with per-slot frames; the next
    // slot supersedes those, never the Welcome.
    assert!(session.counters().frames_dropped > 0);
    assert!(matches!(
        silent.try_recv(),
        Some(Ok(ServerMessage::Welcome { .. }))
    ));
    while let Some(frame) = silent.try_recv() {
        assert!(matches!(
            frame,
            Ok(ServerMessage::Assignment { .. } | ServerMessage::GroupAssign { .. })
        ));
    }
    assert_eq!(session.counters().protocol_errors, 0);
}

#[test]
fn v2_client_in_a_multicast_session_falls_back_to_unicast() {
    let mut session = Session::new(ServeConfig {
        multicast: true,
        ..ServeConfig::default()
    });
    // Two v3 clients and one v2 client, all gazing at the same spot: the
    // v3 pair groups, the v2 user must be served plain assignments.
    let mut v3a = join_with(&mut session, 300, PROTOCOL_VERSION);
    let mut v3b = join_with(&mut session, 301, PROTOCOL_VERSION);
    let mut v2 = join_with(&mut session, 302, PROTOCOL_VERSION - 1);
    let mut frames = Vec::new();
    for seq in 0..24 {
        for client in [&mut v3a, &mut v3b, &mut v2] {
            client.send(&ClientMessage::Pose {
                seq,
                pose: gaze(10.0),
            });
            client.send(&ClientMessage::BandwidthSample { mbps: 40.0 });
        }
        session.step_slot();
        for (c, client) in [&mut v3a, &mut v3b, &mut v2].into_iter().enumerate() {
            drain_and_ack(c, client, &mut frames);
        }
    }
    assert_eq!(session.active_users(), 3);
    assert_eq!(session.counters().protocol_errors, 0);
    assert!(session.multicast_groups() >= 1);
    let v2_frames: Vec<_> = frames.iter().filter(|f| f.0 == 2).collect();
    assert!(!v2_frames.is_empty(), "v2 user was never served");
    assert!(
        v2_frames.iter().all(|f| f.2 == 0),
        "v2 user received a GroupAssign frame"
    );
    assert!(frames.iter().any(|f| f.0 < 2 && f.2 == 1));
}

#[test]
fn mixed_version_replay_fleet_runs_clean() {
    // End-to-end over the replay-client harness: a v2 replay client in a
    // multicast session completes the run with zero protocol errors.
    let configs: Vec<ClientConfig> = (0..3)
        .map(|c| ClientConfig {
            seed: 400 + c as u64,
            protocol_version: if c == 2 {
                PROTOCOL_VERSION - 1
            } else {
                PROTOCOL_VERSION
            },
            ..ClientConfig::default()
        })
        .collect();
    let (session, clients) = loopback_fleet(
        ServeConfig {
            multicast: true,
            ..ServeConfig::default()
        },
        &configs,
    );
    let (server_report, client_reports) = run_lockstep(session, clients, 80);
    assert_eq!(server_report.counters.joins, 3);
    assert_eq!(server_report.counters.protocol_errors, 0);
    for report in &client_reports {
        assert!(report.welcomed);
        assert!(report.assignments > 40);
        assert_eq!(report.protocol_errors, 0);
    }
}
