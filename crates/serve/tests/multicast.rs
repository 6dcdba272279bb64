//! Multicast-mode determinism:
//!
//! * co-located users form groups and the full downstream frame stream
//!   (kind, group id, quality, rate bits, manifest) is bit-identical
//!   between two runs;
//! * a multicast session whose users all gaze in different directions
//!   degenerates to singletons and reproduces the unicast session bit
//!   for bit (the session-level face of the Theorem-1 parity guarantee);
//! * shard layout never changes multicast outcomes (1 vs 4 shards);
//! * a member leaving mid-sequence stops receiving immediately and the
//!   survivors keep their group.

use cvr_content::id::VideoId;
use cvr_motion::pose::{Orientation, Pose, Vec3};
use cvr_serve::client::{ClientConfig, ClientReport};
use cvr_serve::harness::sharded_loopback_fleet;
use cvr_serve::protocol::{ClientMessage, ServerMessage, PROTOCOL_VERSION};
use cvr_serve::server::{ServeConfig, Session};
use cvr_serve::shard::HostConfig;
use cvr_serve::transport::{loopback, ClientTransport, LoopbackClientEnd};

/// One downstream frame: (client, slot, kind, group_id, quality,
/// rate bits, manifest). Unicast assignments carry `kind = 0` and a
/// `u64::MAX` group id; group assignments carry `kind = 1`.
type Frame = (usize, u64, u8, u64, u8, u64, Vec<VideoId>);

fn join_with(session: &mut Session, seed: u64) -> LoopbackClientEnd {
    let (server_end, mut client_end) = loopback(64);
    session.add_connection(Box::new(server_end));
    client_end.send(&ClientMessage::Hello {
        version: PROTOCOL_VERSION,
        seed,
    });
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

/// What [`drive`] observed: the frame stream, the final per-user QoE
/// bits, the peak multicast group count, and the session's
/// `cvr_sent_bits_total`.
type Drive = (Vec<Frame>, Vec<u64>, usize, u64);

/// Drives `yaws.len()` hand-rolled loopback clients, each holding a
/// fixed gaze, for `slots` slots.
fn drive(config: ServeConfig, yaws: &[f64], slots: u64) -> Drive {
    let mut session = Session::new(config);
    let mut clients: Vec<_> = yaws
        .iter()
        .enumerate()
        .map(|(c, _)| join_with(&mut session, 100 + c as u64))
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
    (frames, qoe, max_groups, session.counters().sent_bits)
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
    let (frames, qoe, max_groups, sent_bits) = run();
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
    assert_eq!((frames, qoe, max_groups, sent_bits), run());
}

#[test]
fn sent_bits_count_each_group_payload_once_per_quality() {
    let config = ServeConfig {
        multicast: true,
        ..ServeConfig::default()
    };
    let slot_s = config.slot_duration.as_secs_f64();
    let (frames, _, max_groups, sent_bits) = drive(config, &[10.0, 10.0, 10.0, 100.0], 32);
    assert!(max_groups >= 1, "the co-gazing trio never grouped");
    let bits = |rate: u64| (f64::from_bits(rate) * slot_s * 1e6).round() as u64;
    let mut payloads = std::collections::HashSet::new();
    let (mut unique, mut per_member) = (0, 0);
    for &(_, slot, kind, gid, quality, rate, _) in &frames {
        per_member += bits(rate);
        if kind == 0 || payloads.insert((slot, gid, quality)) {
            unique += bits(rate);
        }
    }
    assert!(unique < per_member, "no payload was shared");
    assert_eq!(sent_bits, unique);
}

#[test]
fn disjoint_gaze_multicast_is_bit_identical_to_unicast() {
    // Four users, four distinct orientation buckets: every group is a
    // singleton, so the multicast session must reproduce the unicast
    // session bit for bit — same frames (all plain assignments, since
    // singletons take the unicast transmit path), same QoE.
    let yaws = [10.0, 100.0, 190.0, 280.0];
    let (mc_frames, mc_qoe, max_groups, mc_bits) = drive(
        ServeConfig {
            multicast: true,
            ..ServeConfig::default()
        },
        &yaws,
        32,
    );
    let (uc_frames, uc_qoe, _, uc_bits) = drive(ServeConfig::default(), &yaws, 32);
    assert_eq!(max_groups, 0, "disjoint gazes must never group");
    assert!(mc_frames.iter().all(|f| f.2 == 0));
    assert_eq!(mc_frames, uc_frames);
    assert_eq!(mc_qoe, uc_qoe);
    assert_eq!(mc_bits, uc_bits);
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
        let mut client = join_with(&mut session, 500);
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
        .map(|c| join_with(&mut session, 200 + c as u64))
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
    let mut reader = join_with(&mut session, 600);
    let mut silent = join_with(&mut session, 601);
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
