//! Golden cross-commit fingerprints of the four slot-loop drivers.
//!
//! Every constant below was captured at the commit *before* the slot
//! loops were unified under `cvr_sim::pipeline::SlotPlanner`, when
//! `sim::system`, `sim::tracesim`, `sim::mcast` and `serve::Session`
//! each still hand-maintained their own target → stage → group → solve →
//! prefetch → manifest path with `multicast` / `lookahead.active()`
//! forks. Since the collapse there is one path, so the in-tree parity
//! tests ("H = 1 equals myopic", "disjoint gaze multicast ≡ unicast",
//! "singleton parity") compare that path with itself; only constants
//! pinned *across* the commit keep their meaning. A failure here means
//! the planner changed what some driver computes — never re-capture a
//! constant to make it pass without explaining the behaviour change.
//!
//! The fingerprints are FNV-1a over raw `f64` bits and assignment
//! levels, so they assume this platform's `libm` `sin`/`cos` (the
//! synthetic motion model and the classroom gaze both call them); a
//! different libm may legitimately move every constant at once.

use cvr_content::id::VideoId;
use cvr_core::fnv;
use cvr_core::qoe::{SystemQoeSummary, UserQoeSummary};
use cvr_motion::synthetic::{MotionConfig, MotionGenerator};
use cvr_net::impair::Pathology;
use cvr_serve::protocol::{ClientMessage, ServerMessage, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};
use cvr_serve::server::{ServeConfig, Session};
use cvr_serve::transport::{loopback, ClientTransport, LoopbackClientEnd};
use cvr_sim::allocators::AllocatorKind;
use cvr_sim::mcast::{self, McastConfig};
use cvr_sim::metrics::TimeSeries;
use cvr_sim::system::{self, NetScenario, SystemConfig};
use cvr_sim::tracesim::{self, TraceSimConfig};

// (a) sim::system setup-1, 5 s, seed 2022.
const SYSTEM_H1_CLEAN: u64 = 0x3ec6_6f9b_f5fc_7089;
const SYSTEM_H4_CLEAN: u64 = 0x3efd_9d95_26f0_9bc4;
const SYSTEM_H1_HANDOVER: u64 = 0x707f_07b2_8805_5609;
const SYSTEM_H4_HANDOVER: u64 = 0x3a3f_f52d_346f_afb0;
// (b) sim::tracesim, 3 users, 15 s, seed 2022.
const TRACESIM_H1: u64 = 0xd9a0_d4eb_417f_e853;
const TRACESIM_H4: u64 = 0x8047_d52e_ad6c_7941;
// (c) sim::mcast classroom, 16 users, 60 slots.
const MCAST_UNICAST: u64 = 0xe680_fb3d_928e_eac6;
const MCAST_MULTICAST: u64 = 0x3849_82e1_de31_77fc;
// (d) lockstep Session + hand-rolled loopback clients.
const SERVE_UNICAST8_H1: u64 = 0x38a4_227e_7f27_0bd0;
const SERVE_MCAST32_H4: u64 = 0x96f4_c0a0_450d_c85a;

fn fold_f64s(hash: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .fold(hash, |h, v| fnv::fold_u64(h, v.to_bits()))
}

fn fold_summaries(mut hash: u64, summary: &SystemQoeSummary, users: &[UserQoeSummary]) -> u64 {
    hash = fnv::fold_u64(hash, summary.users as u64);
    hash = fold_f64s(
        hash,
        &[
            summary.avg_qoe,
            summary.avg_quality,
            summary.avg_delay,
            summary.avg_variance,
            summary.avg_hit_rate,
        ],
    );
    for u in users {
        hash = fnv::fold_u64(hash, u.slots);
        hash = fold_f64s(
            hash,
            &[
                u.avg_viewed_quality,
                u.avg_chosen_quality,
                u.avg_delay,
                u.variance,
                u.hit_rate,
                u.total_qoe,
                u.qoe_per_slot,
            ],
        );
    }
    hash
}

fn fold_timeseries(mut hash: u64, ts: &TimeSeries) -> u64 {
    for u in 0..ts.chosen_level.len() {
        hash = fnv::fold_bytes(hash, &ts.chosen_level[u]);
        for (&viewed, &delay) in ts.viewed_quality[u].iter().zip(&ts.delay_slots[u]) {
            hash = fnv::fold_bytes(hash, &viewed.to_bits().to_le_bytes());
            hash = fnv::fold_bytes(hash, &delay.to_bits().to_le_bytes());
        }
    }
    hash
}

fn system_fingerprint(horizon: usize, scenario: Option<NetScenario>) -> u64 {
    let config = SystemConfig {
        duration_s: 5.0,
        horizon,
        scenario,
        record_timeseries: true,
        ..SystemConfig::setup1(2022)
    };
    let r = system::run(&config, AllocatorKind::DensityValueGreedy);
    let mut hash = fold_summaries(fnv::OFFSET, &r.summary, &r.users);
    hash = fold_f64s(hash, &[r.fps, r.loss_rate, r.cache_hit_rate]);
    hash = fnv::fold_u64(hash, r.link_switches);
    fold_timeseries(hash, r.timeseries.as_ref().expect("requested"))
}

fn tracesim_fingerprint(horizon: usize) -> u64 {
    let config = TraceSimConfig {
        duration_s: 15.0,
        horizon,
        record_timeseries: true,
        ..TraceSimConfig::paper_default(3, 2022)
    };
    let r = tracesim::run(&config, AllocatorKind::DensityValueGreedy);
    let hash = fold_summaries(fnv::OFFSET, &r.summary, &r.users);
    fold_timeseries(hash, r.timeseries.as_ref().expect("requested"))
}

fn mcast_fingerprint(multicast: bool) -> u64 {
    let r = mcast::run(&McastConfig {
        slots: 60,
        ..McastConfig::classroom(16, multicast)
    });
    let hash = fnv::fold_u64(fnv::OFFSET, r.fingerprint);
    let hash = fold_f64s(hash, &[r.delivered_quality, r.wire_mbit, r.mean_group_size]);
    fnv::fold_u64(hash, r.peak_multicast_groups as u64)
}

fn fold_manifest(mut hash: u64, manifest: &[VideoId]) -> u64 {
    hash = fnv::fold_u64(hash, manifest.len() as u64);
    for id in manifest {
        hash = fnv::fold_u64(hash, id.cell().x as u64);
        hash = fnv::fold_u64(hash, id.cell().z as u64);
        hash = fnv::fold_bytes(hash, &[id.tile().get(), id.quality().get()]);
    }
    hash
}

/// Drives `clients` hand-rolled loopback clients in lockstep against one
/// session for `slots` slots and hashes every frame each client receives:
/// `(client, slot, kind, quality, rate bits, manifest)`. Clients are cut
/// into `clusters` co-gazing clusters that replay one synthetic motion
/// trace each (so cluster members share cell, FoV and — while they ACK
/// alike — ledger state); every eighth client withholds its ACKs every
/// fifth slot so ledgers diverge and groups dissolve and re-form, and the
/// last client of a multicast session speaks protocol v2 (the unicast
/// fallback inside a multicast session). Also returns how many
/// `GroupAssign` frames and how many cross-cell (prefetch-carrying)
/// manifests were seen, so the caller can assert the stream exercised what
/// it is meant to pin.
fn serve_fingerprint(
    config: ServeConfig,
    clients: usize,
    clusters: usize,
    slots: u64,
) -> (u64, usize, usize) {
    let multicast = config.multicast;
    let mut session = Session::new(ServeConfig {
        max_users: clients,
        ..config
    });
    let mut motion: Vec<MotionGenerator> = (0..clusters)
        .map(|c| MotionGenerator::new(MotionConfig::paper_default(), 2022 + c as u64))
        .collect();
    let mut ends: Vec<LoopbackClientEnd> = (0..clients)
        .map(|c| {
            let (server_end, mut client_end) = loopback(64);
            session.add_connection(Box::new(server_end));
            let version = if multicast && c + 1 == clients {
                MIN_PROTOCOL_VERSION
            } else {
                PROTOCOL_VERSION
            };
            client_end.send(&ClientMessage::Hello {
                version,
                seed: 100 + c as u64,
            });
            client_end
        })
        .collect();
    let mut hash = fnv::OFFSET;
    let mut group_frames = 0;
    let mut prefetch_manifests = 0;
    for seq in 0..slots {
        let poses: Vec<_> = motion.iter_mut().map(|g| g.step()).collect();
        for (c, end) in ends.iter_mut().enumerate() {
            end.send(&ClientMessage::Pose {
                seq,
                pose: poses[c % clusters],
            });
            end.send(&ClientMessage::BandwidthSample {
                mbps: 30.0 + 3.0 * (c % 8) as f64,
            });
        }
        session.step_slot();
        for (c, end) in ends.iter_mut().enumerate() {
            while let Some(Ok(message)) = end.try_recv() {
                let (kind, slot, quality, rate_mbps, manifest) = match message {
                    ServerMessage::Assignment {
                        slot,
                        quality,
                        rate_mbps,
                        manifest,
                        ..
                    } => (0u8, slot, quality, rate_mbps, manifest),
                    ServerMessage::GroupAssign {
                        slot,
                        quality,
                        rate_mbps,
                        manifest,
                        ..
                    } => (1u8, slot, quality, rate_mbps, manifest),
                    _ => continue,
                };
                group_frames += usize::from(kind == 1);
                prefetch_manifests +=
                    usize::from(manifest.windows(2).any(|w| w[0].cell() != w[1].cell()));
                hash = fnv::fold_u64(hash, c as u64);
                hash = fnv::fold_u64(hash, slot);
                hash = fnv::fold_bytes(hash, &[kind, quality]);
                hash = fnv::fold_u64(hash, rate_mbps.to_bits());
                hash = fold_manifest(hash, &manifest);
                let withholds = c % 8 == 7 && seq % 5 == 4;
                if !manifest.is_empty() && !withholds {
                    end.send(&ClientMessage::Ack { ids: manifest });
                }
            }
        }
    }
    assert_eq!(session.counters().protocol_errors, 0);
    assert_eq!(session.counters().joins, clients as u64);
    session.shutdown();
    for user in &session.report().users {
        hash = fnv::fold_u64(hash, user.qoe.qoe_per_slot.to_bits());
    }
    (hash, group_frames, prefetch_manifests)
}

/// Compares every `(name, got, want)` triple at once so a single run
/// lists every constant that moved.
fn check(rows: &[(&str, u64, u64)]) {
    let moved: Vec<String> = rows
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "golden fingerprints moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn system_sim_fingerprints_are_pinned() {
    let handover = Some(NetScenario::paper_default(Pathology::Handover));
    check(&[
        (
            "SYSTEM_H1_CLEAN",
            system_fingerprint(1, None),
            SYSTEM_H1_CLEAN,
        ),
        (
            "SYSTEM_H4_CLEAN",
            system_fingerprint(4, None),
            SYSTEM_H4_CLEAN,
        ),
        (
            "SYSTEM_H1_HANDOVER",
            system_fingerprint(1, handover),
            SYSTEM_H1_HANDOVER,
        ),
        (
            "SYSTEM_H4_HANDOVER",
            system_fingerprint(4, handover),
            SYSTEM_H4_HANDOVER,
        ),
    ]);
}

#[test]
fn trace_sim_fingerprints_are_pinned() {
    check(&[
        ("TRACESIM_H1", tracesim_fingerprint(1), TRACESIM_H1),
        ("TRACESIM_H4", tracesim_fingerprint(4), TRACESIM_H4),
    ]);
}

#[test]
fn classroom_sim_fingerprints_are_pinned() {
    check(&[
        ("MCAST_UNICAST", mcast_fingerprint(false), MCAST_UNICAST),
        ("MCAST_MULTICAST", mcast_fingerprint(true), MCAST_MULTICAST),
    ]);
}

#[test]
fn live_session_frame_streams_are_pinned() {
    let (unicast, unicast_groups, unicast_prefetch) =
        serve_fingerprint(ServeConfig::default(), 8, 8, 160);
    assert_eq!((unicast_groups, unicast_prefetch), (0, 0));
    let (lecture, lecture_groups, lecture_prefetch) = serve_fingerprint(
        ServeConfig {
            multicast: true,
            horizon: 4,
            ..ServeConfig::default()
        },
        32,
        4,
        160,
    );
    assert!(
        lecture_groups > 0,
        "the lecture never formed a multicast group"
    );
    assert!(
        lecture_prefetch > 0,
        "the lecture never carried a prefetch tile"
    );
    check(&[
        ("SERVE_UNICAST8_H1", unicast, SERVE_UNICAST8_H1),
        ("SERVE_MCAST32_H4", lecture, SERVE_MCAST32_H4),
    ]);
}
