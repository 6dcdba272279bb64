//! Layer probes: each replays one crate's public function over the
//! inputs a traced pass recorded at the taps — the poses, ACKs,
//! bandwidth samples and frames this workload really produced — and
//! reports its cost per call, or the hit ratio of the cache it drives.
//!
//! A probe measures a layer in isolation (hot caches, no interleaving
//! with the rest of the slot), so its figure is a lower bound on what
//! the layer costs in situ; the spans and `ServeReport` stage means are
//! the in-situ view.

use std::hint::black_box;

use cvr_content::cache::{ClientTileBuffer, DeliveryLedger, UndeliveredSums};
use cvr_content::grid::CellId;
use cvr_content::id::VideoId;
use cvr_content::library::ContentLibrary;
use cvr_content::plane::{RatePlane, SharedFovCache, DEFAULT_PLANE_CELLS};
use cvr_content::tile::{tiles_for_pose, TileId};
use cvr_core::engine::SlotEngine;
use cvr_core::stage::{stage_rates_values, CONTROL_OVERHEAD_MBPS};
use cvr_lookahead::{AnticipatoryDegrade, DegradeConfig};
use cvr_mcast::{content_fingerprint, stage_group, GroupKey, GroupMember, GroupTracker};
use cvr_motion::pose::Pose;
use cvr_motion::predict::LinearPredictor;
use cvr_net::estimate::EmaEstimator;
use cvr_serve::protocol::{ClientMessage, ServerMessage};
use cvr_serve::server::ServeConfig;

use crate::spans::now_ns;
use crate::stats::median;
use crate::workloads::{Block, Workload, SLOT};

/// Runs `pass` three times; the median nanoseconds per item (0 when
/// there is nothing to replay). Each pass rebuilds its own state.
fn ns_per_item(items: usize, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let start = now_ns();
            pass();
            (now_ns() - start) as f64 / items as f64
        })
        .collect();
    median(&runs)
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The per-level undelivered-rate sums of a cell's tiles when nothing
/// has been delivered yet, folded in tile order like the build does.
fn fresh_sums(rows: &[f64], tiles: &[TileId], levels: usize) -> Vec<f64> {
    let count = usize::from(TileId::COUNT);
    (0..levels)
        .map(|l| {
            tiles
                .iter()
                .map(|t| rows[l * count + usize::from(t.get())])
                .sum()
        })
        .collect()
}

/// Runs every probe over the traced block's recorded inputs. Returns
/// `(metric name, value)` pairs.
pub fn run(w: &Workload, block: &Block) -> Vec<(&'static str, f64)> {
    let library = ContentLibrary::paper_default();
    let levels = library.quality_set().len();
    let config = ServeConfig::default();
    let weights: Vec<f64> = (1..=levels).map(|l| l as f64).collect();
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // Recorded inputs, per connection in join order.
    let poses: Vec<Vec<Pose>> = block
        .server_logs
        .iter()
        .map(|log| {
            log.upstream
                .iter()
                .filter_map(|m| match m {
                    ClientMessage::Pose { pose, .. } => Some(*pose),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let pose_count: usize = poses.iter().map(Vec::len).sum();
    let longest = poses.iter().map(Vec::len).max().unwrap_or(0);
    let cells: Vec<Vec<CellId>> = poses
        .iter()
        .map(|ps| {
            ps.iter()
                .map(|p| library.grid().cell_of(&p.position))
                .collect()
        })
        .collect();

    // content.client_buffer: ClientTileBuffer::store over the manifests
    // each client received.
    let manifests: Vec<Vec<&[VideoId]>> = block
        .client_logs
        .iter()
        .map(|log| {
            log.messages
                .iter()
                .filter_map(|m| match m {
                    ServerMessage::Assignment { manifest, .. }
                    | ServerMessage::GroupAssign { manifest, .. } => Some(manifest.as_slice()),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let manifest_ids: usize = manifests.iter().flatten().map(|m| m.len()).sum();
    out.push((
        "content.client_buffer.store_ns_per_id",
        ns_per_item(manifest_ids, || {
            for client in &manifests {
                let mut buffer = ClientTileBuffer::new(600);
                for manifest in client {
                    for &id in *manifest {
                        black_box(buffer.store(id));
                    }
                }
            }
        }),
    ));

    // core.stage: the fused staging kernel over one row per recorded
    // pose, sums taken from the rate plane's rows for that pose's cell.
    let mut plane = RatePlane::new(library.sizing().clone(), DEFAULT_PLANE_CELLS);
    let mut row_sums: Vec<f64> = Vec::with_capacity(pose_count * levels);
    for (ps, cs) in poses.iter().zip(&cells) {
        for (pose, &cell) in ps.iter().zip(cs) {
            let tiles = tiles_for_pose(library.fov(), pose);
            row_sums.extend(fresh_sums(plane.rows(cell), &tiles, levels));
        }
    }
    let mut rates = vec![0.0; levels];
    let mut values = vec![0.0; levels];
    out.push((
        "core.stage.kernel_ns_per_row",
        ns_per_item(pose_count, || {
            for sums in row_sums.chunks_exact(levels) {
                stage_rates_values(
                    sums,
                    CONTROL_OVERHEAD_MBPS,
                    &weights,
                    &mut rates,
                    &mut values,
                );
                black_box((&rates, &values));
            }
        }),
    ));

    // motion.predict: observe every pose, predict every horizon step.
    out.push((
        "motion.predict.ns_per_call",
        ns_per_item(pose_count * (1 + w.horizon), || {
            for ps in &poses {
                let mut predictor = LinearPredictor::paper_default();
                for pose in ps {
                    predictor.observe(pose);
                    for h in 1..=w.horizon {
                        black_box(predictor.predict(h));
                    }
                }
            }
        }),
    ));

    // content.library: the FoV request both ends derive from a pose.
    out.push((
        "content.library.request_ns_per_call",
        ns_per_item(pose_count, || {
            for pose in poses.iter().flatten() {
                black_box(library.request_for(pose));
            }
        }),
    ));

    // content.plane / content.fov_cache: one cache per session, touched
    // in slot order by that session's users, as the build does.
    let mut planes: Vec<RatePlane> = Vec::new();
    let plane_ns = ns_per_item(pose_count, || {
        planes = (0..w.sessions)
            .map(|_| RatePlane::new(library.sizing().clone(), DEFAULT_PLANE_CELLS))
            .collect();
        for k in 0..longest {
            for (i, cs) in cells.iter().enumerate() {
                if let Some(&cell) = cs.get(k) {
                    black_box(planes[i % w.sessions].rows(cell));
                }
            }
        }
    });
    let (plane_hits, plane_misses) = planes
        .iter()
        .map(RatePlane::stats)
        .fold((0, 0), |a, s| (a.0 + s.0, a.1 + s.1));
    out.push(("content.plane.rows_ns_per_lookup", plane_ns));
    out.push(("content.plane.hit_ratio", ratio(plane_hits, plane_misses)));
    out.push((
        "content.plane.resident_cells",
        planes.iter().map(RatePlane::resident_cells).sum::<usize>() as f64,
    ));
    let mut fov_caches: Vec<SharedFovCache> = (0..w.sessions)
        .map(|_| SharedFovCache::new(*library.fov()))
        .collect();
    for k in 0..longest {
        for (i, ps) in poses.iter().enumerate() {
            if let Some(pose) = ps.get(k) {
                black_box(fov_caches[i % w.sessions].tiles_for(pose));
            }
        }
    }
    let (fov_hits, fov_misses) = fov_caches
        .iter()
        .map(SharedFovCache::stats)
        .fold((0, 0), |a, s| (a.0 + s.0, a.1 + s.1));
    out.push(("content.fov_cache.hit_ratio", ratio(fov_hits, fov_misses)));

    // content.ledger: the paired ACK/Release calls of ingest, replayed
    // per connection against a ledger retargeted at each pose's FoV.
    let mut ack_ids = 0usize;
    let mut ack_ns = 0u64;
    for log in &block.server_logs {
        let mut ledger = DeliveryLedger::new();
        let mut sums = UndeliveredSums::new(levels);
        for message in &log.upstream {
            match message {
                ClientMessage::Pose { pose, .. } => {
                    let cell = library.grid().cell_of(&pose.position);
                    let tiles = tiles_for_pose(library.fov(), pose);
                    if !sums.targets(cell, &tiles) {
                        sums.retarget(cell, &tiles, plane.rows(cell), &ledger);
                    }
                }
                ClientMessage::Ack { ids } => {
                    let start = now_ns();
                    for &id in ids {
                        sums.acknowledge(&mut ledger, id);
                    }
                    ack_ns += now_ns() - start;
                    ack_ids += ids.len();
                }
                ClientMessage::Release { ids } => {
                    let start = now_ns();
                    sums.release(&mut ledger, ids.iter().copied());
                    ack_ns += now_ns() - start;
                    ack_ids += ids.len();
                }
                _ => {}
            }
        }
        black_box(sums.sums());
    }
    out.push((
        "content.ledger.ack_ns_per_id",
        if ack_ids == 0 {
            0.0
        } else {
            ack_ns as f64 / ack_ids as f64
        },
    ));

    // mcast: group discovery and group staging over the recorded poses.
    // Only a multicast session ever calls them.
    let (observe_ns, stage_group_ns) = if w.multicast {
        mcast_probes(&library, &poses, &cells, &mut plane, &weights, longest)
    } else {
        (0.0, 0.0)
    };
    out.push(("mcast.group.observe_ns_per_member", observe_ns));
    out.push(("mcast.stage.stage_group_ns_per_group", stage_group_ns));

    // net.estimate / lookahead.degrade: every bandwidth report, through
    // the planning EMA and (lookahead sessions only) the degrade clamp.
    let samples: Vec<Vec<f64>> = block
        .server_logs
        .iter()
        .map(|log| {
            log.upstream
                .iter()
                .filter_map(|m| match m {
                    ClientMessage::BandwidthSample { mbps }
                    | ClientMessage::LinkSample { mbps, .. } => Some(*mbps),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let sample_count: usize = samples.iter().map(Vec::len).sum();
    out.push((
        "net.estimate.ema_ns_per_sample",
        ns_per_item(sample_count, || {
            for conn in &samples {
                let mut ema = EmaEstimator::new(config.ema_weight);
                for &mbps in conn {
                    black_box(ema.update(mbps));
                }
            }
        }),
    ));
    let estimates: Vec<Vec<f64>> = samples
        .iter()
        .map(|conn| {
            let mut ema = EmaEstimator::new(config.ema_weight);
            conn.iter().map(|&mbps| ema.update(mbps)).collect()
        })
        .collect();
    out.push((
        "lookahead.degrade.observe_ns_per_sample",
        if w.horizon > 1 {
            ns_per_item(sample_count, || {
                for conn in &estimates {
                    let mut degrade = AnticipatoryDegrade::new(DegradeConfig::default());
                    for &bn in conn {
                        black_box(degrade.observe_and_clamp(bn, w.horizon));
                    }
                }
            })
        } else {
            0.0
        },
    ));

    // net.multilink: the clients' own bonded links, sampled on the slot
    // grid (no links on the single-link workloads).
    let link_slots = (block.warmup_slots + block.slots) as usize;
    out.push((
        "net.multilink.sample_ns_per_call",
        ns_per_item(block.links.len() * link_slots, || {
            for link in &block.links {
                let mut link = link.clone();
                for k in 0..link_slots {
                    black_box(link.sample(k as f64 * SLOT.as_secs_f64()));
                }
            }
        }),
    ));

    // serve.protocol: the codec over the recorded frames.
    let up_frames: Vec<Vec<u8>> = block
        .server_logs
        .iter()
        .flat_map(|log| log.upstream.iter().map(ClientMessage::to_payload))
        .collect();
    out.push((
        "serve.protocol.decode_up_ns_per_frame",
        ns_per_item(up_frames.len(), || {
            for frame in &up_frames {
                black_box(ClientMessage::decode(frame)).ok();
            }
        }),
    ));
    let down_messages: Vec<ServerMessage> = block
        .server_logs
        .iter()
        .flat_map(|log| {
            log.downstream.iter().cloned().chain(
                log.payloads
                    .iter()
                    .filter_map(|p| ServerMessage::decode(p).ok()),
            )
        })
        .collect();
    let mut down_bytes = 0usize;
    out.push((
        "serve.protocol.encode_down_ns_per_frame",
        ns_per_item(down_messages.len(), || {
            down_bytes = 0;
            for message in &down_messages {
                down_bytes += black_box(message.to_payload()).len() + 4;
            }
        }),
    ));
    let per_frame = |bytes: usize, frames: usize| {
        if frames == 0 {
            0.0
        } else {
            bytes as f64 / frames as f64
        }
    };
    out.push((
        "serve.protocol.bytes_up_per_frame",
        per_frame(up_frames.iter().map(|f| f.len() + 4).sum(), up_frames.len()),
    ));
    out.push((
        "serve.protocol.bytes_down_per_frame",
        per_frame(down_bytes, down_messages.len()),
    ));
    out
}

/// `GroupTracker::{begin_slot, observe, finish_slot}` per member and
/// `cvr_mcast::stage_group` per discovered group.
fn mcast_probes(
    library: &ContentLibrary,
    poses: &[Vec<Pose>],
    cells: &[Vec<CellId>],
    plane: &mut RatePlane,
    weights: &[f64],
    longest: usize,
) -> (f64, f64) {
    let levels = weights.len();
    let config = ServeConfig::default();
    let ledger = DeliveryLedger::new();
    let fov_cache = SharedFovCache::new(*library.fov());
    // Per slot, per user: the group key and the staged unicast rate row.
    let mut keys: Vec<Vec<Option<GroupKey>>> = Vec::with_capacity(longest);
    let mut rate_rows: Vec<Vec<Vec<f64>>> = Vec::with_capacity(longest);
    for k in 0..longest {
        let mut slot_keys = Vec::with_capacity(poses.len());
        let mut slot_rates = Vec::with_capacity(poses.len());
        for (ps, cs) in poses.iter().zip(cells) {
            let (Some(pose), Some(&cell)) = (ps.get(k), cs.get(k)) else {
                slot_keys.push(None);
                slot_rates.push(vec![0.0; levels]);
                continue;
            };
            let tiles = tiles_for_pose(library.fov(), pose);
            let sums = fresh_sums(plane.rows(cell), &tiles, levels);
            slot_keys.push(fov_cache.key_for(pose).map(|orientation| GroupKey {
                cell,
                orientation,
                content: content_fingerprint(cell, &tiles, &sums, &ledger),
            }));
            let mut rates = vec![0.0; levels];
            let mut values = vec![0.0; levels];
            stage_rates_values(
                &sums,
                CONTROL_OVERHEAD_MBPS,
                weights,
                &mut rates,
                &mut values,
            );
            slot_rates.push(rates);
        }
        keys.push(slot_keys);
        rate_rows.push(slot_rates);
    }

    let observations: usize = keys.iter().flatten().filter(|k| k.is_some()).count();
    let mut groups_per_slot: Vec<Vec<Vec<usize>>> = Vec::new();
    let observe_ns = ns_per_item(observations, || {
        groups_per_slot.clear();
        let mut tracker = GroupTracker::new(config.mcast_hysteresis_slots);
        for (slot, slot_keys) in keys.iter().enumerate() {
            tracker.begin_slot(slot as u64);
            for (member, key) in slot_keys.iter().enumerate() {
                if let Some(key) = key {
                    black_box(tracker.observe(member, *key));
                }
            }
            let groups = tracker.finish_slot();
            groups_per_slot.push(groups.iter().map(|g| g.members.clone()).collect());
        }
    });

    let group_count: usize = groups_per_slot.iter().map(Vec::len).sum();
    let mut engine = SlotEngine::new();
    let mut caps: Vec<usize> = Vec::new();
    let stage_ns = ns_per_item(group_count, || {
        for (slot, groups) in groups_per_slot.iter().enumerate() {
            engine.begin_slot(config.server_total_mbps);
            for members in groups {
                let rows: Vec<GroupMember<'_>> = members
                    .iter()
                    .map(|_| GroupMember {
                        values: weights,
                        link_budget: config.default_bandwidth_mbps,
                    })
                    .collect();
                caps.clear();
                black_box(stage_group(
                    &mut engine,
                    &rate_rows[slot][members[0]],
                    &rows,
                    &mut caps,
                ));
            }
        }
    });
    (observe_ns, stage_ns)
}
