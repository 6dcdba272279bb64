//! Co-located classroom simulator behind `mcast_bench`: N users in one
//! cell staring at a handful of shared gaze targets, allocated either
//! per-user (unicast) or per-group (multicast — one staged row and one
//! constraint-(6) charge per [`cvr_mcast`] group).
//!
//! The simulator is deliberately narrower than [`crate::system`]: no
//! packet loss, routers, or estimation noise — the question it answers is
//! purely *how much delivered quality does shared-FoV dedup buy at a
//! fixed server budget*, with every other variable pinned. Both modes
//! drive the one [`SlotPlanner`] — the same per-user problem build, the
//! same quality-increment greedy, the same delivery accounting; the only
//! difference is whether the driver marks users groupable, so that users
//! sharing a [`cvr_mcast::GroupKey`] are staged once instead of N times.
//! With grouping off every row is a singleton staged byte-identically to
//! the per-user row, which is the unicast-parity guarantee `mcast_bench`
//! fingerprints.

use cvr_content::id::VideoId;
use cvr_content::library::ContentLibrary;
use cvr_core::alloc::{Allocator as _, DensityValueGreedy};
use cvr_core::fnv;
use cvr_core::quality::QualityLevel;
use cvr_core::stage::CONTROL_OVERHEAD_MBPS;
use cvr_lookahead::LookaheadConfig;
use cvr_motion::pose::{Orientation, Pose, Vec3};

use crate::pipeline::SlotPlanner;

/// Slot length of the classroom loop, seconds (the paper's 15 ms).
const SLOT_S: f64 = 0.015;

/// Configuration of one classroom run.
#[derive(Debug, Clone)]
pub struct McastConfig {
    /// Co-located users.
    pub users: usize,
    /// Slots to simulate.
    pub slots: u64,
    /// Fixed server budget `B(t)` in Mbps, shared by all users.
    pub server_total_mbps: f64,
    /// Per-user link budget `B_n` in Mbps (uniform — one classroom Wi-Fi).
    pub per_user_mbps: f64,
    /// Distinct shared gaze targets users cluster around.
    pub clusters: usize,
    /// Base seed folded into the deterministic gaze trajectories.
    pub seed: u64,
    /// Group co-oriented users and stage each group once (`false` =
    /// nobody is groupable: every user is staged alone).
    pub multicast: bool,
    /// Slots a group id survives after its key was last seen.
    pub hysteresis_slots: u64,
}

impl McastConfig {
    /// The classroom scenario `mcast_bench` sweeps: `users` phones in one
    /// cell, four shared gaze targets, a fixed 400 Mbps server budget.
    pub fn classroom(users: usize, multicast: bool) -> Self {
        McastConfig {
            users,
            slots: 200,
            server_total_mbps: 400.0,
            per_user_mbps: 50.0,
            clusters: 4,
            seed: 2022,
            multicast,
            hysteresis_slots: 8,
        }
    }
}

/// Aggregates of one classroom run.
#[derive(Debug, Clone)]
pub struct McastRunResult {
    /// Mean delivered quality level per user-slot (1-based level value).
    pub delivered_quality: f64,
    /// Megabits the server actually put on the wire (each staged row
    /// charged once — the multicast saving shows up here).
    pub wire_mbit: f64,
    /// Peak number of ≥2-member groups in any slot (0 in unicast mode).
    pub peak_multicast_groups: usize,
    /// Mean members per staged row (1.0 in unicast mode).
    pub mean_group_size: f64,
    /// FNV-1a fingerprint over every per-slot staging, assignment, and
    /// delivery decision.
    pub fingerprint: u64,
}

/// The deterministic gaze of user `u` at `slot`: clustered yaw/pitch
/// around one of `clusters` shared targets (bucket interiors, so
/// co-oriented users provably share orientation buckets) with smooth
/// jitter, plus an occasional glance away that crosses buckets — the
/// churn that exercises group-id hysteresis.
fn gaze(config: &McastConfig, u: usize, slot: u64) -> Pose {
    let cluster = u % config.clusters.max(1);
    let phase = (config.seed.wrapping_mul(0x9E37_79B9) as f64 / u64::MAX as f64) * 3.0;
    let t = slot as f64;
    // Cluster centers sit mid-bucket (3.75° past a 7.5° multiple) so the
    // ±2° jitter never leaves the bucket or its guard band.
    let mut yaw = cluster as f64 * 30.0 + 3.75 + 2.0 * (0.11 * t + phase).sin();
    let pitch = 3.75 + 2.0 * (0.07 * t + phase + u as f64 * 0.01).cos();
    // Every ~3 s one user glances at a neighbour's target for two slots.
    if (slot + 29 * u as u64) % 200 < 2 {
        yaw += 30.0;
    }
    Pose::new(
        Vec3::new(0.51, 1.7, 0.52),
        Orientation::new(yaw, pitch, 0.0),
    )
}

/// Runs the classroom loop and returns its aggregates.
///
/// # Panics
///
/// Panics if `users` or `slots` is zero.
pub fn run(config: &McastConfig) -> McastRunResult {
    assert!(config.users > 0, "classroom needs users");
    assert!(config.slots > 0, "classroom needs slots");
    let users = config.users;
    let mut planner = SlotPlanner::new(
        ContentLibrary::paper_default(),
        LookaheadConfig::for_horizon(1),
        config.hysteresis_slots,
    );
    for u in 0..users {
        planner.join(u);
    }
    let levels = planner.library().quality_set().len();
    // Per-user value ladders δ_n · (l + 1), hoisted out of the slot loop:
    // the classroom objective is rate-independent. The slope δ_n varies
    // per user so group values are genuine sums of heterogeneous member
    // gains, not N× one row.
    let mut value_weights = vec![0.0f64; users * levels];
    for u in 0..users {
        let delta = 0.8 + 0.4 * u as f64 / users as f64;
        for l in 0..levels {
            value_weights[u * levels + l] = delta * (l + 1) as f64;
        }
    }
    let mut allocator = DensityValueGreedy;
    let mut manifest: Vec<VideoId> = Vec::new();

    let mut fingerprint = fnv::OFFSET;
    let mut quality_sum = 0.0f64;
    let mut wire_mbit = 0.0f64;
    let mut peak_groups = 0usize;
    let mut staged_rows = 0u64;

    for slot in 0..config.slots {
        // 1. Plan: every user's gaze, FoV target and (multicast only)
        //    group eligibility; one staged row per group.
        planner.begin_slot(slot, config.server_total_mbps);
        for u in 0..users {
            let pose = gaze(config, u, slot);
            planner.push_user(u, &pose, config.per_user_mbps, config.multicast);
        }
        let weights = &value_weights;
        planner.stage(CONTROL_OVERHEAD_MBPS, |u, _bn| {
            move |l, _raw| weights[u * levels + l]
        });
        peak_groups = peak_groups.max(planner.multicast_groups());
        staged_rows += planner.rows() as u64;

        // 2. Solve and account: each staged row is charged once; each
        //    member receives min(assigned, cap) and acknowledges those
        //    tiles.
        allocator.allocate_staged(planner.engine_mut());
        for r in 0..planner.rows() {
            let row = planner.row(r);
            if let Some(id) = row.group_id {
                fingerprint = fnv::fold_u64(fingerprint, id);
                fingerprint = fnv::fold_u64(fingerprint, row.members.len() as u64);
            }
        }
        for r in 0..planner.rows() {
            let row = planner.row(r);
            let assigned = row.assigned.index();
            let rate = row.rates[assigned];
            wire_mbit += rate * SLOT_S;
            fingerprint = fnv::fold_u64(fingerprint, assigned as u64);
            fingerprint = fnv::fold_u64(fingerprint, rate.to_bits());
            for k in 0..row.members.len() {
                // Re-borrowed per member: the ACK below mutates the planner.
                let row = planner.row(r);
                let m = row.members[k];
                let q = assigned.min(row.caps[k]);
                quality_sum += (q + 1) as f64;
                fingerprint = fnv::fold_u64(fingerprint, ((m as u64) << 8) | q as u64);
                planner.manifest_into(m, QualityLevel::new((q + 1) as u8), &mut manifest);
                planner.acknowledge(m, manifest.iter().copied());
            }
        }
    }

    McastRunResult {
        delivered_quality: quality_sum / (config.users as f64 * config.slots as f64),
        wire_mbit,
        peak_multicast_groups: peak_groups,
        mean_group_size: (users as u64 * config.slots) as f64 / staged_rows.max(1) as f64,
        fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicast_beats_unicast_in_a_crowded_classroom() {
        let mut unicast = McastConfig::classroom(32, false);
        unicast.slots = 60;
        let mut multicast = unicast.clone();
        multicast.multicast = true;
        let uni = run(&unicast);
        let multi = run(&multicast);
        assert!(multi.peak_multicast_groups >= 1, "groups must form");
        assert!(
            multi.delivered_quality >= 1.2 * uni.delivered_quality,
            "multicast {} vs unicast {}",
            multi.delivered_quality,
            uni.delivered_quality
        );
        assert!(multi.wire_mbit < uni.wire_mbit, "dedup must cut wire bytes");
    }

    #[test]
    fn unicast_mode_never_groups() {
        let mut config = McastConfig::classroom(8, false);
        config.slots = 20;
        let result = run(&config);
        assert_eq!(result.peak_multicast_groups, 0);
        assert_eq!(result.mean_group_size, 1.0);
    }
}
