//! Property-based tests for the content substrate.

use cvr_content::cache::{ClientTileBuffer, DeliveryLedger, ServerTileCache, UndeliveredSums};
use cvr_content::grid::{CellId, GridWorld};
use cvr_content::id::VideoId;
use cvr_content::plane::{RatePlane, SharedFovCache};
use cvr_content::sizing::TileSizeModel;
use cvr_content::tile::{tiles_for_pose, TileId};
use cvr_core::quality::QualityLevel;
use cvr_motion::fov::FovSpec;
use cvr_motion::pose::{Orientation, Pose, Vec3};
use proptest::prelude::*;

fn arb_pose() -> impl Strategy<Value = Pose> {
    (-5.0f64..5.0, -5.0f64..5.0, -180.0f64..180.0, -85.0f64..85.0).prop_map(|(x, z, yaw, pitch)| {
        Pose::new(Vec3::new(x, 1.7, z), Orientation::new(yaw, pitch, 0.0))
    })
}

proptest! {
    #[test]
    fn tile_set_never_empty_and_within_bounds(pose in arb_pose(), margin in 0.0f64..60.0) {
        let spec = FovSpec::paper_default().with_margin(margin);
        let tiles = tiles_for_pose(&spec, &pose);
        prop_assert!(!tiles.is_empty());
        prop_assert!(tiles.len() <= 4);
        // No duplicates.
        let mut sorted = tiles.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), tiles.len());
    }

    #[test]
    fn wider_margin_is_superset(pose in arb_pose(), m1 in 0.0f64..30.0, extra in 0.0f64..30.0) {
        let tight = tiles_for_pose(&FovSpec::paper_default().with_margin(m1), &pose);
        let wide = tiles_for_pose(&FovSpec::paper_default().with_margin(m1 + extra), &pose);
        for t in &tight {
            prop_assert!(wide.contains(t), "margin widening lost {t}");
        }
    }

    #[test]
    fn video_id_round_trips(
        x in -100_000i32..100_000,
        z in -100_000i32..100_000,
        tile in 0u8..4,
        q in 1u8..=6,
    ) {
        let id = VideoId::new(CellId { x, z }, TileId::new(tile), QualityLevel::new(q));
        prop_assert_eq!(id.cell(), CellId { x, z });
        prop_assert_eq!(id.tile().get(), tile);
        prop_assert_eq!(id.quality().get(), q);
    }

    #[test]
    fn sizes_are_convex_increasing_everywhere(x in -200i32..200, z in -200i32..200, tile in 0u8..4) {
        let m = TileSizeModel::paper_default();
        let cell = CellId { x, z };
        let t = TileId::new(tile);
        let rates: Vec<f64> = (1..=6)
            .map(|l| m.tile_rate_mbps(cell, t, QualityLevel::new(l)))
            .collect();
        for w in rates.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        for w in rates.windows(3) {
            prop_assert!((w[2] - w[1]) >= (w[1] - w[0]) - 1e-9);
        }
    }

    #[test]
    fn grid_cell_contains_its_center(x in -5.9f64..5.9, z in -5.9f64..5.9) {
        let g = GridWorld::paper_default();
        let cell = g.cell_of(&Vec3::new(x, 1.7, z));
        let center = g.cell_center(cell);
        prop_assert_eq!(g.cell_of(&center), cell);
    }

    #[test]
    fn server_cache_never_exceeds_capacity(
        capacity in 1usize..64,
        accesses in prop::collection::vec((-50i32..50, 0u8..4, 1u8..=6), 1..300),
    ) {
        let mut cache = ServerTileCache::new(capacity);
        for (x, t, q) in accesses {
            cache.fetch(VideoId::new(CellId { x, z: 0 }, TileId::new(t), QualityLevel::new(q)));
            prop_assert!(cache.len() <= capacity);
        }
    }

    #[test]
    fn client_buffer_never_exceeds_threshold(
        threshold in 1usize..32,
        stores in prop::collection::vec(-50i32..50, 1..200),
    ) {
        let mut buffer = ClientTileBuffer::new(threshold);
        let mut total_released = 0usize;
        let mut insertions = 0usize;
        for x in stores {
            let id = VideoId::new(CellId { x, z: 0 }, TileId::new(0), QualityLevel::new(1));
            if !buffer.contains(&id) {
                insertions += 1;
            }
            total_released += buffer.store(id).len();
            prop_assert!(buffer.len() <= threshold);
        }
        // Conservation: every insertion is either still held or released
        // (a tile re-stored after release counts as a new insertion).
        prop_assert_eq!(buffer.len() + total_released, insertions);
    }

    // The whole cached build-stage data plane — FoV tile sets, rate
    // plane, incremental undelivered sums — must stay *bit*-identical to
    // a brute-force rebuild at every step of a random walk that crosses
    // cells, crosses orientation buckets, and interleaves ACKs (including
    // foreign-cell ACKs) with releases.
    #[test]
    fn cached_build_plane_matches_brute_force_along_random_walks(
        start in arb_pose(),
        steps in prop::collection::vec(
            (
                (-0.3f64..0.3, -0.3f64..0.3, -20.0f64..20.0, -10.0f64..10.0),
                // Tile values >= 4 mean "no ACK this step" (the shim has no
                // Option strategy, so the gap encodes absence).
                (0u8..8, 1u8..=6, -1i32..=1, -1i32..=1),
                proptest::bool::ANY,
            ),
            1..80,
        ),
    ) {
        let grid = GridWorld::paper_default();
        let sizing = TileSizeModel::paper_default();
        let spec = FovSpec::paper_default();
        let levels = sizing.levels();
        // Tiny plane capacity so walks exercise eviction and re-entry.
        let mut plane = RatePlane::new(sizing.clone(), 4);
        let mut fov = SharedFovCache::new(spec);
        let mut ledger = DeliveryLedger::new();
        let mut sums = UndeliveredSums::new(levels);
        let mut acked: Vec<VideoId> = Vec::new();
        let mut pose = start;
        let mut row = vec![0.0f64; levels];
        for ((dx, dz, dyaw, dpitch), (t, q, ox, oz), release) in steps {
            // Feedback first, as in the slot loop: ACKs may land on the
            // targeted cell or a neighbour, releases drop old deliveries.
            if t < 4 {
                let c = grid.cell_of(&pose.position);
                let id = VideoId::new(
                    CellId { x: c.x + ox, z: c.z + oz },
                    TileId::new(t),
                    QualityLevel::new(q),
                );
                sums.acknowledge(&mut ledger, id);
                acked.push(id);
            }
            if release && !acked.is_empty() {
                let id = acked.remove(0);
                sums.release(&mut ledger, [id]);
            }
            pose = Pose::new(
                Vec3::new(pose.position.x + dx, 1.7, pose.position.z + dz),
                Orientation::new(
                    pose.orientation.yaw + dyaw,
                    pose.orientation.pitch + dpitch,
                    0.0,
                ),
            );
            let cell = grid.cell_of(&pose.position);
            let tiles = fov.tiles_for(&pose).to_vec();
            prop_assert_eq!(&tiles, &tiles_for_pose(&spec, &pose));
            if !sums.targets(cell, &tiles) {
                sums.retarget(cell, &tiles, plane.rows(cell), &ledger);
            }
            sums.assert_matches_ledger(&ledger);
            for l in 0..levels {
                let q = QualityLevel::new((l + 1) as u8);
                let mut brute = 0.0f64;
                for &tile in &tiles {
                    if !ledger.is_delivered(&VideoId::new(cell, tile, q)) {
                        sizing.tile_rate_row(cell, tile, &mut row);
                        brute += row[l];
                    }
                }
                prop_assert_eq!(
                    brute.to_bits(),
                    sums.sums()[l].to_bits(),
                    "level {} drifted: brute {} vs cached {}",
                    l + 1,
                    brute,
                    sums.sums()[l]
                );
            }
        }
    }

    // The session-scope FoV tile-set source must give *every* interleaved
    // user the brute-force tile set and — whenever two users share a
    // key — hand both the identical set (the property multicast group
    // keying relies on).
    #[test]
    fn shared_fov_cache_matches_brute_force_for_interleaved_walks(
        starts in prop::collection::vec(arb_pose(), 2..5),
        steps in prop::collection::vec(
            prop::collection::vec((-0.3f64..0.3, -0.3f64..0.3, -20.0f64..20.0, -10.0f64..10.0), 2..5),
            1..40,
        ),
    ) {
        let spec = FovSpec::paper_default();
        let mut shared = SharedFovCache::new(spec);
        let mut poses = starts;
        for step in steps {
            let mut keyed: Vec<(i64, i64, Vec<TileId>)> = Vec::new();
            for (u, pose) in poses.iter_mut().enumerate() {
                if let Some((dx, dz, dyaw, dpitch)) = step.get(u % step.len()).copied() {
                    *pose = Pose::new(
                        Vec3::new(pose.position.x + dx, 1.7, pose.position.z + dz),
                        Orientation::new(
                            pose.orientation.yaw + dyaw,
                            pose.orientation.pitch + dpitch,
                            0.0,
                        ),
                    );
                }
                let tiles = shared.tiles_for(pose).to_vec();
                prop_assert_eq!(&tiles, &tiles_for_pose(&spec, pose));
                if let Some((yk, pk)) = shared.key_for(pose) {
                    for (oyk, opk, other) in &keyed {
                        if (*oyk, *opk) == (yk, pk) {
                            prop_assert_eq!(other, &tiles, "shared key, different tiles");
                        }
                    }
                    keyed.push((yk, pk, tiles));
                }
            }
        }
    }

    // The level-major plane — entry `l * TileId::COUNT + t` — must stay
    // bitwise equal to a fresh `tile_rate_row` at every (cell, tile,
    // level) along random cell/tile walks, including rows rebuilt into
    // recycled freelist boxes after eviction (tiny capacity keeps the
    // walk churning).
    #[test]
    fn level_major_plane_matches_fresh_rate_rows_under_churn(
        cells in prop::collection::vec((-40i32..40, -40i32..40, 0u8..4), 1..120),
    ) {
        let sizing = TileSizeModel::paper_default();
        let levels = sizing.levels();
        let count = usize::from(TileId::COUNT);
        let mut plane = RatePlane::new(sizing.clone(), 2);
        let mut fresh = vec![0.0f64; levels];
        for (x, z, t) in cells {
            let cell = CellId { x, z };
            let tile = TileId::new(t);
            let rows = plane.rows(cell).to_vec();
            prop_assert_eq!(rows.len(), levels * count);
            sizing.tile_rate_row(cell, tile, &mut fresh);
            for l in 0..levels {
                prop_assert_eq!(
                    rows[l * count + usize::from(t)].to_bits(),
                    fresh[l].to_bits(),
                    "cell {:?} tile {} level {} drifted from tile_rate_row",
                    cell,
                    t,
                    l + 1
                );
            }
        }
    }

    #[test]
    fn lru_keeps_most_recent(
        capacity in 2usize..16,
        tail in prop::collection::vec(0i32..1000, 1..50),
    ) {
        // After arbitrary traffic, touching `capacity` distinct tiles in
        // order leaves exactly those resident.
        let mut cache = ServerTileCache::new(capacity);
        for &x in &tail {
            cache.fetch(VideoId::new(CellId { x, z: 1 }, TileId::new(0), QualityLevel::new(1)));
        }
        let keep: Vec<VideoId> = (0..capacity as i32)
            .map(|x| VideoId::new(CellId { x, z: -7 }, TileId::new(2), QualityLevel::new(2)))
            .collect();
        for id in &keep {
            cache.fetch(*id);
        }
        for id in &keep {
            prop_assert!(cache.contains(id));
        }
    }
}
