//! The build-stage data plane: caches for the static content facts the
//! per-slot problem build used to re-derive from scratch every slot.
//!
//! Tile sizes are a deterministic function of `(cell, tile, quality)` and
//! FoV tile sets are piecewise-constant in the pose, so the hot path can
//! materialise both once and reuse them:
//!
//! * [`RatePlane`] — per-cell rate rows, stored **level-major** (entry
//!   `l * TileId::COUNT + t`) so the per-level folds the staging kernels
//!   run every slot read contiguous memory. The first touch of a cell
//!   runs [`TileSizeModel::tile_rate_row`] for all four tiles (one
//!   complexity hash per `(cell, tile)` *ever* while the cell stays
//!   resident) through a transposing writer, behind a small LRU of
//!   recently-visited cells whose evicted boxes are recycled through a
//!   freelist. Every entry is bit-identical to the fresh `tile_rate_row`
//!   value, so builds reading the plane stay bit-identical to builds
//!   hashing per slot.
//! * [`SharedFovCache`] — one visible-tile set per quantised-orientation
//!   bucket, shared by every user of a session. Tile membership is
//!   position-independent (the panorama sphere is per-cell but the tile
//!   cut depends only on where the user looks), so position never keys
//!   the cache. The quantisation is only enabled for FoV specs whose
//!   tile-membership breakpoints provably align with the bucket quantum
//!   (the paper default does); for any other spec the cache disables
//!   itself and recomputes every query, so a hit can never change the
//!   tile set.

use std::collections::HashMap;

use cvr_motion::fov::FovSpec;
use cvr_motion::pose::Pose;

use crate::grid::CellId;
use crate::sizing::TileSizeModel;
use crate::tile::{tiles_for_pose_into, TileId};

/// Default number of resident cells — a few seconds of walking for a full
/// classroom at the paper's 5 cm grid, ~50 KiB of rows.
pub const DEFAULT_PLANE_CELLS: usize = 512;

/// Materialised rate rows of one resident cell: `levels × TileId::COUNT`
/// entries, **level-major** — entry `l * TileId::COUNT + t` is tile `t`'s
/// rate at level `l + 1`. Each level's four tile rates are contiguous, so
/// the per-level undelivered-sum folds the staging kernels run every slot
/// read sequential memory instead of striding by `levels`.
#[derive(Debug, Clone)]
struct PlaneCell {
    rows: Box<[f64]>,
    last_touch: u64,
}

/// An LRU-bounded cache of per-cell rate rows.
///
/// `rows(cell)` returns the full level-major `levels × TileId::COUNT`
/// table for a cell, materialising it on first touch. Once `capacity`
/// cells are resident a miss evicts the least-recently-touched *half* in
/// one batch, so eviction costs are amortised over many misses instead of
/// a full scan per miss; evicted row boxes are recycled through a small
/// freelist so steady-state cell churn is allocation-free.
#[derive(Debug, Clone)]
pub struct RatePlane {
    sizing: TileSizeModel,
    levels: usize,
    capacity: usize,
    clock: u64,
    cells: HashMap<CellId, PlaneCell>,
    /// Evicted row boxes awaiting reuse (bounded by `capacity`).
    free: Vec<Box<[f64]>>,
    /// Tile-major scratch row the transposing writer fills per tile.
    scratch: Vec<f64>,
    /// Gather buffer backing [`RatePlane::row`].
    gather: Vec<f64>,
    hits: u64,
    misses: u64,
    recycled: u64,
}

impl RatePlane {
    /// Creates a plane over `sizing` holding at most `capacity` cells.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(sizing: TileSizeModel, capacity: usize) -> Self {
        assert!(capacity > 0, "plane capacity must be positive");
        let levels = sizing.levels();
        RatePlane {
            sizing,
            levels,
            capacity,
            clock: 0,
            cells: HashMap::new(),
            free: Vec::new(),
            scratch: vec![0.0; levels],
            gather: Vec::with_capacity(levels),
            hits: 0,
            misses: 0,
            recycled: 0,
        }
    }

    /// A plane over the paper-default size model with the default
    /// capacity.
    pub fn paper_default() -> Self {
        RatePlane::new(TileSizeModel::paper_default(), DEFAULT_PLANE_CELLS)
    }

    /// Number of quality levels per row.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Number of resident cells.
    pub fn resident_cells(&self) -> usize {
        self.cells.len()
    }

    /// `(hits, misses)` counters; a miss materialises one cell.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of misses served from a recycled (previously evicted) row
    /// box instead of a fresh allocation.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// The rate rows of `cell`, **level-major**: entry
    /// `l * TileId::COUNT + t` is the rate of tile `t` at level `l + 1`,
    /// bit-identical to the same entry of
    /// [`TileSizeModel::tile_rate_row`]'s tile row. Each level's tile
    /// rates are contiguous, which is what lets the per-level undelivered
    /// folds downstream read sequential memory.
    pub fn rows(&mut self, cell: CellId) -> &[f64] {
        self.clock += 1;
        let clock = self.clock;
        if !self.cells.contains_key(&cell) {
            self.misses += 1;
            if self.cells.len() >= self.capacity {
                self.evict_stale_half();
            }
            let count = usize::from(TileId::COUNT);
            let mut rows = match self.free.pop() {
                Some(recycled) => {
                    self.recycled += 1;
                    recycled
                }
                None => vec![0.0f64; count * self.levels].into_boxed_slice(),
            };
            debug_assert_eq!(rows.len(), count * self.levels);
            // Transposing writer: `tile_rate_row` keeps its engine-path
            // contract (exactly `levels` entries per tile, written into a
            // tile row), and the plane scatters each entry into its
            // level-major slot. Values are untouched, so every entry is
            // still bit-identical to a fresh `tile_rate_row` call.
            for tile in TileId::all() {
                let t = usize::from(tile.get());
                debug_assert_eq!(self.scratch.len(), self.levels);
                self.sizing.tile_rate_row(cell, tile, &mut self.scratch);
                for (l, &rate) in self.scratch.iter().enumerate() {
                    rows[l * count + t] = rate;
                }
            }
            self.cells.insert(
                cell,
                PlaneCell {
                    rows,
                    last_touch: clock,
                },
            );
        } else {
            self.hits += 1;
        }
        let entry = self.cells.get_mut(&cell).expect("just ensured");
        entry.last_touch = clock;
        &entry.rows
    }

    /// The rate row of one tile of `cell` (length `levels`), gathered
    /// from the level-major table — bit-identical to
    /// [`TileSizeModel::tile_rate_row`] into an exactly-`levels` slice.
    pub fn row(&mut self, cell: CellId, tile: TileId) -> &[f64] {
        let levels = self.levels;
        let count = usize::from(TileId::COUNT);
        let t = usize::from(tile.get());
        let mut gather = std::mem::take(&mut self.gather);
        gather.clear();
        let rows = self.rows(cell);
        gather.extend((0..levels).map(|l| rows[l * count + t]));
        self.gather = gather;
        &self.gather
    }

    /// Evicts the least-recently-touched half of the resident cells (at
    /// least one cell). One `O(n log n)` pass buys room for `n / 2`
    /// further misses, so the amortised per-miss cost stays logarithmic.
    /// Evicted row boxes land on the freelist for the next misses to
    /// reuse, so churn past the first eviction never allocates.
    fn evict_stale_half(&mut self) {
        let mut touches: Vec<u64> = self.cells.values().map(|e| e.last_touch).collect();
        touches.sort_unstable();
        let cutoff = touches[(touches.len() - 1) / 2];
        let stale: Vec<CellId> = self
            .cells
            .iter()
            .filter(|(_, e)| e.last_touch <= cutoff)
            .map(|(&c, _)| c)
            .collect();
        for cell in stale {
            if let Some(evicted) = self.cells.remove(&cell) {
                if self.free.len() < self.capacity {
                    self.free.push(evicted.rows);
                }
            }
        }
    }
}

/// Encoded orientation-bucket key of one pose: `(yaw_bucket, pitch_bucket)`
/// under the spec's exact quantum. Two poses with the same key are
/// guaranteed to see the identical FoV tile set, which is what makes the
/// key safe to use for cross-user grouping (`cvr-mcast` keys multicast
/// groups on it). A pose that sits too close to a tile-membership
/// breakpoint has no key.
pub type OrientationKey = (i64, i64);

/// Guard band around bucket boundaries, as a fraction of the quantum:
/// poses this close to a breakpoint recompute instead of trusting the
/// bucket (floating-point rounding can shift the effective breakpoint by
/// a few ulps).
const BOUNDARY_GUARD: f64 = 1e-6;

/// Pitch key for poses clamped at the poles: every such pose feeds the
/// identical clamped pitch into the membership test, so they can share a
/// bucket even though ±90° is a breakpoint.
const POLE_KEY: i64 = 1 << 40;

/// The bucket quantum, when the spec's tile-membership breakpoints align
/// with it exactly: the yaw sampling step `half_w / 8`, which must also
/// divide 180° (yaw tile boundaries repeat mod 360°), 90° (pitch clamp
/// and tile boundaries) and `half_h` (pitch span edges).
fn exact_quantum(spec: &FovSpec) -> Option<f64> {
    let half_w = spec.width_deg / 2.0 + spec.margin_deg;
    let half_h = spec.height_deg / 2.0 + spec.margin_deg;
    let q = half_w / 8.0;
    if !(q.is_finite() && q > 0.0) {
        return None;
    }
    let divides = |v: f64| v % q == 0.0;
    (divides(180.0) && divides(90.0) && divides(half_h)).then_some(q)
}

/// The orientation-bucket key of `pose` for a spec whose breakpoints align
/// with `quantum`.
fn orientation_key_for(spec: &FovSpec, quantum: f64, pose: &Pose) -> Option<OrientationKey> {
    let half_w = spec.width_deg / 2.0 + spec.margin_deg;
    let yaw_key = if half_w >= 180.0 {
        // Every yaw overlaps every tile: orientation yaw is irrelevant.
        0
    } else {
        bucket(pose.orientation.yaw, quantum)?
    };
    let pitch = pose.orientation.pitch;
    let pitch_key = if pitch >= 90.0 {
        POLE_KEY
    } else if pitch <= -90.0 {
        -POLE_KEY
    } else {
        bucket(pitch, quantum)?
    };
    Some((yaw_key, pitch_key))
}

/// The bucket index of `v`, or `None` when `v` sits inside the guard
/// band of a bucket boundary (or is too large to index safely).
fn bucket(v: f64, q: f64) -> Option<i64> {
    let scaled = v / q;
    if !scaled.is_finite() || scaled.abs() >= 1e15 {
        return None;
    }
    let floor = scaled.floor();
    let frac = scaled - floor;
    if !(BOUNDARY_GUARD..=1.0 - BOUNDARY_GUARD).contains(&frac) {
        return None;
    }
    Some(floor as i64)
}

/// Default number of resident orientation buckets in a
/// [`SharedFovCache`] — a classroom's worth of distinct gaze directions.
pub const DEFAULT_SHARED_FOV_BUCKETS: usize = 256;

/// One materialised orientation bucket of a [`SharedFovCache`].
#[derive(Debug, Clone)]
struct SharedBucket {
    tiles: Vec<TileId>,
    last_touch: u64,
}

/// Session-scope FoV tile-set cache shared by every co-located user: a
/// bounded LRU map from [`OrientationKey`] to tile set, so N users
/// staring at the same whiteboard materialise its tile set once.
///
/// Tile membership ([`tiles_for_pose`](crate::tile::tiles_for_pose)) is a
/// function of orientation alone — position picks the cell whose panorama
/// is served, not which tiles of it are visible — and is
/// piecewise-constant in orientation: it changes only where a sampled yaw
/// angle crosses a tile boundary or the pitch span crosses a pitch
/// boundary. For the paper-default FoV (90° + 15° margin → 60° half
/// extents) every such breakpoint is an exact multiple of the sampling
/// step `half_w / 8 = 7.5°`, so bucketing orientations by that quantum is
/// exact: all poses in one bucket's interior share one tile set,
/// bit-identical to `tiles_for_pose`. Poses within a guard band of a
/// bucket boundary — and every pose when the spec's breakpoints do not
/// align with the quantum — bypass the cache and recompute into a scratch
/// buffer, so a hit can never return a wrong tile set.
#[derive(Debug, Clone)]
pub struct SharedFovCache {
    spec: FovSpec,
    /// Bucket quantum in degrees; `None` disables bucket sharing.
    quantum: Option<f64>,
    capacity: usize,
    clock: u64,
    buckets: HashMap<OrientationKey, SharedBucket>,
    /// Evicted tile vectors awaiting reuse (bounded by `capacity`).
    free: Vec<Vec<TileId>>,
    scratch: Vec<TileId>,
    hits: u64,
    misses: u64,
    recycled: u64,
}

impl SharedFovCache {
    /// Creates a shared cache for `spec` with the default bucket budget,
    /// enabling bucket reuse only when the quantum is provably exact.
    pub fn new(spec: FovSpec) -> Self {
        SharedFovCache::with_capacity(spec, DEFAULT_SHARED_FOV_BUCKETS)
    }

    /// Creates a shared cache holding at most `capacity` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(spec: FovSpec, capacity: usize) -> Self {
        assert!(capacity > 0, "shared fov cache capacity must be positive");
        SharedFovCache {
            spec,
            quantum: exact_quantum(&spec),
            capacity,
            clock: 0,
            buckets: HashMap::new(),
            free: Vec::new(),
            scratch: Vec::with_capacity(usize::from(TileId::COUNT)),
            hits: 0,
            misses: 0,
            recycled: 0,
        }
    }

    /// Whether bucket reuse is enabled for this spec.
    pub fn enabled(&self) -> bool {
        self.quantum.is_some()
    }

    /// `(hits, misses)` counters; a miss recomputes one tile set.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of bucket misses served from a recycled (previously
    /// evicted) tile vector instead of a fresh allocation.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Number of resident orientation buckets.
    pub fn resident_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The orientation-bucket key of `pose`, or `None` when the pose
    /// cannot be bucketed safely. Poses sharing a key provably share the
    /// FoV tile set this cache returns for them.
    pub fn key_for(&self, pose: &Pose) -> Option<OrientationKey> {
        orientation_key_for(&self.spec, self.quantum?, pose)
    }

    /// The FoV tile set for `pose`, identical to
    /// `tiles_for_pose(&spec, pose)` — served from the shared bucket map
    /// whenever any user has already materialised this orientation bucket.
    pub fn tiles_for(&mut self, pose: &Pose) -> &[TileId] {
        let Some(key) = self.key_for(pose) else {
            self.misses += 1;
            tiles_for_pose_into(&self.spec, pose, &mut self.scratch);
            return &self.scratch;
        };
        self.clock += 1;
        let clock = self.clock;
        if !self.buckets.contains_key(&key) {
            self.misses += 1;
            if self.buckets.len() >= self.capacity {
                self.evict_stale_half();
            }
            let mut tiles = match self.free.pop() {
                Some(mut recycled) => {
                    self.recycled += 1;
                    recycled.clear();
                    recycled
                }
                None => Vec::with_capacity(usize::from(TileId::COUNT)),
            };
            tiles_for_pose_into(&self.spec, pose, &mut tiles);
            self.buckets.insert(
                key,
                SharedBucket {
                    tiles,
                    last_touch: clock,
                },
            );
        } else {
            self.hits += 1;
        }
        let entry = self.buckets.get_mut(&key).expect("just ensured");
        entry.last_touch = clock;
        #[cfg(debug_assertions)]
        {
            let mut fresh = Vec::new();
            tiles_for_pose_into(&self.spec, pose, &mut fresh);
            debug_assert_eq!(
                fresh, entry.tiles,
                "SharedFovCache bucket diverged from tiles_for_pose"
            );
        }
        &entry.tiles
    }

    /// Evicts the least-recently-touched half of the resident buckets (at
    /// least one), amortising eviction like [`RatePlane`]. Evicted tile
    /// vectors are recycled through the freelist so bucket churn past the
    /// first eviction never allocates.
    fn evict_stale_half(&mut self) {
        let mut touches: Vec<u64> = self.buckets.values().map(|e| e.last_touch).collect();
        touches.sort_unstable();
        let cutoff = touches[(touches.len() - 1) / 2];
        let stale: Vec<OrientationKey> = self
            .buckets
            .iter()
            .filter(|(_, e)| e.last_touch <= cutoff)
            .map(|(&k, _)| k)
            .collect();
        for key in stale {
            if let Some(evicted) = self.buckets.remove(&key) {
                if self.free.len() < self.capacity {
                    self.free.push(evicted.tiles);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::tiles_for_pose;
    use cvr_core::quality::QualityLevel;
    use cvr_motion::pose::{Orientation, Vec3};

    fn cell(x: i32, z: i32) -> CellId {
        CellId { x, z }
    }

    fn pose(yaw: f64, pitch: f64) -> Pose {
        Pose::new(Vec3::default(), Orientation::new(yaw, pitch, 0.0))
    }

    #[test]
    fn plane_rows_are_bit_identical_to_tile_rate_row() {
        let sizing = TileSizeModel::paper_default();
        let mut plane = RatePlane::new(sizing.clone(), 16);
        let mut fresh = vec![0.0f64; sizing.levels()];
        for x in -4..4 {
            for z in -4..4 {
                for tile in TileId::all() {
                    let row = plane.row(cell(x, z), tile).to_vec();
                    sizing.tile_rate_row(cell(x, z), tile, &mut fresh);
                    assert_eq!(row, fresh, "cell ({x},{z}) {tile}");
                    for l in 1..=sizing.levels() as u8 {
                        let q = QualityLevel::new(l);
                        assert_eq!(row[q.index()], sizing.tile_rate_mbps(cell(x, z), tile, q));
                    }
                }
            }
        }
    }

    #[test]
    fn plane_rows_are_level_major() {
        let sizing = TileSizeModel::paper_default();
        let levels = sizing.levels();
        let count = usize::from(TileId::COUNT);
        let mut plane = RatePlane::new(sizing.clone(), 16);
        let mut fresh = vec![0.0f64; levels];
        let c = cell(3, -2);
        let rows = plane.rows(c).to_vec();
        assert_eq!(rows.len(), count * levels);
        for tile in TileId::all() {
            sizing.tile_rate_row(c, tile, &mut fresh);
            for (l, &rate) in fresh.iter().enumerate() {
                assert_eq!(
                    rows[l * count + usize::from(tile.get())].to_bits(),
                    rate.to_bits(),
                    "level {l} {tile}"
                );
            }
        }
    }

    #[test]
    fn plane_churn_recycles_evicted_row_boxes() {
        let mut plane = RatePlane::new(TileSizeModel::paper_default(), 4);
        for x in 0..50 {
            plane.rows(cell(x, 0));
        }
        let (_, misses) = plane.stats();
        assert_eq!(misses, 50);
        // Only the pre-eviction misses may allocate fresh boxes; once the
        // first eviction wave has seeded the freelist, every further miss
        // reuses an evicted box.
        assert!(
            plane.recycled() >= misses - 4,
            "steady-state churn must reuse evicted boxes: {} of {misses}",
            plane.recycled()
        );
    }

    #[test]
    fn shared_fov_cache_recycles_evicted_buckets() {
        let spec = FovSpec::paper_default();
        let mut shared = SharedFovCache::with_capacity(spec, 4);
        let mut yaw = -170.0;
        while yaw < 170.0 {
            let p = pose(yaw, 3.0);
            assert_eq!(shared.tiles_for(&p), tiles_for_pose(&spec, &p).as_slice());
            yaw += 9.1;
        }
        assert!(
            shared.recycled() > 0,
            "bucket churn must reuse evicted tile vectors"
        );
    }

    #[test]
    fn plane_hits_after_first_touch_and_counts() {
        let mut plane = RatePlane::new(TileSizeModel::paper_default(), 8);
        plane.rows(cell(0, 0));
        plane.rows(cell(0, 0));
        plane.row(cell(0, 0), TileId::new(3));
        assert_eq!(plane.stats(), (2, 1));
        assert_eq!(plane.resident_cells(), 1);
    }

    #[test]
    fn plane_evicts_least_recently_used_cell() {
        let mut plane = RatePlane::new(TileSizeModel::paper_default(), 2);
        plane.rows(cell(0, 0));
        plane.rows(cell(1, 0));
        plane.rows(cell(0, 0)); // refresh (0,0)
        plane.rows(cell(2, 0)); // evicts (1,0)
        assert_eq!(plane.resident_cells(), 2);
        let before = plane.stats();
        plane.rows(cell(0, 0));
        assert_eq!(plane.stats().0, before.0 + 1, "(0,0) should still hit");
        plane.rows(cell(1, 0));
        assert_eq!(plane.stats().1, before.1 + 1, "(1,0) was evicted");
    }

    #[test]
    fn plane_capacity_is_respected_under_churn() {
        let mut plane = RatePlane::new(TileSizeModel::paper_default(), 4);
        for x in 0..100 {
            plane.rows(cell(x, -x));
            assert!(plane.resident_cells() <= 4);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_plane_panics() {
        let _ = RatePlane::new(TileSizeModel::paper_default(), 0);
    }

    #[test]
    fn shared_fov_cache_matches_brute_force_across_orientation_sweep() {
        let spec = FovSpec::paper_default();
        let mut cache = SharedFovCache::new(spec);
        // Dense sweep including breakpoint-adjacent values and pole
        // clamps; every returned set must equal the brute-force one.
        let mut yaw = -200.0;
        while yaw < 200.0 {
            let mut pitch = -100.0;
            while pitch <= 100.0 {
                let p = pose(yaw, pitch);
                let cached = cache.tiles_for(&p).to_vec();
                assert_eq!(cached, tiles_for_pose(&spec, &p), "yaw {yaw} pitch {pitch}");
                // Repeat query must hit (same bucket) unless bypassed.
                let again = cache.tiles_for(&p).to_vec();
                assert_eq!(again, cached);
                pitch += 3.1;
            }
            yaw += 3.7;
        }
        assert!(
            cache.stats().0 > 0,
            "sweep should produce repeat-query hits"
        );
    }

    #[test]
    fn shared_fov_cache_misses_on_bucket_crossings_only() {
        let mut cache = SharedFovCache::new(FovSpec::paper_default());
        let p = pose(90.0 + 1.0, 0.0 + 1.0);
        cache.tiles_for(&p);
        let (h0, m0) = cache.stats();
        // Same bucket: hit.
        cache.tiles_for(&pose(92.0, 1.2));
        assert_eq!(cache.stats(), (h0 + 1, m0));
        // Position changes do not key the cache: membership depends on
        // orientation alone, so a moved user in the same bucket hits.
        cache.tiles_for(&Pose::new(
            Vec3::new(5.0, 1.7, -5.0),
            Orientation::new(92.0, 1.2, 0.0),
        ));
        assert_eq!(cache.stats(), (h0 + 2, m0));
        // Orientation bucket crossing (yaw bucket changes): miss.
        cache.tiles_for(&pose(99.0, 1.2));
        assert_eq!(cache.stats(), (h0 + 2, m0 + 1));
    }

    #[test]
    fn shared_fov_cache_pole_poses_share_a_bucket() {
        let spec = FovSpec::paper_default();
        let mut cache = SharedFovCache::new(spec);
        let a = pose(40.0, 95.0);
        let b = pose(40.0, 200.0);
        let first = cache.tiles_for(&a).to_vec();
        let second = cache.tiles_for(&b).to_vec();
        assert_eq!(first, tiles_for_pose(&spec, &a));
        assert_eq!(second, tiles_for_pose(&spec, &b));
        assert_eq!(cache.stats().0, 1, "clamped poses share the pole bucket");
    }

    #[test]
    fn shared_fov_cache_matches_brute_force_for_interleaved_users() {
        let spec = FovSpec::paper_default();
        let mut shared = SharedFovCache::new(spec);
        assert!(shared.enabled());
        // Three "users" staring near the same target, queried interleaved:
        // every answer must equal brute force, and the second user onward
        // must hit the bucket the first user materialised.
        let gazes = [(31.0, 4.0), (32.5, 5.5), (33.9, 3.1)];
        for round in 0..3 {
            for (i, (yaw, pitch)) in gazes.iter().enumerate() {
                let p = pose(*yaw, *pitch);
                assert_eq!(
                    shared.tiles_for(&p),
                    tiles_for_pose(&spec, &p).as_slice(),
                    "round {round} user {i}"
                );
            }
        }
        let (hits, misses) = shared.stats();
        assert_eq!(misses, 1, "one bucket materialisation serves all users");
        assert_eq!(hits, 8);
    }

    #[test]
    fn shared_fov_cache_key_equality_implies_tile_equality() {
        let spec = FovSpec::paper_default();
        let mut shared = SharedFovCache::new(spec);
        let a = pose(91.0, 2.0);
        let b = pose(93.5, 6.0);
        if shared.key_for(&a) == shared.key_for(&b) && shared.key_for(&a).is_some() {
            assert_eq!(shared.tiles_for(&a).to_vec(), shared.tiles_for(&b));
        }
        // Breakpoint poses have no key and recompute via scratch.
        let bp = pose(7.5, 0.1);
        let hits = shared.stats().0;
        assert_eq!(shared.key_for(&bp), None);
        assert_eq!(shared.tiles_for(&bp), tiles_for_pose(&spec, &bp).as_slice());
        assert_eq!(shared.tiles_for(&bp), tiles_for_pose(&spec, &bp).as_slice());
        assert_eq!(shared.stats().0, hits, "breakpoint pose must not hit");
    }

    #[test]
    fn shared_fov_cache_bucket_budget_is_respected_under_churn() {
        let spec = FovSpec::paper_default();
        let mut shared = SharedFovCache::with_capacity(spec, 4);
        let mut yaw = -170.0;
        while yaw < 170.0 {
            let p = pose(yaw, 3.0);
            assert_eq!(shared.tiles_for(&p), tiles_for_pose(&spec, &p).as_slice());
            assert!(shared.resident_buckets() <= 4);
            yaw += 9.1;
        }
    }

    #[test]
    fn shared_fov_cache_disabled_spec_always_recomputes() {
        let spec = FovSpec {
            width_deg: 100.0,
            ..FovSpec::paper_default()
        };
        let mut shared = SharedFovCache::new(spec);
        assert!(!shared.enabled());
        for (yaw, pitch) in [(0.0, 0.0), (90.0, 30.0), (90.0, 30.0)] {
            let p = pose(yaw, pitch);
            assert_eq!(shared.key_for(&p), None);
            assert_eq!(shared.tiles_for(&p), tiles_for_pose(&spec, &p).as_slice());
        }
        assert_eq!(shared.stats().0, 0, "disabled shared cache never hits");
    }
}
