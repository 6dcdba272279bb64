//! The build-stage data plane: the static content facts the per-slot
//! problem build reads, each derived in exactly one place.
//!
//! * [`RatePlane`] — a cell's rate rows, **level-major** (entry
//!   `l * TileId::COUNT + t`) so the per-level folds the staging kernels
//!   run every slot read contiguous memory. Tile sizes are a pure
//!   function of `(cell, tile, quality)` — the stand-in for the paper's
//!   pre-encoded tile database — so every call computes the cell's table
//!   with [`TileSizeModel::cell_rate_rows`] into one owned buffer. Nothing
//!   is stored per cell: with the cell's coordinate bytes folded once, the
//!   four tiles cost about what a hit in the per-session LRU it replaced
//!   cost, and less than its cold probes and misses; that LRU held
//!   ≈ 125 KB per session.
//! * [`SharedFovCache`] — a session's FoV tile sets and the
//!   quantised-orientation key multicast groups on. It stores no tile
//!   set: since the one-pass tile test a recompute
//!   ([`tiles_for_pose_into`]) costs what a map probe did, so every query
//!   recomputes into one scratch buffer. What it adds to the bare function
//!   is [`SharedFovCache::key_for`], under which equal keys mean equal
//!   tile sets.

use cvr_motion::fov::FovSpec;
use cvr_motion::pose::{floor_i64, Pose};

use crate::grid::CellId;
use crate::sizing::TileSizeModel;
use crate::tile::{tiles_for_pose_into, TileId};

/// The `capacity` callers have passed [`RatePlane::new`]. The plane keeps
/// no cells, so the value is unused; it stays until the frozen benchmark
/// (which names it) is thawed.
pub const DEFAULT_PLANE_CELLS: usize = 512;

/// A cell's rate rows, computed on every call.
///
/// `rows(cell)` returns the full level-major `levels × TileId::COUNT`
/// table of [`TileSizeModel::cell_rate_rows`], written into one buffer
/// the plane owns and overwrites on the next call.
#[derive(Debug, Clone)]
pub struct RatePlane {
    sizing: TileSizeModel,
    rows: Box<[f64]>,
    calls: u64,
}

impl RatePlane {
    /// Creates a plane over `sizing`. `capacity` is accepted and unused
    /// (the plane stores no cells) until the frozen benchmark's call is
    /// thawed.
    pub fn new(sizing: TileSizeModel, _capacity: usize) -> Self {
        let rows = vec![0.0; usize::from(TileId::COUNT) * sizing.levels()].into_boxed_slice();
        RatePlane {
            sizing,
            rows,
            calls: 0,
        }
    }

    /// Number of stored cells: always 0.
    pub fn resident_cells(&self) -> usize {
        0
    }

    /// `(hits, misses)` in the shape of a cache's counters: every
    /// [`RatePlane::rows`] call computes, so hits are 0.
    pub fn stats(&self) -> (u64, u64) {
        (0, self.calls)
    }

    /// The rate rows of `cell`, **level-major**: entry
    /// `l * TileId::COUNT + t` is the rate of tile `t` at level `l + 1`,
    /// bit-identical to the same entry of
    /// [`TileSizeModel::tile_rate_row`]'s tile row.
    pub fn rows(&mut self, cell: CellId) -> &[f64] {
        self.calls += 1;
        self.sizing.cell_rate_rows(cell, &mut self.rows);
        &self.rows
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
/// poses this close to a breakpoint have no key (floating-point rounding
/// can shift the effective breakpoint by a few ulps).
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
    let floor = floor_i64(scaled);
    let frac = scaled - floor as f64;
    if !(BOUNDARY_GUARD..=1.0 - BOUNDARY_GUARD).contains(&frac) {
        return None;
    }
    Some(floor)
}

/// A session's FoV tile sets, plus the orientation-bucket key under which
/// co-gazing users may share one.
///
/// Tile membership ([`tiles_for_pose`](crate::tile::tiles_for_pose)) is a
/// function of orientation alone — position picks the cell whose panorama
/// is served, not which tiles of it are visible — and is
/// piecewise-constant in orientation: it changes only where a sampled yaw
/// angle crosses a tile boundary or the pitch span crosses a pitch
/// boundary. For the paper-default FoV (90° + 15° margin → 60° half
/// extents) every such breakpoint is an exact multiple of the sampling
/// step `half_w / 8 = 7.5°`, so bucketing orientations by that quantum is
/// exact: all poses in one bucket's interior share one tile set. Poses
/// within a guard band of a bucket boundary — and every pose when the
/// spec's breakpoints do not align with the quantum — have no key.
///
/// Nothing is stored per bucket: [`SharedFovCache::tiles_for`] recomputes
/// every query (the name outlived the bucket map it used to keep).
#[derive(Debug, Clone)]
pub struct SharedFovCache {
    spec: FovSpec,
    /// Bucket quantum in degrees; `None` when no pose of this spec can be
    /// keyed.
    quantum: Option<f64>,
    scratch: Vec<TileId>,
    calls: u64,
}

impl SharedFovCache {
    /// Creates the tile-set source for `spec`, keying orientations only
    /// when the quantum is provably exact.
    pub fn new(spec: FovSpec) -> Self {
        SharedFovCache {
            spec,
            quantum: exact_quantum(&spec),
            scratch: Vec::with_capacity(usize::from(TileId::COUNT)),
            calls: 0,
        }
    }

    /// `(hits, misses)` in the shape of [`RatePlane::stats`]: every
    /// [`SharedFovCache::tiles_for`] call recomputes, so hits are 0.
    pub fn stats(&self) -> (u64, u64) {
        (0, self.calls)
    }

    /// The orientation-bucket key of `pose`, or `None` when the pose
    /// cannot be bucketed safely. Poses sharing a key share their FoV
    /// tile set.
    pub fn key_for(&self, pose: &Pose) -> Option<OrientationKey> {
        orientation_key_for(&self.spec, self.quantum?, pose)
    }

    /// The FoV tile set for `pose`: `tiles_for_pose(&spec, pose)`,
    /// computed into a buffer reused across calls.
    pub fn tiles_for(&mut self, pose: &Pose) -> &[TileId] {
        self.calls += 1;
        tiles_for_pose_into(&self.spec, pose, &mut self.scratch);
        &self.scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use crate::tile::tests::with_ulps;
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
        let count = usize::from(TileId::COUNT);
        let mut plane = RatePlane::new(sizing.clone(), 0);
        let mut fresh = vec![0.0f64; sizing.levels()];
        for x in -4..4 {
            for z in -4..4 {
                let rows = plane.rows(cell(x, z));
                for tile in TileId::all() {
                    let t = usize::from(tile.get());
                    sizing.tile_rate_row(cell(x, z), tile, &mut fresh);
                    for l in 1..=sizing.levels() as u8 {
                        let q = QualityLevel::new(l);
                        let rate = rows[q.index() * count + t];
                        assert_eq!(rate, fresh[q.index()], "cell ({x},{z}) {tile} level {l}");
                        assert_eq!(rate, sizing.tile_rate_mbps(cell(x, z), tile, q));
                    }
                }
            }
        }
    }

    #[test]
    fn bucket_equals_its_library_floor_form_at_the_edges() {
        let oracle = |v: f64, q: f64| {
            let scaled = v / q;
            if !scaled.is_finite() || scaled.abs() >= 1e15 {
                return None;
            }
            let floor = scaled.floor();
            let frac = scaled - floor;
            (BOUNDARY_GUARD..=1.0 - BOUNDARY_GUARD)
                .contains(&frac)
                .then_some(floor as i64)
        };
        let mut edges = vec![1e300, -1e300, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for x in [0.0, 180.0, 360.0, 540.0, 720.0] {
            edges.extend(with_ulps(x));
            edges.extend(with_ulps(-x));
        }
        for v in edges {
            for q in [7.5, 1.0, 0.3] {
                assert_eq!(bucket(v, q), oracle(v, q), "bucket({v:e}, {q})");
            }
        }
    }

    #[test]
    fn plane_counts_every_call_and_stores_no_cell() {
        let mut plane = RatePlane::new(TileSizeModel::paper_default(), DEFAULT_PLANE_CELLS);
        for x in [0, 0, 7] {
            plane.rows(cell(x, 0));
        }
        assert_eq!(plane.stats(), (0, 3));
        assert_eq!(plane.resident_cells(), 0);
    }

    /// Whether an axis value must, must not, or may have a bucket.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Keyed {
        Yes,
        No,
        /// Within three ulps of a guard-band edge: rounding decides.
        Either,
    }

    /// Axis samples around every multiple of `quantum` in
    /// `-span..=span`: the breakpoint ± 3 ulps and the middle of the guard
    /// band (no bucket), both edges of the band ± 3 ulps (either), and
    /// points two guard widths out and deep in the bucket (bucketed).
    fn axis_samples(quantum: f64, span: i32) -> Vec<(f64, Keyed)> {
        let guard = BOUNDARY_GUARD * quantum;
        let mut out = Vec::new();
        for k in -span..=span {
            let b = f64::from(k) * quantum;
            out.extend(with_ulps(b).map(|v| (v, Keyed::No)));
            for side in [-1.0, 1.0] {
                out.push((b + side * 0.5 * guard, Keyed::No));
                out.extend(with_ulps(b + side * guard).map(|v| (v, Keyed::Either)));
                out.push((b + side * 2.0 * guard, Keyed::Yes));
            }
            out.extend([(b + 3.1, Keyed::Yes), (b + 5.9, Keyed::Yes)]);
        }
        out
    }

    /// `key_for(a) == key_for(b)` ⇒ `tiles_for_pose(a) == tiles_for_pose(b)`
    /// is what `GroupKey.orientation` relies on; nothing checks it at run
    /// time, so this sweep does: every 7.5° breakpoint and guard-band edge
    /// ± 3 ulps, the ±180° seam and beyond, the ±90° pole clamp.
    fn assert_one_tile_set_per_key(spec: FovSpec, aligned: bool) {
        let mut cache = SharedFovCache::new(spec);
        let yaws = axis_samples(7.5, 24);
        let mut pitches = axis_samples(7.5, 12);
        pitches.extend([95.0, 200.0, -95.0, -1e3].map(|v| (v, Keyed::Yes)));
        for (pitch, keyed) in &mut pitches {
            // Clamped poses all feed ±90° into the membership test.
            if pitch.abs() >= 90.0 {
                *keyed = Keyed::Yes;
            }
        }
        let mut sets: HashMap<OrientationKey, Vec<TileId>> = HashMap::new();
        for &(yaw, yaw_keyed) in &yaws {
            for &(pitch, pitch_keyed) in &pitches {
                let p = pose(yaw, pitch);
                let tiles = tiles_for_pose(&spec, &p);
                assert_eq!(cache.tiles_for(&p), tiles, "yaw {yaw:?} pitch {pitch:?}");
                let key = cache.key_for(&p);
                let expected = match (yaw_keyed, pitch_keyed) {
                    _ if !aligned => Keyed::No,
                    (Keyed::No, _) | (_, Keyed::No) => Keyed::No,
                    (Keyed::Yes, Keyed::Yes) => Keyed::Yes,
                    _ => Keyed::Either,
                };
                match expected {
                    Keyed::Yes => assert!(key.is_some(), "yaw {yaw:?} pitch {pitch:?}"),
                    Keyed::No => assert_eq!(key, None, "yaw {yaw:?} pitch {pitch:?}"),
                    Keyed::Either => {}
                }
                if let Some(key) = key {
                    let set = sets.entry(key).or_insert_with(|| tiles.clone());
                    assert_eq!(*set, tiles, "key {key:?} yaw {yaw:?} pitch {pitch:?}");
                }
            }
        }
        if aligned {
            let distinct: std::collections::HashSet<_> = sets.values().collect();
            assert!(sets.len() > 1000 && distinct.len() > 4, "sweep too thin");
        } else {
            assert!(sets.is_empty());
        }
        assert_eq!(cache.stats(), (0, (yaws.len() * pitches.len()) as u64));
    }

    #[test]
    fn equal_orientation_keys_see_equal_tile_sets_for_the_paper_spec() {
        assert_one_tile_set_per_key(FovSpec::paper_default(), true);
    }

    #[test]
    fn a_spec_off_the_quantum_keys_no_pose() {
        let spec = FovSpec {
            width_deg: 100.0,
            ..FovSpec::paper_default()
        };
        assert_one_tile_set_per_key(spec, false);
    }

    #[test]
    fn poles_and_positions_do_not_split_a_key() {
        let cache = SharedFovCache::new(FovSpec::paper_default());
        // Clamped pitches share the pole bucket even though ±90° is a
        // breakpoint.
        let pole = cache.key_for(&pose(40.0, 95.0));
        assert!(pole.is_some());
        assert_eq!(pole, cache.key_for(&pose(40.0, 200.0)));
        assert_ne!(pole, cache.key_for(&pose(40.0, -95.0)));
        // Membership depends on orientation alone: position never keys.
        let moved = Pose::new(Vec3::new(5.0, 1.7, -5.0), Orientation::new(92.0, 1.2, 0.0));
        assert_eq!(cache.key_for(&moved), cache.key_for(&pose(92.0, 1.2)));
        assert_ne!(cache.key_for(&moved), cache.key_for(&pose(99.0, 1.2)));
    }
}
