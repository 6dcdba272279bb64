//! Tile partitioning: each equirectangular texture is split into four tiles
//! (Fig. 5), and only tiles overlapping the (margin-extended) predicted FoV
//! are delivered.

use serde::{Deserialize, Serialize};

use cvr_motion::fov::FovSpec;
use cvr_motion::pose::{wrap_degrees, Pose};

/// One of the four tiles of a frame texture (2×2 split: west/east ×
/// top/bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TileId(u8);

impl TileId {
    /// Number of tiles per frame in the paper's partitioning.
    pub const COUNT: u8 = 4;

    /// Creates a tile id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 4`.
    pub fn new(id: u8) -> Self {
        assert!(id < Self::COUNT, "tile id out of range");
        TileId(id)
    }

    /// The raw id in `0..4`.
    pub fn get(self) -> u8 {
        self.0
    }

    /// All four tiles.
    pub fn all() -> [TileId; 4] {
        [TileId(0), TileId(1), TileId(2), TileId(3)]
    }

    /// Yaw interval `[start, end)` covered by this tile, degrees. Tiles 0/2
    /// cover the western half `[−180, 0)`, tiles 1/3 the eastern `[0, 180)`.
    pub fn yaw_range(self) -> (f64, f64) {
        if self.0.is_multiple_of(2) {
            (-180.0, 0.0)
        } else {
            (0.0, 180.0)
        }
    }

    /// Pitch interval `[low, high)` covered by this tile, degrees. Tiles
    /// 0/1 are the top half `[0, 90]`, tiles 2/3 the bottom `[−90, 0)`.
    pub fn pitch_range(self) -> (f64, f64) {
        if self.0 < 2 {
            (0.0, 90.0)
        } else {
            (-90.0, 0.0)
        }
    }
}

impl std::fmt::Display for TileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tile{}", self.0)
    }
}

/// Which yaw hemispheres — west `[−180, 0)` and east `[0, 180)`, the two
/// tile columns — the angular interval `[a0, a1]` (possibly wrapping)
/// touches.
fn yaw_hemispheres(a0: f64, a1: f64) -> (bool, bool) {
    // Sample-based check is robust to wrapping: test a dense set of angles
    // inside the view interval. Each sample is wrapped and classified
    // once; the tiles then read the two flags.
    let span = a1 - a0;
    let steps = 16;
    let (mut west, mut east) = (false, false);
    for i in 0..=steps {
        let angle = wrap_degrees(a0 + span * i as f64 / steps as f64);
        west |= (-180.0..0.0).contains(&angle);
        east |= (0.0..180.0).contains(&angle);
        if west && east {
            break;
        }
    }
    (west, east)
}

/// The set of tiles overlapping the FoV (with margin) around the given
/// pose — the tiles the server must deliver for that pose.
pub fn tiles_for_pose(spec: &FovSpec, pose: &Pose) -> Vec<TileId> {
    let mut out = Vec::with_capacity(usize::from(TileId::COUNT));
    tiles_for_pose_into(spec, pose, &mut out);
    out
}

/// Buffer-reusing variant of [`tiles_for_pose`]: clears `out` and fills it
/// with the same tile set, in the same order, without allocating once the
/// buffer has grown to four entries.
pub fn tiles_for_pose_into(spec: &FovSpec, pose: &Pose, out: &mut Vec<TileId>) {
    out.clear();
    let half_w = spec.width_deg / 2.0 + spec.margin_deg;
    let half_h = spec.height_deg / 2.0 + spec.margin_deg;
    let yaw = pose.orientation.yaw;
    // Clamp to the sphere: a pose with out-of-range pitch still views
    // content at the pole.
    let pitch = pose.orientation.pitch.clamp(-90.0, 90.0);
    let (p_lo, p_hi) = (pitch - half_h, pitch + half_h);

    let (west, east) = if half_w >= 180.0 {
        (true, true)
    } else {
        yaw_hemispheres(yaw - half_w, yaw + half_w)
    };
    out.extend(TileId::all().into_iter().filter(|tile| {
        let (t_p0, t_p1) = tile.pitch_range();
        let pitch_overlap = p_lo < t_p1 && p_hi > t_p0;
        let yaw_overlap = if tile.yaw_range().0 < 0.0 { west } else { east };
        pitch_overlap && yaw_overlap
    }));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cvr_motion::pose::{Orientation, Vec3};

    fn pose(yaw: f64, pitch: f64) -> Pose {
        Pose::new(Vec3::default(), Orientation::new(yaw, pitch, 0.0))
    }

    #[test]
    fn tile_ranges_partition_the_sphere() {
        let mut covered = 0.0;
        for t in TileId::all() {
            let (y0, y1) = t.yaw_range();
            let (p0, p1) = t.pitch_range();
            covered += (y1 - y0) * (p1 - p0);
        }
        assert_eq!(covered, 360.0 * 180.0);
    }

    #[test]
    fn forward_gaze_needs_both_east_west_tiles() {
        // Looking straight ahead at yaw 0 the FoV straddles the 0° seam.
        let tiles = tiles_for_pose(&FovSpec::paper_default(), &pose(0.0, 0.0));
        assert_eq!(tiles.len(), 4, "level gaze at a seam needs all quadrants");
    }

    #[test]
    fn gaze_inside_one_hemisphere_skips_the_other() {
        // Yaw 90° (east), level pitch: FoV spans [30°, 150°] with margin —
        // entirely east; pitch spans both halves.
        let tiles = tiles_for_pose(&FovSpec::paper_default(), &pose(90.0, 0.0));
        assert_eq!(tiles, vec![TileId::new(1), TileId::new(3)]);
    }

    #[test]
    fn looking_up_drops_bottom_tiles() {
        // Pitch 60°: FoV pitch span [0°, 120°] — clipped to top tiles.
        let tiles = tiles_for_pose(&FovSpec::paper_default(), &pose(90.0, 60.0));
        assert_eq!(tiles, vec![TileId::new(1)]);
    }

    #[test]
    fn wrap_seam_includes_both_hemispheres() {
        // Yaw 180° gaze: the FoV wraps across the ±180° seam.
        let tiles = tiles_for_pose(&FovSpec::paper_default(), &pose(180.0, 0.0));
        assert_eq!(tiles.len(), 4);
    }

    #[test]
    fn wider_margin_never_shrinks_the_tile_set() {
        for yaw in [-150.0, -90.0, 0.0, 45.0, 120.0] {
            for pitch in [-45.0, 0.0, 45.0] {
                let tight = tiles_for_pose(
                    &FovSpec::paper_default().with_margin(0.0),
                    &pose(yaw, pitch),
                );
                let wide = tiles_for_pose(
                    &FovSpec::paper_default().with_margin(40.0),
                    &pose(yaw, pitch),
                );
                for t in &tight {
                    assert!(wide.contains(t), "margin lost tile {t} at {yaw}/{pitch}");
                }
            }
        }
    }

    #[test]
    fn huge_margin_delivers_everything() {
        let spec = FovSpec::paper_default().with_margin(180.0);
        let tiles = tiles_for_pose(&spec, &pose(17.0, -3.0));
        assert_eq!(tiles.len(), 4);
    }

    #[test]
    fn tile_set_is_never_empty() {
        for yaw in (-180..180).step_by(15) {
            for pitch in (-85..=85).step_by(17) {
                let tiles =
                    tiles_for_pose(&FovSpec::paper_default(), &pose(yaw as f64, pitch as f64));
                assert!(!tiles.is_empty(), "empty tile set at {yaw}/{pitch}");
            }
        }
    }

    /// The per-tile yaw test `tiles_for_pose_into` ran before it
    /// classified the samples once: rescans the same 17 wrapped samples
    /// against one tile's `[t0, t1)` range.
    fn yaw_interval_overlaps(a0: f64, a1: f64, t0: f64, t1: f64) -> bool {
        let span = a1 - a0;
        let steps = 16;
        (0..=steps).any(|i| {
            let angle = wrap_degrees(a0 + span * i as f64 / steps as f64);
            angle >= t0 && angle < t1
        })
    }

    /// Oracle: tile membership decided tile by tile.
    fn tiles_for_pose_per_tile(spec: &FovSpec, pose: &Pose) -> Vec<TileId> {
        let half_w = spec.width_deg / 2.0 + spec.margin_deg;
        let half_h = spec.height_deg / 2.0 + spec.margin_deg;
        let yaw = pose.orientation.yaw;
        let pitch = pose.orientation.pitch.clamp(-90.0, 90.0);
        let (p_lo, p_hi) = (pitch - half_h, pitch + half_h);
        TileId::all()
            .into_iter()
            .filter(|tile| {
                let (t_p0, t_p1) = tile.pitch_range();
                let (t_y0, t_y1) = tile.yaw_range();
                p_lo < t_p1
                    && p_hi > t_p0
                    && (half_w >= 180.0
                        || yaw_interval_overlaps(yaw - half_w, yaw + half_w, t_y0, t_y1))
            })
            .collect()
    }

    /// `x` and its neighbours up to three ulps either side.
    pub(crate) fn with_ulps(x: f64) -> [f64; 7] {
        let (mut lo, mut hi) = (x, x);
        let mut out = [x; 7];
        for k in 1..=3 {
            lo = lo.next_down();
            hi = hi.next_up();
            out[2 * k - 1] = lo;
            out[2 * k] = hi;
        }
        out
    }

    #[test]
    fn one_pass_tile_set_equals_the_per_tile_oracle() {
        let pitches = [
            -135.0,
            -90.0,
            -89.999,
            -60.0,
            -37.5,
            (-0.0f64).next_down(),
            -0.0,
            0.0,
            0.0f64.next_up(),
            22.5,
            37.5,
            60.0,
            90.0,
            200.0,
            f64::NAN,
        ];
        let mut scratch = Vec::new();
        let mut compared = 0usize;
        for margin in [0.0, 15.0, 40.0, 180.0] {
            let spec = FovSpec::paper_default().with_margin(margin);
            let half_w = spec.width_deg / 2.0 + spec.margin_deg;
            let mut yaws = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e300];
            // Dense grid, well past one turn either way.
            yaws.extend((-4000..=4000).map(|k| f64::from(k) * 0.13));
            // Every 7.5° step (a sample of the paper-default ±60° sweep
            // lands on a tile edge there) and the ±180° seam.
            yaws.extend((-72..=72).flat_map(|k| with_ulps(f64::from(k) * 7.5)));
            // This margin's own breakpoints: the yaws at which sample `i`
            // sits exactly on the 0° or ±180° tile edge.
            for i in 0..=16 {
                let offset = half_w - 2.0 * half_w * f64::from(i) / 16.0;
                for edge in [-360.0, -180.0, 0.0, 180.0, 360.0] {
                    yaws.extend(with_ulps(edge + offset));
                }
            }
            for &yaw in &yaws {
                for &pitch in &pitches {
                    let p = pose(yaw, pitch);
                    tiles_for_pose_into(&spec, &p, &mut scratch);
                    assert_eq!(
                        scratch,
                        tiles_for_pose_per_tile(&spec, &p),
                        "margin {margin} yaw {yaw:?} pitch {pitch:?}"
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 500_000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_tile_id_panics() {
        let _ = TileId::new(4);
    }

    #[test]
    fn display_and_accessors() {
        assert_eq!(TileId::new(2).to_string(), "tile2");
        assert_eq!(TileId::new(3).get(), 3);
    }
}
