//! Tile partitioning: each equirectangular texture is split into four tiles
//! (Fig. 5), and only tiles overlapping the (margin-extended) predicted FoV
//! are delivered.
//!
//! [`tile_mask`] is the one place the overlap geometry is computed;
//! [`tiles_for_pose`] expands it, and callers that only compare tile sets
//! (overlap scores, the client's hit test) keep the mask.

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

/// Bit `t` set ⇔ tile `t` overlaps the FoV (with margin) around `pose`.
///
/// The yaw test is exact, not sampled: a view spanning 180° or more
/// touches both tile columns, a narrower one crosses at most one column
/// seam and so touches exactly the columns of its two end angles. Why
/// that survives `f64` rounding, and that it equals the 17-sample sweep
/// kept as the `#[cfg(test)]` oracle, is DESIGN §5q.
pub fn tile_mask(spec: &FovSpec, pose: &Pose) -> u8 {
    let half_w = spec.width_deg / 2.0 + spec.margin_deg;
    let half_h = spec.height_deg / 2.0 + spec.margin_deg;
    // Clamp to the sphere: a pose with out-of-range pitch still views
    // content at the pole.
    let pitch = pose.orientation.pitch.clamp(-90.0, 90.0);
    let (p_lo, p_hi) = (pitch - half_h, pitch + half_h);

    let a0 = pose.orientation.yaw - half_w;
    let span = (pose.orientation.yaw + half_w) - a0;
    let wide = half_w >= 180.0 || span >= 180.0;
    let ends = [wrap_degrees(a0), wrap_degrees(a0 + span)];
    let west = wide || ends.iter().any(|end| (-180.0..0.0).contains(end));
    let east = wide || ends.iter().any(|end| (0.0..180.0).contains(end));
    TileId::all().into_iter().fold(0, |mask, tile| {
        let (t_p0, t_p1) = tile.pitch_range();
        let yaw_overlap = if tile.yaw_range().0 < 0.0 { west } else { east };
        let pitch_overlap = p_lo < t_p1 && p_hi > t_p0;
        mask | u8::from(pitch_overlap && yaw_overlap) << tile.0
    })
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
    out.extend(tiles_in(tile_mask(spec, pose)));
}

/// The tiles whose bits are set in a [`tile_mask`], in ascending id order.
pub fn tiles_in(mask: u8) -> impl Iterator<Item = TileId> {
    TileId::all()
        .into_iter()
        .filter(move |tile| mask >> tile.0 & 1 == 1)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cvr_motion::pose::{Orientation, Vec3};
    use proptest::prelude::*;

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

    /// The sampled yaw test `tile_mask` replaces: 17 wrapped samples of
    /// the view against one tile's `[t0, t1)` range.
    fn yaw_interval_overlaps(a0: f64, a1: f64, t0: f64, t1: f64) -> bool {
        let span = a1 - a0;
        let steps = 16;
        (0..=steps).any(|i| {
            let angle = wrap_degrees(a0 + span * i as f64 / steps as f64);
            angle >= t0 && angle < t1
        })
    }

    /// Oracle: tile membership decided tile by tile, yaw by sampling.
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

    /// The mask names the oracle's tiles, and `tiles_for_pose_into` lists
    /// them in ascending id order.
    fn assert_matches_oracle(spec: &FovSpec, p: &Pose, scratch: &mut Vec<TileId>) {
        let oracle = tiles_for_pose_per_tile(spec, p);
        assert!(oracle.windows(2).all(|pair| pair[0] < pair[1]));
        assert_eq!(
            tiles_in(tile_mask(spec, p)).collect::<Vec<_>>(),
            oracle,
            "mask: {spec:?} {:?}",
            p.orientation
        );
        tiles_for_pose_into(spec, p, scratch);
        assert_eq!(*scratch, oracle, "set: {spec:?} {:?}", p.orientation);
    }

    /// Margins whose views sit well inside one regime, and — paper FoV
    /// width 90°, so `half_w = 45 + margin` — ones whose span straddles
    /// 180° (margin 45) and whose half-width straddles the 180° shortcut
    /// (margin 135) by ulps.
    fn oracle_margins() -> Vec<f64> {
        let mut margins = vec![0.0, 15.0, 40.0, 44.9, 45.1, 60.0, 95.0, 134.9, 180.0];
        margins.extend(with_ulps(45.0));
        margins.extend(with_ulps(135.0));
        margins
    }

    #[test]
    fn tile_mask_equals_the_sampled_oracle_on_a_deterministic_sweep() {
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
        for (m, margin) in oracle_margins().into_iter().enumerate() {
            let spec = FovSpec::paper_default().with_margin(margin);
            let half_w = spec.width_deg / 2.0 + spec.margin_deg;
            let mut yaws = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e300];
            // Dense grid, well past one turn either way (the round
            // margins only; the ulp neighbours differ at breakpoints).
            if m < 9 {
                yaws.extend((-2000..=2000).map(|k| f64::from(k) * 0.26));
            }
            // Every 7.5° step (a sample of the paper-default ±60° sweep
            // lands on a tile edge there) and the ±180° seam.
            yaws.extend((-72..=72).flat_map(|k| with_ulps(f64::from(k) * 7.5)));
            // This margin's own breakpoints: the yaws at which sample `i`
            // — the two ends, i = 0 and i = 16, among them — sits exactly
            // on the 0° or ±180° tile edge.
            for i in 0..=16 {
                let offset = half_w - 2.0 * half_w * f64::from(i) / 16.0;
                for edge in [-360.0, -180.0, 0.0, 180.0, 360.0] {
                    yaws.extend(with_ulps(edge + offset));
                }
            }
            for &yaw in &yaws {
                for &pitch in &pitches {
                    // As given — a deserialized or extrapolated pose need
                    // not be normalised — and as `Orientation::new` wraps it.
                    let mut p = pose(yaw, pitch);
                    assert_matches_oracle(&spec, &p, &mut scratch);
                    p.orientation.yaw = yaw;
                    assert_matches_oracle(&spec, &p, &mut scratch);
                    compared += 2;
                }
            }
        }
        assert!(compared > 2_000_000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn tile_mask_equals_the_sampled_oracle(
            // Either a free yaw, or one that puts an end (or the centre)
            // of the view on the seam `180° · seam`.
            free_yaw in -720.0f64..720.0,
            seam in -3i32..=3,
            end in -1i32..=1,
            // Margin regimes: the working range, the span straddling
            // 180°, the half-width straddling the 180° shortcut.
            margins in (0.0f64..95.0, 44.999_999f64..45.000_001, 134.0f64..200.0),
            // Pitch regimes: free, and the three values the row tests turn on.
            free_pitch in -200.0f64..200.0,
            regimes in (0usize..2, 0usize..3, 0usize..4),
            // Which of `with_ulps`' seven neighbours yaw, margin, pitch take.
            ulps in (0usize..7, 0usize..7, 0usize..7),
        ) {
            let margin = with_ulps([margins.0, margins.1, margins.2][regimes.1])[ulps.1];
            let spec = FovSpec::paper_default().with_margin(margin);
            let half_w = spec.width_deg / 2.0 + spec.margin_deg;
            let on_seam = f64::from(seam) * 180.0 + f64::from(end) * half_w;
            let pitch = [free_pitch, -90.0, 0.0, 90.0][regimes.2];
            let mut p = pose(0.0, with_ulps(pitch)[ulps.2]);
            p.orientation.yaw = with_ulps([free_yaw, on_seam][regimes.0])[ulps.0];
            assert_matches_oracle(&spec, &p, &mut Vec::new());
        }
    }

    #[test]
    fn mask_intersection_counts_what_the_set_scan_counted() {
        // The overlap score the lookahead records used before they held
        // masks: actual tiles that are also in the predicted set.
        let set_overlap = |predicted: &[TileId], actual: &[TileId]| {
            actual.iter().filter(|t| predicted.contains(t)).count() as u32
        };
        let tiles_of = |mask| tiles_in(mask).collect::<Vec<_>>();
        for a in 0u8..16 {
            for b in 0u8..16 {
                assert_eq!(
                    (a & b).count_ones(),
                    set_overlap(&tiles_of(a), &tiles_of(b)),
                    "{a:04b} & {b:04b}"
                );
            }
        }
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
