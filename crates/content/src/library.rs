//! The content library facade: pose → cell → tile set → per-level rate
//! table, tying the grid world, the tiler and the size model together. This
//! is the object the server consults each slot to build `f_{c(t)}^R(·)` for
//! every user.

use serde::{Deserialize, Serialize};

use cvr_core::quality::QualitySet;
use cvr_core::rate::TabulatedRate;
use cvr_motion::fov::FovSpec;
use cvr_motion::pose::Pose;

use crate::grid::{CellId, GridWorld};
use crate::id::VideoId;
use crate::sizing::TileSizeModel;
use crate::tile::{tiles_for_pose, TileId};

/// A request the server resolves for one user in one slot: which cell and
/// tiles to deliver, and at what rate per quality level.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentRequest {
    /// The grid cell whose panorama is served.
    pub cell: CellId,
    /// The tiles overlapping the (margin-extended) FoV.
    pub tiles: Vec<TileId>,
    /// Per-level delivery rate table `f_c^R(·)`.
    pub rate_table: TabulatedRate,
}

/// The pre-rendered content library.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentLibrary {
    grid: GridWorld,
    sizing: TileSizeModel,
    quality: QualitySet,
    fov: FovSpec,
}

impl ContentLibrary {
    /// The paper's configuration: 5 cm grid, six CRF levels, 90° FoV with
    /// 15° margin, 36 Mbps level-4 anchor.
    pub fn paper_default() -> Self {
        ContentLibrary {
            grid: GridWorld::paper_default(),
            sizing: TileSizeModel::paper_default(),
            quality: QualitySet::paper_default(),
            fov: FovSpec::paper_default(),
        }
    }

    /// Creates a library from explicit components.
    pub fn new(grid: GridWorld, sizing: TileSizeModel, quality: QualitySet, fov: FovSpec) -> Self {
        ContentLibrary {
            grid,
            sizing,
            quality,
            fov,
        }
    }

    /// The FoV/margin specification in use.
    pub fn fov(&self) -> &FovSpec {
        &self.fov
    }

    /// The grid world in use.
    pub fn grid(&self) -> &GridWorld {
        &self.grid
    }

    /// The quality set in use.
    pub fn quality_set(&self) -> &QualitySet {
        &self.quality
    }

    /// The size model in use.
    pub fn sizing(&self) -> &TileSizeModel {
        &self.sizing
    }

    /// Whether the library holds every tile `ids` names: a cell of its
    /// world at a level of its ladder. An id that decodes
    /// ([`VideoId::try_from_raw`]) can still name a cell half a million
    /// cells out, or level 7 of six. The world's bounds are computed once
    /// per call, not per id.
    pub fn contains_all(&self, ids: &[VideoId]) -> bool {
        let in_world = self.grid.membership();
        ids.iter()
            .all(|id| self.quality.check(id.quality()).is_ok() && in_world(id.cell()))
    }

    /// Resolves the content to deliver for a (predicted) pose.
    pub fn request_for(&self, pose: &Pose) -> ContentRequest {
        let cell = self.grid.cell_of(&pose.position);
        let tiles = tiles_for_pose(&self.fov, pose);
        let rate_table = self.sizing.rate_table(cell, &tiles);
        ContentRequest {
            cell,
            tiles,
            rate_table,
        }
    }
}

impl Default for ContentLibrary {
    fn default() -> Self {
        ContentLibrary::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_core::quality::QualityLevel;
    use cvr_core::rate::RateFunction;
    use cvr_motion::pose::{Orientation, Vec3};

    fn pose(x: f64, z: f64, yaw: f64, pitch: f64) -> Pose {
        Pose::new(Vec3::new(x, 1.7, z), Orientation::new(yaw, pitch, 0.0))
    }

    #[test]
    fn request_resolves_cell_tiles_and_rates() {
        let lib = ContentLibrary::paper_default();
        let req = lib.request_for(&pose(1.0, -2.0, 90.0, 0.0));
        assert_eq!(req.cell, CellId { x: 20, z: -40 });
        assert_eq!(req.tiles, vec![TileId::new(1), TileId::new(3)]);
        assert!(req.rate_table.is_convex());
        assert_eq!(req.rate_table.max_level(), QualityLevel::new(6));
    }

    #[test]
    fn contains_the_world_at_the_ladder_and_nothing_else() {
        let lib = ContentLibrary::paper_default();
        let id = |x, z, q| VideoId::new(CellId { x, z }, TileId::new(2), QualityLevel::new(q));
        let contains = |id| lib.contains_all(&[id]);
        for q in 1..=6 {
            assert!(contains(id(0, 0, q)));
            assert!(contains(id(-120, 120, q)), "clamped boundary cells");
        }
        assert!(!contains(id(0, 0, 7)), "level 7 of a six-level ladder");
        assert!(!contains(id(121, 0, 1)));
        assert!(!contains(id(0, -121, 1)));
        assert!(
            !contains(id(-524_288, 524_287, 6)),
            "packable, not rendered"
        );
        // A slice is held when every id is; an empty one vacuously.
        assert!(lib.contains_all(&[]));
        assert!(lib.contains_all(&[id(0, 0, 1), id(-120, 120, 6)]));
        assert!(!lib.contains_all(&[id(0, 0, 1), id(0, 0, 7)]));
    }

    #[test]
    fn nearby_poses_share_content() {
        let lib = ContentLibrary::paper_default();
        let a = lib.request_for(&pose(0.01, 0.01, 90.0, 0.0));
        let b = lib.request_for(&pose(0.02, 0.02, 91.0, 1.0));
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.tiles, b.tiles);
        assert_eq!(a.rate_table, b.rate_table);
    }

    #[test]
    fn different_cells_have_different_rates() {
        let lib = ContentLibrary::paper_default();
        let a = lib.request_for(&pose(0.0, 0.0, 90.0, 60.0));
        let b = lib.request_for(&pose(3.0, -3.0, 90.0, 60.0));
        assert_ne!(a.rate_table, b.rate_table);
    }

    #[test]
    fn rate_scales_with_tile_count() {
        let lib = ContentLibrary::paper_default();
        // Looking up at 60°: 1 tile. Level gaze at a seam: 4 tiles.
        let narrow = lib.request_for(&pose(0.0, 0.0, 90.0, 60.0));
        let wide = lib.request_for(&pose(0.0, 0.0, 0.0, 0.0));
        assert!(narrow.tiles.len() < wide.tiles.len());
        let q = QualityLevel::new(4);
        assert!(narrow.rate_table.rate(q) < wide.rate_table.rate(q));
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(ContentLibrary::default(), ContentLibrary::paper_default());
    }
}
