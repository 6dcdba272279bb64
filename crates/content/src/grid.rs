//! The grid world: the scene is pre-rendered on a 5 cm × 5 cm position
//! grid (Section VI, following Firefly), so every user position maps to a
//! grid cell whose panorama is served.

use serde::{Deserialize, Serialize};

use cvr_motion::pose::Vec3;

/// A grid cell index on the x/z plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId {
    /// Cell index along x.
    pub x: i32,
    /// Cell index along z.
    pub z: i32,
}

/// The pre-rendered grid world.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridWorld {
    /// Cell edge length in metres (paper: 0.05).
    pub cell_size_m: f64,
    /// Half-extent of the rendered area, metres: cells exist for positions
    /// within `[-extent, extent]` on both axes.
    pub extent_m: f64,
}

impl GridWorld {
    /// The paper's grid: 5 cm cells. The extent is chosen to cover the
    /// synthetic room used by `cvr-motion` (±5 m plus slack).
    pub fn paper_default() -> Self {
        GridWorld {
            cell_size_m: 0.05,
            extent_m: 6.0,
        }
    }

    /// Creates a grid world.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not positive.
    pub fn new(cell_size_m: f64, extent_m: f64) -> Self {
        assert!(cell_size_m > 0.0, "cell size must be positive");
        assert!(extent_m > 0.0, "extent must be positive");
        GridWorld {
            cell_size_m,
            extent_m,
        }
    }

    /// The cell index of coordinate `v` along either axis, `v` clamped to
    /// the extent first.
    fn index_of(&self, v: f64) -> i32 {
        (v.clamp(-self.extent_m, self.extent_m) / self.cell_size_m).floor() as i32
    }

    /// The cell containing `position` (positions outside the extent clamp
    /// to the boundary cell, as a real system would pin the user inside the
    /// rendered volume).
    pub fn cell_of(&self, position: &Vec3) -> CellId {
        CellId {
            x: self.index_of(position.x),
            z: self.index_of(position.z),
        }
    }

    /// Whether `cell` is one [`GridWorld::cell_of`] can return: both
    /// indices between those of `-extent_m` and `extent_m`, the two
    /// boundary cells positions clamp to included. Content exists for
    /// these cells and no others.
    pub fn contains(&self, cell: CellId) -> bool {
        let axis = self.index_of(-self.extent_m)..=self.index_of(self.extent_m);
        axis.contains(&cell.x) && axis.contains(&cell.z)
    }

    /// Centre position of a cell.
    pub fn cell_center(&self, cell: CellId) -> Vec3 {
        Vec3::new(
            (cell.x as f64 + 0.5) * self.cell_size_m,
            1.7,
            (cell.z as f64 + 0.5) * self.cell_size_m,
        )
    }

    /// Number of cells along one axis.
    pub fn cells_per_axis(&self) -> u32 {
        (2.0 * self.extent_m / self.cell_size_m).ceil() as u32
    }

    /// Total number of cells in the world.
    pub fn total_cells(&self) -> u64 {
        let per_axis = u64::from(self.cells_per_axis());
        per_axis * per_axis
    }

    /// All cells within `radius_m` (Chebyshev) of `center`'s cell — the
    /// reachable set the server caches ahead of the user (the future
    /// location is bounded by walking speed).
    pub fn cells_within(&self, center: &Vec3, radius_m: f64) -> Vec<CellId> {
        let mut cells = Vec::new();
        self.cells_within_into(center, radius_m, &mut cells);
        cells
    }

    /// Buffer-reusing variant of [`GridWorld::cells_within`]: clears `out`
    /// and fills it with the same cells, in the same order, without
    /// allocating once the buffer has grown to the square's size.
    pub fn cells_within_into(&self, center: &Vec3, radius_m: f64, out: &mut Vec<CellId>) {
        out.clear();
        let c = self.cell_of(center);
        let r = (radius_m / self.cell_size_m).ceil() as i32;
        out.reserve(((2 * r + 1) * (2 * r + 1)) as usize);
        for dx in -r..=r {
            for dz in -r..=r {
                out.push(CellId {
                    x: c.x + dx,
                    z: c.z + dz,
                });
            }
        }
    }
}

impl Default for GridWorld {
    fn default() -> Self {
        GridWorld::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_of_basic() {
        let g = GridWorld::paper_default();
        assert_eq!(g.cell_of(&Vec3::new(0.0, 1.7, 0.0)), CellId { x: 0, z: 0 });
        assert_eq!(
            g.cell_of(&Vec3::new(0.049, 1.7, 0.0)),
            CellId { x: 0, z: 0 }
        );
        assert_eq!(
            g.cell_of(&Vec3::new(0.051, 1.7, 0.0)),
            CellId { x: 1, z: 0 }
        );
        assert_eq!(
            g.cell_of(&Vec3::new(-0.01, 1.7, 0.12)),
            CellId { x: -1, z: 2 }
        );
    }

    #[test]
    fn positions_outside_extent_clamp() {
        let g = GridWorld::new(0.05, 1.0);
        let far = g.cell_of(&Vec3::new(100.0, 1.7, -100.0));
        let edge = g.cell_of(&Vec3::new(1.0, 1.7, -1.0));
        assert_eq!(far, edge);
    }

    #[test]
    fn contains_exactly_the_cells_cell_of_returns() {
        for g in [GridWorld::paper_default(), GridWorld::new(0.3, 1.0)] {
            let (mut lo, mut hi) = (i32::MAX, i32::MIN);
            // Past the extent on both sides, in steps well under a cell.
            let steps = (2.4 * g.extent_m / g.cell_size_m * 8.0) as i32;
            for i in 0..=steps {
                let v = -1.2 * g.extent_m + f64::from(i) * g.cell_size_m / 8.0;
                let cell = g.cell_of(&Vec3::new(v, 1.7, -v));
                assert!(g.contains(cell), "{cell:?} came out of cell_of({v})");
                lo = lo.min(cell.x);
                hi = hi.max(cell.x);
            }
            // Both clamped boundary cells are in; one step further is out,
            // on either axis.
            assert_eq!(lo, g.cell_of(&Vec3::new(-1e9, 0.0, 0.0)).x);
            assert_eq!(hi, g.cell_of(&Vec3::new(1e9, 0.0, 0.0)).x);
            for inside in [lo, 0, hi] {
                assert!(g.contains(CellId { x: inside, z: lo }));
                assert!(g.contains(CellId { x: hi, z: inside }));
                for outside in [lo - 1, hi + 1, i32::MIN, i32::MAX] {
                    assert!(!g.contains(CellId {
                        x: outside,
                        z: inside
                    }));
                    assert!(!g.contains(CellId {
                        x: inside,
                        z: outside
                    }));
                }
            }
        }
        let paper = GridWorld::paper_default();
        assert!(paper.contains(CellId { x: -120, z: 120 }));
        assert!(!paper.contains(CellId { x: -121, z: 0 }));
        assert!(!paper.contains(CellId { x: 0, z: 121 }));
    }

    #[test]
    fn cell_center_round_trips() {
        let g = GridWorld::paper_default();
        for &(x, z) in &[(0.0, 0.0), (1.23, -2.34), (-4.9, 4.9)] {
            let cell = g.cell_of(&Vec3::new(x, 1.7, z));
            let center = g.cell_center(cell);
            assert_eq!(g.cell_of(&center), cell);
        }
    }

    #[test]
    fn counts_match_extent() {
        let g = GridWorld::new(0.5, 1.0);
        assert_eq!(g.cells_per_axis(), 4);
        assert_eq!(g.total_cells(), 16);
        // The paper's world: 5 cm granularity over metres → many cells.
        let paper = GridWorld::paper_default();
        assert_eq!(paper.cells_per_axis(), 240);
        assert_eq!(paper.total_cells(), 57_600);
    }

    #[test]
    fn cells_within_radius() {
        let g = GridWorld::paper_default();
        let center = Vec3::new(0.0, 1.7, 0.0);
        let cells = g.cells_within(&center, 0.05);
        assert_eq!(cells.len(), 9); // 3 × 3
        assert!(cells.contains(&CellId { x: 0, z: 0 }));
        assert!(cells.contains(&CellId { x: -1, z: 1 }));

        let bigger = g.cells_within(&center, 0.1);
        assert_eq!(bigger.len(), 25); // 5 × 5
        for c in &cells {
            assert!(bigger.contains(c));
        }
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_size_panics() {
        let _ = GridWorld::new(0.0, 1.0);
    }
}
