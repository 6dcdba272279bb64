//! The tile size model: encoded tile bitrate as a function of quality level
//! (CRF) and spatial complexity — the synthetic stand-in for the paper's
//! 171 GB FFmpeg-encoded tile database.
//!
//! Fig. 1a of the paper plots tile size against quality level for two
//! contents and observes the curve is *convex and increasing* (H.264 size
//! roughly doubles every ~6 CRF steps down). The model reproduces that:
//! per-level multipliers follow the paper-profile convex curve anchored so
//! a typical delivery at the medium level (4) needs 36 Mbps — the per-user
//! budget used in Section IV — and each (cell, tile) pair carries a
//! deterministic spatial-complexity factor, so different contents have
//! different curves exactly as in Fig. 1a.

use serde::{Deserialize, Serialize};

use cvr_core::fnv;
use cvr_core::quality::QualityLevel;
use cvr_core::rate::TabulatedRate;

use crate::grid::CellId;
use crate::tile::TileId;

/// Number of tiles a typical (margin-extended) FoV needs; used to anchor
/// the per-tile base rate so typical deliveries average the paper's
/// 36 Mbps at level 4.
pub const TYPICAL_TILES_PER_DELIVERY: f64 = 3.0;

/// Rate (Mbps) of a typical whole delivery at level 4, the paper's
/// per-user budget in Section IV.
const ANCHOR_DELIVERY_MBPS: f64 = 36.0;

/// Spread of the per-tile complexity factor around 1.0 (±25 %).
const COMPLEXITY_SPREAD: f64 = 0.25;

/// The FNV-1a state after a cell's x then z little-endian bytes: the
/// prefix the complexity hash of every tile of the cell starts from.
fn cell_prefix(cell: CellId) -> u64 {
    fnv::fold_bytes(
        fnv::fold_bytes(fnv::OFFSET, &cell.x.to_le_bytes()),
        &cell.z.to_le_bytes(),
    )
}

/// The synthetic encoded-size model at the paper's operating point: six
/// levels, a typical delivery costs 36 Mbps at level 4,
/// ±25 % spatial complexity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileSizeModel {
    /// Per-level multipliers relative to level 4 (= 1.0), from the paper
    /// profile's convex curve.
    multipliers: Vec<f64>,
}

impl TileSizeModel {
    /// The model.
    pub fn paper_default() -> Self {
        let anchor = TabulatedRate::paper_profile();
        let base = anchor.as_slice()[3];
        TileSizeModel {
            multipliers: anchor.as_slice().iter().map(|r| r / base).collect(),
        }
    }

    /// Number of quality levels.
    pub fn levels(&self) -> usize {
        self.multipliers.len()
    }

    /// Deterministic spatial-complexity factor for a (cell, tile) pair, in
    /// `[1 − spread, 1 + spread]` — texture-rich tiles cost more bits.
    pub fn complexity(&self, cell: CellId, tile: TileId) -> f64 {
        self.complexity_after(cell_prefix(cell), tile)
    }

    /// The complexity factor of `tile` of the cell whose FNV-1a prefix is
    /// `prefix`: FNV-1a over the coordinates, then the tile byte.
    fn complexity_after(&self, prefix: u64, tile: TileId) -> f64 {
        let unit = (fnv::fold_bytes(prefix, &[tile.get()]) >> 11) as f64 / (1u64 << 53) as f64;
        1.0 - COMPLEXITY_SPREAD + 2.0 * COMPLEXITY_SPREAD * unit
    }

    /// Rate (Mbps contribution) of one encoded tile at `quality`.
    ///
    /// # Panics
    ///
    /// Panics if `quality` exceeds the number of levels.
    pub fn tile_rate_mbps(&self, cell: CellId, tile: TileId, quality: QualityLevel) -> f64 {
        let per_tile_anchor = ANCHOR_DELIVERY_MBPS / TYPICAL_TILES_PER_DELIVERY;
        per_tile_anchor * self.multipliers[quality.index()] * self.complexity(cell, tile)
    }

    /// Fills `out[l]` with the rate of this tile at level `l + 1` for every
    /// level, hashing the (cell, tile) complexity once instead of once per
    /// level. Each entry is bit-identical to the corresponding
    /// [`TileSizeModel::tile_rate_mbps`] call. The slot path reads whole
    /// cells through [`TileSizeModel::cell_rate_rows`] instead, whose
    /// entries equal this row's bit for bit.
    ///
    /// # Contract
    ///
    /// Exactly `out[..levels]` is written; any excess capacity beyond the
    /// level count is **left untouched** (not zeroed). Callers that reuse
    /// oversized scratch buffers must therefore never read past `levels`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the number of levels.
    pub fn tile_rate_row(&self, cell: CellId, tile: TileId, out: &mut [f64]) {
        assert!(out.len() >= self.levels(), "output row too short");
        let per_tile_anchor = ANCHOR_DELIVERY_MBPS / TYPICAL_TILES_PER_DELIVERY;
        let complexity = self.complexity(cell, tile);
        for (slot, multiplier) in out[..self.levels()].iter_mut().zip(&self.multipliers) {
            *slot = per_tile_anchor * multiplier * complexity;
        }
    }

    /// Fills `out` with every tile's rate at every level of `cell`,
    /// **level-major**: entry `l * TileId::COUNT + t` is tile `t`'s rate at
    /// level `l + 1`. The cell's coordinate bytes are folded into the
    /// FNV-1a state once and each tile's byte after them; FNV-1a is a
    /// left fold, so every entry is bit-identical to the same entry of
    /// [`TileSizeModel::tile_rate_row`]. Each level's tile rates are
    /// contiguous, which is what lets the per-level undelivered folds
    /// downstream read sequential memory.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly `levels × TileId::COUNT` long.
    pub fn cell_rate_rows(&self, cell: CellId, out: &mut [f64]) {
        let count = usize::from(TileId::COUNT);
        assert_eq!(out.len(), count * self.levels(), "output table size");
        let per_tile_anchor = ANCHOR_DELIVERY_MBPS / TYPICAL_TILES_PER_DELIVERY;
        let prefix = cell_prefix(cell);
        let complexity = TileId::all().map(|tile| self.complexity_after(prefix, tile));
        for (run, multiplier) in out.chunks_exact_mut(count).zip(&self.multipliers) {
            // `(anchor · multiplier) · complexity`, the product order of
            // `tile_rate_row`.
            let scaled = per_tile_anchor * multiplier;
            for (slot, c) in run.iter_mut().zip(&complexity) {
                *slot = scaled * c;
            }
        }
    }

    /// Total rate to deliver the given tiles of a cell at `quality` — the
    /// paper's `f_c^R(q)` for that content.
    pub fn content_rate_mbps(&self, cell: CellId, tiles: &[TileId], quality: QualityLevel) -> f64 {
        tiles
            .iter()
            .map(|&t| self.tile_rate_mbps(cell, t, quality))
            .sum()
    }

    /// Builds the per-level rate table `f_c^R(·)` for delivering `tiles` of
    /// `cell` — the input the allocators consume.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is empty (an empty delivery has no rate curve).
    pub fn rate_table(&self, cell: CellId, tiles: &[TileId]) -> TabulatedRate {
        assert!(!tiles.is_empty(), "rate table needs at least one tile");
        let rates: Vec<f64> = (1..=self.levels())
            .map(|l| self.content_rate_mbps(cell, tiles, QualityLevel::new(l as u8)))
            .collect();
        TabulatedRate::new(rates).expect("scaled multipliers stay valid")
    }
}

impl Default for TileSizeModel {
    fn default() -> Self {
        TileSizeModel::paper_default()
    }
}

/// The level-major `levels × TileId::COUNT` table of `cell` the way the
/// per-session rate cache used to materialise it: one `tile_rate_row` per
/// tile, scattered into its level-major slots. The oracle
/// [`TileSizeModel::cell_rate_rows`] is checked against.
#[cfg(test)]
pub(crate) fn transposed_tile_rows(sizing: &TileSizeModel, cell: CellId) -> Vec<f64> {
    let levels = sizing.levels();
    let count = usize::from(TileId::COUNT);
    let mut rows = vec![0.0f64; count * levels];
    let mut tile_row = vec![0.0f64; levels];
    for tile in TileId::all() {
        sizing.tile_rate_row(cell, tile, &mut tile_row);
        for (l, &rate) in tile_row.iter().enumerate() {
            rows[l * count + usize::from(tile.get())] = rate;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::RatePlane;
    use proptest::prelude::*;

    fn cell(x: i32, z: i32) -> CellId {
        CellId { x, z }
    }

    /// The per-byte FNV-1a complexity as written before the cell prefix
    /// was factored out.
    fn reference_complexity(cell: CellId, tile: TileId) -> f64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in (cell.x.to_le_bytes().into_iter())
            .chain(cell.z.to_le_bytes())
            .chain([tile.get()])
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        1.0 - COMPLEXITY_SPREAD + 2.0 * COMPLEXITY_SPREAD * unit
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Both whole-cell paths — `cell_rate_rows` and the planner's
        // `RatePlane::rows` — equal the transposed `tile_rate_row` table
        // bit for bit, on random cells and on the edges: `i32` extremes,
        // zero, ±1 and the paper world's boundary cells ±120.
        #[test]
        fn cell_rate_rows_and_complexity_equal_their_references(
            random in prop::collection::vec((i32::MIN..=i32::MAX, i32::MIN..=i32::MAX), 1..16),
        ) {
            const EDGES: [i32; 7] = [i32::MIN, -120, -1, 0, 1, 120, i32::MAX];
            let edges = EDGES.iter().flat_map(|&x| EDGES.map(|z| (x, z)));
            let m = TileSizeModel::paper_default();
            let mut plane = RatePlane::new(m.clone(), 0);
            let mut rows = vec![0.0f64; usize::from(TileId::COUNT) * m.levels()];
            let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            for (x, z) in edges.chain(random) {
                let c = cell(x, z);
                let oracle = bits(&transposed_tile_rows(&m, c));
                m.cell_rate_rows(c, &mut rows);
                prop_assert_eq!(bits(&rows), oracle.clone());
                prop_assert_eq!(bits(plane.rows(c)), oracle);
                for t in TileId::all() {
                    prop_assert_eq!(
                        m.complexity(c, t).to_bits(),
                        reference_complexity(c, t).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn paper_default_is_convex_per_tile() {
        let m = TileSizeModel::paper_default();
        for t in TileId::all() {
            let rates: Vec<f64> = (1..=6)
                .map(|l| m.tile_rate_mbps(cell(3, -2), t, QualityLevel::new(l)))
                .collect();
            for w in rates.windows(2) {
                assert!(w[1] > w[0], "sizes must increase with quality");
            }
            for w in rates.windows(3) {
                assert!(
                    (w[2] - w[1]) >= (w[1] - w[0]) - 1e-9,
                    "sizes must be convex"
                );
            }
        }
    }

    #[test]
    fn typical_delivery_at_level4_is_36mbps_on_average() {
        let m = TileSizeModel::paper_default();
        let mut total = 0.0;
        let mut count = 0;
        for x in -20..20 {
            for z in -20..20 {
                // A typical delivery: 3 tiles.
                let tiles = [TileId::new(0), TileId::new(1), TileId::new(2)];
                total += m.content_rate_mbps(cell(x, z), &tiles, QualityLevel::new(4));
                count += 1;
            }
        }
        let mean = total / count as f64;
        assert!(
            (mean - 36.0).abs() < 2.0,
            "mean delivery {mean} != ~36 Mbps"
        );
    }

    #[test]
    fn complexity_is_deterministic_and_bounded() {
        let m = TileSizeModel::paper_default();
        for x in -10..10 {
            for t in TileId::all() {
                let c1 = m.complexity(cell(x, 2 * x), t);
                let c2 = m.complexity(cell(x, 2 * x), t);
                assert_eq!(c1, c2);
                assert!((0.75..=1.25).contains(&c1), "complexity {c1} out of range");
            }
        }
    }

    #[test]
    fn different_contents_have_different_curves() {
        // The two-content comparison of Fig. 1a: distinct cells yield
        // distinct size curves.
        let m = TileSizeModel::paper_default();
        let t = TileId::new(1);
        let a = m.tile_rate_mbps(cell(0, 0), t, QualityLevel::new(4));
        let b = m.tile_rate_mbps(cell(7, -3), t, QualityLevel::new(4));
        assert_ne!(a, b);
    }

    #[test]
    fn rate_table_is_valid_and_matches_content_rate() {
        let m = TileSizeModel::paper_default();
        let tiles = [TileId::new(1), TileId::new(3)];
        let table = m.rate_table(cell(4, 4), &tiles);
        assert!(table.is_convex());
        for l in 1..=6u8 {
            let q = QualityLevel::new(l);
            assert!(
                (cvr_core::rate::RateFunction::rate(&table, q)
                    - m.content_rate_mbps(cell(4, 4), &tiles, q))
                .abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn tile_rate_row_is_bit_identical_to_per_level_calls() {
        let m = TileSizeModel::paper_default();
        let mut row = [0.0f64; 8];
        for x in -5..5 {
            for t in TileId::all() {
                m.tile_rate_row(cell(x, -x), t, &mut row);
                for l in 1..=6u8 {
                    let q = QualityLevel::new(l);
                    assert_eq!(row[q.index()], m.tile_rate_mbps(cell(x, -x), t, q));
                }
            }
        }
        // Excess capacity beyond the level count is left untouched.
        assert_eq!(row[6], 0.0);
    }

    #[test]
    #[should_panic(expected = "output row too short")]
    fn short_rate_row_panics() {
        let m = TileSizeModel::paper_default();
        let mut row = [0.0f64; 3];
        m.tile_rate_row(cell(0, 0), TileId::new(0), &mut row);
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn empty_rate_table_panics() {
        let m = TileSizeModel::paper_default();
        let _ = m.rate_table(cell(0, 0), &[]);
    }

    #[test]
    fn more_tiles_cost_more() {
        let m = TileSizeModel::paper_default();
        let q = QualityLevel::new(3);
        let two = m.content_rate_mbps(cell(0, 0), &[TileId::new(0), TileId::new(1)], q);
        let four = m.content_rate_mbps(cell(0, 0), &TileId::all(), q);
        assert!(four > two);
    }
}
