//! Video IDs: every encoded tile is indexed by its grid cell, tile position
//! and quality level, so "the server only needs to search the video ID
//! during the runtime, which greatly facilitates communication" (Section V).
//!
//! The packed layout is stated here and nowhere else. Its low five bits
//! are the `(tile, quality)` *slot* and the forty above them the *cell
//! key*, so everything a peer holds of one cell fits a `u32` mask with
//! one bit per slot: [`VideoId::cell_key`]/[`VideoId::slot_bit`] split an
//! id that way, [`VideoId::key_of`]/[`VideoId::slot_bit_of`] build the
//! halves from their components, and [`crate::cache`] keeps delivery
//! state as a map from cell key to slot mask.

use serde::{Deserialize, Serialize};

use cvr_core::quality::QualityLevel;

use crate::grid::CellId;
use crate::tile::TileId;

/// A packed 64-bit identifier for one encoded tile.
///
/// Layout (LSB → MSB): 3 bits quality (1–6), 2 bits tile, 20 bits biased z
/// cell, 20 bits biased x cell. Cells are biased by 2¹⁹ so negative
/// indices pack cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VideoId(u64);

const CELL_BIAS: i64 = 1 << 19;
const CELL_MASK: u64 = (1 << 20) - 1;
/// Width of the `(tile, quality)` slot below the cell key.
const SLOT_BITS: u32 = 5;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// The low [`SLOT_BITS`] of an id: two bits of tile above three of quality.
fn slot_of(tile: TileId, quality: QualityLevel) -> u64 {
    assert!(quality.get() < 8, "quality does not fit in 3 bits");
    u64::from(tile.get()) << 3 | u64::from(quality.get())
}

impl VideoId {
    /// Packs the components.
    ///
    /// # Panics
    ///
    /// Panics if a cell index falls outside ±2¹⁹ (far beyond any rendered
    /// world) or the quality exceeds 7.
    pub fn new(cell: CellId, tile: TileId, quality: QualityLevel) -> Self {
        VideoId(VideoId::key_of(cell) << SLOT_BITS | slot_of(tile, quality))
    }

    /// The raw packed value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs an ID from a raw packed value received over the wire,
    /// rejecting encodings no [`VideoId::new`] could have produced (zero
    /// quality, set bits outside the packed layout).
    pub fn try_from_raw(raw: u64) -> Option<VideoId> {
        if raw >> 45 != 0 || raw & 0b111 == 0 {
            return None;
        }
        Some(VideoId(raw))
    }

    /// The 40 bits above the slot: the id's cell, as [`VideoId::key_of`]
    /// packs it.
    pub fn cell_key(self) -> u64 {
        self.0 >> SLOT_BITS
    }

    /// The id's `(tile, quality)` slot as one set bit of a cell's 32-slot
    /// mask.
    pub fn slot_bit(self) -> u32 {
        1 << (self.0 & SLOT_MASK)
    }

    /// The cell key every id of `cell` carries.
    ///
    /// # Panics
    ///
    /// Panics if a cell index falls outside ±2¹⁹, like [`VideoId::new`].
    pub fn key_of(cell: CellId) -> u64 {
        let bx = i64::from(cell.x) + CELL_BIAS;
        let bz = i64::from(cell.z) + CELL_BIAS;
        assert!(
            (0..(1 << 20)).contains(&bx) && (0..(1 << 20)).contains(&bz),
            "cell index out of packable range"
        );
        (bx as u64) << 20 | bz as u64
    }

    /// The mask bit of `(tile, quality)` — [`VideoId::slot_bit`] of any id
    /// with these two components.
    ///
    /// # Panics
    ///
    /// Panics if the quality exceeds 7, like [`VideoId::new`].
    pub fn slot_bit_of(tile: TileId, quality: QualityLevel) -> u32 {
        1 << slot_of(tile, quality)
    }

    /// Unpacks the grid cell.
    pub fn cell(self) -> CellId {
        CellId {
            x: ((self.0 >> 25 & CELL_MASK) as i64 - CELL_BIAS) as i32,
            z: ((self.0 >> 5 & CELL_MASK) as i64 - CELL_BIAS) as i32,
        }
    }

    /// Unpacks the tile.
    pub fn tile(self) -> TileId {
        TileId::new((self.0 >> 3 & 0b11) as u8)
    }

    /// Unpacks the quality level.
    pub fn quality(self) -> QualityLevel {
        QualityLevel::new((self.0 & 0b111) as u8)
    }

    /// The same tile at a different quality (cache keys often need the
    /// quality-independent identity plus a re-keyed quality).
    pub fn at_quality(self, quality: QualityLevel) -> VideoId {
        VideoId::new(self.cell(), self.tile(), quality)
    }
}

impl std::fmt::Display for VideoId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.cell();
        write!(
            f,
            "v{}.{}.{}q{}",
            c.x,
            c.z,
            self.tile().get(),
            self.quality().get()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_fields() {
        for &(x, z) in &[(0, 0), (119, -119), (-1, 1), (524_287, -524_288)] {
            for t in 0..4 {
                for q in 1..=6 {
                    let id = VideoId::new(CellId { x, z }, TileId::new(t), QualityLevel::new(q));
                    assert_eq!(id.cell(), CellId { x, z });
                    assert_eq!(id.tile().get(), t);
                    assert_eq!(id.quality().get(), q);
                }
            }
        }
    }

    #[test]
    fn ids_are_unique_across_components() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for x in -3..3 {
            for z in -3..3 {
                for t in 0..4 {
                    for q in 1..=6 {
                        let id =
                            VideoId::new(CellId { x, z }, TileId::new(t), QualityLevel::new(q));
                        assert!(seen.insert(id.as_u64()), "duplicate id {id}");
                    }
                }
            }
        }
        assert_eq!(seen.len(), 6 * 6 * 4 * 6);
    }

    #[test]
    fn an_id_splits_into_its_cell_key_and_one_of_28_slot_bits() {
        let mut slots = 0u32;
        for &(x, z) in &[(0, 0), (119, -119), (-1, 1), (524_287, -524_288)] {
            let cell = CellId { x, z };
            let key = VideoId::key_of(cell);
            assert!(key < 1 << 40);
            for t in 0..4 {
                for q in 1..=7 {
                    let (tile, quality) = (TileId::new(t), QualityLevel::new(q));
                    let id = VideoId::new(cell, tile, quality);
                    assert_eq!(id.cell_key(), key);
                    assert_eq!(id.slot_bit(), VideoId::slot_bit_of(tile, quality));
                    assert_eq!(id.slot_bit().count_ones(), 1);
                    assert_eq!(
                        id.as_u64(),
                        key << 5 | u64::from(id.slot_bit().trailing_zeros())
                    );
                    slots |= id.slot_bit();
                }
            }
        }
        // Every (tile, quality) has its own bit; the four quality-0 slots
        // no id can name stay clear.
        assert_eq!(slots.count_ones(), 28);
        assert_eq!(slots & 0x0101_0101, 0);
        // Distinct cells, distinct keys — x above z, as the packed id has them.
        assert_ne!(
            VideoId::key_of(CellId { x: 1, z: 0 }),
            VideoId::key_of(CellId { x: 0, z: 1 })
        );
        assert_eq!(
            VideoId::key_of(CellId { x: 1, z: 0 }) - VideoId::key_of(CellId { x: 0, z: 0 }),
            1 << 20
        );
    }

    #[test]
    fn at_quality_rekeys_only_quality() {
        let id = VideoId::new(CellId { x: 5, z: -7 }, TileId::new(2), QualityLevel::new(3));
        let up = id.at_quality(QualityLevel::new(6));
        assert_eq!(up.cell(), id.cell());
        assert_eq!(up.tile(), id.tile());
        assert_eq!(up.quality().get(), 6);
        assert_ne!(up, id);
    }

    #[test]
    fn display_is_readable() {
        let id = VideoId::new(CellId { x: 1, z: -2 }, TileId::new(3), QualityLevel::new(4));
        assert_eq!(id.to_string(), "v1.-2.3q4");
    }

    #[test]
    #[should_panic(expected = "packable range")]
    fn out_of_range_cell_panics() {
        let _ = VideoId::new(
            CellId { x: 600_000, z: 0 },
            TileId::new(0),
            QualityLevel::new(1),
        );
    }

    #[test]
    fn ordering_is_stable() {
        let a = VideoId::new(CellId { x: 0, z: 0 }, TileId::new(0), QualityLevel::new(1));
        let b = VideoId::new(CellId { x: 0, z: 0 }, TileId::new(0), QualityLevel::new(2));
        assert!(a < b);
    }
}
