//! Tile caching and the repetitive-tile suppression protocol.
//!
//! Two cooperating pieces from Section V:
//!
//! * [`ClientTileBuffer`] — the phone's RAM-bounded tile store; when the
//!   tile count hits the device threshold the oldest tiles are *released*
//!   and the release is ACKed so the server knows they must be resent if
//!   requested again.
//! * [`DeliveryLedger`] — the server's per-user record of delivered tiles
//!   (built from ACKs over TCP), used to skip retransmitting tiles the
//!   client already holds.
//!
//! The buffer and the ledger answer the same question from the two ends of
//! a connection — which tiles does this peer hold — and keep the answer in
//! one private type, `TileSet`: a map from a [`VideoId`]'s cell key to
//! a `u32` with one bit per `(tile, quality)` slot of that cell, under the
//! seeded [`CellHashBuilder`]. Whatever is asked about a cell — one id, a
//! whole FoV at one quality ([`ClientTileBuffer::holds_all`]), every tile
//! at every level ([`UndeliveredSums::retarget`]) — is one probe and some
//! bit tests. A cell whose last tile goes leaves the map, so the map's
//! size follows what is held now, not what was ever held. The map is never
//! iterated: release order comes from the buffer's FIFO.

use std::collections::{HashMap, VecDeque};

use cvr_core::quality::QualityLevel;

use crate::grid::CellId;
use crate::hash::CellHashBuilder;
use crate::id::VideoId;
use crate::tile::{tiles_in, TileId};

/// A set of tiles as one slot mask per grid cell.
#[derive(Debug, Clone, Default)]
struct TileSet {
    /// Cell key → the held `(tile, quality)` slots of that cell
    /// ([`VideoId::cell_key`], [`VideoId::slot_bit`]). No entry holds an
    /// empty mask.
    cells: HashMap<u64, u32, CellHashBuilder>,
    /// Set bits over all masks.
    tiles: usize,
}

impl TileSet {
    /// The held slots of the cell with key `cell_key`.
    fn mask(&self, cell_key: u64) -> u32 {
        self.cells.get(&cell_key).copied().unwrap_or(0)
    }

    fn contains(&self, id: &VideoId) -> bool {
        self.mask(id.cell_key()) & id.slot_bit() != 0
    }

    /// Adds `id`; whether it was absent.
    fn insert(&mut self, id: VideoId) -> bool {
        let mask = self.cells.entry(id.cell_key()).or_insert(0);
        let added = *mask & id.slot_bit() == 0;
        *mask |= id.slot_bit();
        self.tiles += usize::from(added);
        added
    }

    /// Drops `id`, and its cell's entry with the cell's last tile; whether
    /// it was present.
    fn remove(&mut self, id: &VideoId) -> bool {
        let Some(mask) = self.cells.get_mut(&id.cell_key()) else {
            return false;
        };
        if *mask & id.slot_bit() == 0 {
            return false;
        }
        *mask &= !id.slot_bit();
        if *mask == 0 {
            self.cells.remove(&id.cell_key());
        }
        self.tiles -= 1;
        true
    }
}

/// The client-side tile buffer with a release threshold.
#[derive(Debug, Clone)]
pub struct ClientTileBuffer {
    threshold: usize,
    /// Held tiles, oldest first: the order they are released in.
    order: VecDeque<VideoId>,
    held: TileSet,
}

impl ClientTileBuffer {
    /// Creates a buffer that releases old tiles once `threshold` tiles are
    /// held (the paper sizes this by the device's memory).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(threshold: usize) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        ClientTileBuffer {
            threshold,
            order: VecDeque::new(),
            held: TileSet::default(),
        }
    }

    /// Number of tiles held.
    pub fn len(&self) -> usize {
        self.held.tiles
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.held.tiles == 0
    }

    /// Whether a tile is held (decodable without retransmission).
    pub fn contains(&self, id: &VideoId) -> bool {
        self.held.contains(id)
    }

    /// Whether every tile of `cell` whose bit is set in `tile_mask` (a
    /// [`crate::tile::tile_mask`]) is held at `quality` — the display hit
    /// test, equal to [`ClientTileBuffer::contains`] on each such id.
    ///
    /// # Panics
    ///
    /// Panics where [`VideoId::new`] would: `cell` outside ±2¹⁹ or
    /// `quality` above 7.
    pub fn holds_all(&self, cell: CellId, tile_mask: u8, quality: QualityLevel) -> bool {
        let wanted =
            tiles_in(tile_mask).fold(0, |slots, tile| slots | VideoId::slot_bit_of(tile, quality));
        self.held.mask(VideoId::key_of(cell)) & wanted == wanted
    }

    /// Stores a received tile; returns the tiles *released* to stay under
    /// the threshold (oldest first). The caller ACKs these releases to the
    /// server.
    pub fn store(&mut self, id: VideoId) -> Vec<VideoId> {
        if self.held.insert(id) {
            self.order.push_back(id);
        }
        let mut released = Vec::new();
        while self.held.tiles > self.threshold {
            if let Some(old) = self.order.pop_front() {
                if self.held.remove(&old) {
                    released.push(old);
                }
            }
        }
        released
    }
}

/// The server's per-user ledger of tiles known to be held by the client.
#[derive(Debug, Clone, Default)]
pub struct DeliveryLedger {
    delivered: TileSet,
}

impl DeliveryLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        DeliveryLedger::default()
    }

    /// Whether the server believes the client holds this tile (skip
    /// retransmission).
    pub fn is_delivered(&self, id: &VideoId) -> bool {
        self.delivered.contains(id)
    }

    /// Records a delivery ACK. Returns `true` when the tile was *newly*
    /// recorded (i.e. the ledger actually changed) — callers maintaining
    /// derived state ([`UndeliveredSums`]) update it exactly when this
    /// returns `true`.
    pub fn acknowledge(&mut self, id: VideoId) -> bool {
        self.delivered.insert(id)
    }

    /// Records a release ACK: the client dropped these tiles, so they must
    /// be retransmitted if requested again.
    pub fn release<I: IntoIterator<Item = VideoId>>(&mut self, ids: I) {
        for id in ids {
            self.release_one(id);
        }
    }

    /// Records the release of one tile. Returns `true` when the tile was
    /// actually held (the ledger changed) — the mirror of
    /// [`DeliveryLedger::acknowledge`] for derived-state maintenance.
    pub fn release_one(&mut self, id: VideoId) -> bool {
        self.delivered.remove(&id)
    }

    /// Number of tiles believed held.
    pub fn len(&self) -> usize {
        self.delivered.tiles
    }

    /// Whether nothing is believed held.
    pub fn is_empty(&self) -> bool {
        self.delivered.tiles == 0
    }
}

/// Per-user, per-level undelivered-rate accumulators, maintained
/// incrementally on ACK/release/cell-change events so the per-slot problem
/// build reads `levels` floats instead of probing ~tiles × levels ledger
/// entries.
///
/// The accumulator targets one `(cell, tile set)` at a time — the user's
/// current FoV request. It keeps the target tiles as a tile mask and what
/// the ledger holds of them as the ledger's own slot bits: the cell's
/// `u32` mask restricted to the target tiles at ladder levels.
/// [`UndeliveredSums::retarget`] (called on cell or tile-set changes)
/// reads that mask once and rebuilds the per-level sums;
/// [`UndeliveredSums::acknowledge`] and [`UndeliveredSums::release`] are
/// *paired* calls that mutate the ledger and flip the one bit in the same
/// step, so the two can never drift apart.
///
/// Bit-identity: a level's sum is always recomputed from scratch over the
/// target tiles in ascending id order (O(4) per event, no hash probes),
/// reproducing the exact `((0 + r₀) + r₁) + …` addition sequence of the
/// brute-force build loop — incremental `+=`/`-=` would accumulate
/// different rounding. The rate copy is the cell's **level-major** table
/// from [`TileSizeModel::cell_rate_rows`](crate::sizing::TileSizeModel::cell_rate_rows).
#[derive(Debug, Clone)]
pub struct UndeliveredSums {
    levels: usize,
    cell: Option<CellId>,
    /// Target tiles: bit `t` set ⇔ tile `t` is targeted.
    tiles: u8,
    /// Slot bits of the target tiles at levels `1..=levels`.
    scope: u32,
    /// The ledger's slot mask of `cell`, restricted to `scope`.
    held: u32,
    /// The cell's rate rows, level-major: `levels × TileId::COUNT`.
    rows: Vec<f64>,
    /// Per-level undelivered-rate sums (length `levels`).
    sums: Vec<f64>,
}

impl UndeliveredSums {
    /// Creates an accumulator for a ladder with `levels` quality levels,
    /// targeting nothing yet.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero.
    pub fn new(levels: usize) -> Self {
        assert!(levels > 0, "quality ladder must have at least one level");
        UndeliveredSums {
            levels,
            cell: None,
            tiles: 0,
            scope: 0,
            held: 0,
            rows: Vec::with_capacity(usize::from(TileId::COUNT) * levels),
            sums: vec![0.0; levels],
        }
    }

    /// The currently targeted cell, if any.
    pub fn cell(&self) -> Option<CellId> {
        self.cell
    }

    /// The currently targeted tile set as a [`crate::tile::tile_mask`].
    pub fn tiles(&self) -> u8 {
        self.tiles
    }

    /// What the ledger holds of the target: the cell's slot mask
    /// ([`VideoId::slot_bit`]) restricted to the target tiles at levels
    /// `1..=levels`, kept in lockstep by the paired calls — group keys
    /// read it instead of probing the ledger.
    pub fn held(&self) -> u32 {
        self.held
    }

    /// The target tiles the ledger does not hold at `quality`, as a tile
    /// mask — what a frame at that quality must carry.
    ///
    /// # Panics
    ///
    /// Panics if `quality` exceeds 7, like [`VideoId::new`].
    pub fn missing(&self, quality: QualityLevel) -> u8 {
        tiles_in(self.tiles)
            .filter(|&tile| self.held & VideoId::slot_bit_of(tile, quality) == 0)
            .fold(0, |mask, tile| mask | 1 << tile.get())
    }

    /// Retargets the accumulator at a new `(cell, tiles)` request, reading
    /// rate rows from `cell_rows` (the cell's full `levels × TileId::COUNT`
    /// **level-major** table, computed per call by
    /// [`crate::plane::RatePlane::rows`]) and the held bits from `ledger`
    /// — the cell's slot mask, read once. `tiles` is a set; the sums fold
    /// it in ascending id order. Rebuilds the sums from scratch — called
    /// only on cell/tile-set changes, not per slot.
    ///
    /// # Panics
    ///
    /// Panics if `cell_rows` is not exactly `levels × TileId::COUNT` long.
    pub fn retarget(
        &mut self,
        cell: CellId,
        tiles: &[TileId],
        cell_rows: &[f64],
        ledger: &DeliveryLedger,
    ) {
        assert_eq!(
            cell_rows.len(),
            usize::from(TileId::COUNT) * self.levels,
            "cell_rows must cover every tile at every level"
        );
        self.cell = Some(cell);
        self.tiles = mask_of(tiles);
        self.scope = tiles_in(self.tiles)
            .flat_map(|tile| {
                (1..=self.levels as u8)
                    .map(move |q| VideoId::slot_bit_of(tile, QualityLevel::new(q)))
            })
            .fold(0, |scope, bit| scope | bit);
        self.held = ledger.delivered.mask(VideoId::key_of(cell)) & self.scope;
        self.rows.clear();
        self.rows.extend_from_slice(cell_rows);
        for l in 0..self.levels {
            self.recompute_level(l);
        }
    }

    /// Whether the accumulator already targets exactly `(cell, tiles)` —
    /// when `true`, a retarget would be a no-op and can be skipped.
    pub fn targets(&self, cell: CellId, tiles: &[TileId]) -> bool {
        self.cell == Some(cell) && self.tiles == mask_of(tiles)
    }

    /// Paired ACK: records the delivery in `ledger` and, when the ledger
    /// actually changed and the tile belongs to the current target, folds
    /// it into the sums.
    pub fn acknowledge(&mut self, ledger: &mut DeliveryLedger, id: VideoId) {
        if ledger.acknowledge(id) {
            self.apply(id);
        }
    }

    /// Paired release: removes the tiles from `ledger` and folds each
    /// actual removal into the sums.
    pub fn release<I: IntoIterator<Item = VideoId>>(
        &mut self,
        ledger: &mut DeliveryLedger,
        ids: I,
    ) {
        for id in ids {
            if ledger.release_one(id) {
                self.apply(id);
            }
        }
    }

    /// The per-level undelivered-rate sums for the current target: entry
    /// `l` is the total rate of the target tiles not yet delivered at
    /// level `l + 1`, summed in ascending tile order.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Cross-checks the incremental state against a brute-force recompute
    /// from `ledger` (the debug assertion the build path runs under
    /// `debug_assertions`): every held bit, then every per-level sum.
    /// Bit-exact comparison. The bits are checked on their own because a
    /// zero-rate tile would hide a drifted bit from the sums.
    ///
    /// # Panics
    ///
    /// Panics when the incremental state has drifted from the ledger.
    pub fn assert_matches_ledger(&self, ledger: &DeliveryLedger) {
        let Some(cell) = self.cell else {
            return;
        };
        let count = usize::from(TileId::COUNT);
        for l in 0..self.levels {
            let q = QualityLevel::new((l + 1) as u8);
            let mut brute = 0.0f64;
            for tile in tiles_in(self.tiles) {
                let held = ledger.is_delivered(&VideoId::new(cell, tile, q));
                let bit = self.held & VideoId::slot_bit_of(tile, q) != 0;
                assert!(
                    held == bit,
                    "delivered mask drifted at {tile} level {}: mask {bit} vs ledger {held}",
                    l + 1,
                );
                if !held {
                    brute += self.rows[l * count + usize::from(tile.get())];
                }
            }
            assert!(
                brute.to_bits() == self.sums[l].to_bits(),
                "undelivered sum drifted at level {}: incremental {} vs brute-force {}",
                l + 1,
                self.sums[l],
                brute
            );
        }
    }

    /// Folds a change the ledger just made to `id` into the held bits and
    /// that level's sum, when `id` is a slot of the current target.
    fn apply(&mut self, id: VideoId) {
        if self.scope & id.slot_bit() == 0 || self.cell != Some(id.cell()) {
            return;
        }
        self.held ^= id.slot_bit();
        self.recompute_level(id.quality().index());
    }

    /// Recomputes one level's sum from scratch in ascending tile order —
    /// the same fold the brute-force build performs, so the result is
    /// bit-identical.
    fn recompute_level(&mut self, l: usize) {
        let run = &self.rows[l * usize::from(TileId::COUNT)..];
        let missing = self.missing(QualityLevel::new((l + 1) as u8));
        self.sums[l] = tiles_in(missing).fold(0.0, |sum, tile| sum + run[usize::from(tile.get())]);
    }
}

/// The tile mask of a tile set.
fn mask_of(tiles: &[TileId]) -> u8 {
    tiles.iter().fold(0, |mask, tile| mask | 1 << tile.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CellId;
    use crate::tile::TileId;
    use cvr_core::quality::QualityLevel;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn id(x: i32, t: u8, q: u8) -> VideoId {
        VideoId::new(CellId { x, z: 0 }, TileId::new(t), QualityLevel::new(q))
    }

    /// Delivery state as it was before the per-cell masks — one
    /// `HashSet<VideoId>` per peer, one probe per id — kept as the
    /// reference the mask form must be indistinguishable from.
    #[derive(Default)]
    struct OracleLedger {
        delivered: HashSet<VideoId>,
    }

    impl OracleLedger {
        fn is_delivered(&self, id: &VideoId) -> bool {
            self.delivered.contains(id)
        }

        fn acknowledge(&mut self, id: VideoId) -> bool {
            self.delivered.insert(id)
        }

        fn release_one(&mut self, id: VideoId) -> bool {
            self.delivered.remove(&id)
        }
    }

    struct OracleBuffer {
        threshold: usize,
        order: VecDeque<VideoId>,
        held: HashSet<VideoId>,
    }

    impl OracleBuffer {
        fn new(threshold: usize) -> Self {
            OracleBuffer {
                threshold,
                order: VecDeque::new(),
                held: HashSet::new(),
            }
        }

        fn store(&mut self, id: VideoId) -> Vec<VideoId> {
            if self.held.insert(id) {
                self.order.push_back(id);
            }
            let mut released = Vec::new();
            while self.held.len() > self.threshold {
                if let Some(old) = self.order.pop_front() {
                    if self.held.remove(&old) {
                        released.push(old);
                    }
                }
            }
            released
        }
    }

    /// Distinct cells among `ids`: the size a map without dead entries has.
    fn cells_of(ids: &HashSet<VideoId>) -> usize {
        ids.iter().map(|id| id.cell()).collect::<HashSet<_>>().len()
    }

    /// A few neighbouring cells on both sides of the origin, so sequences
    /// revisit and empty them, and the corners of the packable range.
    const ORACLE_CELLS: [(i32, i32); 8] = [
        (0, 0),
        (1, 0),
        (0, 1),
        (-1, -1),
        (-3, 2),
        (-524_288, 524_287),
        (524_287, -524_288),
        (-524_288, -524_288),
    ];

    proptest! {
        #[test]
        fn masks_are_indistinguishable_from_the_per_id_sets(
            threshold in 1usize..24,
            steps in prop::collection::vec(
                // (operation, cell, tile, quality, FoV tile mask)
                (0u8..4, 0usize..8, 0u8..4, 1u8..=7, 0u8..16),
                1..250,
            ),
        ) {
            // Seven levels, so quality 7 — the last value three bits hold —
            // is inside the ladder `retarget` reads.
            let levels = 7;
            let count = usize::from(TileId::COUNT);
            let rows: Vec<f64> = (0..levels * count).map(|i| 0.37 * (i + 1) as f64).collect();
            let mut ledger = DeliveryLedger::new();
            let mut ledger_oracle = OracleLedger::default();
            let mut buffer = ClientTileBuffer::new(threshold);
            let mut buffer_oracle = OracleBuffer::new(threshold);
            let mut sums = UndeliveredSums::new(levels);
            let mut touched: Vec<VideoId> = Vec::new();
            for (op, c, t, q, fov) in steps {
                let (x, z) = ORACLE_CELLS[c];
                let cell = CellId { x, z };
                let quality = QualityLevel::new(q);
                let id = VideoId::new(cell, TileId::new(t), quality);
                touched.push(id);
                match op {
                    0 | 1 => prop_assert_eq!(
                        ledger.acknowledge(id),
                        ledger_oracle.acknowledge(id),
                        "acknowledge {}", id
                    ),
                    2 => prop_assert_eq!(
                        ledger.release_one(id),
                        ledger_oracle.release_one(id),
                        "release {}", id
                    ),
                    _ => {}
                }
                // The buffer sees every id, so it churns at its threshold.
                prop_assert_eq!(buffer.store(id), buffer_oracle.store(id), "store {}", id);

                prop_assert_eq!(ledger.len(), ledger_oracle.delivered.len());
                prop_assert_eq!(ledger.is_empty(), ledger_oracle.delivered.is_empty());
                prop_assert_eq!(buffer.len(), buffer_oracle.held.len());
                prop_assert_eq!(buffer.is_empty(), buffer_oracle.held.is_empty());
                // An emptied cell leaves the map.
                prop_assert_eq!(ledger.delivered.cells.len(), cells_of(&ledger_oracle.delivered));
                prop_assert_eq!(buffer.held.cells.len(), cells_of(&buffer_oracle.held));

                // One question about a cell equals the per-id probes: the
                // display hit test...
                let wanted: Vec<VideoId> =
                    tiles_in(fov).map(|tile| VideoId::new(cell, tile, quality)).collect();
                prop_assert_eq!(
                    buffer.holds_all(cell, fov, quality),
                    wanted.iter().all(|id| buffer_oracle.held.contains(id)),
                    "holds_all {:?} {:#06b} {}", cell, fov, quality
                );
                // ...and the retarget, mask and sums.
                let tiles: Vec<TileId> = tiles_in(fov).collect();
                sums.retarget(cell, &tiles, &rows, &ledger);
                sums.assert_matches_ledger(&ledger);
                for l in 0..levels {
                    let level = QualityLevel::new((l + 1) as u8);
                    let mut brute = 0.0f64;
                    for &tile in &tiles {
                        let held = ledger_oracle.is_delivered(&VideoId::new(cell, tile, level));
                        let bit = sums.held() & VideoId::slot_bit_of(tile, level) != 0;
                        prop_assert_eq!(bit, held, "{} level {}", tile, l + 1);
                        if !held {
                            brute += rows[l * count + usize::from(tile.get())];
                        }
                    }
                    prop_assert_eq!(sums.sums()[l].to_bits(), brute.to_bits());
                }
            }
            // Every id that ever went in or came out, on the sets and on
            // copies of them (a clone hashes as its original does).
            let (ledger_copy, buffer_copy) = (ledger.clone(), buffer.clone());
            for id in &touched {
                let delivered = ledger_oracle.is_delivered(id);
                prop_assert_eq!(ledger.is_delivered(id), delivered, "{}", id);
                prop_assert_eq!(ledger_copy.is_delivered(id), delivered, "{}", id);
                let held = buffer_oracle.held.contains(id);
                prop_assert_eq!(buffer.contains(id), held, "{}", id);
                prop_assert_eq!(buffer_copy.contains(id), held, "{}", id);
            }
        }
    }

    #[test]
    fn an_emptied_cell_leaves_the_map() {
        let mut ledger = DeliveryLedger::new();
        for x in 0..1000 {
            for t in 0..4 {
                assert!(ledger.acknowledge(id(x, t, 3)));
            }
            assert_eq!(ledger.delivered.cells.len(), 1);
            ledger.release((0..4).map(|t| id(x, t, 3)));
            assert!(ledger.is_empty());
            assert!(ledger.delivered.cells.is_empty());
        }
        let mut buffer = ClientTileBuffer::new(6);
        for x in 0..1000 {
            for t in 0..4 {
                buffer.store(id(x, t, 1 + (x % 7) as u8));
            }
            assert!(
                buffer.held.cells.len() <= 3,
                "six tiles span at most three cells"
            );
        }
    }

    #[test]
    fn holds_all_is_vacuous_for_an_empty_fov_and_exact_per_quality() {
        let mut buffer = ClientTileBuffer::new(16);
        let cell = CellId { x: 4, z: 0 };
        let q = QualityLevel::new;
        assert!(buffer.holds_all(cell, 0, q(3)), "no tile wanted");
        assert!(!buffer.holds_all(cell, 0b0101, q(3)));
        buffer.store(id(4, 0, 3));
        assert!(!buffer.holds_all(cell, 0b0101, q(3)), "tile 2 missing");
        buffer.store(id(4, 2, 4));
        assert!(
            !buffer.holds_all(cell, 0b0101, q(3)),
            "tile 2 held at another quality"
        );
        buffer.store(id(4, 2, 3));
        assert!(buffer.holds_all(cell, 0b0101, q(3)));
        assert!(buffer.holds_all(cell, 0b0001, q(3)));
        assert!(!buffer.holds_all(cell, 0b1101, q(3)));
        assert!(
            !buffer.holds_all(CellId { x: 5, z: 0 }, 0b0001, q(3)),
            "another cell"
        );
    }

    #[test]
    fn client_buffer_releases_oldest() {
        let mut b = ClientTileBuffer::new(3);
        assert!(b.is_empty());
        assert!(b.store(id(0, 0, 1)).is_empty());
        assert!(b.store(id(1, 0, 1)).is_empty());
        assert!(b.store(id(2, 0, 1)).is_empty());
        let released = b.store(id(3, 0, 1));
        assert_eq!(released, vec![id(0, 0, 1)]);
        assert_eq!(b.len(), 3);
        assert!(!b.contains(&id(0, 0, 1)));
        assert!(b.contains(&id(3, 0, 1)));
    }

    #[test]
    fn client_buffer_duplicate_store_is_idempotent() {
        let mut b = ClientTileBuffer::new(2);
        b.store(id(0, 0, 1));
        b.store(id(0, 0, 1));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn ledger_suppresses_retransmission_until_release() {
        let mut ledger = DeliveryLedger::new();
        assert!(ledger.is_empty());
        ledger.acknowledge(id(0, 0, 3));
        ledger.acknowledge(id(1, 1, 3));
        assert_eq!(ledger.len(), 2);

        assert!(ledger.is_delivered(&id(0, 0, 3)));
        assert!(!ledger.is_delivered(&id(2, 2, 3)));

        // Client releases the tile: it must be resent next time.
        ledger.release([id(0, 0, 3)]);
        assert!(!ledger.is_delivered(&id(0, 0, 3)));
        assert!(ledger.is_delivered(&id(1, 1, 3)));
    }

    #[test]
    fn ledger_tracks_quality_separately() {
        let mut ledger = DeliveryLedger::new();
        ledger.acknowledge(id(0, 0, 2));
        // Same tile at a different quality is a different video.
        assert!(!ledger.is_delivered(&id(0, 0, 5)));
    }

    #[test]
    fn buffer_release_flows_into_ledger() {
        // End-to-end: store until release, feed releases into the ledger.
        let mut buffer = ClientTileBuffer::new(2);
        let mut ledger = DeliveryLedger::new();
        for x in 0..4 {
            let tile = id(x, 0, 1);
            ledger.acknowledge(tile);
            let released = buffer.store(tile);
            ledger.release(released);
        }
        // Only the 2 still-buffered tiles remain delivered.
        assert_eq!(ledger.len(), 2);
        assert!(ledger.is_delivered(&id(2, 0, 1)));
        assert!(ledger.is_delivered(&id(3, 0, 1)));
        assert!(!ledger.is_delivered(&id(0, 0, 1)));
    }

    /// The cell's level-major `levels × TileId::COUNT` table (transposed
    /// `tile_rate_row` rows).
    fn paper_rows(cell: CellId) -> (crate::sizing::TileSizeModel, Vec<f64>) {
        let sizing = crate::sizing::TileSizeModel::paper_default();
        let rows = crate::sizing::transposed_tile_rows(&sizing, cell);
        (sizing, rows)
    }

    #[test]
    fn acknowledge_and_release_report_ledger_changes() {
        let mut ledger = DeliveryLedger::new();
        assert!(ledger.acknowledge(id(0, 0, 1)));
        assert!(!ledger.acknowledge(id(0, 0, 1)), "duplicate ACK");
        assert!(ledger.release_one(id(0, 0, 1)));
        assert!(!ledger.release_one(id(0, 0, 1)), "double release");
    }

    #[test]
    fn undelivered_sums_track_ack_release_retarget() {
        let cell = CellId { x: 2, z: -3 };
        let (sizing, rows) = paper_rows(cell);
        let levels = sizing.levels();
        let tiles = [TileId::new(1), TileId::new(3)];
        let mut ledger = DeliveryLedger::new();
        let mut sums = UndeliveredSums::new(levels);
        sums.retarget(cell, &tiles, &rows, &ledger);
        assert!(sums.targets(cell, &tiles));
        sums.assert_matches_ledger(&ledger);

        // Fresh target: every level sums both tiles.
        for l in 0..levels {
            let q = QualityLevel::new((l + 1) as u8);
            let mut expect = 0.0;
            for &t in &tiles {
                expect += sizing.tile_rate_mbps(cell, t, q);
            }
            assert_eq!(sums.sums()[l].to_bits(), expect.to_bits());
        }

        // ACK one (tile, level): only that level's sum drops.
        sums.acknowledge(&mut ledger, id2(cell, 1, 3));
        sums.assert_matches_ledger(&ledger);
        let q3 = QualityLevel::new(3);
        assert_eq!(
            sums.sums()[q3.index()].to_bits(),
            sizing.tile_rate_mbps(cell, TileId::new(3), q3).to_bits()
        );
        // Duplicate ACK changes nothing.
        let snapshot: Vec<u64> = sums.sums().iter().map(|s| s.to_bits()).collect();
        sums.acknowledge(&mut ledger, id2(cell, 1, 3));
        assert_eq!(
            snapshot,
            sums.sums().iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );

        // Release restores the full sum, bit-for-bit.
        sums.release(&mut ledger, [id2(cell, 1, 3)]);
        sums.assert_matches_ledger(&ledger);
        let mut expect = 0.0;
        for &t in &tiles {
            expect += sizing.tile_rate_mbps(cell, t, q3);
        }
        assert_eq!(sums.sums()[q3.index()].to_bits(), expect.to_bits());

        // ACKs for other cells / untargeted tiles still land in the ledger
        // but leave the sums alone.
        sums.acknowledge(&mut ledger, id(99, 0, 1));
        sums.acknowledge(&mut ledger, id2(cell, 0, 2));
        assert!(ledger.is_delivered(&id(99, 0, 1)));
        sums.assert_matches_ledger(&ledger);

        // Retarget to a tile set including tile 0: the earlier tile-0 ACK
        // must now be reflected.
        let wider = [TileId::new(0), TileId::new(1), TileId::new(3)];
        sums.retarget(cell, &wider, &rows, &ledger);
        sums.assert_matches_ledger(&ledger);
        let q2 = QualityLevel::new(2);
        let mut expect = 0.0;
        for &t in &wider {
            if !ledger.is_delivered(&VideoId::new(cell, t, q2)) {
                expect += sizing.tile_rate_mbps(cell, t, q2);
            }
        }
        assert_eq!(sums.sums()[q2.index()].to_bits(), expect.to_bits());
    }

    fn id2(cell: CellId, t: u8, q: u8) -> VideoId {
        VideoId::new(cell, TileId::new(t), QualityLevel::new(q))
    }

    #[test]
    #[should_panic(expected = "drifted")]
    fn undelivered_sums_cross_check_catches_unpaired_ledger_edits() {
        let cell = CellId { x: 0, z: 0 };
        let (_, rows) = paper_rows(cell);
        let mut ledger = DeliveryLedger::new();
        let mut sums = UndeliveredSums::new(6);
        sums.retarget(cell, &TileId::all(), &rows, &ledger);
        // Mutating the ledger *without* the paired call drifts the sums.
        ledger.acknowledge(id2(cell, 0, 1));
        sums.assert_matches_ledger(&ledger);
    }

    #[test]
    #[should_panic(expected = "delivered mask drifted")]
    fn undelivered_sums_cross_check_catches_a_drifted_bit_on_a_zero_rate_tile() {
        // All-zero rates: every sum is 0.0 whatever the mask says, so only
        // the bit-by-bit comparison can see the unpaired ledger edit.
        let cell = CellId { x: 0, z: 0 };
        let rows = vec![0.0f64; usize::from(TileId::COUNT) * 6];
        let mut ledger = DeliveryLedger::new();
        let mut sums = UndeliveredSums::new(6);
        sums.retarget(cell, &TileId::all(), &rows, &ledger);
        sums.assert_matches_ledger(&ledger);
        ledger.acknowledge(id2(cell, 2, 4));
        sums.assert_matches_ledger(&ledger);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_buffer_panics() {
        let _ = ClientTileBuffer::new(0);
    }
}
