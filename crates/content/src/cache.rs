//! Tile caching and the repetitive-tile suppression protocol.
//!
//! Three cooperating pieces from Section V:
//!
//! * [`ServerTileCache`] — the server's in-memory LRU over encoded tiles;
//!   it prefetches the cells reachable from the user's position (future
//!   location is bounded by walking speed), so transmission starts with no
//!   rendering/encoding delay.
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

/// Outcome of a server cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The tile was already resident.
    Hit,
    /// The tile had to be loaded from disk (swap cost in a real server).
    Miss,
}

/// A counting LRU cache over encoded tiles.
#[derive(Debug, Clone)]
pub struct ServerTileCache {
    capacity: usize,
    /// Lazily maintained recency queue: entries carry the clock at which
    /// they were pushed; stale entries (superseded by a later touch) are
    /// skipped at eviction time.
    order: VecDeque<(VideoId, u64)>,
    resident: HashMap<VideoId, u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl ServerTileCache {
    /// Creates a cache holding at most `capacity` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ServerTileCache {
            capacity,
            order: VecDeque::new(),
            resident: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of resident tiles.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Fetches a tile for transmission, loading (and possibly evicting) on
    /// a miss. Returns whether it was a hit.
    pub fn fetch(&mut self, id: VideoId) -> CacheOutcome {
        if self.resident.contains_key(&id) {
            self.touch(id);
            self.hits += 1;
            CacheOutcome::Hit
        } else {
            self.insert(id);
            self.misses += 1;
            CacheOutcome::Miss
        }
    }

    /// Inserts a tile without counting a hit/miss (prefetch path).
    pub fn insert(&mut self, id: VideoId) {
        if self.resident.contains_key(&id) {
            self.touch(id);
            return;
        }
        self.touch(id);
        while self.resident.len() > self.capacity {
            self.evict_lru();
        }
    }

    fn touch(&mut self, id: VideoId) {
        self.clock += 1;
        self.resident.insert(id, self.clock);
        self.order.push_back((id, self.clock));
        // The lazy queue grows by one entry per touch and is only drained
        // by evictions — a cache whose working set fits would otherwise
        // grow it forever. Compact once it exceeds twice the capacity:
        // amortised O(1) per touch, and the queue stays O(capacity).
        if self.order.len() > 2 * self.capacity {
            self.compact();
        }
    }

    /// Drops stale recency entries (superseded by a later touch or
    /// evicted), keeping only each resident tile's freshest entry. Queue
    /// order is preserved, so LRU order is unchanged.
    fn compact(&mut self) {
        let resident = &self.resident;
        self.order
            .retain(|(id, queued_at)| resident.get(id) == Some(queued_at));
    }

    fn evict_lru(&mut self) {
        while let Some((candidate, queued_at)) = self.order.pop_front() {
            match self.resident.get(&candidate) {
                // Fresh entry: this really is the least recently used.
                Some(&last_used) if last_used == queued_at => {
                    self.resident.remove(&candidate);
                    return;
                }
                // Stale queue entry (touched again later, or already gone).
                _ => continue,
            }
        }
    }

    /// Whether a tile is resident.
    pub fn contains(&self, id: &VideoId) -> bool {
        self.resident.contains_key(id)
    }

    /// Length of the internal lazy recency queue — exposed so tests (and
    /// capacity planning) can assert it stays bounded at
    /// O(`capacity`) under hit-heavy workloads instead of growing by one
    /// entry per fetch forever.
    pub fn recency_queue_len(&self) -> usize {
        self.order.len()
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

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

    /// Splits a wanted tile list into (must-send, already-held).
    pub fn partition_wanted(&self, wanted: &[VideoId]) -> (Vec<VideoId>, Vec<VideoId>) {
        let mut send = Vec::new();
        let mut held = Vec::new();
        self.partition_wanted_into(wanted, &mut send, &mut held);
        (send, held)
    }

    /// Buffer-reusing variant of [`DeliveryLedger::partition_wanted`]:
    /// clears both output buffers and fills them with the same split, in
    /// the same order, without allocating once the buffers have grown.
    pub fn partition_wanted_into(
        &self,
        wanted: &[VideoId],
        send: &mut Vec<VideoId>,
        held: &mut Vec<VideoId>,
    ) {
        send.clear();
        held.clear();
        for &id in wanted {
            if self.is_delivered(&id) {
                held.push(id);
            } else {
                send.push(id);
            }
        }
    }
}

/// Per-user, per-level undelivered-rate accumulators, maintained
/// incrementally on ACK/release/cell-change events so the per-slot problem
/// build reads `levels` floats instead of probing ~tiles × levels ledger
/// entries.
///
/// The accumulator targets one `(cell, tile set)` at a time — the user's
/// current FoV request. [`UndeliveredSums::retarget`] (called on cell or
/// tile-set changes) rebuilds the delivered mask and the per-level sums
/// from the ledger (one probe: the cell's slot mask);
/// [`UndeliveredSums::acknowledge`] and
/// [`UndeliveredSums::release`] are *paired* calls that mutate the ledger
/// and fold the change into the sums in one step, so the two can never
/// drift apart.
///
/// Bit-identity: a level's sum is always recomputed from scratch in tile
/// order (O(tiles) = O(4) per event, no hash probes), reproducing the
/// exact `((0 + r₀) + r₁) + …` addition sequence of the brute-force build
/// loop — incremental `+=`/`-=` would accumulate different rounding. The
/// internal tables are **level-major** (`l * tiles.len() + t`), matching
/// [`crate::plane::RatePlane`], so each recompute folds one contiguous
/// run of the rate table instead of striding by `levels`.
#[derive(Debug, Clone)]
pub struct UndeliveredSums {
    levels: usize,
    cell: Option<CellId>,
    tiles: Vec<TileId>,
    /// Rate rows of the target tiles, level-major: `levels × tiles.len()`.
    rows: Vec<f64>,
    /// Delivered mask, level-major: `levels × tiles.len()`.
    delivered: Vec<bool>,
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
            tiles: Vec::with_capacity(usize::from(TileId::COUNT)),
            rows: Vec::with_capacity(usize::from(TileId::COUNT) * levels),
            delivered: Vec::with_capacity(usize::from(TileId::COUNT) * levels),
            sums: vec![0.0; levels],
        }
    }

    /// Number of quality levels per sum.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The currently targeted cell, if any.
    pub fn cell(&self) -> Option<CellId> {
        self.cell
    }

    /// The currently targeted tile set (FoV request order).
    pub fn tiles(&self) -> &[TileId] {
        &self.tiles
    }

    /// Retargets the accumulator at a new `(cell, tiles)` request, reading
    /// rate rows from `cell_rows` (the cell's full `levels × TileId::COUNT`
    /// **level-major** table, e.g. [`crate::plane::RatePlane::rows`]) and
    /// the delivered mask from `ledger` — the cell's slot mask, read once.
    /// Rebuilds masks and sums from scratch — called only on cell/tile-set
    /// changes, not per slot. Both
    /// the source table and the internal copy are level-major, so the copy
    /// gathers one contiguous level run at a time.
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
        let count = usize::from(TileId::COUNT);
        self.cell = Some(cell);
        self.tiles.clear();
        self.tiles.extend_from_slice(tiles);
        self.rows.clear();
        self.delivered.clear();
        let held = ledger.delivered.mask(VideoId::key_of(cell));
        for l in 0..self.levels {
            let level_run = &cell_rows[l * count..(l + 1) * count];
            let q = QualityLevel::new((l + 1) as u8);
            for &tile in tiles {
                self.rows.push(level_run[usize::from(tile.get())]);
                self.delivered
                    .push(held & VideoId::slot_bit_of(tile, q) != 0);
            }
        }
        for l in 0..self.levels {
            self.recompute_level(l);
        }
    }

    /// Whether the accumulator already targets exactly `(cell, tiles)` —
    /// when `true`, a retarget would be a no-op and can be skipped.
    pub fn targets(&self, cell: CellId, tiles: &[TileId]) -> bool {
        self.cell == Some(cell) && self.tiles == tiles
    }

    /// Paired ACK: records the delivery in `ledger` and, when the ledger
    /// actually changed and the tile belongs to the current target, folds
    /// it into the sums.
    pub fn acknowledge(&mut self, ledger: &mut DeliveryLedger, id: VideoId) {
        if ledger.acknowledge(id) {
            self.apply(id, true);
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
                self.apply(id, false);
            }
        }
    }

    /// The per-level undelivered-rate sums for the current target: entry
    /// `l` is the total rate of the target tiles not yet delivered at
    /// level `l + 1`, summed in tile order.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// The delivered bits of the target tiles at level index `l`, parallel
    /// to [`UndeliveredSums::tiles`]: entry `t` is what the ledger holds
    /// for `(cell, tiles[t], level l + 1)`, kept in lockstep by the paired
    /// calls — group fingerprints and manifests read these instead of
    /// probing the ledger.
    ///
    /// # Panics
    ///
    /// Panics if `l >= levels`.
    pub fn delivered(&self, l: usize) -> &[bool] {
        let n = self.tiles.len();
        &self.delivered[l * n..(l + 1) * n]
    }

    /// Cross-checks the incremental state against a brute-force recompute
    /// from `ledger` (the debug assertion the build path runs under
    /// `debug_assertions`): every delivered-mask bit, then every per-level
    /// sum. Bit-exact comparison. The mask is checked on its own because a
    /// zero-rate tile would hide a drifted bit from the sums.
    ///
    /// # Panics
    ///
    /// Panics when the incremental state has drifted from the ledger.
    pub fn assert_matches_ledger(&self, ledger: &DeliveryLedger) {
        let Some(cell) = self.cell else {
            return;
        };
        for l in 0..self.levels {
            let q = QualityLevel::new((l + 1) as u8);
            let mut brute = 0.0f64;
            for (t, &tile) in self.tiles.iter().enumerate() {
                let held = ledger.is_delivered(&VideoId::new(cell, tile, q));
                assert!(
                    held == self.delivered(l)[t],
                    "delivered mask drifted at {tile} level {}: mask {} vs ledger {held}",
                    l + 1,
                    self.delivered(l)[t],
                );
                if !held {
                    brute += self.rows[l * self.tiles.len() + t];
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

    fn apply(&mut self, id: VideoId, delivered: bool) {
        if self.cell != Some(id.cell()) {
            return;
        }
        let Some(t) = self.tiles.iter().position(|&tile| tile == id.tile()) else {
            return;
        };
        let l = id.quality().index();
        if l >= self.levels {
            return;
        }
        let slot = &mut self.delivered[l * self.tiles.len() + t];
        if *slot == delivered {
            return;
        }
        *slot = delivered;
        self.recompute_level(l);
    }

    /// Recomputes one level's sum from scratch in tile order — the same
    /// fold the brute-force build performs, so the result is bit-identical.
    /// With the level-major layout the fold walks one contiguous run of
    /// the rate table and mask (no `levels`-sized stride).
    fn recompute_level(&mut self, l: usize) {
        let n = self.tiles.len();
        let rates = &self.rows[l * n..(l + 1) * n];
        let mask = &self.delivered[l * n..(l + 1) * n];
        let mut sum = 0.0f64;
        for (rate, &done) in rates.iter().zip(mask) {
            if !done {
                sum += *rate;
            }
        }
        self.sums[l] = sum;
    }
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
                    for (at, &tile) in tiles.iter().enumerate() {
                        let held = ledger_oracle.is_delivered(&VideoId::new(cell, tile, level));
                        prop_assert_eq!(sums.delivered(l)[at], held, "{} level {}", tile, l + 1);
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
    fn cache_hits_after_insert() {
        let mut c = ServerTileCache::new(4);
        assert_eq!(c.fetch(id(0, 0, 1)), CacheOutcome::Miss);
        assert_eq!(c.fetch(id(0, 0, 1)), CacheOutcome::Hit);
        assert_eq!(c.stats(), (1, 1));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut c = ServerTileCache::new(2);
        c.fetch(id(0, 0, 1));
        c.fetch(id(1, 0, 1));
        c.fetch(id(0, 0, 1)); // refresh id 0
        c.fetch(id(2, 0, 1)); // evicts id 1 (LRU)
        assert!(c.contains(&id(0, 0, 1)));
        assert!(!c.contains(&id(1, 0, 1)));
        assert!(c.contains(&id(2, 0, 1)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cache_prefetch_does_not_count_stats() {
        let mut c = ServerTileCache::new(8);
        c.insert(id(0, 0, 1));
        assert_eq!(c.stats(), (0, 0));
        assert_eq!(c.fetch(id(0, 0, 1)), CacheOutcome::Hit);
    }

    #[test]
    fn recency_queue_stays_bounded_under_hit_heavy_workload() {
        // Regression test for the unbounded-queue leak: every hit pushes a
        // recency entry, but stale entries were only drained inside
        // `evict_lru`, which never runs while the working set fits — so an
        // under-capacity cache grew its queue by one entry per fetch
        // forever. Hammer hits on a working set far below capacity and
        // assert the queue stays O(capacity), not O(fetches).
        let capacity = 16;
        let mut c = ServerTileCache::new(capacity);
        for round in 0..10_000u32 {
            let x = (round % 4) as i32;
            c.fetch(id(x, 0, 1));
            assert!(
                c.recency_queue_len() <= 2 * capacity + 1,
                "queue grew to {} entries after {} fetches",
                c.recency_queue_len(),
                round + 1
            );
        }
        assert_eq!(c.len(), 4);
        // LRU semantics survive compaction: the least recently touched of
        // the four is still the one evicted when the cache later fills.
        let mut c = ServerTileCache::new(3);
        for _ in 0..1000 {
            c.fetch(id(0, 0, 1));
            c.fetch(id(1, 0, 1));
            c.fetch(id(2, 0, 1));
        }
        c.fetch(id(1, 0, 1));
        c.fetch(id(2, 0, 1));
        c.fetch(id(3, 0, 1)); // evicts id 0, the LRU
        assert!(!c.contains(&id(0, 0, 1)));
        assert!(c.contains(&id(1, 0, 1)));
        assert!(c.contains(&id(2, 0, 1)));
        assert!(c.contains(&id(3, 0, 1)));
    }

    #[test]
    fn cache_respects_capacity_under_churn() {
        let mut c = ServerTileCache::new(10);
        for x in 0..1000 {
            c.fetch(id(x, (x % 4) as u8, 1 + (x % 6) as u8));
            assert!(c.len() <= 10);
        }
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

        let wanted = vec![id(0, 0, 3), id(2, 2, 3)];
        let (send, held) = ledger.partition_wanted(&wanted);
        assert_eq!(send, vec![id(2, 2, 3)]);
        assert_eq!(held, vec![id(0, 0, 3)]);

        // Client releases the tile: it must be resent next time.
        ledger.release([id(0, 0, 3)]);
        let (send, held) = ledger.partition_wanted(&wanted);
        assert_eq!(send.len(), 2);
        assert!(held.is_empty());
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

    /// Builds the cell's level-major `levels × TileId::COUNT` table the
    /// way `RatePlane` materialises it (transposed `tile_rate_row` rows).
    fn paper_rows(cell: CellId) -> (crate::sizing::TileSizeModel, Vec<f64>) {
        let sizing = crate::sizing::TileSizeModel::paper_default();
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
        (sizing, rows)
    }

    #[test]
    fn partition_wanted_into_matches_allocating_variant() {
        let mut ledger = DeliveryLedger::new();
        ledger.acknowledge(id(0, 0, 3));
        ledger.acknowledge(id(1, 1, 2));
        let wanted = vec![id(0, 0, 3), id(2, 2, 3), id(1, 1, 2), id(1, 1, 3)];
        let (send, held) = ledger.partition_wanted(&wanted);
        let (mut send2, mut held2) = (vec![id(9, 0, 1)], vec![id(9, 0, 1)]);
        ledger.partition_wanted_into(&wanted, &mut send2, &mut held2);
        assert_eq!(send, send2);
        assert_eq!(held, held2);
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
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_cache_panics() {
        let _ = ServerTileCache::new(0);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_buffer_panics() {
        let _ = ClientTileBuffer::new(0);
    }
}
