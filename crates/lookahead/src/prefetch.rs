//! Prefetch credit: spend current-slot budget slack on tiles for FoVs
//! predicted `1..H−1` slots past the display slot, at the quality the
//! user is currently being served.
//!
//! The paper's 5 cm grid means users cross cells constantly, and every
//! crossing resets the undelivered sums to the full per-level rate table —
//! the most expensive slot a user ever sees. Prefetch smooths that cliff:
//! when constraint (7) has slack after allocation, the planner charges
//! predicted-future-cell tiles at the user's current assigned quality to
//! the [`DeliveryLedger`](cvr_content::DeliveryLedger), so the retarget on
//! arrival already sees them delivered and stages only the increment.
//! Charging through the ledger (not a side cache) is what makes the
//! no-double-charge property structural: the same suppression that stops
//! retransmission of ACKed tiles stops re-staging of prefetched ones.
//!
//! The tracker below owns the bookkeeping half: which cells hold
//! outstanding prefetched tiles, and when a predicted FoV never
//! materialises, which ledger entries must be released so a wrong
//! prediction cannot permanently mark content as delivered.

use cvr_content::grid::CellId;
use cvr_content::id::VideoId;

/// Cap on the per-slot credit as a fraction of the server budget, so
/// prefetch can never starve the live allocation even on idle slots.
pub const CREDIT_FRACTION: f64 = 0.10;

/// Cap on tiles prefetched per user per slot (bounds ledger churn when
/// predictions oscillate between cells).
pub const MAX_TILES_PER_SLOT: usize = 8;

/// The bounded prefetch credit available this slot: the budget slack left
/// by the allocation, capped at [`CREDIT_FRACTION`] of the total budget.
pub fn slot_credit(total_budget_mbps: f64, assigned_mbps: f64) -> f64 {
    (total_budget_mbps - assigned_mbps)
        .max(0.0)
        .min(total_budget_mbps * CREDIT_FRACTION)
}

/// Per-user tracker of outstanding prefetched tiles, grouped by cell in
/// deterministic insertion order.
#[derive(Debug, Clone, Default)]
pub struct Prefetcher {
    outstanding: Vec<(CellId, Vec<VideoId>)>,
}

impl Prefetcher {
    /// Fresh tracker with nothing outstanding.
    pub fn new() -> Self {
        Prefetcher::default()
    }

    /// Total outstanding prefetched tiles across all cells.
    pub fn outstanding_tiles(&self) -> usize {
        self.outstanding.iter().map(|(_, ids)| ids.len()).sum()
    }

    /// Whether nothing is outstanding: a reconcile would release nothing.
    pub fn is_empty(&self) -> bool {
        self.outstanding.is_empty()
    }

    /// Whether `cell` currently holds outstanding prefetched tiles.
    pub fn holds(&self, cell: CellId) -> bool {
        self.outstanding.iter().any(|(c, _)| *c == cell)
    }

    /// Whether `id` is already tracked as outstanding. The live server
    /// charges prefetched tiles to the ledger only when the client ACKs
    /// them, so between send and ACK this tracker is the only record —
    /// the duplicate-spend check goes through here.
    pub fn contains(&self, id: &VideoId) -> bool {
        self.outstanding.iter().any(|(_, ids)| ids.contains(id))
    }

    /// Reconciles the tracker against this slot's reality:
    ///
    /// * the user arrived at a prefetched cell (`cell == current`) — the
    ///   prediction paid off; tracking is dropped and the ledger entries
    ///   stay (that suppression *is* the prefetch win);
    /// * the cell is still among the `predicted` future cells — kept;
    /// * anything else is a FoV that never materialised — its ids are
    ///   appended to `released`, and the caller must pass them through
    ///   `UndeliveredSums::release` so the ledger forgets them cleanly.
    pub fn reconcile(
        &mut self,
        current: CellId,
        predicted: &[CellId],
        released: &mut Vec<VideoId>,
    ) {
        self.outstanding.retain_mut(|(cell, ids)| {
            if *cell == current {
                false
            } else if predicted.contains(cell) {
                true
            } else {
                released.append(ids);
                false
            }
        });
    }

    /// Records a prefetched tile under its cell.
    pub fn note(&mut self, cell: CellId, id: VideoId) {
        match self.outstanding.iter_mut().find(|(c, _)| *c == cell) {
            Some((_, ids)) => ids.push(id),
            None => self.outstanding.push((cell, vec![id])),
        }
    }

    /// Drains everything outstanding (session teardown): the caller must
    /// release the returned ids from the ledger.
    pub fn drain(&mut self) -> Vec<VideoId> {
        let mut all = Vec::new();
        for (_, mut ids) in self.outstanding.drain(..) {
            all.append(&mut ids);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_content::tile::TileId;
    use cvr_core::quality::QualityLevel;

    fn id(x: i32, z: i32, t: u8) -> VideoId {
        VideoId::new(CellId { x, z }, TileId::new(t), QualityLevel::new(1))
    }

    #[test]
    fn credit_is_slack_capped_by_fraction() {
        assert_eq!(slot_credit(400.0, 380.0), 20.0);
        assert_eq!(slot_credit(400.0, 350.0), 40.0);
        assert_eq!(slot_credit(400.0, 420.0), 0.0);
    }

    #[test]
    fn arrival_confirms_without_release() {
        let mut p = Prefetcher::new();
        let b = CellId { x: 1, z: 0 };
        p.note(b, id(1, 0, 0));
        p.note(b, id(1, 0, 1));
        let mut released = Vec::new();
        assert!(p.contains(&id(1, 0, 0)));
        p.reconcile(b, &[], &mut released);
        assert!(released.is_empty(), "arrival must keep the ledger entries");
        assert_eq!(p.outstanding_tiles(), 0);
        assert!(!p.contains(&id(1, 0, 0)));
    }

    #[test]
    fn stale_cells_release_and_predicted_cells_survive() {
        let mut p = Prefetcher::new();
        let current = CellId { x: 0, z: 0 };
        let still = CellId { x: 1, z: 0 };
        let stale = CellId { x: 5, z: 5 };
        p.note(still, id(1, 0, 0));
        p.note(stale, id(5, 5, 2));
        p.note(stale, id(5, 5, 3));
        let mut released = Vec::new();
        p.reconcile(current, &[still], &mut released);
        assert_eq!(released, vec![id(5, 5, 2), id(5, 5, 3)]);
        assert!(p.holds(still));
        assert!(!p.holds(stale));
        assert_eq!(p.outstanding_tiles(), 1);
    }

    #[test]
    fn drain_returns_everything_once() {
        let mut p = Prefetcher::new();
        p.note(CellId { x: 1, z: 0 }, id(1, 0, 0));
        p.note(CellId { x: 2, z: 0 }, id(2, 0, 1));
        let drained = p.drain();
        assert_eq!(drained.len(), 2);
        assert!(p.drain().is_empty());
        assert_eq!(p.outstanding_tiles(), 0);
    }
}
