//! Multicast group discovery: keying users on provably-identical
//! undelivered tile state, with hysteresis-stabilised group ids.
//!
//! Two users can share one staged row — and one fanned-out frame — only
//! when the *bytes* the server would send them are identical. The
//! [`GroupKey`] makes that exact, not heuristic: it combines the cell
//! whose panorama is served, the orientation bucket (poses sharing a
//! bucket provably share the FoV tile set, see
//! [`cvr_content::plane::SharedFovCache`]), and an FNV-1a fingerprint of
//! the undelivered level-prefix state (tile ids, per-(tile, level)
//! delivered bits, and the raw bits of the per-level undelivered rate
//! sums). Equal keys ⇒ byte-identical manifests and rate rows.
//!
//! Group *membership* is recomputed every slot from scratch — a user who
//! looks away or leaves is out of the group the same slot, so a stale
//! group can never deliver to a departed user. What hysteresis stabilises
//! is the group *id*: a key keeps its id for `hysteresis_slots` slots
//! after it was last seen, so FoV jitter that briefly empties a bucket
//! does not re-number the group when the users come back.
//!
//! The tracker keeps one map, key → what is remembered of it: the id, the
//! slot last seen, and where in the current slot's group list the key's
//! group sits — so an observation is one probe (under the seeded
//! [`CellHashBuilder`]; a `GroupKey` is five integers). Group order comes
//! from the list, ids from a counter; the map is only ever probed and
//! pruned, never read out.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use cvr_content::cache::{DeliveryLedger, UndeliveredSums};
use cvr_content::grid::CellId;
use cvr_content::hash::CellHashBuilder;
use cvr_content::id::VideoId;
use cvr_content::plane::OrientationKey;
use cvr_content::tile::TileId;
use cvr_core::fnv;
use cvr_core::quality::QualityLevel;

/// Identity of one multicast-sharable unit of work: users with equal keys
/// are guaranteed to need byte-identical tile manifests at every quality
/// level this slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupKey {
    /// Cell whose panorama the users are served.
    pub cell: CellId,
    /// Orientation bucket — equal buckets provably share the FoV tile set.
    pub orientation: OrientationKey,
    /// Fingerprint of the undelivered level-prefix state
    /// ([`content_fingerprint`]).
    pub content: u64,
}

/// FNV-1a fingerprint of one user's undelivered tile state: the targeted
/// tile ids, each tile's per-level delivered bit, and the raw bits of the
/// per-level undelivered rate sums. Two users with equal fingerprints
/// (over the same `(cell, tiles)`) would be sent byte-identical manifests
/// at every quality level.
///
/// Reads the delivered bits from the mask `undelivered` keeps in lockstep
/// with the user's ledger — no hash probes.
pub fn undelivered_fingerprint(undelivered: &UndeliveredSums) -> u64 {
    fold_fingerprint(undelivered.tiles(), undelivered.sums(), |t, l| {
        undelivered.delivered(l)[t]
    })
}

/// [`undelivered_fingerprint`] computed the slow way, probing `ledger`
/// for each `(cell, tile, level)` bit: the reference the planner's debug
/// builds hold the mask read to, and the form for callers that have a
/// ledger but no [`UndeliveredSums`].
pub fn content_fingerprint(
    cell: CellId,
    tiles: &[TileId],
    sums: &[f64],
    ledger: &DeliveryLedger,
) -> u64 {
    fold_fingerprint(tiles, sums, |t, l| {
        ledger.is_delivered(&VideoId::new(
            cell,
            tiles[t],
            QualityLevel::new((l + 1) as u8),
        ))
    })
}

/// The one fold behind both fingerprints; `delivered(t, l)` is the
/// delivered bit of `tiles[t]` at level index `l`.
fn fold_fingerprint(
    tiles: &[TileId],
    sums: &[f64],
    delivered: impl Fn(usize, usize) -> bool,
) -> u64 {
    let mut hash = fnv::fold_u64(fnv::OFFSET, tiles.len() as u64);
    for (t, tile) in tiles.iter().enumerate() {
        hash = fnv::fold_bytes(hash, &[tile.get()]);
        for l in 0..sums.len() {
            hash = fnv::fold_bytes(hash, &[u8::from(delivered(t, l))]);
        }
    }
    for &s in sums {
        hash = fnv::fold_u64(hash, s.to_bits());
    }
    hash
}

/// One discovered group of the current slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Stable group id: assigned when the key was first seen, kept while
    /// the key stays within the hysteresis window.
    pub id: u64,
    /// The key every member shares this slot.
    pub key: GroupKey,
    /// Member handles in observation (= plan) order.
    pub members: Vec<usize>,
}

/// What the tracker remembers of a key across slots.
#[derive(Debug, Clone, Copy)]
struct KnownKey {
    id: u64,
    last_seen: u64,
    /// The [`GroupTracker::begin_slot`] call during which the key last
    /// opened a group, and that group's index in `groups`. The index means
    /// something only while `opened` is the tracker's current epoch; an
    /// epoch, not the slot number, because a driver may begin the same
    /// slot twice.
    opened: u64,
    at: usize,
}

/// Per-slot group discovery with deterministic, arrival-order-stable ids.
///
/// Usage per slot: [`GroupTracker::begin_slot`], one
/// [`GroupTracker::observe`] per groupable user *in plan order*, then
/// [`GroupTracker::finish_slot`] to read the groups (in
/// first-observation order) and prune keys outside the hysteresis
/// window. Determinism: ids depend only on the sequence of observed keys
/// since construction — never on hash-map iteration order, thread count,
/// or shard layout.
#[derive(Debug, Clone)]
pub struct GroupTracker {
    hysteresis_slots: u64,
    next_id: u64,
    known: HashMap<GroupKey, KnownKey, CellHashBuilder>,
    slot: u64,
    /// Count of [`GroupTracker::begin_slot`] calls so far.
    epoch: u64,
    groups: Vec<Group>,
    /// Emptied member vectors of earlier slots' groups, reused by the next
    /// groups to open so a steady-state slot allocates none.
    spare: Vec<Vec<usize>>,
}

impl GroupTracker {
    /// Creates a tracker whose keys keep their group id for
    /// `hysteresis_slots` slots after they were last observed.
    pub fn new(hysteresis_slots: u64) -> Self {
        GroupTracker {
            hysteresis_slots,
            next_id: 0,
            known: HashMap::default(),
            slot: 0,
            epoch: 0,
            groups: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Starts a new slot, clearing the previous slot's membership. Slots
    /// must be observed in non-decreasing order for hysteresis to mean
    /// anything.
    pub fn begin_slot(&mut self, slot: u64) {
        self.slot = slot;
        self.epoch += 1;
        self.spare.extend(self.groups.drain(..).map(|mut group| {
            group.members.clear();
            group.members
        }));
    }

    /// Registers `member` (an opaque caller handle, typically the plan
    /// index) under `key`, returning the group id. Callers must observe
    /// members in plan order so member lists — and therefore value
    /// summation order — are deterministic.
    pub fn observe(&mut self, member: usize, key: GroupKey) -> u64 {
        let (epoch, at) = (self.epoch, self.groups.len());
        let id = match self.known.entry(key) {
            Entry::Occupied(entry) => {
                let known = entry.into_mut();
                known.last_seen = self.slot;
                if known.opened == epoch {
                    self.groups[known.at].members.push(member);
                    return known.id;
                }
                (known.opened, known.at) = (epoch, at);
                known.id
            }
            Entry::Vacant(entry) => {
                let id = self.next_id;
                self.next_id += 1;
                entry.insert(KnownKey {
                    id,
                    last_seen: self.slot,
                    opened: epoch,
                    at,
                });
                id
            }
        };
        let mut members = self.spare.pop().unwrap_or_default();
        members.push(member);
        self.groups.push(Group { id, key, members });
        id
    }

    /// Ends the slot: prunes keys not seen within the hysteresis window
    /// and returns the slot's groups in first-observation order.
    pub fn finish_slot(&mut self) -> &[Group] {
        let cutoff = self.slot.saturating_sub(self.hysteresis_slots);
        self.known.retain(|_, k| k.last_seen >= cutoff);
        &self.groups
    }

    /// The current slot's groups (valid after
    /// [`GroupTracker::finish_slot`]).
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Number of groups with two or more members this slot — the value
    /// behind the `cvr_mcast_groups` gauge.
    pub fn multicast_groups(&self) -> usize {
        self.groups.iter().filter(|g| g.members.len() >= 2).count()
    }

    /// Number of keys currently remembered (for tests and introspection).
    pub fn known_keys(&self) -> usize {
        self.known.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(x: i32, o: i64, c: u64) -> GroupKey {
        GroupKey {
            cell: CellId { x, z: 0 },
            orientation: (o, 0),
            content: c,
        }
    }

    #[test]
    fn members_sharing_a_key_group_together_in_observation_order() {
        let mut t = GroupTracker::new(4);
        t.begin_slot(0);
        t.observe(0, key(1, 5, 9));
        t.observe(1, key(2, 5, 9));
        t.observe(2, key(1, 5, 9));
        let groups = t.finish_slot().to_vec();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].members, vec![0, 2]);
        assert_eq!(groups[1].members, vec![1]);
        assert_eq!(t.multicast_groups(), 1);
    }

    #[test]
    fn ids_are_arrival_order_stable_across_slots() {
        let mut t = GroupTracker::new(4);
        t.begin_slot(0);
        let a = t.observe(0, key(1, 0, 0));
        let b = t.observe(1, key(2, 0, 0));
        t.finish_slot();
        // Next slot, observed in the opposite order: ids stick to keys.
        t.begin_slot(1);
        let b2 = t.observe(1, key(2, 0, 0));
        let a2 = t.observe(0, key(1, 0, 0));
        t.finish_slot();
        assert_eq!(a, a2);
        assert_eq!(b, b2);
        assert_ne!(a, b);
    }

    #[test]
    fn hysteresis_keeps_ids_across_jitter_gaps_and_prunes_after() {
        let mut t = GroupTracker::new(3);
        t.begin_slot(0);
        let id = t.observe(0, key(1, 0, 0));
        t.finish_slot();
        // Absent for 3 slots — inside the window, id survives.
        for slot in 1..=3 {
            t.begin_slot(slot);
            t.finish_slot();
        }
        t.begin_slot(4);
        // last_seen 0, cutoff 4 - 3 = 1 ⇒ pruned at slot-4 finish; but the
        // key re-observed *during* slot 4 refreshes last_seen first.
        let again = t.observe(0, key(1, 0, 0));
        t.finish_slot();
        assert_eq!(id, again, "id must survive a jitter gap inside the window");

        // Now stay away past the window: the key is forgotten and the
        // next sighting mints a fresh id.
        for slot in 5..=9 {
            t.begin_slot(slot);
            t.finish_slot();
        }
        assert_eq!(t.known_keys(), 0);
        t.begin_slot(10);
        let fresh = t.observe(0, key(1, 0, 0));
        assert_ne!(id, fresh, "expired key must re-number");
    }

    #[test]
    fn a_key_back_inside_the_window_keeps_its_id_and_opens_where_it_is_observed() {
        let mut t = GroupTracker::new(4);
        t.begin_slot(7);
        let a = t.observe(0, key(1, 0, 0));
        let b = t.observe(1, key(2, 0, 0));
        t.finish_slot();
        // Slot 8: A is absent, so B's group sits at position 0, where A's
        // sat a slot ago.
        t.begin_slot(8);
        t.observe(1, key(2, 0, 0));
        t.finish_slot();
        // Slot 9: A is back, after B and a newcomer. Its remembered
        // position (0, from slot 7) must not be read as this slot's.
        t.begin_slot(9);
        let c = t.observe(5, key(3, 0, 0));
        t.observe(1, key(2, 0, 0));
        let back = t.observe(0, key(1, 0, 0));
        t.observe(6, key(1, 0, 0));
        let seen: Vec<_> = t
            .finish_slot()
            .iter()
            .map(|g| (g.id, g.members.clone()))
            .collect();
        assert_eq!(back, a);
        assert_eq!(seen, vec![(c, vec![5]), (b, vec![1]), (a, vec![0, 6])]);
    }

    #[test]
    fn interleaved_keys_group_by_key_in_first_observation_order() {
        let mut t = GroupTracker::new(4);
        t.begin_slot(0);
        for (member, x) in [1, 2, 1, 2].into_iter().enumerate() {
            t.observe(member, key(x, 0, 0));
        }
        let members: Vec<_> = t.finish_slot().iter().map(|g| g.members.clone()).collect();
        assert_eq!(members, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn beginning_the_same_slot_twice_leaves_no_stale_position() {
        let mut t = GroupTracker::new(4);
        t.begin_slot(3);
        t.observe(0, key(9, 0, 0));
        let a = t.observe(1, key(1, 0, 0));
        // The driver starts slot 3 over (nothing finished it): the groups
        // are gone, and with them the positions the keys opened at — A's
        // was 1, which would now be out of bounds or somebody else's.
        t.begin_slot(3);
        assert!(t.groups().is_empty());
        assert_eq!(t.observe(4, key(1, 0, 0)), a);
        t.observe(5, key(9, 0, 0));
        t.observe(6, key(1, 0, 0));
        let members: Vec<_> = t.finish_slot().iter().map(|g| g.members.clone()).collect();
        assert_eq!(members, vec![vec![4, 6], vec![5]]);
    }

    #[test]
    fn membership_is_per_slot_never_carried_over() {
        let mut t = GroupTracker::new(8);
        t.begin_slot(0);
        t.observe(0, key(1, 0, 0));
        t.observe(1, key(1, 0, 0));
        t.finish_slot();
        t.begin_slot(1);
        t.observe(1, key(1, 0, 0));
        let groups = t.finish_slot();
        assert_eq!(groups.len(), 1);
        assert_eq!(
            groups[0].members,
            vec![1],
            "departed member 0 must not linger in the group"
        );
    }

    #[test]
    fn member_vectors_are_recycled_across_slots() {
        let mut t = GroupTracker::new(8);
        let buffers = |t: &GroupTracker| {
            let mut ptrs: Vec<_> = t.groups().iter().map(|g| g.members.as_ptr()).collect();
            ptrs.sort();
            ptrs
        };
        t.begin_slot(0);
        for member in 0..6 {
            t.observe(member, key(member as i32 % 3, 0, 0));
        }
        t.finish_slot();
        let first = buffers(&t);
        assert_eq!(first.len(), 3);
        // The same three groups, opened in another order by other members:
        // same ids and fresh membership, in the previous slot's buffers.
        t.begin_slot(1);
        assert!(t.groups().is_empty());
        for member in [5, 1, 0] {
            t.observe(member, key(member as i32 % 3, 0, 0));
        }
        let groups = t.finish_slot();
        let seen: Vec<_> = groups.iter().map(|g| (g.id, g.members.clone())).collect();
        assert_eq!(seen, vec![(2, vec![5]), (1, vec![1]), (0, vec![0])]);
        assert_eq!(buffers(&t), first);
    }

    #[test]
    fn content_fingerprint_tracks_delivered_bits() {
        let cell = CellId { x: 3, z: -2 };
        let tiles = [TileId::new(0), TileId::new(2)];
        let sums = [4.0, 8.0, 16.0];
        let mut ledger = DeliveryLedger::new();
        let before = content_fingerprint(cell, &tiles, &sums, &ledger);
        assert_eq!(
            before,
            content_fingerprint(cell, &tiles, &sums, &ledger),
            "fingerprint must be a pure function"
        );
        ledger.acknowledge(VideoId::new(cell, TileId::new(0), QualityLevel::new(2)));
        let after = content_fingerprint(cell, &tiles, &sums, &ledger);
        assert_ne!(before, after, "a delivered bit must change the key");
        // A delivery on a tile outside the target set is invisible.
        ledger.acknowledge(VideoId::new(cell, TileId::new(1), QualityLevel::new(2)));
        assert_eq!(after, content_fingerprint(cell, &tiles, &sums, &ledger));
    }
}
