//! # cvr-mcast
//!
//! Cross-user shared-FoV dedup for the collaborative VR reproduction:
//! classroom users cluster in the same cells and share orientation
//! buckets, yet the per-slot allocator charges server-wide constraint (6)
//! once *per user* for identical bytes. This crate detects users whose
//! undelivered tile state is provably identical, groups them with stable
//! ids, and stages each group once into the
//! [`SlotEngine`](cvr_core::engine::SlotEngine) so a shared tile costs
//! the server budget once, not N times — the multi-quality multicast
//! formulation of Long/Ye/Cui/Liu mapped onto the paper's
//! quality-increment greedy.
//!
//! * [`group`] — [`GroupKey`] (cell × orientation bucket × undelivered
//!   content fingerprint) and the hysteresis-stabilised [`GroupTracker`]
//!   with deterministic, arrival-order-stable group ids;
//! * [`stage`] — group-quality staging: a singleton group stages the
//!   member's row bit-identically to unicast (the Theorem-1 parity
//!   guarantee), a larger group stages the shared rates once with the
//!   member-value sum clamped by each member's link budget `B_n`.
//!
//! ```
//! use cvr_mcast::group::{GroupKey, GroupTracker};
//! use cvr_content::grid::CellId;
//!
//! let mut tracker = GroupTracker::new(8);
//! let key = GroupKey { cell: CellId { x: 0, z: 0 }, orientation: (4, -1), content: 7 };
//! tracker.begin_slot(0);
//! tracker.observe(0, key);
//! tracker.observe(1, key);
//! let groups = tracker.finish_slot();
//! assert_eq!(groups.len(), 1);
//! assert_eq!(groups[0].members, vec![0, 1]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod group;
pub mod stage;

pub use group::{content_fingerprint, undelivered_fingerprint, Group, GroupKey, GroupTracker};
pub use stage::{cap_level, stage_group, GroupMember};
