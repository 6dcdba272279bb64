//! The planning half of the per-slot loop, written once.
//!
//! The paper's server runs one loop per slot: ingest poses → predict →
//! build the knapsack of Eq. (9) under constraints (6)/(7) → Algorithm 1 →
//! transmit → account on ACK. [`SlotPlanner`] is everything between
//! "predicted pose" and "what to send to whom": it owns the
//! [`SlotEngine`], the data plane (cached rate rows in [`RatePlane`];
//! FoV tile sets and orientation keys, recomputed per query, from
//! [`SharedFovCache`]), multicast group discovery ([`GroupTracker`]), the
//! [`LookaheadConfig`], all per-slot scratch, and a per-user slab of
//! delivery state (ledger, undelivered sums, prefetch tracker,
//! anticipatory-degrade state). The live `cvr_serve::server::Session` and
//! the three simulators ([`crate::system`], [`crate::tracesim`],
//! [`crate::mcast`]) are *drivers*: they keep what is genuinely theirs
//! (traces, routers, virtual clocks; transports, estimators, obs) and
//! call, every slot:
//!
//! 1. [`SlotPlanner::begin_slot`];
//! 2. per user, [`SlotPlanner::clamp_budget`] then
//!    [`SlotPlanner::push_user`] (FoV target + undelivered sums + group
//!    key);
//! 3. [`SlotPlanner::stage`] with the driver's value formula — the one
//!    fill loop, the one group discovery, one engine row per group;
//! 4. a solve on [`SlotPlanner::engine_mut`];
//! 5. [`SlotPlanner::prefetch`] with the driver's future-pose predictor;
//! 6. [`SlotPlanner::row`] / [`SlotPlanner::manifest_into`] /
//!    [`SlotPlanner::prefetched`] to transmit, and
//!    [`SlotPlanner::acknowledge`] / [`SlotPlanner::release`] as feedback
//!    arrives.
//!
//! There is one path, not a unicast path beside a multicast path or a
//! myopic path beside a lookahead path. Two identities make that safe,
//! and `tests/golden_fingerprints.rs` pins both across the commit that
//! removed the forks:
//!
//! * **Unicast is the singleton-group case.** A user the driver marks
//!   non-groupable (multicast off, pre-v3 client, degraded, unbucketable
//!   pose) is staged as a one-member row, which
//!   [`cvr_mcast::stage_group`] copies verbatim — rates, values and link
//!   budget bit for bit.
//! * **Myopic is the `H = 1` case.** The prefetch step's `1..H` loop is
//!   empty at `H = 1` (no future cells, nothing reconciled, no credit
//!   spent). The budget clamp is the one place that needs an explicit
//!   test — see [`SlotPlanner::clamp_budget`].

use std::ops::Range;

use cvr_content::cache::{DeliveryLedger, UndeliveredSums};
use cvr_content::grid::CellId;
use cvr_content::id::VideoId;
use cvr_content::library::ContentLibrary;
use cvr_content::plane::{RatePlane, SharedFovCache, DEFAULT_PLANE_CELLS};
use cvr_content::tile::{tile_mask, tiles_in, TileId};
use cvr_core::engine::SlotEngine;
use cvr_core::quality::QualityLevel;
use cvr_core::stage::stage_rates_values_with;
use cvr_lookahead::{slot_credit, AnticipatoryDegrade, LookaheadConfig, Prefetcher};
use cvr_mcast::{stage_group, undelivered_fingerprint, GroupKey, GroupMember, GroupTracker};
use cvr_motion::pose::Pose;

/// Pipeline depth: content predicted and sent at slot `s` is decoded at
/// `s+1` and displayed at `s+2` (Section V, "Pipelining of transmission and
/// decoding").
pub const PIPELINE_SLOTS: usize = 2;

/// One-way propagation delay of the single wireless hop, seconds.
pub const PROPAGATION_S: f64 = 0.002;

/// Transfers whose queueing delay exceeds this many slots are dropped
/// ("each tile will either be displayed or dropped in each time slot");
/// the recorded delay saturates here.
pub const DELAY_CAP_SLOTS: f64 = 8.0;

/// Forces a raw per-level rate vector to be positive and strictly
/// increasing (retransmission suppression can make levels momentarily
/// equal-cost; the allocator's invariants require strict monotonicity).
/// [`SlotPlanner::stage`] applies it to every row it fills.
pub fn sanitize_rates(rates: &mut [f64]) {
    let mut floor = 0.05;
    for r in rates.iter_mut() {
        if !r.is_finite() || *r < floor {
            *r = floor;
        }
        floor = *r * 1.000_001 + 1e-6;
    }
}

/// One user's delivery state, owned by the planner between join and
/// leave.
#[derive(Debug)]
struct PlannerUser {
    ledger: DeliveryLedger,
    /// Per-level undelivered-rate sums over the current FoV target, kept
    /// in lockstep with `ledger` through the paired calls.
    undelivered: UndeliveredSums,
    /// Outstanding prefetched tiles awaiting arrival or release.
    prefetcher: Prefetcher,
    degrade: AnticipatoryDegrade,
}

/// One planned user, in plan order.
#[derive(Debug, Clone, Copy)]
struct Planned {
    /// Slab slot of the user.
    user: usize,
    /// Link budget `B_n` planned against.
    bn: f64,
    /// Engine row the user was staged into.
    row: usize,
    /// End of the user's span of `prefetch_ids` (it starts where the
    /// previous planned user's ends).
    prefetch_end: usize,
}

/// One staged engine row: its members are `members[start..end]` (and the
/// same span of `caps`), `start` being the previous row's `end`.
#[derive(Debug, Clone, Copy)]
struct RowSpan {
    end: usize,
    group_id: Option<u64>,
}

/// One staged engine row as the transmit side sees it.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    /// Plan indices of the users sharing this row, in plan order.
    pub members: &'a [usize],
    /// Per member, the highest level index its own link affords; a
    /// member is delivered `min(assigned, cap)`. A one-member row is
    /// never clamped (cap = top level).
    pub caps: &'a [usize],
    /// The multicast group id, `None` for a user the driver marked
    /// non-groupable (a groupable user alone in its group still has one).
    pub group_id: Option<u64>,
    /// The level the last solve assigned this row.
    pub assigned: QualityLevel,
    /// The row's staged per-level rates.
    pub rates: &'a [f64],
}

/// The shared per-slot planner. See the module docs for the call order.
#[derive(Debug)]
pub struct SlotPlanner {
    library: ContentLibrary,
    levels: usize,
    lookahead: LookaheadConfig,
    engine: SlotEngine,
    plane: RatePlane,
    fov: SharedFovCache,
    groups: GroupTracker,
    users: Vec<Option<PlannerUser>>,
    slot: u64,
    // Plan-order scratch: one entry per pushed user, `levels` per table row.
    plan: Vec<Planned>,
    /// `(plan index, key)` of the users eligible for grouping, plan order.
    keyed: Vec<(usize, GroupKey)>,
    rates: Vec<f64>,
    values: Vec<f64>,
    // Row-order scratch.
    rows: Vec<RowSpan>,
    members: Vec<usize>,
    caps: Vec<usize>,
    // Prefetch scratch.
    prefetch_ids: Vec<VideoId>,
    future_cells: Vec<CellId>,
    future_poses: Vec<Pose>,
    released: Vec<VideoId>,
}

impl SlotPlanner {
    /// Creates a planner over `library` with the given lookahead policy
    /// and multicast group-id hysteresis.
    pub fn new(library: ContentLibrary, lookahead: LookaheadConfig, hysteresis_slots: u64) -> Self {
        SlotPlanner {
            levels: library.quality_set().len(),
            plane: RatePlane::new(library.sizing().clone(), DEFAULT_PLANE_CELLS),
            fov: SharedFovCache::new(*library.fov()),
            library,
            lookahead,
            engine: SlotEngine::new(),
            groups: GroupTracker::new(hysteresis_slots),
            users: Vec::new(),
            slot: 0,
            plan: Vec::new(),
            keyed: Vec::new(),
            rates: Vec::new(),
            values: Vec::new(),
            rows: Vec::new(),
            members: Vec::new(),
            caps: Vec::new(),
            prefetch_ids: Vec::new(),
            future_cells: Vec::new(),
            future_poses: Vec::new(),
            released: Vec::new(),
        }
    }

    /// The content library the planner resolves poses against.
    pub fn library(&self) -> &ContentLibrary {
        &self.library
    }

    /// The lookahead horizon H (≥ 1).
    pub fn horizon(&self) -> usize {
        self.lookahead.horizon
    }

    /// Starts tracking a user in slab slot `user` with an empty ledger
    /// (replacing whatever the slot held).
    pub fn join(&mut self, user: usize) {
        if self.users.len() <= user {
            self.users.resize_with(user + 1, || None);
        }
        self.users[user] = Some(PlannerUser {
            ledger: DeliveryLedger::new(),
            undelivered: UndeliveredSums::new(self.levels),
            prefetcher: Prefetcher::new(),
            degrade: AnticipatoryDegrade::new(self.lookahead.degrade),
        });
    }

    /// Forgets slab slot `user`; a later [`SlotPlanner::join`] on the same
    /// slot starts from scratch.
    pub fn leave(&mut self, user: usize) {
        if let Some(slot) = self.users.get_mut(user) {
            *slot = None;
        }
    }

    fn user_mut(&mut self, user: usize) -> &mut PlannerUser {
        self.users[user].as_mut().expect("user joined the planner")
    }

    fn user(&self, user: usize) -> &PlannerUser {
        self.users[user].as_ref().expect("user joined the planner")
    }

    /// Paired ACK: the client holds `ids`; folds each into the ledger and
    /// the undelivered sums in one step.
    pub fn acknowledge<I: IntoIterator<Item = VideoId>>(&mut self, user: usize, ids: I) {
        let u = self.user_mut(user);
        for id in ids {
            u.undelivered.acknowledge(&mut u.ledger, id);
        }
    }

    /// Paired release: the client dropped `ids`.
    pub fn release<I: IntoIterator<Item = VideoId>>(&mut self, user: usize, ids: I) {
        let u = self.user_mut(user);
        u.undelivered.release(&mut u.ledger, ids);
    }

    /// Starts planning slot `slot` against the server budget `B(t)`.
    pub fn begin_slot(&mut self, slot: u64, server_budget: f64) {
        self.slot = slot;
        self.engine.begin_slot(server_budget);
        self.plan.clear();
        self.keyed.clear();
    }

    /// The link budget to plan `user` against this slot, given the raw
    /// estimate: the anticipatory-degrade ramp toward a forecast dip —
    /// the fitted trend over the horizon, or `known_future_min` when the
    /// driver owns its throughput traces and the forecast is exact.
    ///
    /// This holds the pipeline's only `horizon > 1` test.
    /// `AnticipatoryDegrade` is a ramp limiter: even with nothing forecast
    /// its up-ramp lags a rising estimate, so it is *not* the identity at
    /// `H = 1`. The myopic identity is therefore enforced here, in one
    /// place, instead of at every call site.
    pub fn clamp_budget(&mut self, user: usize, raw: f64, known_future_min: Option<f64>) -> f64 {
        let horizon = self.lookahead.horizon;
        if horizon <= 1 {
            return raw;
        }
        let degrade = &mut self.user_mut(user).degrade;
        match known_future_min {
            Some(forecast_min) => degrade.clamp_to_forecast(raw, forecast_min),
            None => degrade.observe_and_clamp(raw, horizon),
        }
    }

    /// Adds `user` to this slot's plan: resolves the FoV target of its
    /// `predicted` pose (its tile set, cached rate rows, undelivered
    /// sums retargeted only on a cell or tile-set change) and — when the
    /// driver marks it `groupable` and the pose falls in an orientation
    /// bucket — keys it for multicast grouping. Returns the user's plan
    /// index.
    pub fn push_user(&mut self, user: usize, predicted: &Pose, bn: f64, groupable: bool) -> usize {
        let cell = self.library.grid().cell_of(&predicted.position);
        let orientation = groupable.then(|| self.fov.key_for(predicted)).flatten();
        let tiles = self.fov.tiles_for(predicted);
        let u = self.users[user].as_mut().expect("user joined the planner");
        if !u.undelivered.targets(cell, tiles) {
            u.undelivered
                .retarget(cell, tiles, self.plane.rows(cell), &u.ledger);
        }
        #[cfg(debug_assertions)]
        u.undelivered.assert_matches_ledger(&u.ledger);
        let i = self.plan.len();
        if let Some(orientation) = orientation {
            // Equal keys guarantee byte-identical manifests and rate rows:
            // the key fingerprints the undelivered level-prefix state.
            let content = undelivered_fingerprint(&u.undelivered);
            debug_assert_eq!(
                content,
                cvr_mcast::content_fingerprint(cell, tiles, u.undelivered.sums(), &u.ledger),
                "mask-read fingerprint diverged from the ledger"
            );
            self.keyed.push((
                i,
                GroupKey {
                    cell,
                    orientation,
                    content,
                },
            ));
        }
        self.plan.push(Planned {
            user,
            bn,
            row: usize::MAX,
            prefetch_end: 0,
        });
        i
    }

    /// Stages the slot problem. Fills every planned user's rate/value row
    /// (`rate[l] = sums[l] + overhead`, `value[l] = value_of(i, bn)(l,
    /// rate[l])`) in one inline loop over the plan, then discovers this
    /// slot's groups and stages one engine row per group, walking users in
    /// plan order and staging each whole group at its first member's
    /// position. When every group is a singleton that is exactly the
    /// per-user problem, row for row.
    ///
    /// `value_of(i, bn)` is called once per user and returns that user's
    /// per-level value formula, so per-user terms are hoisted out of the
    /// level loop.
    pub fn stage<F, G>(&mut self, overhead: f64, mut value_of: F)
    where
        F: FnMut(usize, f64) -> G,
        G: FnMut(usize, f64) -> f64,
    {
        let n = self.plan.len();
        let levels = self.levels;
        // Every row is fully overwritten below, so stale contents are fine.
        self.rates.resize(n * levels, 0.0);
        self.values.resize(n * levels, 0.0);
        let rows = (self.rates.chunks_mut(levels)).zip(self.values.chunks_mut(levels));
        for ((i, planned), (rates, values)) in self.plan.iter().enumerate().zip(rows) {
            let user = self.users[planned.user]
                .as_ref()
                .expect("planned this slot");
            stage_rates_values_with(
                user.undelivered.sums(),
                overhead,
                rates,
                values,
                value_of(i, planned.bn),
            );
            sanitize_rates(rates);
        }

        self.groups.begin_slot(self.slot);
        for &(i, key) in &self.keyed {
            self.groups.observe(i, key);
        }
        self.groups.finish_slot();

        self.rows.clear();
        self.members.clear();
        self.caps.clear();
        // Keyed users and groups both come in plan order (a group sits at
        // its first member's observation), so one forward cursor over each
        // tells, per plan index, whether it opens a group, already rode
        // one, or stands alone.
        let mut keyed = self.keyed.iter().map(|&(i, _)| i).peekable();
        let mut groups = self.groups.groups().iter().peekable();
        // Only rows of two or more members borrow this; it stays
        // unallocated on slots where nobody shares a row.
        let mut shared_rows: Vec<GroupMember<'_>> = Vec::new();
        for i in 0..n {
            let (members, gid): (&[usize], _) = if keyed.next_if_eq(&i).is_none() {
                (std::slice::from_ref(&i), None)
            } else if let Some(group) = groups.next_if(|g| g.members[0] == i) {
                (&group.members, Some(group.id))
            } else {
                // Staged already, with its group at the first member.
                continue;
            };
            let plan = &self.plan;
            let member_of = |m: usize| GroupMember {
                values: &self.values[m * levels..(m + 1) * levels],
                link_budget: plan[m].bn,
            };
            let alone;
            let member_rows: &[GroupMember<'_>] = if let [only] = members {
                alone = [member_of(*only)];
                &alone
            } else {
                shared_rows.clear();
                shared_rows.extend(members.iter().map(|&m| member_of(m)));
                &shared_rows
            };
            let first = members[0];
            let shared = &self.rates[first * levels..(first + 1) * levels];
            let row = stage_group(&mut self.engine, shared, member_rows, &mut self.caps);
            for &m in members {
                self.plan[m].row = row;
            }
            self.members.extend_from_slice(members);
            self.rows.push(RowSpan {
                end: self.members.len(),
                group_id: gid,
            });
        }
    }

    /// The slot engine: drivers solve the staged problem through it
    /// (`solve()` in the live server, `Allocator::allocate_staged` in the
    /// simulators so Firefly/PAVQ run on the same rows); the live server
    /// also reads the solve's two pass durations off it.
    pub fn engine_mut(&mut self) -> &mut SlotEngine {
        &mut self.engine
    }

    /// Read access to the slot engine.
    pub fn engine(&self) -> &SlotEngine {
        &self.engine
    }

    /// Engine rows staged this slot.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    fn row_span(&self, r: usize) -> Range<usize> {
        let start = r.checked_sub(1).map_or(0, |prev| self.rows[prev].end);
        start..self.rows[r].end
    }

    fn prefetch_span(&self, i: usize) -> Range<usize> {
        let start = i
            .checked_sub(1)
            .map_or(0, |prev| self.plan[prev].prefetch_end);
        start..self.plan[i].prefetch_end
    }

    /// Row `r` of the staged problem with the last solve's assignment.
    pub fn row(&self, r: usize) -> Row<'_> {
        let span = self.row_span(r);
        Row {
            members: &self.members[span.clone()],
            caps: &self.caps[span],
            group_id: self.rows[r].group_id,
            assigned: self.engine.assignment()[r],
            rates: self.engine.rates(r),
        }
    }

    /// Groups of two or more members formed by the last
    /// [`SlotPlanner::stage`] — the value behind `cvr_mcast_groups`.
    pub fn multicast_groups(&self) -> usize {
        self.groups.multicast_groups()
    }

    /// The lookahead step, run after the solve while its assignment is
    /// live. For every planned user the driver deems `eligible`, asks
    /// `future_pose(i, h)` for the pose predicted `h ∈ 1..H` slots past
    /// the display slot, releases earlier prefetches whose predicted cell
    /// never materialised, and spends this slot's bounded budget slack on
    /// the predicted future cells' FoV tiles at `max(floor, the quality
    /// the user's row was just assigned)`. The chosen ids are readable
    /// through [`SlotPlanner::prefetched`]; the planner records them as
    /// outstanding but does **not** charge the ledger — the live server
    /// sends them and is charged on ACK, the system simulator models the
    /// push as delivered and acknowledges them at once.
    ///
    /// Members of a shared row keep reconciling but spend no credit: a
    /// group's payload is shared bytes, while prefetch sets are per user.
    /// Runs in plan order and is rng-free. At `H = 1` the `1..H` loop is
    /// empty: no ids, nothing released, ledgers untouched.
    pub fn prefetch<E, P>(&mut self, eligible: E, mut future_pose: P)
    where
        E: Fn(usize) -> bool,
        P: FnMut(usize, usize) -> Option<Pose>,
    {
        self.prefetch_ids.clear();
        let policy = self.lookahead.prefetch;
        let assignment = self.engine.assignment();
        let assigned: f64 = (0..self.engine.num_users())
            .map(|r| self.engine.rates(r)[assignment[r].index()])
            .sum();
        let mut credit = slot_credit(
            self.engine.server_budget(),
            assigned,
            policy.credit_fraction,
        );
        let tile_count = usize::from(TileId::COUNT);
        for i in 0..self.plan.len() {
            if eligible(i) {
                let row = self.plan[i].row;
                let shares_row = self.row_span(row).len() >= 2;
                let u = self.users[self.plan[i].user]
                    .as_mut()
                    .expect("user joined the planner");
                let current = u.undelivered.cell().expect("targeted by push_user");
                self.future_cells.clear();
                self.future_poses.clear();
                for h in 1..self.lookahead.horizon {
                    let Some(pose) = future_pose(i, h) else {
                        continue;
                    };
                    let cell = self.library.grid().cell_of(&pose.position);
                    if cell != current && !self.future_cells.contains(&cell) {
                        self.future_cells.push(cell);
                        self.future_poses.push(pose);
                    }
                }
                self.released.clear();
                u.prefetcher
                    .reconcile(current, &self.future_cells, &mut self.released);
                // Ids the ledger never saw (sent, not yet ACKed) release
                // as a no-op, which is exactly right.
                u.undelivered
                    .release(&mut u.ledger, self.released.drain(..));
                // Seeding the level the row was just assigned keeps
                // quality flat across the cell boundary; a lower one would
                // hand the allocator a cheap downgrade on arrival.
                let quality = QualityLevel::new(assignment[row].get().max(policy.quality.get()));
                let level_run = quality.index() * tile_count;
                let mut taken = 0usize;
                let spendable = if shares_row {
                    0
                } else {
                    self.future_cells.len()
                };
                'cells: for idx in 0..spendable {
                    let cell = self.future_cells[idx];
                    let tiles = tile_mask(self.library.fov(), &self.future_poses[idx]);
                    let level_rates = &self.plane.rows(cell)[level_run..level_run + tile_count];
                    for tile in tiles_in(tiles) {
                        if taken >= policy.max_tiles_per_slot {
                            break 'cells;
                        }
                        let id = VideoId::new(cell, tile, quality);
                        if u.ledger.is_delivered(&id) || u.prefetcher.contains(&id) {
                            continue;
                        }
                        let cost = level_rates[usize::from(tile.get())];
                        if cost > credit {
                            continue;
                        }
                        credit -= cost;
                        taken += 1;
                        u.prefetcher.note(cell, id);
                        self.prefetch_ids.push(id);
                    }
                }
            }
            self.plan[i].prefetch_end = self.prefetch_ids.len();
        }
    }

    /// The ids the last [`SlotPlanner::prefetch`] chose for plan index
    /// `i` (empty for ineligible users and members of a shared row).
    pub fn prefetched(&self, i: usize) -> &[VideoId] {
        &self.prefetch_ids[self.prefetch_span(i)]
    }

    /// Charges every id the last [`SlotPlanner::prefetch`] chose to its
    /// user's ledger at once — for a driver that models the push as
    /// delivered. An id is visited at most once per user per pass (future
    /// cells are de-duplicated, FoV tiles are distinct), so charging after
    /// the pass equals charging inline.
    pub fn acknowledge_prefetched(&mut self) {
        for i in 0..self.plan.len() {
            let span = self.prefetch_span(i);
            let u = self.users[self.plan[i].user]
                .as_mut()
                .expect("user joined the planner");
            for &id in &self.prefetch_ids[span] {
                u.undelivered.acknowledge(&mut u.ledger, id);
            }
        }
    }

    /// Replaces `out` with the tiles of `user`'s current FoV target at
    /// `quality` that the client is not believed to hold — what a frame
    /// at that quality must actually carry (retransmission suppression).
    pub fn manifest_into(&self, user: usize, quality: QualityLevel, out: &mut Vec<VideoId>) {
        let undelivered = &self.user(user).undelivered;
        let cell = undelivered.cell().expect("targeted by push_user");
        let held = undelivered.delivered(quality.index());
        out.clear();
        out.extend(
            undelivered
                .tiles()
                .iter()
                .zip(held)
                .filter(|&(_, &held)| !held)
                .map(|(&t, _)| VideoId::new(cell, t, quality)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_core::stage::CONTROL_OVERHEAD_MBPS;
    use cvr_lookahead::DegradeConfig;
    use cvr_motion::pose::{Orientation, Vec3};
    use proptest::prelude::*;

    fn planner(horizon: usize) -> SlotPlanner {
        SlotPlanner::new(
            ContentLibrary::paper_default(),
            LookaheadConfig::for_horizon(horizon),
            8,
        )
    }

    fn walk(u: usize, t: f64) -> Pose {
        Pose::new(
            Vec3::new(0.31 * t + u as f64, 1.6, -0.17 * t),
            Orientation::new(11.0 * t + 70.0 * u as f64, 4.0 * t - 15.0, 0.0),
        )
    }

    fn value(delta: f64, bn: f64) -> impl Fn(usize, f64) -> f64 {
        move |l, raw| delta * (l + 1) as f64 - 0.1 * raw / bn
    }

    #[test]
    fn sanitize_rates_makes_strictly_increasing_positive() {
        let mut r = vec![0.0, 0.0, 5.0, 5.0, 4.0, f64::NAN];
        sanitize_rates(&mut r);
        assert!(r[0] > 0.0);
        for w in r.windows(2) {
            assert!(w[1] > w[0], "{r:?} not strictly increasing");
        }
    }

    #[test]
    fn all_singleton_staging_equals_filling_the_engine_directly() {
        let users = 5;
        let mut p = planner(1);
        let mut direct = SlotEngine::new();
        // The reference data plane the planner's rows must match.
        let library = ContentLibrary::paper_default();
        let mut plane = RatePlane::new(library.sizing().clone(), DEFAULT_PLANE_CELLS);
        let mut sums: Vec<UndeliveredSums> = (0..users)
            .map(|_| UndeliveredSums::new(library.quality_set().len()))
            .collect();
        let mut ledgers: Vec<DeliveryLedger> = (0..users).map(|_| DeliveryLedger::new()).collect();
        for u in 0..users {
            p.join(u);
        }
        let levels = library.quality_set().len();
        let mut manifest = Vec::new();
        for slot in 0..12u64 {
            let bn: Vec<f64> = (0..users).map(|u| 20.0 + 7.0 * u as f64).collect();
            p.begin_slot(slot, 150.0);
            for u in 0..users {
                let pose = walk(u, slot as f64);
                assert_eq!(p.push_user(u, &pose, bn[u], false), u);
                let cell = library.grid().cell_of(&pose.position);
                let tiles = cvr_content::tile::tiles_for_pose(library.fov(), &pose);
                sums[u].retarget(cell, &tiles, plane.rows(cell), &ledgers[u]);
            }
            p.stage(CONTROL_OVERHEAD_MBPS, |i, bn| {
                value(0.8 + 0.05 * i as f64, bn)
            });

            direct.begin_slot(150.0);
            direct.add_users(levels, &bn);
            let (rates, values) = direct.staged_tables_mut();
            for u in 0..users {
                let span = u * levels..(u + 1) * levels;
                stage_rates_values_with(
                    sums[u].sums(),
                    CONTROL_OVERHEAD_MBPS,
                    &mut rates[span.clone()],
                    &mut values[span.clone()],
                    value(0.8 + 0.05 * u as f64, bn[u]),
                );
                sanitize_rates(&mut rates[span]);
            }

            assert_eq!(p.rows(), users);
            assert_eq!(p.multicast_groups(), 0);
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for u in 0..users {
                assert_eq!(bits(p.engine().rates(u)), bits(direct.rates(u)));
                assert_eq!(bits(p.engine().values(u)), bits(direct.values(u)));
                assert_eq!(
                    p.engine().link_budget(u).to_bits(),
                    direct.link_budget(u).to_bits()
                );
            }
            assert_eq!(p.engine_mut().solve(), direct.solve());
            for u in 0..users {
                let row = p.row(u);
                assert_eq!((row.members, row.caps), (&[u][..], &[levels - 1][..]));
                assert_eq!(row.group_id, None);
                // ACK two slots out of three so ledgers churn alike.
                if slot % 3 != 2 {
                    p.manifest_into(u, row.assigned, &mut manifest);
                    p.acknowledge(u, manifest.iter().copied());
                    for &id in &manifest {
                        sums[u].acknowledge(&mut ledgers[u], id);
                    }
                }
            }
        }
    }

    #[test]
    fn horizon_one_prefetch_is_a_no_op() {
        let mut p = planner(1);
        p.join(0);
        let mut manifest = Vec::new();
        for slot in 0..6u64 {
            p.begin_slot(slot, 400.0);
            p.push_user(0, &walk(0, slot as f64), 50.0, false);
            p.stage(CONTROL_OVERHEAD_MBPS, |_, bn| value(1.0, bn));
            let assigned = p.engine_mut().solve()[0];
            p.manifest_into(0, assigned, &mut manifest);
            p.acknowledge(0, manifest.iter().copied());
            let held = p.user(0).ledger.len();
            let sums_before = p.user(0).undelivered.sums().to_vec();
            let mut asked = 0;
            p.prefetch(
                |_| true,
                |_, _| {
                    asked += 1;
                    Some(walk(0, slot as f64 + 9.0))
                },
            );
            assert_eq!(asked, 0, "H = 1 has no future slots to predict");
            assert!(p.prefetched(0).is_empty());
            assert_eq!(p.user(0).ledger.len(), held);
            assert_eq!(p.user(0).undelivered.sums(), &sums_before[..]);
            assert_eq!(p.user(0).prefetcher.outstanding_tiles(), 0);
        }
    }

    #[test]
    fn horizon_four_prefetch_spends_credit_on_future_cells_only() {
        let mut p = planner(4);
        p.join(0);
        p.begin_slot(0, 400.0);
        p.push_user(0, &walk(0, 0.0), 50.0, false);
        p.stage(CONTROL_OVERHEAD_MBPS, |_, bn| value(1.0, bn));
        p.engine_mut().solve();
        let here = p.library().grid().cell_of(&walk(0, 0.0).position);
        p.prefetch(|_| true, |_, h| Some(walk(0, h as f64)));
        let ids = p.prefetched(0).to_vec();
        assert!(!ids.is_empty(), "slack and a walking user must prefetch");
        assert!(ids.iter().all(|id| id.cell() != here));
        assert_eq!(
            p.user(0).ledger.len(),
            0,
            "the planner never charges the ledger"
        );
        // An ineligible user neither predicts nor spends.
        p.prefetch(
            |_| false,
            |_, _| panic!("ineligible users are not predicted"),
        );
        assert!(p.prefetched(0).is_empty());
    }

    #[test]
    fn clamp_budget_is_the_identity_at_horizon_one() {
        // A falling estimate, then a jump back up: at H = 2 the ramp
        // limiter lags the recovery; at H = 1 every value passes through
        // bit for bit.
        let series = [60.0, 48.0, 30.0, 14.0, 6.0, 3.0, 55.0, 57.0];
        let mut myopic = planner(1);
        let mut ahead = planner(2);
        myopic.join(0);
        ahead.join(0);
        let mut ramped = false;
        for raw in series {
            assert_eq!(myopic.clamp_budget(0, raw, None).to_bits(), raw.to_bits());
            assert_eq!(
                myopic.clamp_budget(0, raw, Some(raw / 2.0)).to_bits(),
                raw.to_bits()
            );
            ramped |= ahead.clamp_budget(0, raw, None) < raw;
        }
        assert!(ramped, "H = 2 must ramp on this series");
    }

    #[test]
    fn degrade_state_is_built_from_the_planners_lookahead_config() {
        // A known future minimum at 80 % of the estimate: below a 0.92
        // dip threshold (ramp engages), above the default 0.75 (ignored).
        let run = |degrade: DegradeConfig| {
            let mut p = SlotPlanner::new(
                ContentLibrary::paper_default(),
                LookaheadConfig {
                    degrade,
                    ..LookaheadConfig::for_horizon(4)
                },
                8,
            );
            p.join(0);
            p.clamp_budget(0, 50.0, Some(40.0))
        };
        assert_eq!(run(DegradeConfig::default()), 50.0);
        assert!(run(DegradeConfig::known_future()) < 50.0);
    }

    #[test]
    fn leave_then_join_on_the_same_slot_starts_from_an_empty_ledger() {
        let mut p = planner(4);
        p.join(3);
        p.begin_slot(0, 400.0);
        p.push_user(3, &walk(0, 0.0), 50.0, false);
        p.stage(CONTROL_OVERHEAD_MBPS, |_, bn| value(1.0, bn));
        let assigned = p.engine_mut().solve()[0];
        let mut manifest = Vec::new();
        p.manifest_into(3, assigned, &mut manifest);
        let full = manifest.len();
        p.acknowledge(3, manifest.iter().copied());
        p.prefetch(|_| true, |_, h| Some(walk(0, h as f64)));
        assert!(!p.user(3).ledger.is_empty());
        assert!(p.user(3).prefetcher.outstanding_tiles() > 0);

        p.leave(3);
        p.join(3);
        assert!(p.user(3).ledger.is_empty());
        assert_eq!(p.user(3).prefetcher.outstanding_tiles(), 0);
        assert_eq!(p.user(3).undelivered.cell(), None);
        p.begin_slot(1, 400.0);
        p.push_user(3, &walk(0, 0.0), 50.0, false);
        p.manifest_into(3, assigned, &mut manifest);
        assert_eq!(
            manifest.len(),
            full,
            "nothing is suppressed for the newcomer"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn mask_reads_equal_ledger_probes_under_random_feedback(
            // Per step: a gaze (yaw, pitch) and an x within ±1 cell that may move
            // the FoV target, then ACKs and releases as `(cell dx, tile,
            // quality, ack?)` — cells the user never targeted, untargeted
            // tiles and quality 7 (above the six-level ladder) included, as
            // a hostile client would send them.
            steps in prop::collection::vec(
                (
                    (-180.0f64..180.0, -80.0f64..80.0, -0.07f64..0.07),
                    prop::collection::vec((-1i32..=1, 0u8..4, 1u8..=7, proptest::bool::ANY), 0..10),
                ),
                1..24,
            ),
        ) {
            let mut p = planner(1);
            p.join(0);
            let mut manifest = Vec::new();
            for (slot, ((yaw, pitch, dx), feedback)) in steps.into_iter().enumerate() {
                let pose = Pose::new(Vec3::new(dx, 1.6, 0.2), Orientation::new(yaw, pitch, 0.0));
                p.begin_slot(slot as u64, 400.0);
                // Groupable, so debug builds also run push_user's own
                // fingerprint cross-check.
                p.push_user(0, &pose, 50.0, true);
                let here = p.user(0).undelivered.cell().expect("just targeted");
                for (cell_dx, tile, quality, ack) in feedback {
                    let cell = CellId { x: here.x + cell_dx, z: here.z };
                    let id = VideoId::new(cell, TileId::new(tile), QualityLevel::new(quality));
                    if ack {
                        p.acknowledge(0, [id]);
                    } else {
                        p.release(0, [id]);
                    }
                    let u = p.user(0);
                    u.undelivered.assert_matches_ledger(&u.ledger);
                    prop_assert_eq!(
                        undelivered_fingerprint(&u.undelivered),
                        cvr_mcast::content_fingerprint(
                            here,
                            u.undelivered.tiles(),
                            u.undelivered.sums(),
                            &u.ledger,
                        )
                    );
                    for l in 1..=p.levels as u8 {
                        let q = QualityLevel::new(l);
                        p.manifest_into(0, q, &mut manifest);
                        let probed: Vec<VideoId> = u
                            .undelivered
                            .tiles()
                            .iter()
                            .map(|&t| VideoId::new(here, t, q))
                            .filter(|id| !u.ledger.is_delivered(id))
                            .collect();
                        prop_assert_eq!(&manifest, &probed);
                    }
                }
            }
        }
    }

    #[test]
    fn groupable_users_with_equal_state_share_one_row() {
        let mut p = planner(1);
        for u in 0..3 {
            p.join(u);
        }
        let gaze = Pose::new(Vec3::new(0.4, 1.6, -0.3), Orientation::new(10.0, 5.0, 0.0));
        p.begin_slot(0, 400.0);
        p.push_user(0, &gaze, 30.0, true);
        p.push_user(1, &gaze, 40.0, false);
        p.push_user(2, &gaze, 50.0, true);
        p.stage(CONTROL_OVERHEAD_MBPS, |_, bn| value(1.0, bn));
        p.engine_mut().solve();
        assert_eq!(p.rows(), 2);
        assert_eq!(p.multicast_groups(), 1);
        assert_eq!(p.row(0).members, &[0, 2]);
        assert!(p.row(0).group_id.is_some());
        assert_eq!(p.row(1).members, &[1]);
        assert_eq!(p.row(1).group_id, None);
    }
}
