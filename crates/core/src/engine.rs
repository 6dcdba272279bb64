//! The per-slot problem (5)–(7) and its reusable, zero-allocation solver.
//!
//! Every slot loop stages one instance every slot — 3 600 to 20 000 times
//! per run. A [`SlotEngine`] is owned for the whole run: its flat
//! rate/value tables, candidate heap, and level and assignment buffers are
//! allocated once and reused across slots, so after warm-up a slot is
//! staged and solved without touching the allocator at all. The staged
//! tables *are* the slot problem: every allocator, the exact oracles of
//! [`crate::offline`] and the fractional bound read them where they lie.
//!
//! [`SlotEngine::solve`] is Algorithm 1: both greedy passes start from the
//! all-ones baseline and repeatedly upgrade one user by one level —
//!
//! * the **density** pass picks the user with the largest marginal QoE per
//!   marginal rate, `η_n = (h_n(q+1) − h_n(q)) / (f^R(q+1) − f^R(q))`;
//! * the **value** pass picks the largest marginal QoE,
//!   `v_n = h_n(q+1) − h_n(q)`.
//!
//! A pass stops when the best marginal is negative; an upgrade that busts
//! the user's link budget or the server budget is rolled back and the user
//! is retired (`quality_verification` in the paper's pseudocode). The
//! better pass wins and achieves at least half the per-slot optimum
//! (Theorem 1). When the server budget (6) cannot bind, the pass separates
//! into N independent climbs and runs in `O(N·L)`; otherwise it keeps one
//! heap entry per active user (a user's marginal only changes when that
//! user is upgraded) and runs in `O(N·L·log N)`. Both give the same levels
//! (DESIGN §5.1); [`SlotEngine::budget_contended`] says which one ran.
//!
//! The engine times its own density and value passes and keeps only the
//! last solve's two durations ([`SlotEngine::density_ns`],
//! [`SlotEngine::value_ns`]); whoever wants a record over slots (the live
//! server's stage histograms) reads them after each solve.
//!
//! ```
//! use cvr_core::engine::SlotEngine;
//!
//! let mut engine = SlotEngine::new();
//! engine.begin_slot(4.0);
//! let tables = engine.add_user(3, 4.0);
//! tables.rates.copy_from_slice(&[1.0, 2.0, 4.0]);
//! tables.values.copy_from_slice(&[1.0, 1.8, 2.2]);
//! let assignment = engine.solve();
//! assert_eq!(assignment[0].get(), 3);
//! ```

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::time::Instant;

use crate::error::AllocError;
use crate::objective::RATE_EPS;
use crate::quality::QualityLevel;

/// Mutable slices into the engine's staged tables for one user, returned
/// by [`SlotEngine::add_user`] for the caller to fill in place.
#[derive(Debug)]
pub struct UserTables<'a> {
    /// Per-level rates (index 0 = level 1); fill strictly increasing and
    /// positive, as [`SlotEngine::validate`] requires.
    pub rates: &'a mut [f64],
    /// Per-level objective values `h_n` (index 0 = level 1).
    pub values: &'a mut [f64],
}

/// Which marginal a greedy pass ranks users by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Score {
    Density,
    Value,
}

/// Heap entry: marginal score for upgrading `user` from its current level.
/// Ordered by score descending, then by user index ascending so ties match
/// the paper's first-index `argmax`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    score: f64,
    user: usize,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.user.cmp(&self.user))
    }
}

/// The staged tables, kept apart from the solver's work buffers so a pass
/// can read one while writing the other.
#[derive(Debug, Default)]
struct Tables {
    server_budget: f64,
    /// Prefix offsets into `rates`/`values`; `offsets.len() == users + 1`.
    offsets: Vec<usize>,
    rates: Vec<f64>,
    values: Vec<f64>,
    link_budgets: Vec<f64>,
}

impl Tables {
    fn rates(&self, user: usize) -> &[f64] {
        &self.rates[self.offsets[user]..self.offsets[user + 1]]
    }

    fn values(&self, user: usize) -> &[f64] {
        &self.values[self.offsets[user]..self.offsets[user + 1]]
    }

    /// `Σ_n h_n` over 0-based level indices.
    fn objective(&self, levels: &[usize]) -> f64 {
        levels
            .iter()
            .enumerate()
            .map(|(u, &l)| self.values[self.offsets[u] + l])
            .sum()
    }

    fn marginal(&self, user: usize, level_idx: usize, score: Score) -> Option<f64> {
        let values = self.values(user);
        if level_idx + 1 >= values.len() {
            return None;
        }
        let dv = values[level_idx + 1] - values[level_idx];
        match score {
            Score::Value => Some(dv),
            Score::Density => {
                let rates = self.rates(user);
                let dr = rates[level_idx + 1] - rates[level_idx];
                // Rates are validated strictly increasing, so dr > 0.
                Some(dv / dr)
            }
        }
    }

    /// Runs one greedy pass into caller-owned buffers (0-based level
    /// indices in `levels`); returns whether the heap pass ran, i.e. the
    /// server budget (6) could bind.
    fn greedy_pass(&self, score: Score, work: &mut PassScratch, levels: &mut Vec<usize>) -> bool {
        if self.climb(score, levels) {
            #[cfg(debug_assertions)]
            {
                self.heap_pass(score, &mut work.heap, &mut work.shadow);
                assert_eq!(*levels, work.shadow, "climb vs heap pass");
            }
            return false;
        }
        self.heap_pass(score, &mut work.heap, levels);
        true
    }

    /// Answers the pass when (6) cannot bind: each user climbs its own row
    /// while its marginal is not negative and the next level fits its link
    /// budget (7). Returns `false`, leaving `levels` unspecified, on a NaN
    /// marginal or once the climbed total comes within a `1e-9` relative
    /// margin of the server budget; partial totals only grow, so it stops
    /// there. DESIGN §5.1 shows why an answer equals [`Tables::heap_pass`]'s.
    fn climb(&self, score: Score, levels: &mut Vec<usize>) -> bool {
        let limit = self.server_budget + RATE_EPS;
        let mut total = 0.0;
        levels.clear();
        for user in 0..self.link_budgets.len() {
            let rates = self.rates(user);
            let link = self.link_budgets[user] + RATE_EPS;
            let mut level = 0;
            while let Some(s) = self.marginal(user, level, score) {
                if s.is_nan() {
                    return false;
                }
                if s < 0.0 || rates[level + 1] > link {
                    break;
                }
                level += 1;
            }
            total += rates[level];
            if total * (1.0 + 1e-9) > limit {
                return false;
            }
            levels.push(level);
        }
        true
    }

    /// The pass with (6) in play: a max-heap of one candidate per active
    /// user. An upgrade rewrites the top entry in place and `PeekMut` sifts
    /// it down once; a retired or top-level user is popped.
    fn heap_pass(&self, score: Score, heap: &mut BinaryHeap<Candidate>, levels: &mut Vec<usize>) {
        let n = self.link_budgets.len();
        levels.clear();
        levels.resize(n, 0);
        let mut total_rate: f64 = (0..n).map(|u| self.rates(u)[0]).sum();

        heap.clear();
        for user in 0..n {
            if let Some(s) = self.marginal(user, 0, score) {
                heap.push(Candidate { score: s, user });
            }
        }

        while let Some(mut top) = heap.peek_mut() {
            let Candidate { score: s, user } = *top;
            // Stop the entire pass on a negative best marginal, as in the paper.
            if s < 0.0 {
                break;
            }
            let rates = self.rates(user);
            let cur = levels[user];
            let next = cur + 1;
            let next_rate = rates[next];
            let added = next_rate - rates[cur];

            // quality_verification: reject upgrades that bust either budget
            // and retire the user; otherwise commit.
            if next_rate > self.link_budgets[user] + RATE_EPS
                || total_rate + added > self.server_budget + RATE_EPS
            {
                PeekMut::pop(top); // rolled back (never committed) and retired.
                continue;
            }
            levels[user] = next;
            total_rate += added;

            match self.marginal(user, next, score) {
                Some(s2) => top.score = s2,
                // At the top level the user simply retires, matching the
                // `q_n == L` branch of quality_verification.
                None => {
                    PeekMut::pop(top);
                }
            }
        }
    }
}

/// A greedy pass's reusable work buffers; debug builds re-run the heap
/// pass into `shadow` after every climb that answered.
#[derive(Debug, Default)]
struct PassScratch {
    heap: BinaryHeap<Candidate>,
    #[cfg(debug_assertions)]
    shadow: Vec<usize>,
}

/// One slot's allocation problem (5)–(7) and its solver: stage the tables,
/// solve with Algorithm 1 (or a single pass), read the assignment — all
/// without per-slot heap allocation once warm.
#[derive(Debug, Default)]
pub struct SlotEngine {
    tables: Tables,
    work: PassScratch,
    density_levels: Vec<usize>,
    value_levels: Vec<usize>,
    assignment: Vec<QualityLevel>,
    density_value: f64,
    value_value: f64,
    density_ns: u64,
    value_ns: u64,
    budget_contended: bool,
}

impl SlotEngine {
    /// Creates an empty engine; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        SlotEngine::default()
    }

    /// Starts staging a new slot with the given server budget `B(t)`,
    /// discarding the previous slot's users but keeping every buffer's
    /// capacity.
    pub fn begin_slot(&mut self, server_budget: f64) {
        let t = &mut self.tables;
        t.server_budget = server_budget;
        t.offsets.clear();
        t.offsets.push(0);
        t.rates.clear();
        t.values.clear();
        t.link_budgets.clear();
    }

    /// Appends a user with `levels` quality levels and the given link
    /// budget, returning zero-initialised table slices to fill. The caller
    /// must leave `rates` strictly increasing and positive before solving.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero.
    pub fn add_user(&mut self, levels: usize, link_budget: f64) -> UserTables<'_> {
        assert!(levels > 0, "a user needs at least one quality level");
        let t = &mut self.tables;
        let start = t.rates.len();
        let end = start + levels;
        t.rates.resize(end, 0.0);
        t.values.resize(end, 0.0);
        t.offsets.push(end);
        t.link_budgets.push(link_budget);
        UserTables {
            rates: &mut t.rates[start..end],
            values: &mut t.values[start..end],
        }
    }

    /// Number of users `N` staged for the current slot.
    pub fn num_users(&self) -> usize {
        self.tables.link_budgets.len()
    }

    /// The staged server budget `B(t)`.
    pub fn server_budget(&self) -> f64 {
        self.tables.server_budget
    }

    /// The staged per-level rates of one user.
    pub fn rates(&self, user: usize) -> &[f64] {
        self.tables.rates(user)
    }

    /// The staged per-level objective values of one user.
    pub fn values(&self, user: usize) -> &[f64] {
        self.tables.values(user)
    }

    /// The staged link budget `B_n(t)` of one user.
    pub fn link_budget(&self, user: usize) -> f64 {
        self.tables.link_budgets[user]
    }

    /// Checks the staged tables: at least one user; per user, rates
    /// positive, finite and strictly increasing, values finite, and a
    /// positive finite link budget. (Every row has at least one level and
    /// equal-length rate and value rows by construction.)
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NoUsers`] when nothing is staged and
    /// [`AllocError::MalformedUser`] naming the first malformed user.
    pub fn validate(&self) -> Result<(), AllocError> {
        if self.num_users() == 0 {
            return Err(AllocError::NoUsers);
        }
        for user in 0..self.num_users() {
            let malformed = |reason| Err(AllocError::MalformedUser { user, reason });
            let rates = self.rates(user);
            if rates.iter().any(|r| !r.is_finite() || *r <= 0.0) {
                return malformed("rates must be positive and finite");
            }
            if rates.windows(2).any(|w| w[1] <= w[0]) {
                return malformed("rates must be strictly increasing");
            }
            if self.values(user).iter().any(|v| !v.is_finite()) {
                return malformed("values must be finite");
            }
            let link = self.link_budget(user);
            if !link.is_finite() || link <= 0.0 {
                return malformed("link budget must be positive and finite");
            }
        }
        Ok(())
    }

    /// Total rate consumed by an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` has the wrong length or a level out of range.
    pub fn total_rate(&self, assignment: &[QualityLevel]) -> f64 {
        assert_eq!(
            assignment.len(),
            self.num_users(),
            "assignment length mismatch"
        );
        assignment
            .iter()
            .enumerate()
            .map(|(u, q)| self.rates(u)[q.index()])
            .sum()
    }

    /// Total objective value `Σ h_n(q_n)` of an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` has the wrong length or a level out of range.
    pub fn objective(&self, assignment: &[QualityLevel]) -> f64 {
        assert_eq!(
            assignment.len(),
            self.num_users(),
            "assignment length mismatch"
        );
        assignment
            .iter()
            .enumerate()
            .map(|(u, q)| self.values(u)[q.index()])
            .sum()
    }

    /// Checks constraints (6) and (7) with the shared [`RATE_EPS`] slack.
    /// Levels above 1 must respect both the per-user and server budgets;
    /// the mandatory level-1 baseline is always feasible on the per-user
    /// constraint, matching Algorithm 1, which never rejects the starting
    /// allocation.
    pub fn is_feasible(&self, assignment: &[QualityLevel]) -> bool {
        if assignment.len() != self.num_users() {
            return false;
        }
        for (u, q) in assignment.iter().enumerate() {
            let rates = self.rates(u);
            if q.index() >= rates.len() {
                return false;
            }
            if q.get() > 1 && rates[q.index()] > self.link_budget(u) + RATE_EPS {
                return false;
            }
        }
        self.total_rate(assignment) <= self.server_budget() + RATE_EPS
    }

    /// The all-ones starting assignment of Algorithm 1.
    pub fn baseline_assignment(&self) -> Vec<QualityLevel> {
        vec![QualityLevel::MIN; self.num_users()]
    }

    /// The assignment produced by the most recent solve (empty before the
    /// first).
    pub fn assignment(&self) -> &[QualityLevel] {
        &self.assignment
    }

    /// Objective value `V_d` of the density pass in the most recent
    /// [`SlotEngine::solve`].
    pub fn density_value(&self) -> f64 {
        self.density_value
    }

    /// Objective value `V_v` of the value pass in the most recent
    /// [`SlotEngine::solve`].
    pub fn value_value(&self) -> f64 {
        self.value_value
    }

    /// Wall-clock nanoseconds the density pass (with its objective
    /// evaluation) took in the most recent solve that ran one.
    pub fn density_ns(&self) -> u64 {
        self.density_ns
    }

    /// Wall-clock nanoseconds the value pass (with its objective
    /// evaluation) took in the most recent solve that ran one.
    pub fn value_ns(&self) -> u64 {
        self.value_ns
    }

    /// Whether the most recent solve ran the heap pass in at least one of
    /// its greedy passes, i.e. the server budget (6) could bind; `false`
    /// means every pass was answered by per-user climbs.
    pub fn budget_contended(&self) -> bool {
        self.budget_contended
    }

    /// Stores an assignment computed outside Algorithm 1 (the baselines,
    /// the exact optimum) and returns it borrowed.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length does not match the staged user
    /// count.
    pub fn set_assignment<I>(&mut self, assignment: I) -> &[QualityLevel]
    where
        I: IntoIterator<Item = QualityLevel>,
    {
        self.assignment.clear();
        self.assignment.extend(assignment);
        assert_eq!(
            self.assignment.len(),
            self.num_users(),
            "assignment length mismatch"
        );
        &self.assignment
    }

    /// Panics unless users are staged; debug builds also run
    /// [`SlotEngine::validate`].
    fn check_staged(&self) {
        assert!(self.num_users() > 0, "no users staged");
        #[cfg(debug_assertions)]
        if let Err(e) = self.validate() {
            panic!("invalid staged slot: {e}");
        }
    }

    /// Runs Algorithm 1 (density pass, value pass, keep the better) on the
    /// staged slot, reusing all internal buffers, and returns the chosen
    /// assignment.
    ///
    /// Table validity is the caller's contract (checked only in debug
    /// builds); call [`SlotEngine::validate`] to check explicitly.
    ///
    /// # Panics
    ///
    /// Panics if no users are staged.
    pub fn solve(&mut self) -> &[QualityLevel] {
        self.check_staged();
        let tables = &self.tables;

        let start = Instant::now();
        let density_heap =
            tables.greedy_pass(Score::Density, &mut self.work, &mut self.density_levels);
        let density_value = tables.objective(&self.density_levels);
        let boundary = Instant::now();
        self.density_ns = (boundary - start).as_nanos() as u64;

        let value_heap = tables.greedy_pass(Score::Value, &mut self.work, &mut self.value_levels);
        self.budget_contended = density_heap || value_heap;
        let value_value = tables.objective(&self.value_levels);
        self.value_ns = boundary.elapsed().as_nanos() as u64;

        // `max(V_d, V_v)`, density preferred on ties.
        let chosen = if density_value >= value_value {
            &self.density_levels
        } else {
            &self.value_levels
        };
        self.assignment.clear();
        self.assignment
            .extend(chosen.iter().map(|&l| QualityLevel::new((l + 1) as u8)));
        self.density_value = density_value;
        self.value_value = value_value;
        &self.assignment
    }

    fn solve_single(&mut self, score: Score) -> &[QualityLevel] {
        self.check_staged();
        let tables = &self.tables;
        let start = Instant::now();
        self.budget_contended = tables.greedy_pass(score, &mut self.work, &mut self.density_levels);
        let objective = tables.objective(&self.density_levels);
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        match score {
            Score::Density => {
                self.density_ns = elapsed_ns;
                self.density_value = objective;
            }
            Score::Value => {
                self.value_ns = elapsed_ns;
                self.value_value = objective;
            }
        }
        self.assignment.clear();
        self.assignment.extend(
            self.density_levels
                .iter()
                .map(|&l| QualityLevel::new((l + 1) as u8)),
        );
        &self.assignment
    }

    /// Runs only the density-greedy pass (the
    /// [`DensityGreedy`](crate::alloc::DensityGreedy) ablation), reusing
    /// buffers.
    ///
    /// # Panics
    ///
    /// Panics if no users are staged.
    pub fn solve_density(&mut self) -> &[QualityLevel] {
        self.solve_single(Score::Density)
    }

    /// Runs only the value-greedy pass (the
    /// [`ValueGreedy`](crate::alloc::ValueGreedy) ablation), reusing
    /// buffers.
    ///
    /// # Panics
    ///
    /// Panics if no users are staged.
    pub fn solve_value(&mut self) -> &[QualityLevel] {
        self.solve_single(Score::Value)
    }
}

/// Stages `users` (`(rates, values, link budget)` per user) into a fresh
/// engine with server budget `budget`: the unit tests' instance builder.
#[cfg(test)]
pub(crate) fn staged<R: AsRef<[f64]>>(users: &[(R, R, f64)], budget: f64) -> SlotEngine {
    let mut engine = SlotEngine::new();
    restage(&mut engine, users, budget);
    engine
}

/// [`staged`] into an existing engine.
#[cfg(test)]
pub(crate) fn restage<R: AsRef<[f64]>>(
    engine: &mut SlotEngine,
    users: &[(R, R, f64)],
    budget: f64,
) {
    engine.begin_slot(budget);
    for (rates, values, link) in users {
        let tables = engine.add_user(rates.as_ref().len(), *link);
        tables.rates.copy_from_slice(rates.as_ref());
        tables.values.copy_from_slice(values.as_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TWO_USERS: [(&[f64], &[f64], f64); 2] = [
        (&[1.0, 2.0, 4.0], &[0.5, 1.0, 1.2], 3.0),
        (&[1.0, 2.5, 5.0], &[0.4, 1.2, 1.5], 6.0),
    ];

    #[test]
    fn reuse_across_slots_with_varying_user_counts() {
        let four: [(&[f64], &[f64], f64); 4] = [
            (&[0.5, 1.5], &[0.0, 2.0], 4.0),
            (&[0.5, 1.5], &[0.0, 1.5], 4.0),
            (&[0.5, 1.5], &[0.0, 1.0], 4.0),
            (&[0.5], &[0.3], 4.0),
        ];
        let fresh_two = staged(&TWO_USERS, 6.0).solve().to_vec();
        let fresh_four = staged(&four, 4.0).solve().to_vec();
        let mut engine = SlotEngine::new();
        for _ in 0..3 {
            restage(&mut engine, &TWO_USERS, 6.0);
            assert_eq!(engine.solve(), fresh_two.as_slice());
            restage(&mut engine, &four, 4.0);
            assert_eq!(engine.solve(), fresh_four.as_slice());
        }
    }

    #[test]
    fn pass_values_are_the_objectives_of_the_two_passes() {
        let mut engine = staged(&TWO_USERS, 6.0);
        let density = engine.solve_density().to_vec();
        let value = engine.solve_value().to_vec();
        let best = engine.solve().to_vec();
        assert_eq!(engine.density_value(), engine.objective(&density));
        assert_eq!(engine.value_value(), engine.objective(&value));
        assert_eq!(
            engine.objective(&best),
            engine.density_value().max(engine.value_value())
        );
    }

    #[test]
    fn each_solve_overwrites_the_pass_durations_it_ran() {
        let one: [(&[f64], &[f64], f64); 1] = [(&[1.0, 2.0], &[0.5, 1.0], 5.0)];
        let mut engine = SlotEngine::new();
        // Sentinels no real pass over one user can take: a duration that
        // accumulated instead of being overwritten would stay above them.
        let stale = u64::MAX / 2;
        let restage_stale = |engine: &mut SlotEngine| {
            engine.density_ns = stale;
            engine.value_ns = stale;
            restage(engine, &one, 5.0);
        };
        restage_stale(&mut engine);
        engine.solve();
        assert!(engine.density_ns() < stale && engine.value_ns() < stale);
        restage_stale(&mut engine);
        engine.solve_density();
        assert!(engine.density_ns() < stale);
        assert_eq!(engine.value_ns(), stale, "no value pass ran");
        restage_stale(&mut engine);
        engine.solve_value();
        assert!(engine.value_ns() < stale);
        assert_eq!(engine.density_ns(), stale, "no density pass ran");
    }

    #[test]
    fn staged_tables_read_back() {
        let engine = staged(&TWO_USERS, 6.0);
        assert_eq!(engine.validate(), Ok(()));
        assert_eq!(engine.num_users(), 2);
        assert_eq!(engine.rates(1), &[1.0, 2.5, 5.0]);
        assert_eq!(engine.values(0), &[0.5, 1.0, 1.2]);
        assert_eq!(engine.link_budget(1), 6.0);
        assert_eq!(engine.server_budget(), 6.0);
    }

    #[test]
    fn validation_catches_malformations() {
        let no_users = staged::<&[f64]>(&[], 1.0);
        assert_eq!(no_users.validate(), Err(AllocError::NoUsers));
        let reason = |users: &[(&[f64], &[f64], f64)]| match staged(users, 1.0).validate() {
            Err(AllocError::MalformedUser { user, reason }) => (user, reason),
            other => panic!("expected a malformed user, got {other:?}"),
        };
        let ok: (&[f64], &[f64], f64) = (&[1.0], &[1.0], 1.0);
        assert_eq!(
            reason(&[ok, (&[2.0, 1.0], &[1.0, 2.0], 1.0)]),
            (1, "rates must be strictly increasing")
        );
        assert_eq!(
            reason(&[(&[0.0, 1.0], &[1.0, 2.0], 1.0)]),
            (0, "rates must be positive and finite")
        );
        assert_eq!(
            reason(&[(&[1.0], &[1.0], 0.0)]),
            (0, "link budget must be positive and finite")
        );
        assert_eq!(
            reason(&[(&[1.0], &[f64::NAN], 1.0)]),
            (0, "values must be finite")
        );
    }

    #[test]
    #[should_panic(expected = "invalid staged slot")]
    #[cfg(debug_assertions)]
    fn debug_solve_rejects_malformed_tables() {
        staged(&[(&[2.0, 1.0], &[1.0, 2.0], 5.0)], 10.0).solve();
    }

    #[test]
    fn totals_and_feasibility() {
        let p = staged(&TWO_USERS, 6.0);
        let a = [QualityLevel::new(2), QualityLevel::new(2)];
        assert!((p.total_rate(&a) - 4.5).abs() < 1e-12);
        assert!((p.objective(&a) - 2.2).abs() < 1e-12);
        assert!(p.is_feasible(&a));
        // Violates user 0's link budget (rate 4 > 3).
        assert!(!p.is_feasible(&[QualityLevel::new(3), QualityLevel::new(1)]));
        // Violates the server budget (4 + 5 > 6 — also violates link).
        assert!(!p.is_feasible(&[QualityLevel::new(3), QualityLevel::new(3)]));
        // Wrong length.
        assert!(!p.is_feasible(&[QualityLevel::MIN]));
        assert_eq!(p.baseline_assignment(), vec![QualityLevel::MIN; 2]);
    }

    #[test]
    fn set_assignment_stores_an_external_choice() {
        let mut engine = staged(&TWO_USERS, 6.0);
        let chosen = [QualityLevel::new(2), QualityLevel::MIN];
        assert_eq!(engine.set_assignment(chosen), &chosen);
        assert_eq!(engine.assignment(), &chosen);
    }

    #[test]
    #[should_panic(expected = "assignment length mismatch")]
    fn set_assignment_rejects_a_wrong_length() {
        staged(&TWO_USERS, 6.0).set_assignment([QualityLevel::MIN]);
    }

    #[test]
    #[should_panic(expected = "no users staged")]
    fn solve_without_users_panics() {
        let mut engine = SlotEngine::new();
        engine.begin_slot(10.0);
        engine.solve();
    }

    #[test]
    #[should_panic(expected = "at least one quality level")]
    fn zero_level_user_panics() {
        let mut engine = SlotEngine::new();
        engine.begin_slot(10.0);
        engine.add_user(0, 5.0);
    }

    /// `(climb's answer, greedy_pass, heap_pass)` for one score.
    fn passes(tables: &Tables, score: Score) -> (Option<Vec<usize>>, Vec<usize>, Vec<usize>) {
        let (mut climbed, mut greedy, mut heap) = (Vec::new(), Vec::new(), Vec::new());
        let answered = tables.climb(score, &mut climbed);
        tables.greedy_pass(score, &mut PassScratch::default(), &mut greedy);
        tables.heap_pass(score, &mut BinaryHeap::new(), &mut heap);
        (answered.then_some(climbed), greedy, heap)
    }

    #[test]
    fn a_budget_equal_to_the_climbed_total_goes_to_the_heap() {
        let users: [(&[f64], &[f64], f64); 2] = [
            (&[1.0, 2.0], &[0.0, 1.0], 9.0),
            (&[1.0, 3.0], &[0.0, 1.0], 9.0),
        ];
        let mut engine = staged(&users, 5.0);
        for score in [Score::Density, Score::Value] {
            let (climbed, greedy, heap) = passes(&engine.tables, score);
            assert_eq!((climbed, greedy, heap), (None, vec![1, 1], vec![1, 1]));
        }
        engine.solve();
        assert!(engine.budget_contended());
        restage(&mut engine, &users, 6.0);
        engine.solve();
        assert!(!engine.budget_contended());
    }

    #[test]
    fn a_nan_marginal_goes_to_the_heap() {
        let users: [(&[f64], &[f64], f64); 2] = [
            (&[1.0, 2.0], &[0.0, 1.0], 9.0),
            (&[1.0, 2.0], &[0.0, f64::NAN], 9.0),
        ];
        let tables = staged(&users, 100.0).tables;
        assert!(!tables.climb(Score::Value, &mut Vec::new()));
        assert!(!tables.climb(Score::Density, &mut Vec::new()));
    }

    #[test]
    fn a_baseline_over_budget_keeps_everyone_at_the_lowest_level() {
        let tables = staged(&TWO_USERS, 1.5).tables;
        for score in [Score::Density, Score::Value] {
            assert_eq!(passes(&tables, score), (None, vec![0, 0], vec![0, 0]));
        }
    }

    #[test]
    fn single_level_users_climb_nowhere() {
        let users: [(&[f64], &[f64], f64); 2] = [(&[1.0], &[0.3], 2.0), (&[2.0], &[-0.1], 2.0)];
        let tables = staged(&users, 10.0).tables;
        for score in [Score::Density, Score::Value] {
            assert_eq!(
                passes(&tables, score),
                (Some(vec![0, 0]), vec![0, 0], vec![0, 0])
            );
        }
    }

    #[test]
    fn a_climb_stops_at_the_first_negative_marginal() {
        // Marginals +1, −0.5, +1.5: the later gain is never reached.
        let users: [(&[f64], &[f64], f64); 1] =
            [(&[1.0, 2.0, 3.0, 4.0], &[0.0, 1.0, 0.5, 2.0], 9.0)];
        let tables = staged(&users, 100.0).tables;
        for score in [Score::Density, Score::Value] {
            assert_eq!(passes(&tables, score), (Some(vec![1]), vec![1], vec![1]));
        }
    }

    /// One user's `(rates, values, link budget)`: strictly increasing
    /// rates, and values whose steps may be negative, zero, `−0.0` or
    /// non-monotone; the link budget sits at one of the row's rates
    /// `± RATE_EPS / 2`.
    fn user_row() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, f64)> {
        (
            1usize..=7,
            0.1f64..5.0,
            prop::collection::vec(1e-3f64..5.0, 6),
            prop::collection::vec((0u8..5, -1.0f64..2.0), 7),
            proptest::bool::ANY,
            0usize..7,
            0u8..3,
        )
            .prop_map(|(levels, base, steps, draws, cumulative, at, eps)| {
                let mut rates = vec![base];
                for step in &steps[..levels - 1] {
                    rates.push(rates[rates.len() - 1] + step);
                }
                let raw = draws[..levels].iter().map(|&(pick, v)| match pick {
                    0 => 0.0,
                    1 => -0.0,
                    _ => v,
                });
                // A running sum gives long climbs; raw draws give ties,
                // ±0.0 steps and early negatives.
                let values = if cumulative {
                    raw.scan(0.0, |sum, v| {
                        *sum += v.abs() - 0.2;
                        Some(*sum)
                    })
                    .collect()
                } else {
                    raw.collect()
                };
                let link = rates[at % levels] + (f64::from(eps) - 1.0) * RATE_EPS / 2.0;
                (rates, values, link)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn climb_and_greedy_pass_match_the_heap_pass(
            users in prop::collection::vec(user_row(), 1..=12),
            budget_frac in 0.0f64..=1.0,
        ) {
            let top: f64 = users.iter().map(|(rates, _, _)| rates[rates.len() - 1]).sum();
            let tables = staged(&users, 2.0 * top * budget_frac).tables;
            for score in [Score::Density, Score::Value] {
                let (climbed, greedy, heap) = passes(&tables, score);
                prop_assert_eq!(&greedy, &heap);
                if let Some(climbed) = climbed {
                    prop_assert_eq!(&climbed, &heap);
                }
            }
        }
    }
}
