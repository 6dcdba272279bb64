//! The reusable, zero-allocation per-slot solver behind the simulators'
//! hot paths.
//!
//! The simulators solve one [`SlotProblem`]-shaped instance every slot —
//! 3 600 to 20 000 times per run. Building a fresh `Vec<UserSlot>` (two
//! heap allocations per user), validating it, and letting each greedy pass
//! allocate its own heap and level buffers dominates the cost of actually
//! solving these tiny knapsacks. A [`SlotEngine`] is owned for the whole
//! run instead: its flat rate/value tables, candidate heap, and level and
//! assignment buffers are allocated once and reused across slots, so after
//! warm-up a slot is solved without touching the allocator at all.
//!
//! The engine runs the *same* monomorphised greedy-pass code as
//! [`DensityValueGreedy`](crate::alloc::DensityValueGreedy) (via the
//! crate-internal `PassProblem` view), so its assignments are bit-identical
//! to the allocating path — a property pinned by property tests.
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

use std::collections::BinaryHeap;
use std::time::Instant;

use crate::alloc::greedy_internal::{greedy_pass_into, Candidate, PassProblem, Score};
use crate::error::AllocError;
use crate::objective::{SlotProblem, UserSlot};
use crate::quality::QualityLevel;

/// Mutable slices into the engine's staged tables for one user, returned
/// by [`SlotEngine::add_user`] for the caller to fill in place.
#[derive(Debug)]
pub struct UserTables<'a> {
    /// Per-level rates (index 0 = level 1); fill strictly increasing and
    /// positive, exactly as [`UserSlot::rates`] requires.
    pub rates: &'a mut [f64],
    /// Per-level objective values `h_n` (index 0 = level 1).
    pub values: &'a mut [f64],
}

/// Borrowed view of the staged tables, presenting the `PassProblem`
/// interface to the shared greedy pass without aliasing the engine's
/// mutable work buffers.
struct StagedView<'a> {
    offsets: &'a [usize],
    rates: &'a [f64],
    values: &'a [f64],
    link_budgets: &'a [f64],
    server_budget: f64,
}

impl StagedView<'_> {
    fn objective(&self, levels: &[usize]) -> f64 {
        levels
            .iter()
            .enumerate()
            .map(|(u, &l)| self.values[self.offsets[u] + l])
            .sum()
    }
}

impl PassProblem for StagedView<'_> {
    fn num_users(&self) -> usize {
        self.link_budgets.len()
    }

    fn server_budget(&self) -> f64 {
        self.server_budget
    }

    fn rates(&self, user: usize) -> &[f64] {
        &self.rates[self.offsets[user]..self.offsets[user + 1]]
    }

    fn values(&self, user: usize) -> &[f64] {
        &self.values[self.offsets[user]..self.offsets[user + 1]]
    }

    fn link_budget(&self, user: usize) -> f64 {
        self.link_budgets[user]
    }
}

/// A reusable per-slot allocation solver: stage one slot's tables, solve
/// with Algorithm 1 (or a single pass), read the assignment — all without
/// per-slot heap allocation once warm.
#[derive(Debug, Default)]
pub struct SlotEngine {
    server_budget: f64,
    /// Prefix offsets into `rates`/`values`; `offsets.len() == users + 1`.
    offsets: Vec<usize>,
    rates: Vec<f64>,
    values: Vec<f64>,
    link_budgets: Vec<f64>,
    heap: BinaryHeap<Candidate>,
    density_levels: Vec<usize>,
    value_levels: Vec<usize>,
    assignment: Vec<QualityLevel>,
    density_value: f64,
    value_value: f64,
    density_ns: u64,
    value_ns: u64,
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
        self.server_budget = server_budget;
        self.offsets.clear();
        self.offsets.push(0);
        self.rates.clear();
        self.values.clear();
        self.link_budgets.clear();
    }

    /// Appends a user with `levels` quality levels and the given link
    /// budget, returning zero-initialised table slices to fill. The caller
    /// must leave `rates` strictly increasing and positive (as
    /// [`SlotProblem::new`] would require) before solving.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero.
    pub fn add_user(&mut self, levels: usize, link_budget: f64) -> UserTables<'_> {
        assert!(levels > 0, "a user needs at least one quality level");
        let start = self.rates.len();
        let end = start + levels;
        self.rates.resize(end, 0.0);
        self.values.resize(end, 0.0);
        self.offsets.push(end);
        self.link_budgets.push(link_budget);
        UserTables {
            rates: &mut self.rates[start..end],
            values: &mut self.values[start..end],
        }
    }

    /// Appends every user of a slot at once — `levels` quality levels
    /// each, link budgets from `links` — zero-initialising their table
    /// rows without returning per-user slices. The parallel build path
    /// stages all users up front with this, then fills the tables through
    /// disjoint [`SlotEngine::staged_tables_mut`] chunks.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero.
    pub fn add_users(&mut self, levels: usize, links: &[f64]) {
        assert!(levels > 0, "a user needs at least one quality level");
        let start = self.rates.len();
        let end = start + levels * links.len();
        self.rates.resize(end, 0.0);
        self.values.resize(end, 0.0);
        for i in 1..=links.len() {
            self.offsets.push(start + levels * i);
        }
        self.link_budgets.extend_from_slice(links);
    }

    /// Mutable views of the *entire* staged rate and value tables (all
    /// users, concatenated in offset order). Callers split these into
    /// per-user chunks — each user's row occupies
    /// `offsets[u]..offsets[u + 1]` — so disjoint chunks can be filled
    /// from different threads.
    pub fn staged_tables_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.rates, &mut self.values)
    }

    /// Copies an existing validated problem into the engine (convenience
    /// for tests and benchmarks; the simulators fill tables in place).
    pub fn stage_problem(&mut self, problem: &SlotProblem) {
        self.begin_slot(problem.server_budget());
        for user in problem.users() {
            let tables = self.add_user(user.levels(), user.link_budget);
            tables.rates.copy_from_slice(&user.rates);
            tables.values.copy_from_slice(&user.values);
        }
    }

    /// Number of users staged for the current slot.
    pub fn num_users(&self) -> usize {
        self.link_budgets.len()
    }

    /// The staged server budget `B(t)`.
    pub fn server_budget(&self) -> f64 {
        self.server_budget
    }

    /// The staged per-level rates of one user.
    pub fn rates(&self, user: usize) -> &[f64] {
        &self.rates[self.offsets[user]..self.offsets[user + 1]]
    }

    /// The staged per-level objective values of one user.
    pub fn values(&self, user: usize) -> &[f64] {
        &self.values[self.offsets[user]..self.offsets[user + 1]]
    }

    /// The staged link budget of one user.
    pub fn link_budget(&self, user: usize) -> f64 {
        self.link_budgets[user]
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

    /// Stores an externally computed assignment (the fallback path for
    /// allocators without an engine fast path) and returns it borrowed.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length does not match the staged user
    /// count.
    pub fn set_assignment(&mut self, assignment: Vec<QualityLevel>) -> &[QualityLevel] {
        assert_eq!(
            assignment.len(),
            self.num_users(),
            "assignment length mismatch"
        );
        self.assignment = assignment;
        &self.assignment
    }

    /// Materialises the staged slot as a validated [`SlotProblem`]
    /// (allocating), for allocators that do not implement the staged fast
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`SlotProblem::new`], e.g. when a
    /// staged rate table was left non-monotone.
    pub fn to_problem(&self) -> Result<SlotProblem, AllocError> {
        let users: Vec<UserSlot> = (0..self.num_users())
            .map(|u| UserSlot {
                rates: self.rates(u).to_vec(),
                values: self.values(u).to_vec(),
                link_budget: self.link_budgets[u],
            })
            .collect();
        SlotProblem::new(users, self.server_budget)
    }

    #[cfg(debug_assertions)]
    fn debug_validate(&self) {
        assert!(self.num_users() > 0, "no users staged");
        for u in 0..self.num_users() {
            let rates = self.rates(u);
            assert!(
                rates.iter().all(|r| r.is_finite() && *r > 0.0),
                "user {u}: rates must be positive and finite"
            );
            assert!(
                rates.windows(2).all(|w| w[1] > w[0]),
                "user {u}: rates must be strictly increasing"
            );
            assert!(
                self.values(u).iter().all(|v| v.is_finite()),
                "user {u}: values must be finite"
            );
            let link = self.link_budgets[u];
            assert!(
                link.is_finite() && link > 0.0,
                "user {u}: link budget must be positive and finite"
            );
        }
    }

    /// Runs Algorithm 1 (density pass, value pass, keep the better) on the
    /// staged slot, reusing all internal buffers, and returns the chosen
    /// assignment. Identical to
    /// [`DensityValueGreedy::allocate`](crate::alloc::DensityValueGreedy)
    /// on the equivalent [`SlotProblem`].
    ///
    /// Table validity is the caller's contract (checked only in debug
    /// builds); use [`SlotEngine::to_problem`] to validate explicitly.
    ///
    /// # Panics
    ///
    /// Panics if no users are staged.
    pub fn solve(&mut self) -> &[QualityLevel] {
        #[cfg(debug_assertions)]
        self.debug_validate();
        assert!(self.num_users() > 0, "no users staged");

        let view = StagedView {
            offsets: &self.offsets,
            rates: &self.rates,
            values: &self.values,
            link_budgets: &self.link_budgets,
            server_budget: self.server_budget,
        };

        let start = Instant::now();
        greedy_pass_into(
            &view,
            Score::Density,
            &mut self.heap,
            &mut self.density_levels,
        );
        let density_value = view.objective(&self.density_levels);
        self.density_ns = start.elapsed().as_nanos() as u64;

        let start = Instant::now();
        greedy_pass_into(&view, Score::Value, &mut self.heap, &mut self.value_levels);
        let value_value = view.objective(&self.value_levels);
        self.value_ns = start.elapsed().as_nanos() as u64;

        // `max(V_d, V_v)`, density preferred on ties exactly like
        // `GreedyOutcome::best`.
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
        #[cfg(debug_assertions)]
        self.debug_validate();
        assert!(self.num_users() > 0, "no users staged");

        let view = StagedView {
            offsets: &self.offsets,
            rates: &self.rates,
            values: &self.values,
            link_budgets: &self.link_budgets,
            server_budget: self.server_budget,
        };
        let start = Instant::now();
        greedy_pass_into(&view, score, &mut self.heap, &mut self.density_levels);
        let objective = view.objective(&self.density_levels);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{Allocator, DensityGreedy, DensityValueGreedy, ValueGreedy};

    fn problem(users: Vec<UserSlot>, budget: f64) -> SlotProblem {
        SlotProblem::new(users, budget).unwrap()
    }

    fn user(rates: &[f64], values: &[f64], link: f64) -> UserSlot {
        UserSlot {
            rates: rates.to_vec(),
            values: values.to_vec(),
            link_budget: link,
        }
    }

    #[test]
    fn staged_solve_matches_allocator_on_fixed_instances() {
        let problems = [
            problem(
                vec![
                    user(&[1.0, 2.0, 4.0], &[0.5, 1.0, 1.2], 3.0),
                    user(&[1.0, 2.5, 5.0], &[0.4, 1.2, 1.5], 6.0),
                ],
                6.0,
            ),
            problem(vec![user(&[1.0, 2.0], &[0.5, -1.0], 10.0)], 10.0),
            problem(
                vec![
                    user(&[0.5, 1.0], &[0.0, 2.0], 10.0),
                    user(&[0.5, 3.0], &[0.0, 4.0], 10.0),
                    user(&[0.5], &[1.0], 10.0),
                ],
                3.5,
            ),
        ];
        let mut engine = SlotEngine::new();
        for p in &problems {
            engine.stage_problem(p);
            let staged = engine.solve().to_vec();
            assert_eq!(staged, DensityValueGreedy::new().allocate(p));
            engine.stage_problem(p);
            let staged = engine.solve_density().to_vec();
            assert_eq!(staged, DensityGreedy::new().allocate(p));
            engine.stage_problem(p);
            let staged = engine.solve_value().to_vec();
            assert_eq!(staged, ValueGreedy::new().allocate(p));
        }
    }

    #[test]
    fn reuse_across_slots_with_varying_user_counts() {
        let a = problem(
            vec![
                user(&[1.0, 2.0, 4.0], &[0.5, 1.0, 1.2], 3.0),
                user(&[1.0, 2.5, 5.0], &[0.4, 1.2, 1.5], 6.0),
            ],
            6.0,
        );
        let b = problem(
            vec![
                user(&[0.5, 1.5], &[0.0, 2.0], 4.0),
                user(&[0.5, 1.5], &[0.0, 1.5], 4.0),
                user(&[0.5, 1.5], &[0.0, 1.0], 4.0),
                user(&[0.5], &[0.3], 4.0),
            ],
            4.0,
        );
        let mut engine = SlotEngine::new();
        for _ in 0..3 {
            engine.stage_problem(&a);
            assert_eq!(
                engine.solve().to_vec(),
                DensityValueGreedy::new().allocate(&a)
            );
            engine.stage_problem(&b);
            assert_eq!(
                engine.solve().to_vec(),
                DensityValueGreedy::new().allocate(&b)
            );
        }
    }

    #[test]
    fn pass_values_match_greedy_outcome() {
        let p = problem(
            vec![
                user(&[1.0, 2.0, 4.0], &[0.5, 1.0, 1.2], 3.0),
                user(&[1.0, 2.5, 5.0], &[0.4, 1.2, 1.5], 6.0),
            ],
            6.0,
        );
        let outcome = crate::alloc::GreedyOutcome::solve(&p);
        let mut engine = SlotEngine::new();
        engine.stage_problem(&p);
        engine.solve();
        assert_eq!(engine.density_value(), outcome.density_value);
        assert_eq!(engine.value_value(), outcome.value_value);
    }

    #[test]
    fn each_solve_overwrites_the_pass_durations_it_ran() {
        let p = problem(vec![user(&[1.0, 2.0], &[0.5, 1.0], 5.0)], 5.0);
        let mut engine = SlotEngine::new();
        // Sentinels no real pass over one user can take: a duration that
        // accumulated instead of being overwritten would stay above them.
        let stale = u64::MAX / 2;
        let restage = |engine: &mut SlotEngine| {
            engine.density_ns = stale;
            engine.value_ns = stale;
            engine.stage_problem(&p);
        };
        restage(&mut engine);
        engine.solve();
        assert!(engine.density_ns() < stale && engine.value_ns() < stale);
        restage(&mut engine);
        engine.solve_density();
        assert!(engine.density_ns() < stale);
        assert_eq!(engine.value_ns(), stale, "no value pass ran");
        restage(&mut engine);
        engine.solve_value();
        assert!(engine.value_ns() < stale);
        assert_eq!(engine.density_ns(), stale, "no density pass ran");
    }

    #[test]
    fn to_problem_round_trips() {
        let p = problem(
            vec![
                user(&[1.0, 2.0, 4.0], &[0.5, 1.0, 1.2], 3.0),
                user(&[1.0, 2.5], &[0.4, 1.2], 6.0),
            ],
            6.0,
        );
        let mut engine = SlotEngine::new();
        engine.stage_problem(&p);
        assert_eq!(engine.to_problem().unwrap(), p);
        assert_eq!(engine.num_users(), 2);
        assert_eq!(engine.rates(1), &[1.0, 2.5]);
        assert_eq!(engine.values(0), &[0.5, 1.0, 1.2]);
        assert_eq!(engine.link_budget(1), 6.0);
        assert_eq!(engine.server_budget(), 6.0);
    }

    #[test]
    fn fallback_allocators_route_through_to_problem() {
        // An allocator without a staged override exercises the default
        // materialising path and must agree with its allocate().
        struct TopLevel;
        impl Allocator for TopLevel {
            fn allocate(&mut self, problem: &SlotProblem) -> Vec<QualityLevel> {
                problem
                    .users()
                    .iter()
                    .map(|u| u.max_feasible_level())
                    .collect()
            }
            fn name(&self) -> &'static str {
                "top-level"
            }
        }
        let p = problem(
            vec![
                user(&[1.0, 2.0, 4.0], &[0.5, 1.0, 1.2], 3.0),
                user(&[1.0, 2.5, 5.0], &[0.4, 1.2, 1.5], 6.0),
            ],
            100.0,
        );
        let mut engine = SlotEngine::new();
        engine.stage_problem(&p);
        let staged = TopLevel.allocate_staged(&mut engine).to_vec();
        assert_eq!(staged, TopLevel.allocate(&p));
        assert_eq!(engine.assignment(), staged.as_slice());
    }

    #[test]
    fn bulk_staging_matches_per_user_staging() {
        let p = problem(
            vec![
                user(&[1.0, 2.0, 4.0], &[0.5, 1.0, 1.2], 3.0),
                user(&[1.0, 2.5, 5.0], &[0.4, 1.2, 1.5], 6.0),
                user(&[0.5, 1.5, 2.5], &[0.1, 0.9, 1.1], 4.0),
            ],
            6.0,
        );
        let mut reference = SlotEngine::new();
        reference.stage_problem(&p);
        let expected = reference.solve().to_vec();

        let mut engine = SlotEngine::new();
        engine.begin_slot(p.server_budget());
        let links: Vec<f64> = p.users().iter().map(|u| u.link_budget).collect();
        engine.add_users(3, &links);
        assert_eq!(engine.num_users(), 3);
        {
            let (rates, values) = engine.staged_tables_mut();
            for (u, slot) in p.users().iter().enumerate() {
                rates[u * 3..(u + 1) * 3].copy_from_slice(&slot.rates);
                values[u * 3..(u + 1) * 3].copy_from_slice(&slot.values);
            }
        }
        assert_eq!(engine.solve(), expected.as_slice());
        assert_eq!(engine.to_problem().unwrap(), p);
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
}
