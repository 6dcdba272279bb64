//! Firefly's Adaptive Quality Control (LRU rate allocation).
//!
//! Firefly (Liu et al., USENIX ATC 2020) serves multiple untethered VR
//! users from one server and, when bandwidth is insufficient for everyone
//! at full quality, allocates rate with a **Least-Recently-Used**
//! discipline: the user who least recently received a high-quality
//! allocation is served first with the best quality its link and the
//! remaining server budget can carry; freshly served users move to the back
//! of the queue.
//!
//! Interpretation notes (the original paper gives the discipline, not
//! pseudocode): we maintain the user queue across slots; each slot, users
//! are visited front-to-back and greedily given the highest feasible level,
//! then every user that received an *upgrade* beyond the baseline moves to
//! the back in service order. The discipline is delay-blind — it fills the
//! pipe to capacity — which is exactly why it trails the QoE-aware
//! algorithms on the delay and variance components in the paper's Figs. 2,
//! 3, 7 and 8.

use crate::alloc::Allocator;
use crate::engine::SlotEngine;
use crate::quality::QualityLevel;

/// The Firefly-style LRU quality controller.
///
/// # Examples
///
/// ```
/// use cvr_core::alloc::Allocator;
/// use cvr_core::baselines::FireflyLru;
/// use cvr_core::engine::SlotEngine;
///
/// let mut engine = SlotEngine::new();
/// engine.begin_slot(4.0);
/// for _ in 0..2 {
///     let user = engine.add_user(2, 4.0);
///     user.rates.copy_from_slice(&[1.0, 3.0]);
///     user.values.copy_from_slice(&[0.5, 1.0]);
/// }
/// let mut firefly = FireflyLru::new();
/// let first = firefly.allocate(&mut engine).to_vec();
/// let second = firefly.allocate(&mut engine).to_vec();
/// // Only one user fits at the high level; LRU alternates who gets it.
/// assert_ne!(first, second);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FireflyLru {
    /// Service order; front = least recently served with high quality.
    queue: Vec<usize>,
    /// Fraction of the per-user bandwidth budget the controller fills.
    headroom: f64,
}

impl FireflyLru {
    /// Default bandwidth headroom: the trace-simulation deployment fills
    /// the estimated link completely, as in the paper's Section IV (the
    /// full-system experiments pass a smaller headroom via
    /// [`FireflyLru::with_headroom`] to model decode margin).
    pub const DEFAULT_HEADROOM: f64 = 1.0;

    /// Creates the controller with an empty queue (initialised on first
    /// slot in user-index order) and the default headroom.
    pub fn new() -> Self {
        FireflyLru {
            queue: Vec::new(),
            headroom: Self::DEFAULT_HEADROOM,
        }
    }

    /// Creates the controller with an explicit headroom fraction (1.0 fills
    /// the link completely; smaller values leave margin).
    ///
    /// # Panics
    ///
    /// Panics if `headroom` is not in `(0, 1]`.
    pub fn with_headroom(headroom: f64) -> Self {
        assert!(
            headroom > 0.0 && headroom <= 1.0,
            "headroom must be in (0, 1]"
        );
        FireflyLru {
            queue: Vec::new(),
            headroom,
        }
    }

    /// The configured headroom fraction.
    pub fn headroom(&self) -> f64 {
        self.headroom
    }

    fn ensure_queue(&mut self, n: usize) {
        if self.queue.len() != n {
            self.queue = (0..n).collect();
        }
    }
}

impl Default for FireflyLru {
    fn default() -> Self {
        FireflyLru::new()
    }
}

impl Allocator for FireflyLru {
    /// # Panics
    ///
    /// Panics if the staged tables fail [`SlotEngine::validate`].
    fn allocate<'e>(&mut self, problem: &'e mut SlotEngine) -> &'e [QualityLevel] {
        problem
            .validate()
            .expect("staged slot problem must be valid");
        let n = problem.num_users();
        self.ensure_queue(n);

        let mut levels = vec![0usize; n];
        let mut remaining = problem.server_budget();

        // Everyone gets the mandatory baseline first.
        for u in 0..n {
            remaining -= problem.rates(u)[0];
        }

        let mut upgraded = Vec::new();
        let mut kept = Vec::new();
        for &user in &self.queue {
            let rates = problem.rates(user);
            let link_budget = problem.link_budget(user);
            // Highest level whose rate fits the link and the leftover server
            // budget (relative to the already-charged baseline rate).
            let mut chosen = 0usize;
            for (i, &r) in rates.iter().enumerate().skip(1) {
                if r <= self.headroom * link_budget && (r - rates[0]) <= remaining + 1e-12 {
                    chosen = i;
                }
            }
            levels[user] = chosen;
            if chosen > 0 {
                remaining -= rates[chosen] - rates[0];
                upgraded.push(user);
            } else {
                kept.push(user);
            }
        }

        // Users that got upgrades were "recently used": move to the back.
        self.queue.clear();
        self.queue.extend(kept);
        self.queue.extend(upgraded);

        problem.set_assignment(levels.iter().map(|&i| QualityLevel::new((i + 1) as u8)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::staged;

    type User = (&'static [f64], &'static [f64], f64);

    const TWO_USERS: [User; 2] = [
        (&[1.0, 3.0], &[0.5, 1.0], 5.0),
        (&[1.0, 3.0], &[0.5, 1.0], 5.0),
    ];

    fn allocate(ff: &mut FireflyLru, users: &[User], budget: f64) -> Vec<QualityLevel> {
        let mut p = staged(users, budget);
        let a = ff.allocate(&mut p).to_vec();
        assert!(p.is_feasible(&a));
        a
    }

    #[test]
    fn fills_to_capacity_when_budget_allows() {
        let a = allocate(&mut FireflyLru::new(), &TWO_USERS, 10.0);
        assert!(a.iter().all(|q| q.get() == 2));
    }

    #[test]
    fn rotates_priority_under_scarcity() {
        // Budget fits exactly one upgrade (2 baseline + 2 extra = 4).
        let mut ff = FireflyLru::new();
        let a1 = allocate(&mut ff, &TWO_USERS, 4.0);
        let a2 = allocate(&mut ff, &TWO_USERS, 4.0);
        let a3 = allocate(&mut ff, &TWO_USERS, 4.0);
        // Exactly one user upgraded per slot.
        for a in [&a1, &a2, &a3] {
            assert_eq!(a.iter().filter(|q| q.get() == 2).count(), 1);
        }
        // The upgraded user alternates (LRU).
        assert_ne!(a1, a2);
        assert_eq!(a1, a3);
    }

    #[test]
    fn respects_link_budget() {
        let a = allocate(
            &mut FireflyLru::new(),
            &[(&[1.0, 3.0, 9.0], &[0.0, 0.0, 0.0], 4.0)],
            100.0,
        );
        assert_eq!(a[0].get(), 2); // level 3 needs 9 > 4 link
    }

    #[test]
    fn delay_blind_ignores_values() {
        // Negative values do not deter Firefly: it still maxes quality.
        let a = allocate(
            &mut FireflyLru::new(),
            &[(&[1.0, 2.0], &[0.0, -100.0], 5.0)],
            10.0,
        );
        assert_eq!(a[0].get(), 2);
    }

    #[test]
    fn headroom_limits_aggressiveness() {
        // Link 5, rates [1, 4.5]: with the default full headroom level 2
        // fits (4.5 ≤ 5); with 0.85 headroom it does not (4.5 > 4.25).
        let one: [User; 1] = [(&[1.0, 4.5], &[0.0, 0.0], 5.0)];
        assert_eq!(allocate(&mut FireflyLru::new(), &one, 100.0)[0].get(), 2);
        let mut cautious = FireflyLru::with_headroom(0.85);
        assert_eq!(allocate(&mut cautious, &one, 100.0)[0].get(), 1);
        assert_eq!(FireflyLru::new().headroom(), FireflyLru::DEFAULT_HEADROOM);
        assert_eq!(FireflyLru::DEFAULT_HEADROOM, 1.0);
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn bad_headroom_panics() {
        let _ = FireflyLru::with_headroom(0.0);
    }

    #[test]
    #[should_panic(expected = "staged slot problem must be valid")]
    fn malformed_tables_panic() {
        allocate(
            &mut FireflyLru::new(),
            &[(&[3.0, 1.0], &[0.0, 0.0], 5.0)],
            10.0,
        );
    }

    #[test]
    fn queue_reinitialises_when_user_count_changes() {
        let mut ff = FireflyLru::new();
        allocate(&mut ff, &TWO_USERS, 4.0);
        // Different population: must not panic, must return right length.
        let one: User = (&[1.0], &[0.0], 1.0);
        let a = allocate(&mut ff, &[one; 3], 10.0);
        assert_eq!(a.len(), 3);
    }
}
