//! Allocator registry for the experiments: the paper's algorithm, the two
//! baselines, the pure-greedy ablations, and the exact per-slot optimum
//! used as the "offline optimal" comparator of Fig. 2.

use cvr_core::alloc::{Allocator, DensityGreedy, DensityValueGreedy, ValueGreedy};
use cvr_core::baselines::{FireflyLru, Pavq};
use cvr_core::engine::SlotEngine;
use cvr_core::error::AllocError;
use cvr_core::offline::exact_slot_optimum;
use cvr_core::quality::QualityLevel;

/// How the per-slot objective handed to the allocator is assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectiveMode {
    /// The paper's full `h_n` with the rate-dependent delay term.
    DelayAware,
    /// The modified-PAVQ reading: delay folded into a rate-independent
    /// constant, so decisions are made delay-blind.
    DelayBlind,
    /// The Section VIII extension: on top of the delay term, the quality
    /// term is weighted by the estimated probability that a transfer of
    /// that size survives packet loss. A simulator without packet loss
    /// reads it as [`ObjectiveMode::DelayAware`].
    LossAware,
}

/// The algorithms the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// The paper's Algorithm 1 (density/value-greedy).
    DensityValueGreedy,
    /// Pure density-greedy pass (ablation).
    DensityGreedy,
    /// Pure value-greedy pass (ablation).
    ValueGreedy,
    /// Firefly's LRU adaptive quality control.
    Firefly,
    /// Modified PAVQ (dual-price stochastic approximation).
    Pavq,
    /// Exact per-slot optimum — the offline-optimal comparator (small N
    /// only).
    Optimal,
    /// The Section VIII extension: Algorithm 1 driven by a loss-aware
    /// objective (quality term weighted by the estimated transfer-survival
    /// probability). Only meaningful in the full-system simulator, which
    /// models per-packet loss; in the lossless trace simulation it is
    /// identical to [`AllocatorKind::DensityValueGreedy`].
    LossAwareGreedy,
}

impl AllocatorKind {
    /// The comparison set of the paper's figures: ours, Firefly, PAVQ
    /// (+ optimal when `with_optimal`).
    pub fn paper_set(with_optimal: bool) -> Vec<AllocatorKind> {
        let mut v = vec![
            AllocatorKind::DensityValueGreedy,
            AllocatorKind::Firefly,
            AllocatorKind::Pavq,
        ];
        if with_optimal {
            v.push(AllocatorKind::Optimal);
        }
        v
    }

    /// Instantiates a fresh allocator.
    pub fn build(self) -> Box<dyn Allocator + Send> {
        match self {
            AllocatorKind::DensityValueGreedy => Box::new(DensityValueGreedy::new()),
            AllocatorKind::DensityGreedy => Box::new(DensityGreedy::new()),
            AllocatorKind::ValueGreedy => Box::new(ValueGreedy::new()),
            AllocatorKind::Firefly => Box::new(FireflyLru::new()),
            AllocatorKind::Pavq => Box::new(Pavq::new()),
            AllocatorKind::Optimal => Box::new(OptimalSlotAllocator::new()),
            AllocatorKind::LossAwareGreedy => Box::new(DensityValueGreedy::new()),
        }
    }

    /// The objective the algorithm decides by. The paper's "modified PAVQ"
    /// folds delay into a rate-independent constant (their `μ_i^P`
    /// adjustment), which cannot change an argmax — so PAVQ decides
    /// delay-blind while all QoE *accounting* still charges the real delay.
    pub fn objective(self) -> ObjectiveMode {
        match self {
            AllocatorKind::Pavq => ObjectiveMode::DelayBlind,
            AllocatorKind::LossAwareGreedy => ObjectiveMode::LossAware,
            _ => ObjectiveMode::DelayAware,
        }
    }

    /// Stable display label used in reports and figure output.
    pub fn label(self) -> &'static str {
        match self {
            AllocatorKind::DensityValueGreedy => "ours",
            AllocatorKind::DensityGreedy => "density-only",
            AllocatorKind::ValueGreedy => "value-only",
            AllocatorKind::Firefly => "firefly",
            AllocatorKind::Pavq => "pavq",
            AllocatorKind::Optimal => "optimal",
            AllocatorKind::LossAwareGreedy => "ours+loss",
        }
    }
}

impl std::fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// [`Allocator`] adapter over the exact branch-and-bound solver.
///
/// Falls back to Algorithm 1 if the instance exceeds the exact-solver user
/// limit (never happens in the paper-scale experiments that request it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimalSlotAllocator;

impl OptimalSlotAllocator {
    /// Creates the adapter.
    pub fn new() -> Self {
        OptimalSlotAllocator
    }
}

impl Allocator for OptimalSlotAllocator {
    /// # Panics
    ///
    /// Panics if the staged tables fail [`SlotEngine::validate`].
    fn allocate<'e>(&mut self, problem: &'e mut SlotEngine) -> &'e [QualityLevel] {
        match exact_slot_optimum(problem) {
            Ok(solution) => problem.set_assignment(solution.assignment),
            Err(AllocError::TooLarge { .. }) => problem.solve(),
            Err(e) => panic!("staged slot problem must be valid: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_KINDS: [AllocatorKind; 7] = [
        AllocatorKind::DensityValueGreedy,
        AllocatorKind::DensityGreedy,
        AllocatorKind::ValueGreedy,
        AllocatorKind::Firefly,
        AllocatorKind::Pavq,
        AllocatorKind::Optimal,
        AllocatorKind::LossAwareGreedy,
    ];

    fn stage(engine: &mut SlotEngine, users: &[(&[f64], &[f64], f64)], budget: f64) {
        engine.begin_slot(budget);
        for &(rates, values, link) in users {
            let tables = engine.add_user(rates.len(), link);
            tables.rates.copy_from_slice(rates);
            tables.values.copy_from_slice(values);
        }
    }

    fn problem() -> SlotEngine {
        let mut engine = SlotEngine::new();
        stage(
            &mut engine,
            &[
                (&[1.0, 2.0, 4.0], &[0.5, 1.6, 2.0], 4.0),
                (&[1.0, 3.0, 6.0], &[0.3, 1.9, 2.5], 6.0),
            ],
            6.0,
        );
        engine
    }

    #[test]
    fn all_kinds_build_and_allocate_feasibly() {
        let mut p = problem();
        for kind in ALL_KINDS {
            let a = kind.build().allocate(&mut p).to_vec();
            assert!(p.is_feasible(&a), "{kind} produced infeasible assignment");
        }
    }

    #[test]
    fn optimal_dominates_greedy() {
        let mut p = problem();
        let greedy = AllocatorKind::DensityValueGreedy
            .build()
            .allocate(&mut p)
            .to_vec();
        let optimal = AllocatorKind::Optimal.build().allocate(&mut p).to_vec();
        assert!(p.objective(&optimal) >= p.objective(&greedy) - 1e-12);
    }

    #[test]
    fn optimal_falls_back_on_large_instances() {
        let mut p = SlotEngine::new();
        let user: (&[f64], &[f64], f64) = (&[1.0, 2.0], &[0.1, 0.3], 3.0);
        stage(&mut p, &[user; 25], 40.0);
        let a = OptimalSlotAllocator::new().allocate(&mut p).to_vec();
        assert!(p.is_feasible(&a));
    }

    #[test]
    #[should_panic(expected = "staged slot problem must be valid")]
    fn optimal_rejects_malformed_tables() {
        let mut p = SlotEngine::new();
        stage(&mut p, &[(&[1.0, 1.0], &[0.1, 0.3], 3.0)], 40.0);
        OptimalSlotAllocator::new().allocate(&mut p);
    }

    #[test]
    fn paper_set_contents() {
        assert_eq!(AllocatorKind::paper_set(false).len(), 3);
        let with = AllocatorKind::paper_set(true);
        assert_eq!(with.len(), 4);
        assert!(with.contains(&AllocatorKind::Optimal));
    }

    #[test]
    fn each_kind_decides_by_one_objective() {
        use crate::tracesim::{self, TraceSimConfig};

        for kind in ALL_KINDS {
            let expected = match kind {
                AllocatorKind::Pavq => ObjectiveMode::DelayBlind,
                AllocatorKind::LossAwareGreedy => ObjectiveMode::LossAware,
                _ => ObjectiveMode::DelayAware,
            };
            assert_eq!(kind.objective(), expected, "{kind}");
        }
        // The trace links lose no packets: the loss-aware objective is the
        // delay-aware one there.
        let config = TraceSimConfig {
            duration_s: 3.0,
            ..TraceSimConfig::paper_default(3, 5)
        };
        let run = |mode| {
            let mut allocator = AllocatorKind::LossAwareGreedy.build();
            tracesim::run_with(&config, &mut *allocator, "ours+loss", mode)
        };
        assert_eq!(
            run(ObjectiveMode::LossAware),
            run(ObjectiveMode::DelayAware)
        );
    }

    #[test]
    fn labels_are_unique() {
        use std::collections::HashSet;
        let labels: HashSet<&str> = ALL_KINDS.into_iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 7);
        assert_eq!(AllocatorKind::Firefly.to_string(), "firefly");
    }
}
