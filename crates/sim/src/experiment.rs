//! Experiment harnesses: the multi-run sweeps behind each figure, executed
//! on the parallel runner of [`crate::parallel`].
//!
//! Every harness takes an optional thread count (`None` = available
//! parallelism) and is **bit-identical at any thread count**: per-run
//! seeds come from [`parallel::derive_seed`] (never from which worker ran
//! the run), and every harness has one shape — [`parallel::parallel_map`]
//! over the run specs, then one sequential fold of the per-run results in
//! run order, so neither the order observations are appended in nor the
//! floating-point summation order depends on scheduling.

use std::collections::BTreeMap;

use cvr_net::impair::Pathology;

use crate::allocators::AllocatorKind;
use crate::metrics::MetricDistributions;
use crate::parallel;
use crate::system::{self, SystemConfig, SystemRunResult};
use crate::tracesim::{self, RunResult, TraceSimConfig};

/// Figs. 2/3: per-algorithm CDFs of the four metrics across `runs`
/// independent trace-simulation runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceExperimentResult {
    /// Per-algorithm metric distributions, keyed by display label.
    pub per_algorithm: BTreeMap<&'static str, MetricDistributions>,
    /// Mean fractional upper bound across runs (0 unless requested).
    pub mean_fractional_bound: f64,
}

/// Runs the Fig. 2 / Fig. 3 experiment: `runs` independent runs of the
/// trace simulation for every algorithm in `kinds`, sharded over
/// `threads` workers (`None`/`Some(0)` = available parallelism). The
/// per-run results are folded in run order, so the result is
/// bit-identical for every `threads` value.
pub fn trace_experiment(
    base: &TraceSimConfig,
    kinds: &[AllocatorKind],
    runs: usize,
    threads: Option<usize>,
) -> TraceExperimentResult {
    let specs = parallel::run_specs(base.seed, runs);
    let workers = parallel::resolve_threads(threads);
    let results: Vec<Vec<RunResult>> = parallel::parallel_map(&specs, workers, |spec| {
        let config = TraceSimConfig {
            seed: spec.seed,
            ..base.clone()
        };
        kinds.iter().map(|&k| tracesim::run(&config, k)).collect()
    });

    let mut out = TraceExperimentResult::default();
    let mut bounds: Vec<f64> = Vec::new();
    for r in results.iter().flatten() {
        out.per_algorithm
            .entry(r.label)
            .or_default()
            .push_summary(&r.summary);
        if r.mean_fractional_bound != 0.0 {
            bounds.push(r.mean_fractional_bound);
        }
    }
    if !bounds.is_empty() {
        out.mean_fractional_bound = bounds.iter().sum::<f64>() / bounds.len() as f64;
    }
    out
}

/// Figs. 7/8: per-algorithm averages over `repetitions` full-system runs
/// (the paper repeats each experiment five times).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SystemExperimentResult {
    /// Averaged run results per algorithm label.
    pub per_algorithm: BTreeMap<&'static str, SystemAverages>,
}

/// Averages of the full-system metrics across repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SystemAverages {
    /// Mean per-slot QoE.
    pub qoe: f64,
    /// Mean viewed quality.
    pub quality: f64,
    /// Mean delivery delay (slots).
    pub delay: f64,
    /// Mean viewed-quality variance.
    pub variance: f64,
    /// Mean display FPS.
    pub fps: f64,
    /// Mean transfer loss rate.
    pub loss_rate: f64,
    /// Mean bonded-link failovers per run (0 without a scenario).
    pub link_switches: f64,
}

impl SystemAverages {
    fn accumulate(&mut self, r: &SystemRunResult, inv_n: f64) {
        self.qoe += r.summary.avg_qoe * inv_n;
        self.quality += r.summary.avg_quality * inv_n;
        self.delay += r.summary.avg_delay * inv_n;
        self.variance += r.summary.avg_variance * inv_n;
        self.fps += r.fps * inv_n;
        self.loss_rate += r.loss_rate * inv_n;
        self.link_switches += r.link_switches as f64 * inv_n;
    }
}

/// Runs a full-system experiment: every algorithm, `repetitions` seeds,
/// sharded over `threads` workers (`None`/`Some(0)` = available
/// parallelism). The per-run results are computed in parallel and reduced
/// sequentially in repetition order, so averages are bit-identical for
/// every `threads` value.
pub fn system_experiment(
    base: &SystemConfig,
    kinds: &[AllocatorKind],
    repetitions: usize,
    threads: Option<usize>,
) -> SystemExperimentResult {
    let specs = parallel::run_specs(base.seed, repetitions);
    let workers = parallel::resolve_threads(threads);
    let results: Vec<Vec<SystemRunResult>> = parallel::parallel_map(&specs, workers, |spec| {
        let config = SystemConfig {
            seed: spec.seed,
            ..base.clone()
        };
        kinds.iter().map(|&k| system::run(&config, k)).collect()
    });

    let inv_n = 1.0 / repetitions.max(1) as f64;
    let mut out = SystemExperimentResult::default();
    for rep_results in &results {
        for r in rep_results {
            out.per_algorithm
                .entry(r.label)
                .or_default()
                .accumulate(r, inv_n);
        }
    }
    out
}

/// One row of the pathology × algorithm scenario matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// Which correlated impairment (see [`Pathology::label`]).
    pub pathology: Pathology,
    /// Per-algorithm averages under that impairment.
    pub per_algorithm: BTreeMap<&'static str, SystemAverages>,
}

/// The full scenario matrix: every [`Pathology`], every algorithm.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioMatrixResult {
    /// One row per pathology, in [`Pathology::ALL`] order.
    pub rows: Vec<ScenarioRow>,
}

/// Runs the cellular digital-twin scenario matrix: for every pathology in
/// [`Pathology::ALL`], a full [`system_experiment`] with the base config's
/// scenario set to that pathology.
/// Inherits [`system_experiment`]'s bit-identical-at-any-thread-count
/// guarantee row by row.
pub fn scenario_matrix(
    base: &SystemConfig,
    kinds: &[AllocatorKind],
    repetitions: usize,
    threads: Option<usize>,
) -> ScenarioMatrixResult {
    let rows = Pathology::ALL
        .into_iter()
        .map(|pathology| {
            let config = SystemConfig {
                scenario: Some(pathology),
                ..base.clone()
            };
            let result = system_experiment(&config, kinds, repetitions, threads);
            ScenarioRow {
                pathology,
                per_algorithm: result.per_algorithm,
            }
        })
        .collect();
    ScenarioMatrixResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_experiment_collects_all_algorithms() {
        let base = TraceSimConfig {
            duration_s: 3.0,
            ..TraceSimConfig::paper_default(2, 50)
        };
        let kinds = AllocatorKind::paper_set(true);
        let result = trace_experiment(&base, &kinds, 4, None);
        assert_eq!(result.per_algorithm.len(), 4);
        for (label, dists) in &result.per_algorithm {
            assert_eq!(dists.qoe.len(), 4, "{label} missing runs");
        }
    }

    #[test]
    fn trace_experiment_is_bit_identical_across_thread_counts() {
        let base = TraceSimConfig {
            duration_s: 3.0,
            compute_bound: true,
            ..TraceSimConfig::paper_default(2, 61)
        };
        let kinds = [AllocatorKind::DensityValueGreedy, AllocatorKind::Firefly];
        let serial = trace_experiment(&base, &kinds, 6, Some(1));
        for threads in [2, 3, 4, 6, 16] {
            let parallel = trace_experiment(&base, &kinds, 6, Some(threads));
            assert_eq!(parallel, serial, "{threads} threads diverged");
        }
    }

    #[test]
    fn system_experiment_is_bit_identical_across_thread_counts() {
        let base = SystemConfig {
            num_users: 2,
            duration_s: 2.0,
            ..SystemConfig::setup1(77)
        };
        let kinds = [AllocatorKind::DensityValueGreedy];
        let serial = system_experiment(&base, &kinds, 5, Some(1));
        for threads in [2, 4, 5, 8] {
            let parallel = system_experiment(&base, &kinds, 5, Some(threads));
            assert_eq!(parallel, serial, "{threads} threads diverged");
        }
    }

    #[test]
    fn trace_experiment_ordering_matches_paper() {
        // Over a handful of short runs, ours ≥ firefly on mean QoE and the
        // optimal tracks ours from above.
        let base = TraceSimConfig {
            duration_s: 8.0,
            ..TraceSimConfig::paper_default(3, 77)
        };
        let kinds = AllocatorKind::paper_set(true);
        let result = trace_experiment(&base, &kinds, 6, None);
        let mean = |label: &str| result.per_algorithm.get(label).expect("present").qoe.mean();
        assert!(mean("ours") > mean("firefly"));
        assert!(mean("optimal") >= mean("ours") - 0.05 * mean("ours").abs());
    }

    #[test]
    fn scenario_matrix_covers_every_pathology_deterministically() {
        for horizon in [1, 4] {
            let base = SystemConfig {
                num_users: 2,
                duration_s: 2.0,
                horizon,
                ..SystemConfig::setup1(55)
            };
            let kinds = [AllocatorKind::DensityValueGreedy];
            let serial = scenario_matrix(&base, &kinds, 2, Some(1));
            assert_eq!(serial.rows.len(), Pathology::ALL.len());
            for (row, expected) in serial.rows.iter().zip(Pathology::ALL) {
                assert_eq!(row.pathology, expected);
                let ours = row.per_algorithm["ours"];
                assert!(ours.fps > 0.0 && ours.fps <= 60.0);
            }
            let parallel = scenario_matrix(&base, &kinds, 2, Some(4));
            assert_eq!(
                parallel, serial,
                "H = {horizon}: matrix diverged across threads"
            );
        }
    }

    #[test]
    fn system_experiment_averages_repetitions() {
        let base = SystemConfig {
            num_users: 3,
            duration_s: 3.0,
            ..SystemConfig::setup1(9)
        };
        let kinds = [AllocatorKind::DensityValueGreedy, AllocatorKind::Firefly];
        let result = system_experiment(&base, &kinds, 3, None);
        assert_eq!(result.per_algorithm.len(), 2);
        let ours = result.per_algorithm["ours"];
        assert!(ours.fps > 0.0 && ours.fps <= 60.0);
    }
}
