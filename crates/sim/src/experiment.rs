//! Experiment harnesses: the multi-run sweeps behind each figure, executed
//! on the sharded parallel runner of [`crate::parallel`].
//!
//! Every harness takes an optional thread count (`None` = available
//! parallelism) and is **bit-identical at any thread count**: per-run
//! seeds come from [`parallel::derive_seed`] (never from which worker ran
//! the run), trace experiments merge per-worker metric distributions with
//! the concatenative [`MetricDistributions::merge`] in run order, and
//! system experiments reduce the ordered per-run results sequentially so
//! floating-point summation order never depends on scheduling.

use std::collections::BTreeMap;

use cvr_obs::Registry;

use cvr_net::impair::Pathology;

use crate::allocators::AllocatorKind;
use crate::metrics::MetricDistributions;
use crate::parallel::{self, RunSpec};
use crate::system::{self, NetScenario, SystemConfig, SystemRunResult};
use crate::tracesim::{self, RunResult, TraceSimConfig};

/// Bucket bounds for the per-run mean-quality histogram, in milli-levels
/// (a 7-level ladder spans 1000..7000).
const QUALITY_MILLI_BOUNDS: [u64; 7] = [1000, 2000, 3000, 4000, 5000, 6000, 7000];

/// Bucket bounds for the per-run mean-delay histogram, in milli-slots.
const DELAY_MILLI_BOUNDS: [u64; 8] = [500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000];

/// Figs. 2/3: per-algorithm CDFs of the four metrics across `runs`
/// independent trace-simulation runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceExperimentResult {
    /// Per-algorithm metric distributions, keyed by display label.
    pub per_algorithm: BTreeMap<&'static str, MetricDistributions>,
    /// Mean fractional upper bound across runs (0 unless requested).
    pub mean_fractional_bound: f64,
    /// The experiment's metrics registry: per-algorithm run counters and
    /// quality/delay histograms. Only deterministic quantities are
    /// registered (never wall-clock timings), and per-worker registries
    /// merge in chunk order, so this field — like the rest of the result —
    /// is bit-identical at every thread count.
    pub registry: Registry,
}

/// Per-worker accumulator for the trace experiment: metric distributions
/// per algorithm plus the per-run fractional bounds (kept as a sequence so
/// the final sum happens in run order, independent of chunking), plus a
/// per-worker `cvr-obs` registry merged in the same chunk order.
#[derive(Default)]
struct TraceAccumulator {
    per_algorithm: BTreeMap<&'static str, MetricDistributions>,
    bounds: Vec<f64>,
    registry: Registry,
}

impl TraceAccumulator {
    fn record(&mut self, base: &TraceSimConfig, kinds: &[AllocatorKind], spec: &RunSpec) {
        let config = TraceSimConfig {
            seed: spec.seed,
            ..base.clone()
        };
        for &kind in kinds {
            let r: RunResult = tracesim::run(&config, kind);
            self.per_algorithm
                .entry(r.label)
                .or_default()
                .push_summary(&r.summary);
            if r.mean_fractional_bound != 0.0 {
                self.bounds.push(r.mean_fractional_bound);
            }
            let labels = format!("algo=\"{}\"", r.label);
            let runs =
                self.registry
                    .counter("cvr_sim_runs_total", &labels, "Simulation runs completed");
            self.registry.inc(runs, 1);
            let quality = self.registry.histogram(
                "cvr_sim_run_quality_milli",
                &labels,
                "Per-run mean viewed quality, milli-levels",
                &QUALITY_MILLI_BOUNDS,
            );
            self.registry
                .observe_f64(quality, r.summary.avg_quality * 1000.0);
            let delay = self.registry.histogram(
                "cvr_sim_run_delay_milli_slots",
                &labels,
                "Per-run mean delivery delay, milli-slots",
                &DELAY_MILLI_BOUNDS,
            );
            self.registry
                .observe_f64(delay, r.summary.avg_delay * 1000.0);
        }
    }

    fn merge(&mut self, other: TraceAccumulator) {
        for (label, dists) in other.per_algorithm {
            self.per_algorithm.entry(label).or_default().merge(&dists);
        }
        self.bounds.extend_from_slice(&other.bounds);
        self.registry.merge(&other.registry);
    }
}

/// Runs the Fig. 2 / Fig. 3 experiment: `runs` independent runs of the
/// trace simulation for every algorithm in `kinds`, sharded over
/// `threads` workers (`None`/`Some(0)` = available parallelism). Results
/// are bit-identical for every `threads` value.
pub fn trace_experiment(
    base: &TraceSimConfig,
    kinds: &[AllocatorKind],
    runs: usize,
    threads: Option<usize>,
) -> TraceExperimentResult {
    let specs = parallel::run_specs(base.seed, runs);
    let workers = parallel::resolve_threads(threads);
    let acc = parallel::map_reduce(
        &specs,
        workers,
        TraceAccumulator::default,
        |acc, spec| acc.record(base, kinds, spec),
        TraceAccumulator::merge,
    );

    let mean_fractional_bound = if acc.bounds.is_empty() {
        0.0
    } else {
        acc.bounds.iter().sum::<f64>() / acc.bounds.len() as f64
    };
    TraceExperimentResult {
        per_algorithm: acc.per_algorithm,
        mean_fractional_bound,
        registry: acc.registry,
    }
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
/// scenario swapped for [`NetScenario::paper_default`] of that pathology.
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
                scenario: Some(NetScenario::paper_default(pathology)),
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

/// One row of the pathology × horizon lookahead matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct LookaheadRow {
    /// Which correlated impairment (see [`Pathology::label`]).
    pub pathology: Pathology,
    /// `(horizon, averages)` per swept horizon, in sweep order, for the
    /// paper's `ours` allocator. Horizon 1 is the myopic baseline: no
    /// lookahead code runs, so its entry must be bit-identical to a run
    /// that never mentions the horizon at all (the `lookahead_bench`
    /// gate asserts exactly that).
    pub per_horizon: Vec<(usize, SystemAverages)>,
}

/// The full lookahead sweep: every [`Pathology`], every swept horizon.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LookaheadMatrixResult {
    /// One row per pathology, in [`Pathology::ALL`] order.
    pub rows: Vec<LookaheadRow>,
}

/// Runs the lookahead horizon sweep: for every pathology in
/// [`Pathology::ALL`] and every horizon in `horizons`, a full
/// [`system_experiment`] of the `ours` allocator with the base config's
/// scenario swapped for that pathology and its horizon set. Inherits
/// [`system_experiment`]'s bit-identical-at-any-thread-count guarantee
/// cell by cell.
pub fn lookahead_matrix(
    base: &SystemConfig,
    horizons: &[usize],
    repetitions: usize,
    threads: Option<usize>,
) -> LookaheadMatrixResult {
    let kinds = [AllocatorKind::DensityValueGreedy];
    let rows = Pathology::ALL
        .into_iter()
        .map(|pathology| {
            let per_horizon = horizons
                .iter()
                .map(|&horizon| {
                    let config = SystemConfig {
                        scenario: Some(NetScenario::paper_default(pathology)),
                        horizon,
                        ..base.clone()
                    };
                    let result = system_experiment(&config, &kinds, repetitions, threads);
                    (horizon, result.per_algorithm["ours"])
                })
                .collect();
            LookaheadRow {
                pathology,
                per_horizon,
            }
        })
        .collect();
    LookaheadMatrixResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_core::objective::QoeParams;

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
        // Metrics are enabled and populated — the equality below therefore
        // also proves the chunk-order registry merge is deterministic.
        assert!(!serial.registry.is_empty());
        match serial.registry.get("cvr_sim_runs_total", "algo=\"ours\"") {
            Some(cvr_obs::registry::Value::Counter(n)) => assert_eq!(*n, 6),
            other => panic!("missing run counter: {other:?}"),
        }
        for threads in [2, 3, 4, 6, 16] {
            let parallel = trace_experiment(&base, &kinds, 6, Some(threads));
            assert_eq!(parallel, serial, "{threads} threads diverged");
            assert_eq!(
                parallel.registry.render(),
                serial.registry.render(),
                "{threads}-thread registry text diverged"
            );
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
        let base = SystemConfig {
            num_users: 2,
            duration_s: 2.0,
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
        assert_eq!(parallel, serial, "scenario matrix diverged across threads");
    }

    #[test]
    fn lookahead_matrix_h1_matches_the_horizonless_config() {
        let base = SystemConfig {
            num_users: 2,
            duration_s: 2.0,
            ..SystemConfig::setup1(63)
        };
        let sweep = lookahead_matrix(&base, &[1, 4], 2, Some(1));
        assert_eq!(sweep.rows.len(), Pathology::ALL.len());
        let myopic = scenario_matrix(&base, &[AllocatorKind::DensityValueGreedy], 2, Some(1));
        for (row, myopic_row) in sweep.rows.iter().zip(&myopic.rows) {
            assert_eq!(row.pathology, myopic_row.pathology);
            // H=1 is structurally the myopic allocator: bit-identical to a
            // run whose config never set the horizon.
            assert_eq!(row.per_horizon[0], (1, myopic_row.per_algorithm["ours"]));
        }
        let parallel = lookahead_matrix(&base, &[1, 4], 2, Some(4));
        assert_eq!(parallel, sweep, "lookahead matrix diverged across threads");
    }

    #[test]
    fn system_experiment_averages_repetitions() {
        let base = SystemConfig {
            num_users: 3,
            duration_s: 3.0,
            params: QoeParams::system_default(),
            ..SystemConfig::setup1(9)
        };
        let kinds = [AllocatorKind::DensityValueGreedy, AllocatorKind::Firefly];
        let result = system_experiment(&base, &kinds, 3, None);
        assert_eq!(result.per_algorithm.len(), 2);
        let ours = result.per_algorithm["ours"];
        assert!(ours.fps > 0.0 && ours.fps <= 60.0);
    }
}
