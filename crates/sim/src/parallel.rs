//! Parallel experiment runner: [`parallel_map`] fans independent runs
//! out over `std::thread::scope` workers and returns their results in run
//! order.
//!
//! Workers claim runs from a shared work queue with one atomic counter,
//! accumulate `(run_id, result)` pairs into a worker-local `Vec` (no
//! locks, no shared slots), and the join scatters them back into run
//! order. The output is identical for any thread count or scheduling
//! because each run is an independent function of its [`RunSpec`] and the
//! output order is the spec order; callers aggregate by folding that
//! output sequentially, so summation order is fixed too.
//!
//! Per-run RNG seeds come from [`derive_seed`], a SplitMix64 finalizer
//! over `(base_seed, run_id)`: runs are decorrelated, and the seed for run
//! `k` never depends on which worker executes it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// One unit of schedulable work: an independent run (a simulated session
/// or a Monte-Carlo repetition) with its pre-derived RNG seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Index of the run in `0..runs` — also the output position.
    pub run_id: u64,
    /// RNG seed for the run, derived via [`derive_seed`].
    pub seed: u64,
}

/// Derives the RNG seed for `run_id` from the experiment's `base_seed`
/// with a SplitMix64 finalizer, so per-run streams are decorrelated and
/// independent of thread count and scheduling.
///
/// # Examples
///
/// ```
/// use cvr_sim::parallel::derive_seed;
/// assert_ne!(derive_seed(2022, 0), derive_seed(2022, 1));
/// assert_eq!(derive_seed(2022, 7), derive_seed(2022, 7));
/// ```
pub fn derive_seed(base_seed: u64, run_id: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(run_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the [`RunSpec`] work list for `runs` independent runs.
pub fn run_specs(base_seed: u64, runs: usize) -> Vec<RunSpec> {
    (0..runs as u64)
        .map(|run_id| RunSpec {
            run_id,
            seed: derive_seed(base_seed, run_id),
        })
        .collect()
}

/// Number of hardware threads available to the process (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Resolves a `--threads N` request: `None` or `Some(0)` means "use the
/// available parallelism".
pub fn resolve_threads(requested: Option<usize>) -> usize {
    match requested {
        None | Some(0) => available_threads(),
        Some(t) => t,
    }
}

/// Maps `f` over the specs with up to `threads` scoped workers pulling
/// from a shared atomic work queue, returning results in spec order.
///
/// Each worker accumulates `(index, result)` pairs locally — no locks on
/// the hot path — and the results are scattered into order at join time,
/// so the output is independent of scheduling and thread count.
pub fn parallel_map<R, F>(specs: &[RunSpec], threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&RunSpec) -> R + Sync,
{
    let n = specs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, n);
    if workers == 1 {
        return specs.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut batches: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        local.push((idx, f(&specs[idx])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for batch in batches.drain(..) {
        for (idx, value) in batch {
            debug_assert!(out[idx].is_none(), "run {idx} computed twice");
            out[idx] = Some(value);
        }
    }
    out.into_iter()
        .map(|v| v.expect("all runs computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn assert_send<T: Send>() {}

    #[test]
    fn run_path_types_are_send() {
        // The parallel runner moves one simulator state-set per worker;
        // everything on the run path must be Send.
        assert_send::<crate::tracesim::TraceSimConfig>();
        assert_send::<crate::system::SystemConfig>();
        assert_send::<crate::tracesim::RunResult>();
        assert_send::<crate::system::SystemRunResult>();
        assert_send::<Box<dyn cvr_core::alloc::Allocator + Send>>();
        assert_send::<cvr_core::engine::SlotEngine>();
        assert_send::<crate::metrics::MetricDistributions>();
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = run_specs(2022, 64);
        let b = run_specs(2022, 64);
        assert_eq!(a, b);
        let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64, "seed collision within an experiment");
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn parallel_map_preserves_order_at_every_thread_count() {
        let specs = run_specs(7, 37);
        let serial: Vec<u64> = parallel_map(&specs, 1, |s| s.seed ^ s.run_id);
        for threads in [2, 3, 4, 8, 64] {
            let parallel: Vec<u64> = parallel_map(&specs, threads, |s| s.seed ^ s.run_id);
            assert_eq!(parallel, serial, "{threads} threads diverged");
        }
        assert!(parallel_map(&[], 4, |s: &RunSpec| s.seed).is_empty());
    }

    #[test]
    fn resolve_threads_defaults_to_available() {
        assert_eq!(resolve_threads(None), available_threads());
        assert_eq!(resolve_threads(Some(0)), available_threads());
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(available_threads() >= 1);
    }
}
