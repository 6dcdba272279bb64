//! Scaling benchmark for the sharded parallel experiment runner: sweeps
//! thread counts over both testbed setups and checks that every thread
//! count reproduces the 1-thread results bit for bit (`BENCH_parallel.json`).
//!
//! Each "session" is one independent full-system simulation (a simulated
//! multi-user CVR classroom) with its seed derived from
//! `(base_seed, run_id)`, so the work list is identical no matter how it
//! is scheduled across workers.

use std::time::Instant;

use cvr_bench::json::Json;
use cvr_bench::{Cell, FigureArgs, Table};
use cvr_sim::allocators::AllocatorKind;
use cvr_sim::parallel::{self, RunSpec};
use cvr_sim::system::{self, SystemConfig, SystemRunResult};

// The paper-scale sweep. The gate judges the speedup floors only on a
// document at least this large.
/// Sessions per setup.
pub const PAPER_SESSIONS: usize = 16;
/// Simulated seconds per session.
pub const PAPER_DURATION_S: f64 = 6.0;

fn run_sessions(
    base: &SystemConfig,
    specs: &[RunSpec],
    threads: usize,
) -> (Vec<SystemRunResult>, f64) {
    let start = Instant::now();
    let results = parallel::parallel_map(specs, threads, |spec| {
        let config = SystemConfig {
            seed: spec.seed,
            ..base.clone()
        };
        system::run(&config, AllocatorKind::DensityValueGreedy)
    });
    (results, start.elapsed().as_secs_f64())
}

/// Runs the sweep and returns the `BENCH_parallel.json` document.
///
/// # Panics
///
/// Panics if any thread count diverges from the 1-thread baseline.
pub fn scale(args: &FigureArgs) -> Json {
    let sessions = args.runs_or(PAPER_SESSIONS).max(2);
    let duration = args.duration_or(PAPER_DURATION_S);
    let available = parallel::available_threads();
    // On a single-core host a multi-thread wall-clock comparison measures
    // scheduler overhead, not parallel scaling: keep the determinism
    // sweep but make no speedup/efficiency claims.
    let single_core = available < 2;

    let mut thread_counts = vec![1usize, 2, 4, available];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    println!(
        "# Parallel runner scaling — {sessions} sessions × {duration:.1} s, \
         threads {thread_counts:?} (available parallelism: {available})\n"
    );

    let mut entries: Vec<Json> = Vec::new();
    let mut deterministic = true;
    for (setup, config) in [
        ("setup1", SystemConfig::setup1(args.seed)),
        ("setup2", SystemConfig::setup2(args.seed)),
    ] {
        let base = SystemConfig {
            duration_s: duration,
            ..config
        };
        let specs = parallel::run_specs(args.seed, sessions);

        // Warm up allocators/caches so the 1-thread baseline isn't charged
        // for first-touch costs the parallel runs don't pay.
        let _ = run_sessions(&base, &specs[..1], 1);

        let (baseline, baseline_wall) = run_sessions(&base, &specs, 1);
        let mut table = Table::begin(&[
            ("setup", "setup"),
            ("", "sessions"),
            ("threads", "threads"),
            ("wall s", "wall_s"),
            ("sess/s", "sessions_per_sec"),
            ("speedup", "speedup"),
            ("eff", "efficiency"),
            ("identical", "identical"),
        ]);
        for &threads in &thread_counts {
            let (results, wall_s) = if threads == 1 {
                (baseline.clone(), baseline_wall)
            } else {
                run_sessions(&base, &specs, threads)
            };
            let identical = results == baseline;
            deterministic &= identical;
            let speedup = baseline_wall / wall_s;
            let claim = |x: f64| if single_core { Cell::Missing } else { x.into() };
            table.row(vec![
                setup.into(),
                sessions.into(),
                threads.into(),
                wall_s.into(),
                (sessions as f64 / wall_s).into(),
                claim(speedup),
                claim(speedup / threads as f64),
                identical.into(),
            ]);
        }
        println!();
        entries.extend(table.json_rows());
    }

    assert!(
        deterministic,
        "parallel execution diverged from the 1-thread baseline"
    );
    println!("all thread counts bit-identical to the 1-thread baseline: true");
    if single_core {
        println!(
            "skipped thread-sweep speedup/efficiency claims: available \
             parallelism is {available} (determinism still checked)"
        );
    }

    let notes: Vec<Json> = if single_core {
        vec!["skipped_thread_sweep".into()]
    } else {
        Vec::new()
    };
    Json::object([
        ("bench", "parallel_scale".into()),
        ("available_parallelism", available.into()),
        ("sessions", sessions.into()),
        ("duration_s", duration.into()),
        ("deterministic", deterministic.into()),
        ("notes", notes.into()),
        ("entries", entries.into()),
    ])
}
