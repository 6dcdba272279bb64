//! The two impairment-pathology matrices on the full-system simulator
//! (Markov fading, mmWave blockage, inter-RAT handover, RLC bufferbloat,
//! flash-crowd contention). Each runs its matrix once at the requested
//! worker count; with `--csv DIR` each writes a plot-ready CSV. That the
//! matrices do not depend on the worker count is proven outside the
//! artifacts: by `scenario_matrix_covers_every_pathology_deterministically`
//! (1 vs 4 threads at H ∈ {1, 4}) and by the `net-scenarios` CI stage,
//! which byte-diffs both CSVs between a 1-thread and a 4-thread run.

use cvr_bench::json::Json;
use cvr_bench::{Cell, FigureArgs, Table};
use cvr_sim::allocators::AllocatorKind;
use cvr_sim::experiment::{scenario_matrix, SystemAverages};
use cvr_sim::system::SystemConfig;

/// One table row: pathology, the algorithm or horizon, the seven averages.
fn averages_row(pathology: &str, which: Cell, avg: &SystemAverages) -> Vec<Cell> {
    vec![
        pathology.into(),
        which,
        avg.qoe.into(),
        avg.quality.into(),
        avg.delay.into(),
        avg.variance.into(),
        avg.fps.into(),
        avg.loss_rate.into(),
        avg.link_switches.into(),
    ]
}

/// Algorithm 1 against Firefly and PAVQ on every pathology
/// (`BENCH_net.json`, `net_scenarios.csv`).
pub fn net_bench(args: &FigureArgs) -> Json {
    let duration = args.duration_or(20.0);
    let repetitions = args.runs_or(3);
    let base = SystemConfig {
        duration_s: duration,
        ..SystemConfig::setup1(args.seed)
    };
    let kinds = AllocatorKind::paper_set(false);
    println!(
        "# Net-scenario matrix — setup1, {} users, {duration:.1} s, {repetitions} reps\n",
        base.num_users
    );

    let matrix = scenario_matrix(&base, &kinds, repetitions, args.threads);
    let mut table = Table::begin(&[
        ("pathology", "pathology"),
        ("algorithm", "algorithm"),
        ("qoe", "qoe"),
        ("quality", "quality"),
        ("delay", "delay"),
        ("", "variance"),
        ("", "fps"),
        ("loss", "loss_rate"),
        ("switches", "link_switches"),
    ]);
    for row in &matrix.rows {
        for (name, avg) in &row.per_algorithm {
            table.row(averages_row(row.pathology.label(), (*name).into(), avg));
        }
    }

    if let Some(dir) = &args.csv_dir {
        table.write_csv(dir, "net_scenarios.csv");
    }
    Json::object([
        ("bench", "net_scenarios".into()),
        ("setup", "setup1".into()),
        ("users", base.num_users.into()),
        ("duration_s", duration.into()),
        ("repetitions", repetitions.into()),
        ("rows", table.json_rows().into()),
    ])
}

/// The swept horizons. 1 is the myopic baseline: the paper's allocator
/// with no lookahead (`tests/golden_fingerprints.rs` pins that path).
const HORIZONS: [usize; 4] = [1, 2, 4, 8];

/// `ours` at H ∈ {1, 2, 4, 8} on every pathology (`BENCH_lookahead.json`,
/// `lookahead.csv`): one [`scenario_matrix`] per horizon, judged against
/// the H = 1 rows.
pub fn lookahead_bench(args: &FigureArgs) -> Json {
    let duration = args.duration_or(20.0);
    let repetitions = args.runs_or(3);
    let base = SystemConfig {
        duration_s: duration,
        ..SystemConfig::setup1(args.seed)
    };
    println!(
        "# Lookahead horizon sweep — setup1, {} users, {duration:.1} s, {repetitions} reps, \
         H {HORIZONS:?}\n",
        base.num_users
    );

    let ours = [AllocatorKind::DensityValueGreedy];
    let sweeps = HORIZONS.map(|horizon| {
        let config = SystemConfig {
            horizon,
            ..base.clone()
        };
        scenario_matrix(&config, &ours, repetitions, args.threads)
    });

    let mut table = Table::begin(&[
        ("pathology", "pathology"),
        ("horizon", "horizon"),
        ("qoe", "qoe"),
        ("quality", "quality"),
        ("delay", "delay"),
        ("variance", "variance"),
        ("", "fps"),
        ("", "loss_rate"),
        ("", "link_switches"),
    ]);
    let mut wins: Vec<Json> = Vec::new();
    let mut qoe_wins = 0usize;
    let mut variance_wins = 0usize;
    let pathologies = sweeps[0].rows.len();
    for (p, row) in sweeps[0].rows.iter().enumerate() {
        let label = row.pathology.label();
        let per_horizon = sweeps
            .each_ref()
            .map(|sweep| sweep.rows[p].per_algorithm["ours"]);
        for (horizon, avg) in HORIZONS.iter().zip(&per_horizon) {
            table.row(averages_row(label, (*horizon).into(), avg));
        }

        // A pathology is a QoE win when some lookahead horizon (H > 1)
        // at least matches myopic (H = 1) QoE, and a variance win when a
        // QoE-matching horizon also smooths delivered quality — the
        // operator gets to pick H, so any qualifying horizon counts.
        let [baseline, lookahead @ ..] = &per_horizon;
        let qualifies =
            |avg: &SystemAverages| avg.qoe >= baseline.qoe && avg.variance <= baseline.variance;
        let qoe_win = lookahead.iter().any(|avg| avg.qoe >= baseline.qoe);
        let variance_win = lookahead.iter().any(qualifies);
        qoe_wins += qoe_win as usize;
        variance_wins += variance_win as usize;
        wins.push(Json::object([
            ("pathology", label.into()),
            ("qoe_win", qoe_win.into()),
            ("variance_win", variance_win.into()),
        ]));
    }
    println!();
    println!(
        "lookahead QoE wins: {qoe_wins}/{pathologies} pathologies, \
         variance wins: {variance_wins}/{pathologies}"
    );

    if let Some(dir) = &args.csv_dir {
        table.write_csv(dir, "lookahead.csv");
    }
    Json::object([
        ("bench", "lookahead".into()),
        ("setup", "setup1".into()),
        ("users", base.num_users.into()),
        ("duration_s", duration.into()),
        ("repetitions", repetitions.into()),
        ("horizons", HORIZONS.map(Json::from).to_vec().into()),
        ("qoe_wins", qoe_wins.into()),
        ("variance_wins", variance_wins.into()),
        ("wins", wins.into()),
        ("rows", table.json_rows().into()),
    ])
}
