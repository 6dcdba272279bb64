//! The two impairment-pathology matrices on the full-system simulator
//! (Markov fading, mmWave blockage, inter-RAT handover, RLC bufferbloat,
//! flash-crowd contention). Each runs at the requested worker count,
//! re-runs at a deliberately different one, and proves the two are
//! bit-identical via FNV-1a fingerprints over the raw result bits; with
//! `--csv DIR` each writes a plot-ready CSV whose bytes CI diffs across
//! thread counts.

use cvr_bench::json::Json;
use cvr_bench::{Cell, FigureArgs, Table};
use cvr_core::fnv;
use cvr_sim::allocators::AllocatorKind;
use cvr_sim::experiment::{lookahead_matrix, scenario_matrix, SystemAverages};
use cvr_sim::system::SystemConfig;

/// FNV-1a over a tag per entry and the little-endian bit patterns of
/// every averaged metric, in matrix order — any drift in any f64
/// anywhere flips the print.
fn fingerprint<'a>(entries: impl Iterator<Item = (u64, &'a SystemAverages)>) -> u64 {
    let mut hash = fnv::OFFSET;
    for (tag, avg) in entries {
        hash = fnv::fold_u64(hash, tag);
        for metric in [
            avg.qoe,
            avg.quality,
            avg.delay,
            avg.variance,
            avg.fps,
            avg.loss_rate,
            avg.link_switches,
        ] {
            hash = fnv::fold_u64(hash, metric.to_bits());
        }
    }
    hash
}

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

/// `--threads` for the artifact run, and the different count it is
/// checked against.
fn thread_pair(args: &FigureArgs) -> (Option<usize>, usize) {
    (args.threads, if args.threads == Some(1) { 4 } else { 1 })
}

/// Algorithm 1 against Firefly and PAVQ on every pathology
/// (`BENCH_net.json`, `net_scenarios.csv`).
///
/// # Panics
///
/// Panics if the matrix differs between thread counts.
pub fn net_bench(args: &FigureArgs) -> Json {
    let duration = args.duration_or(20.0);
    let repetitions = args.runs_or(3);
    let base = SystemConfig {
        duration_s: duration,
        ..SystemConfig::setup1(args.seed)
    };
    let kinds = AllocatorKind::paper_set(false);
    let (main_threads, check_threads) = thread_pair(args);
    println!(
        "# Net-scenario matrix — setup1, {} users, {duration:.1} s, {repetitions} reps, \
         threads {main_threads:?} vs {check_threads}\n",
        base.num_users
    );

    let matrix = scenario_matrix(&base, &kinds, repetitions, main_threads);
    let check = scenario_matrix(&base, &kinds, repetitions, Some(check_threads));
    let deterministic = matrix == check;
    let [fp_main, fp_check] = [&matrix, &check].map(|m| {
        let entries = m.rows.iter().flat_map(|row| &row.per_algorithm);
        fingerprint(entries.map(|(name, avg)| (name.len() as u64, avg)))
    });

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
    println!();
    println!(
        "determinism: fingerprints {fp_main:#018x} vs {fp_check:#018x}, identical: {deterministic}"
    );
    assert!(
        deterministic,
        "scenario matrix diverged between thread counts"
    );

    if let Some(dir) = &args.csv_dir {
        table.write_csv(dir, "net_scenarios.csv");
    }
    Json::object([
        ("bench", "net_scenarios".into()),
        ("setup", "setup1".into()),
        ("users", base.num_users.into()),
        ("duration_s", duration.into()),
        ("repetitions", repetitions.into()),
        ("deterministic", deterministic.into()),
        ("fingerprint_main", format!("{fp_main:#018x}").into()),
        ("fingerprint_check", format!("{fp_check:#018x}").into()),
        ("rows", table.json_rows().into()),
    ])
}

/// The swept horizons. 1 is the myopic baseline.
const HORIZONS: [usize; 4] = [1, 2, 4, 8];

/// `ours` at H ∈ {1, 2, 4, 8} on every pathology (`BENCH_lookahead.json`,
/// `lookahead.csv`). A separate run of the same matrix through the
/// horizonless config path must match the H = 1 column bit for bit —
/// the proof that lookahead is pay-for-what-you-use.
///
/// # Panics
///
/// Panics if the sweep differs between thread counts or H = 1 differs
/// from the horizonless run.
pub fn lookahead_bench(args: &FigureArgs) -> Json {
    let duration = args.duration_or(20.0);
    let repetitions = args.runs_or(3);
    let base = SystemConfig {
        duration_s: duration,
        ..SystemConfig::setup1(args.seed)
    };
    let (main_threads, check_threads) = thread_pair(args);
    println!(
        "# Lookahead horizon sweep — setup1, {} users, {duration:.1} s, {repetitions} reps, \
         H {HORIZONS:?}, threads {main_threads:?} vs {check_threads}\n",
        base.num_users
    );

    let matrix = lookahead_matrix(&base, &HORIZONS, repetitions, main_threads);
    let check = lookahead_matrix(&base, &HORIZONS, repetitions, Some(check_threads));
    let deterministic = matrix == check;
    let [fp_main, fp_check] = [&matrix, &check].map(|m| {
        let entries = m.rows.iter().flat_map(|row| &row.per_horizon);
        fingerprint(entries.map(|(horizon, avg)| (*horizon as u64, avg)))
    });

    // The myopic reference: the identical scenario matrix driven by the
    // horizonless config path. Its `ours` rows must equal the H = 1
    // column of the sweep bit for bit.
    let myopic = scenario_matrix(
        &base,
        &[AllocatorKind::DensityValueGreedy],
        repetitions,
        main_threads,
    );
    let h1_equals_myopic = matrix
        .rows
        .iter()
        .zip(&myopic.rows)
        .all(|(row, reference)| {
            row.pathology == reference.pathology
                && reference.per_algorithm.get("ours")
                    == row
                        .per_horizon
                        .first()
                        .filter(|(h, _)| *h == 1)
                        .map(|(_, avg)| avg)
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
    for (row, reference) in matrix.rows.iter().zip(&myopic.rows) {
        let label = row.pathology.label();
        let baseline = reference.per_algorithm["ours"];
        table.row(averages_row(label, "myopic".into(), &baseline));
        for (horizon, avg) in &row.per_horizon {
            table.row(averages_row(label, (*horizon).into(), avg));
        }

        // A pathology is a QoE win when some lookahead horizon (H > 1)
        // at least matches myopic QoE, and a variance win when a
        // QoE-matching horizon also smooths delivered quality — the
        // operator gets to pick H, so any qualifying horizon counts.
        let lookahead_entries = || row.per_horizon.iter().filter(|(h, _)| *h > 1);
        let qualifies =
            |avg: &SystemAverages| avg.qoe >= baseline.qoe && avg.variance <= baseline.variance;
        let qoe_win = lookahead_entries().any(|(_, avg)| avg.qoe >= baseline.qoe);
        let variance_win = lookahead_entries().any(|(_, avg)| qualifies(avg));
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
        "determinism: fingerprints {fp_main:#018x} vs {fp_check:#018x}, identical: {deterministic}"
    );
    println!("h1 == myopic (bitwise): {h1_equals_myopic}");
    println!(
        "lookahead QoE wins: {qoe_wins}/{} pathologies, variance wins: {variance_wins}/{}",
        matrix.rows.len(),
        matrix.rows.len()
    );
    assert!(
        deterministic,
        "lookahead sweep diverged between thread counts"
    );
    assert!(
        h1_equals_myopic,
        "horizon 1 diverged from the horizonless config — lookahead is not free at H = 1"
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
        ("deterministic", deterministic.into()),
        ("fingerprint_main", format!("{fp_main:#018x}").into()),
        ("fingerprint_check", format!("{fp_check:#018x}").into()),
        ("h1_equals_myopic", h1_equals_myopic.into()),
        ("qoe_wins", qoe_wins.into()),
        ("variance_wins", variance_wins.into()),
        ("wins", wins.into()),
        ("rows", table.json_rows().into()),
    ])
}
