//! Lookahead horizon sweep: runs the `ours` allocator at H ∈ {1, 2, 4,
//! 8} across every impairment pathology (Markov fading, mmWave
//! blockage, inter-RAT handover, RLC bufferbloat, flash-crowd
//! contention), re-runs the sweep at a second worker count, and proves
//! the two are bit-identical via FNV-1a fingerprints over the raw
//! result bits. A separate horizonless run of the same matrix (the
//! config that predates the `horizon` field) must match the H = 1
//! column bit for bit — the proof that lookahead is pay-for-what-you-use.
//! Writes `BENCH_lookahead.json` at the repository root for the CI
//! bench gate (`bench_check`) and, with `--csv DIR`, a plot-ready
//! `lookahead.csv` whose bytes the bench-gate CI job diffs across
//! thread counts.
//!
//! Run: `cargo run -p cvr-bench --release --bin lookahead_bench [--quick]`

use cvr_bench::{f3, print_header, print_row, write_csv, FigureArgs};
use cvr_core::fnv;
use cvr_sim::allocators::AllocatorKind;
use cvr_sim::experiment::{
    lookahead_matrix_threaded, scenario_matrix_threaded, LookaheadMatrixResult, SystemAverages,
};
use cvr_sim::system::SystemConfig;

/// The swept horizons. 1 is the myopic baseline (no lookahead code runs).
const HORIZONS: [usize; 4] = [1, 2, 4, 8];

/// FNV-1a over the little-endian bit patterns of every averaged metric,
/// in sweep order — any drift in any f64 anywhere flips the print.
fn fingerprint(matrix: &LookaheadMatrixResult) -> u64 {
    let mut hash = fnv::OFFSET;
    let mut eat = |bits: u64| hash = fnv::fold_u64(hash, bits);
    for row in &matrix.rows {
        for (horizon, avg) in &row.per_horizon {
            eat(*horizon as u64);
            for metric in [
                avg.qoe,
                avg.quality,
                avg.delay,
                avg.variance,
                avg.fps,
                avg.loss_rate,
                avg.link_switches,
            ] {
                eat(metric.to_bits());
            }
        }
    }
    hash
}

fn csv_row(pathology: &str, horizon: &str, avg: &SystemAverages) -> String {
    format!(
        "{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
        pathology,
        horizon,
        avg.qoe,
        avg.quality,
        avg.delay,
        avg.variance,
        avg.fps,
        avg.loss_rate,
        avg.link_switches
    )
}

fn main() {
    let args = FigureArgs::parse();
    let duration = args.duration_or(20.0);
    let repetitions = args.runs_or(3);
    let base = SystemConfig {
        duration_s: duration,
        ..SystemConfig::setup1(args.seed)
    };

    // The sweep the artifacts are built from runs at the requested
    // worker count; the determinism check re-runs it at a deliberately
    // different count and demands bit-identical results.
    let main_threads = args.threads;
    let check_threads = if main_threads == Some(1) { 4 } else { 1 };
    println!(
        "# Lookahead horizon sweep — setup1, {} users, {duration:.1} s, {repetitions} reps, \
         H {HORIZONS:?}, threads {main_threads:?} vs {check_threads}\n",
        base.num_users
    );

    let matrix = lookahead_matrix_threaded(&base, &HORIZONS, repetitions, main_threads);
    let check = lookahead_matrix_threaded(&base, &HORIZONS, repetitions, Some(check_threads));
    let deterministic = matrix == check;
    let fp_main = fingerprint(&matrix);
    let fp_check = fingerprint(&check);

    // The myopic reference: the identical scenario matrix driven by the
    // horizonless config path. Its `ours` rows must equal the H = 1
    // column of the sweep bit for bit.
    let myopic = scenario_matrix_threaded(
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

    print_header(&[
        "pathology",
        "horizon",
        "qoe",
        "quality",
        "delay",
        "variance",
    ]);
    let mut csv_rows: Vec<String> = Vec::new();
    let mut qoe_wins = 0usize;
    let mut variance_wins = 0usize;
    let mut json_rows: Vec<String> = Vec::new();
    for (row, reference) in matrix.rows.iter().zip(&myopic.rows) {
        let label = row.pathology.label();
        let baseline = reference.per_algorithm["ours"];
        print_row(&[
            label.to_string(),
            "myopic".to_string(),
            f3(baseline.qoe),
            f3(baseline.quality),
            f3(baseline.delay),
            f3(baseline.variance),
        ]);
        csv_rows.push(csv_row(label, "myopic", &baseline));
        for (horizon, avg) in &row.per_horizon {
            print_row(&[
                label.to_string(),
                horizon.to_string(),
                f3(avg.qoe),
                f3(avg.quality),
                f3(avg.delay),
                f3(avg.variance),
            ]);
            csv_rows.push(csv_row(label, &horizon.to_string(), avg));
        }

        // A pathology is a QoE win when some lookahead horizon (H > 1)
        // at least matches myopic QoE, and a variance win when a
        // QoE-matching horizon also smooths delivered quality — the
        // operator gets to pick H, so any qualifying horizon counts.
        let lookahead_entries = || row.per_horizon.iter().filter(|(h, _)| *h > 1);
        let qualifies =
            |avg: &SystemAverages| avg.qoe >= baseline.qoe && avg.variance <= baseline.variance;
        // Highest-QoE qualifying horizon, falling back to highest QoE.
        let best = lookahead_entries()
            .max_by(|a, b| {
                (qualifies(&a.1).cmp(&qualifies(&b.1))).then(a.1.qoe.total_cmp(&b.1.qoe))
            })
            .expect("sweep contains a horizon > 1");
        let qoe_win = lookahead_entries().any(|(_, avg)| avg.qoe >= baseline.qoe);
        let variance_win = lookahead_entries().any(|(_, avg)| qualifies(avg));
        qoe_wins += qoe_win as usize;
        variance_wins += variance_win as usize;

        let horizons_json: Vec<String> = row
            .per_horizon
            .iter()
            .map(|(horizon, avg)| {
                format!(
                    "        {{\"horizon\": {}, \"qoe\": {:.6}, \"quality\": {:.6}, \
                     \"delay\": {:.6}, \"variance\": {:.6}}}",
                    horizon, avg.qoe, avg.quality, avg.delay, avg.variance
                )
            })
            .collect();
        json_rows.push(format!(
            "    {{\"pathology\": \"{}\", \"myopic_qoe\": {:.6}, \"myopic_variance\": {:.6}, \
             \"best_horizon\": {}, \"qoe_win\": {}, \"variance_win\": {}, \"horizons\": [\n{}\n    ]}}",
            label,
            baseline.qoe,
            baseline.variance,
            best.0,
            qoe_win,
            variance_win,
            horizons_json.join(",\n")
        ));
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
        write_csv(
            dir,
            "lookahead.csv",
            "pathology,horizon,qoe,quality,delay,variance,fps,loss_rate,link_switches",
            &csv_rows,
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"lookahead\",\n  \"setup\": \"setup1\",\n  \
         \"users\": {},\n  \"duration_s\": {:.1},\n  \"repetitions\": {},\n  \
         \"horizons\": [1, 2, 4, 8],\n  \"deterministic\": {},\n  \
         \"fingerprint_main\": \"{:#018x}\",\n  \"fingerprint_check\": \"{:#018x}\",\n  \
         \"h1_equals_myopic\": {},\n  \"qoe_wins\": {},\n  \"variance_wins\": {},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        base.num_users,
        duration,
        repetitions,
        deterministic,
        fp_main,
        fp_check,
        h1_equals_myopic,
        qoe_wins,
        variance_wins,
        json_rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lookahead.json");
    std::fs::write(out, &json).expect("write benchmark JSON");
    println!("wrote {out}");
}
