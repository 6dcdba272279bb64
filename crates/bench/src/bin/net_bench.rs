//! Cellular digital-twin scenario benchmark: runs the full pathology ×
//! algorithm matrix (Markov fading, mmWave blockage, inter-RAT
//! handover, RLC bufferbloat, flash-crowd contention — each against
//! `ours`, `firefly`, and `pavq`), re-runs it at a second worker count,
//! and proves the two are bit-identical via FNV-1a fingerprints over
//! the raw result bits. Writes `BENCH_net.json` at the repository root
//! for the CI bench gate (`bench_check`) and, with `--csv DIR`, a
//! plot-ready `net_scenarios.csv` whose bytes the `net-scenarios` CI
//! job diffs across thread counts.
//!
//! Run: `cargo run -p cvr-bench --release --bin net_bench [--quick]`

use cvr_bench::{f3, print_header, print_row, write_csv, FigureArgs};
use cvr_core::fnv;
use cvr_sim::allocators::AllocatorKind;
use cvr_sim::experiment::{scenario_matrix_threaded, ScenarioMatrixResult};
use cvr_sim::system::SystemConfig;

/// FNV-1a over the little-endian bit patterns of every averaged metric,
/// in matrix order — any drift in any f64 anywhere flips the print.
fn fingerprint(matrix: &ScenarioMatrixResult) -> u64 {
    let mut hash = fnv::OFFSET;
    let mut eat = |bits: u64| hash = fnv::fold_u64(hash, bits);
    for row in &matrix.rows {
        for (name, avg) in &row.per_algorithm {
            eat(name.len() as u64);
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

fn main() {
    let args = FigureArgs::parse();
    let duration = args.duration_or(20.0);
    let repetitions = args.runs_or(3);
    let base = SystemConfig {
        duration_s: duration,
        ..SystemConfig::setup1(args.seed)
    };
    let kinds = AllocatorKind::paper_set(false);

    // The matrix the artifacts are built from runs at the requested
    // worker count; the determinism check re-runs it at a deliberately
    // different count and demands bit-identical results.
    let main_threads = args.threads;
    let check_threads = if main_threads == Some(1) { 4 } else { 1 };
    println!(
        "# Net-scenario matrix — setup1, {} users, {duration:.1} s, {repetitions} reps, \
         threads {main_threads:?} vs {check_threads}\n",
        base.num_users
    );

    let matrix = scenario_matrix_threaded(&base, &kinds, repetitions, main_threads);
    let check = scenario_matrix_threaded(&base, &kinds, repetitions, Some(check_threads));
    let deterministic = matrix == check;
    let fp_main = fingerprint(&matrix);
    let fp_check = fingerprint(&check);

    print_header(&[
        "pathology",
        "algorithm",
        "qoe",
        "quality",
        "delay",
        "loss",
        "switches",
    ]);
    let mut csv_rows: Vec<String> = Vec::new();
    for row in &matrix.rows {
        for (name, avg) in &row.per_algorithm {
            print_row(&[
                row.pathology.label().to_string(),
                name.to_string(),
                f3(avg.qoe),
                f3(avg.quality),
                f3(avg.delay),
                f3(avg.loss_rate),
                f3(avg.link_switches),
            ]);
            csv_rows.push(format!(
                "{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
                row.pathology.label(),
                name,
                avg.qoe,
                avg.quality,
                avg.delay,
                avg.variance,
                avg.fps,
                avg.loss_rate,
                avg.link_switches
            ));
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
        write_csv(
            dir,
            "net_scenarios.csv",
            "pathology,algorithm,qoe,quality,delay,variance,fps,loss_rate,link_switches",
            &csv_rows,
        );
    }

    let json_rows: Vec<String> = matrix
        .rows
        .iter()
        .map(|row| {
            let algorithms: Vec<String> = row
                .per_algorithm
                .iter()
                .map(|(name, avg)| {
                    format!(
                        "        {{\"name\": \"{}\", \"qoe\": {:.6}, \"quality\": {:.6}, \
                         \"delay\": {:.6}, \"loss_rate\": {:.6}, \"link_switches\": {:.6}}}",
                        name, avg.qoe, avg.quality, avg.delay, avg.loss_rate, avg.link_switches
                    )
                })
                .collect();
            format!(
                "    {{\"pathology\": \"{}\", \"algorithms\": [\n{}\n    ]}}",
                row.pathology.label(),
                algorithms.join(",\n")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"net_scenarios\",\n  \"setup\": \"setup1\",\n  \
         \"users\": {},\n  \"duration_s\": {:.1},\n  \"repetitions\": {},\n  \
         \"deterministic\": {},\n  \"fingerprint_main\": \"{:#018x}\",\n  \
         \"fingerprint_check\": \"{:#018x}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        base.num_users,
        duration,
        repetitions,
        deterministic,
        fp_main,
        fp_check,
        json_rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    std::fs::write(out, &json).expect("write benchmark JSON");
    println!("wrote {out}");
}
