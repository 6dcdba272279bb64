//! The paper's figures and headline percentages: Fig. 1 (motivation
//! measurements), Figs. 2–3 (trace-based simulation CDFs), Figs. 7–8
//! (full-system testbed bars) and the abstract's four numbers.

use cvr_bench::{improvement_pct, write_csv, FigureArgs, Table};
use cvr_content::grid::CellId;
use cvr_content::sizing::TileSizeModel;
use cvr_content::tile::TileId;
use cvr_core::quality::QualityLevel;
use cvr_net::queueing::RttSampler;
use cvr_sim::allocators::AllocatorKind;
use cvr_sim::experiment::{
    system_experiment, trace_experiment, SystemExperimentResult, TraceExperimentResult,
};
use cvr_sim::metrics::{EmpiricalDistribution, MetricDistributions};
use cvr_sim::system::SystemConfig;
use cvr_sim::tracesim::TraceSimConfig;

/// Fig. 1 — (a) tile size vs quality level for two randomly selected
/// contents, (b) mean RTT vs sending rate under a 15 Mbps cap from
/// 100 000 samples. Both convex and increasing.
pub fn fig1(_: &FigureArgs) {
    println!("# Fig. 1a — tile rate (Mbps) vs quality level, two contents\n");
    let model = TileSizeModel::paper_default();
    let contents = [CellId { x: 12, z: -7 }, CellId { x: -33, z: 41 }];
    let mut table = Table::titled(&["level", "content A", "content B"]);
    let mut prev = [0.0f64; 2];
    let mut increments: Vec<[f64; 2]> = Vec::new();
    for l in 1..=6u8 {
        let q = QualityLevel::new(l);
        let a = model.tile_rate_mbps(contents[0], TileId::new(1), q);
        let b = model.tile_rate_mbps(contents[1], TileId::new(2), q);
        table.row(vec![usize::from(l).into(), a.into(), b.into()]);
        if l > 1 {
            increments.push([a - prev[0], b - prev[1]]);
        }
        prev = [a, b];
    }
    let convex = increments
        .windows(2)
        .all(|w| w[1][0] >= w[0][0] - 1e-9 && w[1][1] >= w[0][1] - 1e-9);
    println!("\nconvex increasing: {convex} (paper: yes)\n");

    println!("# Fig. 1b — mean RTT (ms) vs sending rate, 15 Mbps cap, 100k samples\n");
    let mut sampler = RttSampler::new(15.0, 1);
    let mut table = Table::titled(&["rate (Mbps)", "mean RTT", "analytic"]);
    let rates = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 13.0, 14.0];
    let mut means = Vec::new();
    for &r in &rates {
        let empirical = sampler.empirical_mean_ms(r, 100_000 / rates.len());
        let analytic = sampler.mean_rtt_ms(r);
        means.push(analytic);
        table.row(vec![r.into(), empirical.into(), analytic.into()]);
    }
    let convex_rtt = means
        .windows(3)
        .all(|w| (w[2] - w[1]) >= (w[1] - w[0]) - 1e-9);
    println!("\nconvex increasing: {convex_rtt} (paper: yes)");
}

/// The four CDF metrics of Figs. 2 and 3 as summary tables, plus the
/// full CDFs as `<fig>_<metric>_<algorithm>.csv` under `--csv`.
fn trace_cdfs(
    args: &FigureArgs,
    fig: &str,
    base: &TraceSimConfig,
    runs: usize,
    kinds: &[AllocatorKind],
) -> TraceExperimentResult {
    type Pick = fn(&MetricDistributions) -> &EmpiricalDistribution;
    let metrics: [(&str, &str, Pick); 4] = [
        ("(a) average QoE", "qoe", |d| &d.qoe),
        ("(b) average quality", "quality", |d| &d.quality),
        ("(c) average delay (slots)", "delay", |d| &d.delay),
        ("(d) quality variance", "variance", |d| &d.variance),
    ];
    let result = trace_experiment(base, kinds, runs, args.threads);
    for (title, _, pick) in metrics {
        println!("## {title}\n");
        let mut table = Table::titled(&["algorithm", "mean", "p10", "p50", "p90"]);
        for kind in kinds {
            let d = pick(&result.per_algorithm[kind.label()]).sorted();
            table.row(vec![
                kind.label().into(),
                d.mean().into(),
                d.quantile(0.1).into(),
                d.quantile(0.5).into(),
                d.quantile(0.9).into(),
            ]);
        }
        println!();
    }
    if let Some(dir) = &args.csv_dir {
        for kind in kinds {
            for (_, metric, pick) in metrics {
                let points = pick(&result.per_algorithm[kind.label()])
                    .sorted()
                    .cdf_points();
                let rows: Vec<String> = points.iter().map(|(v, p)| format!("{v},{p}")).collect();
                let name = format!("{fig}_{metric}_{}.csv", kind.label());
                write_csv(dir, &name, "value,cdf", &rows);
            }
        }
    }
    result
}

fn print_trace_gains(result: &TraceExperimentResult) {
    let qoe = |label: &str| result.per_algorithm[label].qoe.mean();
    println!(
        "ours vs firefly: +{:.1}%  |  ours vs pavq: {:+.1}%",
        improvement_pct(qoe("ours"), qoe("firefly")),
        improvement_pct(qoe("ours"), qoe("pavq")),
    );
}

/// Fig. 2 — trace-based simulation with 5 users: CDFs of average QoE,
/// quality, delivery delay and quality variance for ours / Firefly /
/// modified PAVQ / the per-slot offline optimum. Paper expectation:
/// ours ≈ optimal on every metric and ahead of the baselines on QoE.
pub fn fig2(args: &FigureArgs) {
    let runs = args.runs_or(100);
    let duration = args.duration_or(300.0);
    let base = TraceSimConfig {
        duration_s: duration,
        ..TraceSimConfig::paper_default(5, args.seed)
    };
    println!(
        "# Fig. 2 — 5 users, {runs} runs × {duration:.0} s, α = {}, β = {}\n",
        base.params.alpha, base.params.beta
    );
    let kinds = AllocatorKind::paper_set(true);
    let result = trace_cdfs(args, "fig2", &base, runs, &kinds);

    println!("## CDF points (average QoE) — plot-ready\n");
    for kind in &kinds {
        let pts = result.per_algorithm[kind.label()].qoe.sorted().cdf_points();
        let thin: Vec<String> = pts
            .iter()
            .step_by((pts.len() / 10).max(1))
            .map(|(v, p)| format!("({v:.2},{p:.2})"))
            .collect();
        println!("{:>8}: {}", kind.label(), thin.join(" "));
    }
    println!();
    let qoe = |label: &str| result.per_algorithm[label].qoe.mean();
    println!(
        "ours vs optimal gap: {:.2}% (paper: ours ≈ optimal)",
        100.0 * (qoe("optimal") - qoe("ours")) / qoe("optimal").abs()
    );
    print_trace_gains(&result);
}

/// Fig. 3 — the same four CDF metrics at collaborative-classroom scale
/// (30 users), where the exact offline optimum is intractable (the paper
/// omits it; we additionally report the fractional upper bound as a
/// certificate).
pub fn fig3(args: &FigureArgs) {
    let runs = args.runs_or(100);
    let duration = args.duration_or(300.0);
    let base = TraceSimConfig {
        duration_s: duration,
        compute_bound: true,
        ..TraceSimConfig::paper_default(30, args.seed)
    };
    println!("# Fig. 3 — 30 users, {runs} runs × {duration:.0} s\n");
    let result = trace_cdfs(args, "fig3", &base, runs, &AllocatorKind::paper_set(false));
    println!(
        "mean fractional upper bound on the per-slot objective: {:.3} (per user: {:.3})",
        result.mean_fractional_bound,
        result.mean_fractional_bound / 30.0
    );
    print_trace_gains(&result);
}

/// The bar table of Figs. 7 and 8 (and `<fig>_bars.csv` under `--csv`).
fn testbed_bars(
    args: &FigureArgs,
    fig: &str,
    base: &SystemConfig,
    repetitions: usize,
) -> SystemExperimentResult {
    let kinds = AllocatorKind::paper_set(false);
    let result = system_experiment(base, &kinds, repetitions, args.threads);
    let mut table = Table::begin(&[
        ("algorithm", "algorithm"),
        ("avg QoE", "qoe"),
        ("avg delay", "delay"),
        ("FPS", "fps"),
        ("quality", "quality"),
        ("variance", "variance"),
    ]);
    for kind in &kinds {
        let a = result.per_algorithm[kind.label()];
        table.row(vec![
            kind.label().into(),
            a.qoe.into(),
            a.delay.into(),
            a.fps.into(),
            a.quality.into(),
            a.variance.into(),
        ]);
    }
    if let Some(dir) = &args.csv_dir {
        table.write_csv(dir, &format!("{fig}_bars.csv"));
    }
    println!();
    result
}

/// Fig. 7 — real-world evaluation, setup 1: 8 users behind one router,
/// 400 Mbps server limit, `tc` throttles {40…60} Mbps, α = 0.1, β = 0.5,
/// five repetitions. Paper headline: ours +81.9 % QoE over Firefly and
/// +12.1 % over modified PAVQ; ours reaches ~60 FPS.
pub fn fig7(args: &FigureArgs) {
    let repetitions = args.runs_or(5);
    let base = SystemConfig {
        duration_s: args.duration_or(60.0),
        ..SystemConfig::setup1(args.seed)
    };
    println!(
        "# Fig. 7 — setup 1: {} users, 1 router, {} Mbps server, {} reps × {:.0} s\n",
        base.num_users,
        base.server_total_mbps(),
        repetitions,
        base.duration_s
    );
    let result = testbed_bars(args, "fig7", &base, repetitions);
    let ours = result.per_algorithm["ours"];
    println!(
        "ours vs firefly: {:+.1}% QoE (paper: +81.9%)",
        improvement_pct(ours.qoe, result.per_algorithm["firefly"].qoe)
    );
    println!(
        "ours vs pavq:    {:+.1}% QoE (paper: +12.1%)",
        improvement_pct(ours.qoe, result.per_algorithm["pavq"].qoe)
    );
    println!("ours FPS: {:.1} (paper: ~60)", ours.fps);
}

/// Fig. 8 — real-world evaluation, setup 2: 15 users across two bridged
/// routers with co-channel interference, 800 Mbps server limit. Paper
/// headline: ours +214.3 % QoE over modified PAVQ; Firefly's QoE goes
/// negative under the volatile capacity.
pub fn fig8(args: &FigureArgs) {
    let repetitions = args.runs_or(5);
    let base = SystemConfig {
        duration_s: args.duration_or(60.0),
        ..SystemConfig::setup2(args.seed)
    };
    println!(
        "# Fig. 8 — setup 2: {} users, 2 routers (interference), {} Mbps server, {} reps × {:.0} s\n",
        base.num_users, base.server_total_mbps(), repetitions, base.duration_s
    );
    let result = testbed_bars(args, "fig8", &base, repetitions);
    println!(
        "ours vs pavq: {:+.1}% QoE (paper: +214.3%)",
        improvement_pct(
            result.per_algorithm["ours"].qoe,
            result.per_algorithm["pavq"].qoe
        )
    );
    println!(
        "firefly QoE: {:.3} (paper: negative under interference)",
        result.per_algorithm["firefly"].qoe
    );
}

/// The four percentages the paper's abstract reports, regenerated from
/// both testbed setups: setup 1 ours vs Firefly (+81.9 %) and vs
/// modified PAVQ (+12.1 %); setup 2 ours vs modified PAVQ (+214.3 %),
/// Firefly negative; ours ≈ 60 FPS.
pub fn headline(args: &FigureArgs) {
    let repetitions = args.runs_or(5);
    let duration = args.duration_or(60.0);
    let kinds = AllocatorKind::paper_set(false);
    let run = |config: SystemConfig| {
        let base = SystemConfig {
            duration_s: duration,
            ..config
        };
        system_experiment(&base, &kinds, repetitions, args.threads)
    };
    let setup1 = run(SystemConfig::setup1(args.seed));
    let setup2 = run(SystemConfig::setup2(args.seed));

    println!("# Headline comparison ({repetitions} reps × {duration:.0} s)\n");
    let mut table = Table::titled(&["metric", "paper", "measured"]);
    let s1 = |l: &str| setup1.per_algorithm[l];
    let s2 = |l: &str| setup2.per_algorithm[l];
    let gain = |a: f64, b: f64| format!("{:+.1}%", improvement_pct(a, b)).into();
    for (metric, paper, measured) in [
        (
            "setup1 ours vs firefly",
            "+81.9%",
            gain(s1("ours").qoe, s1("firefly").qoe),
        ),
        (
            "setup1 ours vs pavq",
            "+12.1%",
            gain(s1("ours").qoe, s1("pavq").qoe),
        ),
        (
            "setup2 ours vs pavq",
            "+214.3%",
            gain(s2("ours").qoe, s2("pavq").qoe),
        ),
        ("setup2 firefly QoE", "negative", s2("firefly").qoe.into()),
        ("setup1 ours FPS", "~60", s1("ours").fps.into()),
    ] {
        table.row(vec![metric.into(), paper.into(), measured]);
    }
}
