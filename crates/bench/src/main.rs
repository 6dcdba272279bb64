//! `cvr-bench` — the one driver for every figure, ablation and gated
//! benchmark of the reproduction.
//!
//! ```text
//! cvr-bench list                     # the experiment table
//! cvr-bench <experiment> [flags]     # run one experiment
//! cvr-bench gate [flags]             # run every gated experiment, then judge
//! ```
//!
//! [`EXPERIMENTS`] is the single declarative table: one row per
//! experiment with its paper reference and the function that runs it;
//! a gated row also names the `BENCH_*.json` artifact it builds and the
//! function that checks it. A run at the paper's scale writes its
//! artifact at the repository root (the committed copy); a scaled-down
//! run (`--quick`, `--scale`, `--runs`, `--duration`) writes it under
//! the git-ignored `target/bench/` instead.

use std::path::PathBuf;

use cvr_bench::json::Json;
use cvr_bench::{FigureArgs, FLAGS};

mod experiments;
mod gate;

use experiments::{ablations, approx, figures, mcast, obs, scale, scenarios};
use gate::{Check, Gate};

/// How an experiment runs: printing only, or also building an artifact
/// the gate judges.
enum Run {
    Print(fn(&FigureArgs)),
    Gated {
        run: fn(&FigureArgs) -> Json,
        artifact: &'static str,
        check: Check,
    },
}

/// One row of the experiment table.
struct Experiment {
    name: &'static str,
    /// What in the paper (or which later subsystem) the experiment covers.
    paper: &'static str,
    run: Run,
}

const fn print(name: &'static str, paper: &'static str, run: fn(&FigureArgs)) -> Experiment {
    Experiment {
        name,
        paper,
        run: Run::Print(run),
    }
}

const fn gated(
    name: &'static str,
    paper: &'static str,
    run: fn(&FigureArgs) -> Json,
    artifact: &'static str,
    check: Check,
) -> Experiment {
    Experiment {
        name,
        paper,
        run: Run::Gated {
            run,
            artifact,
            check,
        },
    }
}

/// Every experiment the driver can run. New experiments join by adding
/// one row here.
#[rustfmt::skip] // a table reads best with one row per line
static EXPERIMENTS: [Experiment; 22] = [
    print("fig1", "Fig. 1: convexity of tile size and RTT", figures::fig1),
    print("fig2", "Fig. 2: trace simulation CDFs, 5 users", figures::fig2),
    print("fig3", "Fig. 3: trace simulation CDFs, 30 users", figures::fig3),
    print("fig7", "Fig. 7: testbed setup 1 (8 users, 1 router)", figures::fig7),
    print("fig8", "Fig. 8: testbed setup 2 (15 users, 2 routers)", figures::fig8),
    print("headline", "abstract: the four headline numbers", figures::headline),
    print("ablation_adaptive_margin", "§VI fn. 1: fixed vs adaptive FoV margin", ablations::adaptive_margin),
    print("ablation_estimator", "§VI: bandwidth estimator choice", ablations::estimator),
    print("ablation_greedy", "§III: density-only vs value-only vs Algorithm 1", ablations::greedy),
    print("ablation_loss", "§VIII: loss-aware allocation", ablations::loss),
    print("ablation_margin", "§VI fn. 1: FoV margin vs hit rate vs bandwidth", ablations::margin),
    print("ablation_online_render", "§VIII: end-to-end QoE with online rendering", ablations::online_render),
    print("ablation_pavq", "§IV: PAVQ step size and inner iterations", ablations::pavq),
    print("ablation_render", "§VIII: multi-GPU render feasibility", ablations::render),
    print("ablation_upload", "§VI: pose-upload period", ablations::upload),
    print("ablation_weights", "§II: QoE weights α and β", ablations::weights),
    print("approx_worst_case", "Theorem 1: adversarial search for the ½ bound", approx::approx_worst_case),
    gated("scale", "parallel experiment runner: determinism and scaling", scale::scale, "BENCH_parallel.json", gate::check_parallel),
    gated("obs_bench", "observability overhead on the slot loop (≤ 2 %)", obs::obs_bench, "BENCH_obs.json", gate::check_obs),
    gated("net_bench", "five link pathologies × ours/firefly/pavq", scenarios::net_bench, "BENCH_net.json", gate::check_net),
    gated("mcast_bench", "shared-FoV multicast classroom vs unicast", mcast::mcast_bench, "BENCH_mcast.json", gate::check_mcast),
    gated("lookahead_bench", "horizon sweep H ∈ {1, 2, 4, 8} × five pathologies", scenarios::lookahead_bench, "BENCH_lookahead.json", gate::check_lookahead),
];

/// What the command line asked for.
enum Command {
    List,
    Gate(FigureArgs),
    Run(&'static Experiment, FigureArgs),
}

/// Resolves the command line (without the program name).
///
/// # Errors
///
/// Describes the missing or unknown experiment, or the bad flag.
fn parse_command(argv: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut argv = argv.into_iter();
    let name = argv.next().ok_or("no experiment given")?;
    if name == "list" {
        return Ok(Command::List);
    }
    let args = FigureArgs::parse(argv)?;
    if name == "gate" {
        return Ok(Command::Gate(args));
    }
    (EXPERIMENTS.iter())
        .find(|e| e.name == name)
        .map(|experiment| Command::Run(experiment, args))
        .ok_or_else(|| format!("unknown experiment `{name}`"))
}

/// One line per experiment: name, paper reference, gated artifact.
fn list() -> String {
    let line = |e: &Experiment| match e.run {
        Run::Print(_) => format!("{:<26}{}\n", e.name, e.paper),
        Run::Gated { artifact, .. } => format!("{:<26}{} [gate: {artifact}]\n", e.name, e.paper),
    };
    EXPERIMENTS.iter().map(line).collect()
}

/// Where an artifact goes: the committed copy at the repository root for
/// a paper-scale run, the git-ignored `target/bench/` otherwise.
fn artifact_path(artifact: &str, args: &FigureArgs) -> PathBuf {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    if args.paper_scale() {
        root.join(artifact)
    } else {
        root.join("target/bench").join(artifact)
    }
}

/// Runs a gated experiment and writes the document it built.
fn run_gated(run: fn(&FigureArgs) -> Json, artifact: &str, args: &FigureArgs) -> Json {
    let doc = run(args);
    let path = artifact_path(artifact, args);
    let dir = path.parent().expect("artifact path has a directory");
    std::fs::create_dir_all(dir).expect("create artifact directory");
    std::fs::write(&path, format!("{doc}\n")).expect("write benchmark JSON");
    println!("wrote {}", path.display());
    doc
}

/// Runs every gated experiment and applies its check to the document it
/// just built. Returns whether every check passed.
fn run_gate(args: &FigureArgs) -> bool {
    let mut checks = 0;
    let mut failures: Vec<String> = Vec::new();
    for experiment in &EXPERIMENTS {
        let Run::Gated {
            run,
            artifact,
            check,
        } = experiment.run
        else {
            continue;
        };
        let doc = run_gated(run, artifact, args);
        println!("\n## gate: {} ({artifact})", experiment.name);
        let mut gate = Gate::default();
        check(&mut gate, &doc);
        println!();
        checks += gate.checks;
        let tagged = |f| format!("[{}] {f}", experiment.name);
        failures.extend(gate.failures.into_iter().map(tagged));
    }
    if failures.is_empty() {
        println!("bench gate: all {checks} checks passed");
    } else {
        println!("bench gate: {} of {checks} checks FAILED:", failures.len());
        for f in &failures {
            println!("  - {f}");
        }
    }
    failures.is_empty()
}

fn main() {
    match parse_command(std::env::args().skip(1)) {
        Ok(Command::List) => print!("{}", list()),
        Ok(Command::Run(experiment, args)) => match experiment.run {
            Run::Print(run) => run(&args),
            Run::Gated { run, artifact, .. } => {
                run_gated(run, artifact, &args);
            }
        },
        Ok(Command::Gate(args)) => {
            if !run_gate(&args) {
                std::process::exit(1);
            }
        }
        Err(message) => {
            eprintln!("cvr-bench: {message}");
            eprintln!("usage: cvr-bench <experiment>|gate|list {FLAGS}");
            eprint!("experiments:\n{}", list());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn command(line: &str) -> Result<Command, String> {
        parse_command(line.split_whitespace().map(String::from))
    }

    fn root_file(name: &str) -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + name;
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    }

    fn is_experiment(name: &str) -> bool {
        EXPERIMENTS.iter().any(|e| e.name == name)
    }

    #[test]
    fn experiment_names_are_unique_and_listed_one_per_line() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
        assert!(!is_experiment("list") && !is_experiment("gate"));
        assert_eq!(list().lines().count(), EXPERIMENTS.len());
        for (line, e) in list().lines().zip(&EXPERIMENTS) {
            assert!(line.starts_with(e.name) && line.contains(e.paper), "{line}");
        }
    }

    #[test]
    fn unknown_experiments_and_flags_are_usage_errors() {
        assert!(matches!(command("list"), Ok(Command::List)));
        assert!(matches!(command("gate --quick"), Ok(Command::Gate(a)) if a.scale == 0.1));
        assert!(matches!(
            command("fig2 --runs 2 --duration 5"),
            Ok(Command::Run(e, a)) if e.name == "fig2" && a.runs == Some(2)
        ));
        let error = |line| command(line).err().expect("must be rejected");
        assert_eq!(error(""), "no experiment given");
        assert_eq!(error("fig9"), "unknown experiment `fig9`");
        assert_eq!(
            error("slot_engine --quick"),
            "unknown experiment `slot_engine`"
        );
        assert_eq!(error("fig2 --fast"), "unknown argument `--fast`");
        assert_eq!(error("gate --runs"), "--runs requires an integer");
    }

    #[test]
    fn scaled_down_runs_never_write_the_committed_artifacts() {
        let path = |line: &str| {
            let args = FigureArgs::parse(line.split_whitespace().map(String::from)).unwrap();
            artifact_path("BENCH_net.json", &args)
        };
        assert!(path("").ends_with("../../BENCH_net.json"));
        assert!(path("--seed 3 --threads 2").ends_with("../../BENCH_net.json"));
        for scaled in ["--quick", "--scale 0.5", "--runs 2", "--duration 5"] {
            assert!(
                path(scaled).ends_with("target/bench/BENCH_net.json"),
                "{scaled}"
            );
        }
    }

    /// `token` if it has the shape of an experiment name.
    fn experiment_shaped(token: &str) -> bool {
        let word = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_lowercase() || c == '_');
        let fig = token
            .strip_prefix("fig")
            .is_some_and(|n| n.parse::<u8>().is_ok());
        fig || matches!(token, "headline" | "scale")
            || (word(token)
                && (token.starts_with("ablation_")
                    || token.starts_with("approx_")
                    || token.ends_with("_bench")))
    }

    #[test]
    fn every_regenerator_the_docs_cite_is_a_row() {
        // Every `cvr-bench … -- <name>` invocation, wherever it appears.
        for file in ["README.md", "EXPERIMENTS.md", "DESIGN.md", "ci.sh"] {
            for line in root_file(file).lines().filter(|l| l.contains("cvr-bench")) {
                let Some((_, rest)) = line.split_once(" -- ") else {
                    continue;
                };
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                assert!(
                    name.is_empty() || matches!(&*name, "list" | "gate") || is_experiment(&name),
                    "{file} cites `cvr-bench -- {name}`, which is not an experiment: {line}"
                );
            }
        }

        // DESIGN §4 is the experiment index: every experiment-shaped
        // name it backticks is a row, and every row is in it.
        let design = root_file("DESIGN.md");
        let start = design.find("## 4. Experiment index").expect("DESIGN §4");
        let index = &design[start..];
        let index = &index[..index.find("\n## 5.").expect("DESIGN §5")];
        let cited: BTreeSet<&str> = (index.split('`').skip(1).step_by(2))
            .filter(|token| experiment_shaped(token))
            .collect();
        for name in &cited {
            assert!(is_experiment(name), "DESIGN §4 cites `{name}`, not a row");
        }
        for e in &EXPERIMENTS {
            assert!(
                cited.contains(e.name),
                "DESIGN §4 does not index `{}`",
                e.name
            );
        }
    }

    fn committed(artifact: &str) -> Json {
        Json::parse(&root_file(artifact)).unwrap_or_else(|e| panic!("parse {artifact}: {e}"))
    }

    /// Replaces the first `from` in the rendered document with `to`.
    fn doctored(doc: &Json, from: &str, to: &str) -> Json {
        let text = doc.to_string();
        assert!(text.contains(from), "nothing to doctor: no {from}");
        Json::parse(&text.replacen(from, to, 1)).expect("doctored document parses")
    }

    #[test]
    fn parallel_speedup_floors_are_judged_only_at_paper_scale_on_four_cores() {
        let failures = |doc: &Json| {
            let mut gate = Gate::default();
            gate::check_parallel(&mut gate, doc);
            gate.failures
        };
        let rewritten = |doc: &Json, from: &str, to: &str| {
            let text = doc.to_string();
            assert!(text.contains(from), "nothing to rewrite: no {from}");
            Json::parse(&text.replace(from, to)).expect("rewritten document parses")
        };
        // The committed paper-scale document as a 4-core host would have
        // recorded it, every sweep point scaling well.
        let four_cores = rewritten(
            &committed("BENCH_parallel.json"),
            "\"available_parallelism\": 1",
            "\"available_parallelism\": 4",
        );
        let scaling = rewritten(&four_cores, "\"speedup\": null", "\"speedup\": 3.2");
        let scaling = rewritten(&scaling, "\"efficiency\": null", "\"efficiency\": 0.8");
        assert_eq!(failures(&scaling), Vec::<String>::new());

        let slow = rewritten(&scaling, "\"speedup\": 3.2", "\"speedup\": 1.1");
        assert!(
            failures(&slow).iter().any(|f| f.contains("speedup 1.10x")),
            "a low paper-scale 4-core speedup passed: {:?}",
            failures(&slow)
        );
        // The same numbers are recorded, not judged, on two cores or on a
        // scaled-down run; a broken identity flag still fails there.
        let two_cores = rewritten(
            &slow,
            "\"available_parallelism\": 4",
            "\"available_parallelism\": 2",
        );
        assert_eq!(failures(&two_cores), Vec::<String>::new());
        let quick = rewritten(&slow, "\"sessions\": 16", "\"sessions\": 2");
        assert_eq!(failures(&quick), Vec::<String>::new());
        let diverged = rewritten(
            &quick,
            "\"deterministic\": true",
            "\"deterministic\": false",
        );
        assert!(!failures(&diverged).is_empty());
    }

    #[test]
    fn every_check_passes_on_its_committed_artifact_and_fails_on_a_doctored_one() {
        let mut artifacts = BTreeSet::new();
        for e in &EXPERIMENTS {
            let Run::Gated {
                artifact, check, ..
            } = e.run
            else {
                continue;
            };
            assert!(artifacts.insert(artifact), "{artifact} built twice");
            let doc = committed(artifact);
            let mut gate = Gate::default();
            check(&mut gate, &doc);
            assert!(gate.checks > 0, "{artifact}: nothing checked");
            assert_eq!(gate.failures, Vec::<String>::new(), "{artifact}");

            // One way to break each artifact that its check must notice.
            let (from, to) = match artifact {
                "BENCH_parallel.json" => ("\"identical\": true", "\"identical\": false"),
                "BENCH_obs.json" => ("\"overhead_pct\": ", "\"overhead_pct\": 9"),
                "BENCH_net.json" => (
                    "\"fingerprint_check\": \"0x",
                    "\"fingerprint_check\": \"0xf",
                ),
                "BENCH_mcast.json" => ("\"singleton_parity\": true", "\"singleton_parity\": false"),
                "BENCH_lookahead.json" => ("\"h1_equals_myopic\": true", "\"h1_equals_myopic\": 0"),
                other => panic!("no sabotage for {other}"),
            };
            let mut gate = Gate::default();
            check(&mut gate, &doctored(&doc, from, to));
            assert!(
                !gate.failures.is_empty(),
                "{artifact}: doctored copy passed"
            );
        }
        assert_eq!(artifacts.len(), 5);
    }
}
