//! `cvr-benchmark`: the repo's one end-to-end benchmark of the live edge
//! server. `run.sh` builds it and passes its own directory as `--home`.
//!
//! * `--workload W --trace 0|1 [--seed N] [--seconds S]` — one pass in
//!   this process; the last line of stdout is the result object the
//!   benchmark contract defines (`--trace 0`: end-to-end metrics,
//!   `--trace 1`: per-layer metrics).
//! * no `--trace` — the suite: every workload (or `--workload W`), timed
//!   pass then traced pass (`--traced-only` skips the first), each in a
//!   fresh process; writes `out/result.json`.
//! * `--repeat K` — K interleaved sets of timed passes with medians,
//!   quartiles and spread ÷ bound; writes `out/repeat.json`.
//! * `--list` — the workloads and why each exists.
//!
//! Exit code 0 only if every output checked was correct.

mod calib;
mod measure;
mod nbclient;
mod passes;
mod probes;
mod report;
mod spans;
mod stats;
mod suite;
mod tap;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Manifest;
use workloads::{Workload, REFERENCE_SECONDS};

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--traced-only] [--repeat K] [--list]";

struct Args {
    home: PathBuf,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    traced_only: bool,
    repeat: Option<usize>,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        home: PathBuf::from("benchmark"),
        workload: None,
        seed: 2022,
        seconds: REFERENCE_SECONDS,
        trace: None,
        traced_only: false,
        repeat: None,
        list: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--home" => args.home = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workloads::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--traced-only" => args.traced_only = true,
            "--repeat" => {
                let sets: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if sets < 2 {
                    return Err("--repeat needs at least 2 sets".to_string());
                }
                args.repeat = Some(sets);
            }
            "--list" => args.list = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let manifest = match Manifest::load(&args.home) {
        Ok(manifest) => manifest,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if args.list {
        for (name, why) in &manifest.workloads {
            println!("{name:<20} {why}");
        }
        return ExitCode::SUCCESS;
    }

    // One pass, in this process, ending with the contract's result line.
    if let (Some(w), Some(trace)) = (args.workload, args.trace) {
        let (defs, result) = if trace {
            let out_dir = args.home.join("out");
            (
                &manifest.per_layer,
                passes::traced_run(w, args.seed, args.seconds, &out_dir),
            )
        } else {
            (
                &manifest.end_to_end,
                passes::timed_run(w, args.seed, args.seconds),
            )
        };
        return match result {
            Ok(result) => {
                let result = result.conform(defs);
                result.print_table(defs);
                println!("{}", result.to_json_line(defs));
                if result.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                ExitCode::FAILURE
            }
        };
    }

    // The suite runs what `BENCHMARK.json` lists.
    let workloads: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => match manifest
            .workloads
            .iter()
            .map(|(name, _)| workloads::find(name).ok_or(name))
            .collect()
        {
            Ok(listed) => listed,
            Err(name) => {
                eprintln!("BENCHMARK.json lists an unknown workload {name}");
                return ExitCode::FAILURE;
            }
        },
    };
    let opts = suite::Options {
        home: args.home,
        seed: args.seed,
        seconds: args.seconds,
        workloads,
        traced_only: args.traced_only,
        manifest,
    };
    let ok = match args.repeat {
        Some(sets) => suite::run_repeat(&opts, sets),
        None => suite::run_suite(&opts),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
