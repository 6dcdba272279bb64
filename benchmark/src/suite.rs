//! Running more than one pass: the whole suite (every workload, timed
//! then traced, each in a fresh process, with the cross-process
//! correctness gate and one result file) and `--repeat K` (K interleaved
//! sets of timed runs, with medians, quartiles and spread ÷ bound).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

use cvr_bench::json::Json;

use crate::report::{Manifest, MetricDef};
use crate::stats::quartiles;
use crate::workloads::{Workload, REFERENCE_SECONDS};

/// What the command line selected.
pub struct Options {
    /// The benchmark's directory (`run.sh` passes it).
    pub home: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Seconds each run measures.
    pub seconds: f64,
    /// The workloads to run, in order.
    pub workloads: Vec<&'static Workload>,
    /// Skip the timed passes.
    pub traced_only: bool,
    /// The metric lists and bounds of `BENCHMARK.json`.
    pub manifest: Manifest,
}

/// One child run, parsed back.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value)` in the order printed.
    values: Vec<(String, f64)>,
    /// Sub-seed 0's fingerprint after the first frames of every client
    /// (closed-loop passes of any length agree on it), if reached.
    checkpoint: Option<String>,
    /// The run's `fingerprint` lines: per sub-seed, the frame
    /// fingerprints and the QoE outputs with all their digits.
    fingerprints: Vec<String>,
}

/// Runs one pass of one workload in a fresh process of this program.
fn child(opts: &Options, w: &Workload, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("--home")
        .arg(&opts.home)
        .args(["--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{} exited with {}", w.name, output.status));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    for line in stdout.lines().filter(|line| !line.starts_with(['{', ' '])) {
        println!(" | {line}");
    }
    let json = Json::parse(last)?;
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        return Err("result line has no metrics".to_string());
    };
    let fingerprints: Vec<String> = stdout
        .lines()
        .filter(|line| line.starts_with("fingerprint "))
        .map(str::to_string)
        .collect();
    // Sub-seed 0 is the one the timed and the traced pass share.
    let checkpoint = fingerprints.first().and_then(|line| {
        line.split_whitespace()
            .find_map(|part| part.strip_prefix("checkpoint="))
            .filter(|c| *c != "none")
            .map(str::to_string)
    });
    Ok(ChildRun {
        correct: json.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: json.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        failed: json.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        values: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        checkpoint,
        fingerprints,
    })
}

fn print_values(defs: &[MetricDef], run: &ChildRun) {
    for def in defs {
        match run.values.iter().find(|(name, _)| *name == def.name) {
            Some((_, value)) => println!("  {:<44} {:>16.4} {}", def.name, value, def.unit),
            None => println!("  {:<44} {:>16} {}", def.name, "MISSING", def.unit),
        }
    }
}

fn json_values(out: &mut String, values: &[(String, f64)]) {
    out.push('{');
    for (i, (name, value)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {value}");
    }
    out.push('}');
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Host facts a reader needs to judge the numbers, as JSON fields.
fn host_metadata(opts: &Options) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into());
    let governor = read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .unwrap_or_else(|| "unreadable".into());
    let commit = Command::new("git")
        .arg("-C")
        .arg(&opts.home)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    format!(
        "\"host\": {{\"nproc\": {nproc}, \"kernel\": \"{kernel}\", \"cpu_governor\": \
         \"{governor}\", \"commit\": \"{commit}\"}}, \"seed\": {}, \"run_seconds\": {}, \
         \"slot_scale\": {}",
        opts.seed,
        opts.seconds,
        opts.seconds / REFERENCE_SECONDS
    )
}

fn write_out(opts: &Options, file: &str, body: &str) -> bool {
    let dir = opts.home.join("out");
    let path = dir.join(file);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => {
            println!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            false
        }
    }
}

/// Runs every selected workload — timed pass, then traced pass, each in
/// a fresh process — prints every metric by name with its unit, applies
/// the cross-process correctness gate, and writes `out/result.json`.
/// Returns whether everything was correct.
pub fn run_suite(opts: &Options) -> bool {
    let mut ok = true;
    let mut body = format!("{{{}, \"workloads\": {{", host_metadata(opts));
    for (i, w) in opts.workloads.iter().enumerate() {
        println!("== {}", w.name);
        let mut passes: Vec<(&str, &[MetricDef], ChildRun)> = Vec::new();
        for (label, defs, trace) in [
            ("end_to_end", &opts.manifest.end_to_end[..], false),
            ("per_layer", &opts.manifest.per_layer[..], true),
        ] {
            if opts.traced_only && !trace {
                continue;
            }
            match child(opts, w, trace) {
                Ok(run) => {
                    println!(
                        " {label}: correct={} attempted={} failed={}",
                        run.correct, run.attempted, run.failed
                    );
                    print_values(defs, &run);
                    ok &= run.correct && run.values.len() == defs.len();
                    passes.push((label, defs, run));
                }
                Err(e) => {
                    eprintln!("FAULT {}: {label} pass: {e}", w.name);
                    ok = false;
                }
            }
        }
        // Closed-loop passes of any length replay the same first frames:
        // the timed process and the traced process must agree on them.
        if let [(_, _, timed), (_, _, traced)] = &passes[..] {
            if !w.paced && (timed.checkpoint.is_none() || timed.checkpoint != traced.checkpoint) {
                eprintln!(
                    "FAULT {}: timed and traced passes disagree on the first frames ({:?} vs {:?})",
                    w.name, timed.checkpoint, traced.checkpoint
                );
                ok = false;
            }
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(body, "{sep}\"{}\": {{", w.name);
        for (j, (label, _, run)) in passes.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{label}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"checkpoint\": \"{}\", \"metrics\": ",
                run.correct,
                run.attempted,
                run.failed,
                run.checkpoint.as_deref().unwrap_or("none")
            );
            json_values(&mut body, &run.values);
            body.push('}');
        }
        body.push('}');
    }
    body.push_str("}}\n");
    ok &= write_out(opts, "result.json", &body);
    println!(
        "{}",
        if ok {
            "suite: all correct"
        } else {
            "suite: FAILED"
        }
    );
    ok
}

/// Runs `sets` interleaved sets of timed passes over the selected
/// workloads and reports, per (metric, workload): median, quartiles
/// (Python's `statistics.quantiles(n=4)`), and the quartile distance as
/// a share of the median, against the metric's bound. Closed-loop QoE
/// and fingerprints must agree exactly between sets. Writes
/// `out/repeat.json`. Returns whether every run was correct and every
/// spread stayed within its bound.
pub fn run_repeat(opts: &Options, sets: usize) -> bool {
    let mut ok = true;
    // runs[workload][set]
    let mut runs: Vec<Vec<ChildRun>> = opts.workloads.iter().map(|_| Vec::new()).collect();
    for set in 0..sets {
        for (w, collected) in opts.workloads.iter().zip(&mut runs) {
            println!("set {}/{sets}: {}", set + 1, w.name);
            match child(opts, w, false) {
                Ok(run) => {
                    ok &= run.correct;
                    collected.push(run);
                }
                Err(e) => {
                    eprintln!("FAULT {}: {e}", w.name);
                    ok = false;
                }
            }
        }
    }

    let mut body = format!(
        "{{{}, \"sets\": {sets}, \"workloads\": {{",
        host_metadata(opts)
    );
    println!(
        "\n{:<20} {:<24} {:>14} {:>14} {:>14} {:>8} {:>6} {:>7}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "s/b"
    );
    for (i, (w, collected)) in opts.workloads.iter().zip(&runs).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(body, "{sep}\"{}\": {{", w.name);
        // One seed, fixed slot counts: every set of a closed-loop
        // workload must report the same frames and the same QoE, exactly.
        if !w.paced
            && collected
                .iter()
                .any(|r| r.fingerprints.is_empty() || r.fingerprints != collected[0].fingerprints)
        {
            eprintln!("FAULT {}: sets disagree on fingerprints or QoE", w.name);
            ok = false;
        }
        for (j, def) in opts.manifest.end_to_end.iter().enumerate() {
            let values: Vec<f64> = collected
                .iter()
                .filter_map(|r| r.values.iter().find(|(n, _)| *n == def.name).map(|v| v.1))
                .collect();
            let Some((q1, q2, q3)) = quartiles(&values) else {
                eprintln!("FAULT {}: fewer than two runs of {}", w.name, def.name);
                ok = false;
                continue;
            };
            let spread = (q3 - q1) / q2.abs();
            let bound = def.bound.unwrap_or(0.0);
            // The set-up bound is checked between medians of run sets,
            // not against the spread within one.
            let within = spread <= bound || def.name == "setup_s";
            ok &= within;
            println!(
                "{:<20} {:<24} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>5.1}% {:>7.2}{}",
                w.name,
                def.name,
                q2,
                q1,
                q3,
                spread * 100.0,
                bound * 100.0,
                spread / bound,
                if within { "" } else { "  EXCEEDS" }
            );
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{}\": {{\"unit\": \"{}\", \"median\": {q2}, \"q1\": {q1}, \"q3\": {q3}, \
                 \"spread\": {spread}, \"bound\": {bound}}}",
                def.name, def.unit
            );
        }
        body.push('}');
    }
    body.push_str("}}\n");
    ok &= write_out(opts, "repeat.json", &body);
    println!(
        "{}",
        if ok {
            "repeat: all within bounds"
        } else {
            "repeat: FAILED"
        }
    );
    ok
}
