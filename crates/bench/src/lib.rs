//! # cvr-bench
//!
//! Figure-regeneration and benchmark harness for the ICDCS 2022
//! collaborative-VR reproduction. The one binary, `cvr-bench <experiment>`,
//! is driven by a declarative experiment table (`src/main.rs`); this
//! library holds what the experiments share — argument parsing, the
//! result [`Table`] and the [`json`] reader/writer — and what
//! `benchmark/` reuses ([`json::Json`]). The Criterion benches measure
//! allocator latency and approximation quality.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::path::{Path, PathBuf};

pub mod json;
mod table;

pub use table::{Cell, Table};

/// The flags every experiment accepts, for usage messages.
pub const FLAGS: &str = "[--quick|--scale X|--runs N|--duration S|--seed N|--csv DIR|--threads N]";

/// Command-line options shared by every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureArgs {
    /// Scale factor applied to run counts and durations (`--quick` = 0.1).
    pub scale: f64,
    /// Explicit run-count override (`--runs N`).
    pub runs: Option<usize>,
    /// Explicit duration override in seconds (`--duration S`).
    pub duration_s: Option<f64>,
    /// Base seed (`--seed N`).
    pub seed: u64,
    /// Directory to write plot-ready CSV files into (`--csv DIR`).
    pub csv_dir: Option<PathBuf>,
    /// Worker threads for the parallel experiment runner (`--threads N`;
    /// `None`/0 = available parallelism). Results are bit-identical for
    /// every value.
    pub threads: Option<usize>,
}

impl Default for FigureArgs {
    fn default() -> Self {
        FigureArgs {
            scale: 1.0,
            runs: None,
            duration_s: None,
            seed: 2022,
            csv_dir: None,
            threads: None,
        }
    }
}

impl FigureArgs {
    /// Parses the flags in [`FLAGS`] from `args` (the command line after
    /// the experiment name).
    ///
    /// # Errors
    ///
    /// Names the offending flag when it is unknown, or its value is
    /// missing or malformed.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(
            flag: &str,
            what: &str,
            args: &mut impl Iterator<Item = String>,
        ) -> Result<T, String> {
            args.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} requires {what}"))
        }
        let mut out = FigureArgs::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--quick" => out.scale = 0.1,
                "--scale" => out.scale = value(&flag, "a number", &mut args)?,
                "--runs" => out.runs = Some(value(&flag, "an integer", &mut args)?),
                "--duration" => out.duration_s = Some(value(&flag, "seconds", &mut args)?),
                "--seed" => out.seed = value(&flag, "an integer", &mut args)?,
                "--csv" => out.csv_dir = Some(value(&flag, "a directory", &mut args)?),
                "--threads" => out.threads = Some(value(&flag, "an integer", &mut args)?),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }

    /// A run count scaled from the paper's default.
    pub fn runs_or(&self, paper_default: usize) -> usize {
        self.runs
            .unwrap_or_else(|| ((paper_default as f64 * self.scale).round() as usize).max(1))
    }

    /// A duration scaled from the paper's default.
    pub fn duration_or(&self, paper_default_s: f64) -> f64 {
        self.duration_s.unwrap_or(paper_default_s * self.scale)
    }

    /// Whether the run is at the paper's scale: nothing shrank the run
    /// counts or durations. Only such runs may replace the committed
    /// `BENCH_*.json` artifacts.
    pub fn paper_scale(&self) -> bool {
        self.scale == 1.0 && self.runs.is_none() && self.duration_s.is_none()
    }
}

/// Writes a CSV file with the given header and rows into `dir`
/// (creating it if needed), for downstream plotting.
///
/// # Panics
///
/// Panics on I/O failure — figure regeneration should fail loudly.
pub fn write_csv(dir: &Path, name: &str, header: &str, rows: &[String]) {
    std::fs::create_dir_all(dir).expect("create csv directory");
    let path = dir.join(name);
    let mut content = String::with_capacity(rows.len() * 32 + header.len() + 1);
    content.push_str(header);
    content.push('\n');
    for row in rows {
        content.push_str(row);
        content.push('\n');
    }
    std::fs::write(&path, content).expect("write csv file");
    println!("wrote {}", path.display());
}

/// Percentage improvement of `a` over `b`, `(a − b) / |b| · 100`.
pub fn improvement_pct(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        if a == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b) / b.abs() * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_pct_basic() {
        assert!((improvement_pct(1.5, 1.0) - 50.0).abs() < 1e-12);
        assert!((improvement_pct(1.0, -0.5) - 300.0).abs() < 1e-12);
        assert_eq!(improvement_pct(0.0, 0.0), 0.0);
        assert_eq!(improvement_pct(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn args_scaling() {
        let a = FigureArgs {
            scale: 0.1,
            seed: 1,
            ..FigureArgs::default()
        };
        assert_eq!(a.runs_or(100), 10);
        assert_eq!(a.duration_or(300.0), 30.0);
        let b = FigureArgs {
            runs: Some(3),
            duration_s: Some(5.0),
            ..a
        };
        assert_eq!(b.runs_or(100), 3);
        assert_eq!(b.duration_or(300.0), 5.0);
    }

    #[test]
    fn default_args() {
        let d = FigureArgs::default();
        assert_eq!(d.scale, 1.0);
        assert_eq!(d.seed, 2022);
        assert!(d.csv_dir.is_none());
        assert_eq!(FigureArgs::parse([]), Ok(d));
    }

    fn parse(line: &str) -> Result<FigureArgs, String> {
        FigureArgs::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_every_flag() {
        let a = parse("--quick --runs 3 --duration 5 --seed 9 --csv out --threads 4").unwrap();
        assert_eq!(a.scale, 0.1);
        assert_eq!((a.runs, a.duration_s, a.seed), (Some(3), Some(5.0), 9));
        assert_eq!(a.csv_dir, Some(PathBuf::from("out")));
        assert_eq!(a.threads, Some(4));
        assert_eq!(parse("--scale 0.5").unwrap().scale, 0.5);
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        assert_eq!(
            parse("--fast"),
            Err("unknown argument `--fast`".to_string())
        );
        assert_eq!(
            parse("--runs many"),
            Err("--runs requires an integer".to_string())
        );
        assert_eq!(
            parse("--seed"),
            Err("--seed requires an integer".to_string())
        );
    }

    #[test]
    fn write_csv_round_trips() {
        let dir = std::env::temp_dir().join("cvr-bench-csv-test");
        write_csv(
            &dir,
            "sample.csv",
            "a,b",
            &["1,2".to_string(), "3,4".to_string()],
        );
        let content = std::fs::read_to_string(dir.join("sample.csv")).expect("read back");
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
