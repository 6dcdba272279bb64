//! The metric lists — read from `BENCHMARK.json`, the one place that
//! names them — and the result line every run ends with.

use std::fmt::Write as _;
use std::path::Path;

use cvr_bench::json::Json;

/// One metric's identity, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Workloads in order: name, and why each exists.
    pub workloads: Vec<(String, String)>,
    /// What a user of the system sees; reported with `--trace 0`.
    pub end_to_end: Vec<MetricDef>,
    /// Single layers; reported with `--trace 1`. Names are
    /// `<crate>.<module>.<metric>`.
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    /// Reads `BENCHMARK.json` from beside the benchmark's directory.
    ///
    /// # Errors
    ///
    /// Returns what is unreadable or missing.
    pub fn load(home: &Path) -> Result<Manifest, String> {
        let path = home.join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text)?;
        let entries = |key: &str| -> Result<&[Json], String> {
            json.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json has no {key} list"))
        };
        let text_of = |entry: &Json, field: &str| -> Result<String, String> {
            entry
                .get(field)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: an entry has no {field}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            entries(key)?
                .iter()
                .map(|entry| {
                    Ok(MetricDef {
                        name: text_of(entry, "name")?,
                        unit: text_of(entry, "unit")?,
                        bound: entry.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            workloads: entries("workloads")?
                .iter()
                .map(|entry| Ok((text_of(entry, "name")?, text_of(entry, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The outcome of one run: the counts and the measured values, in the
/// order of the metric list they answer.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output was checked and found correct.
    pub correct: bool,
    /// Client-slot frames expected.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// `(name, value)` for every metric of the list.
    pub values: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Orders `values` like `defs` and checks that the run measured
    /// exactly the metrics `BENCHMARK.json` lists, all finite (anything
    /// else makes the run incorrect).
    pub fn conform(mut self, defs: &[MetricDef]) -> Self {
        for (name, _) in &self.values {
            if !defs.iter().any(|def| def.name == *name) {
                eprintln!("metric {name} is not listed in BENCHMARK.json");
                self.correct = false;
            }
        }
        let mut ordered = Vec::with_capacity(defs.len());
        for def in defs {
            match self.values.iter().find(|(name, _)| *name == def.name) {
                Some(&(name, value)) if value.is_finite() => ordered.push((name, value)),
                _ => {
                    eprintln!("metric {} is missing or not finite", def.name);
                    ordered.push(("", 0.0));
                    self.correct = false;
                }
            }
        }
        self.values = ordered;
        self
    }

    /// Prints every metric by name with its unit.
    pub fn print_table(&self, defs: &[MetricDef]) {
        for (def, (_, value)) in defs.iter().zip(&self.values) {
            println!("  {:<44} {:>16.4} {}", def.name, value, def.unit);
        }
    }

    /// The one-line JSON object the benchmark contract asks for.
    pub fn to_json_line(&self, defs: &[MetricDef]) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (def, (_, value))) in defs.iter().zip(&self.values).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        line.push_str("}}");
        line
    }
}
