//! Throughput traces and their generators.
//!
//! The paper drives its Section IV simulation with real traces: half from
//! the FCC "Measuring Broadband America" fixed-broadband dataset (March
//! 2021 collection, "Web browsing" category) and half from the Ghent
//! University 4G/LTE logs, scaled into 20–100 Mbps and cut to 300 s. Those
//! datasets are not redistributable here, so this module generates
//! statistically similar synthetic traces:
//!
//! * **FCC-like** — stable fixed-line throughput: long holds (several
//!   seconds), small multiplicative jitter around a per-trace base rate.
//! * **LTE-like** — bursty cellular throughput: shorter holds, larger
//!   swings, and occasional deep fades (handover/congestion events).
//!
//! A trace is piecewise-constant, exactly like the paper's playback: "the
//! network throughput in the dataset usually lasts for several seconds for
//! each point … we just let multiple continuous slots share the same
//! bandwidth".

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A piecewise-constant throughput trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputTrace {
    /// `(hold duration in seconds, throughput in Mbps)` segments.
    segments: Vec<(f64, f64)>,
    total_duration: f64,
}

impl ThroughputTrace {
    /// Builds a trace from `(duration_s, mbps)` segments.
    ///
    /// Zero-throughput segments are allowed: the impairment engine
    /// ([`crate::impair`]) models inter-RAT handovers as hard
    /// zero-throughput windows.
    ///
    /// # Panics
    ///
    /// Panics if any segment has non-positive duration or negative
    /// throughput, or if the trace is empty.
    pub fn from_segments(segments: Vec<(f64, f64)>) -> Self {
        assert!(!segments.is_empty(), "trace must have at least one segment");
        for &(d, m) in &segments {
            assert!(
                d > 0.0 && d.is_finite(),
                "segment duration must be positive"
            );
            assert!(
                m >= 0.0 && m.is_finite(),
                "segment throughput must be non-negative"
            );
        }
        let total_duration = segments.iter().map(|s| s.0).sum();
        ThroughputTrace {
            segments,
            total_duration,
        }
    }

    /// A constant trace (useful in tests and controlled experiments).
    pub fn constant(mbps: f64, duration_s: f64) -> Self {
        ThroughputTrace::from_segments(vec![(duration_s, mbps)])
    }

    /// Total duration in seconds.
    pub fn duration(&self) -> f64 {
        self.total_duration
    }

    /// Throughput at time `t` seconds; the trace repeats cyclically past
    /// its end (the paper reuses its short Ghent logs the same way).
    pub fn at(&self, t: f64) -> f64 {
        let mut t = t.rem_euclid(self.total_duration);
        for &(d, m) in &self.segments {
            if t < d {
                return m;
            }
            t -= d;
        }
        self.segments.last().expect("nonempty").1
    }

    /// The underlying segments.
    pub fn segments(&self) -> &[(f64, f64)] {
        &self.segments
    }

    /// Mean throughput, duration-weighted.
    pub fn mean(&self) -> f64 {
        self.segments.iter().map(|&(d, m)| d * m).sum::<f64>() / self.total_duration
    }

    /// Minimum throughput over the trace.
    pub fn min(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.1)
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum throughput over the trace.
    pub fn max(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.1)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Statistical profile of a generated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceProfile {
    /// Fixed-broadband-like: long stable holds, light jitter.
    FccLike,
    /// 4G/LTE-like: short holds, heavy swings, occasional deep fades.
    LteLike,
}

/// Configurable synthetic trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceGeneratorConfig {
    /// Profile selecting hold-time and variability statistics.
    pub profile: TraceProfile,
    /// Lower throughput bound, Mbps (paper: 20).
    pub min_mbps: f64,
    /// Upper throughput bound, Mbps (paper: 100).
    pub max_mbps: f64,
    /// Trace length in seconds (paper: 300).
    pub duration_s: f64,
}

impl TraceGeneratorConfig {
    /// The paper's Section IV envelope for a given profile: 20–100 Mbps,
    /// 300 s.
    pub fn paper_default(profile: TraceProfile) -> Self {
        TraceGeneratorConfig {
            profile,
            min_mbps: 20.0,
            max_mbps: 100.0,
            duration_s: 300.0,
        }
    }

    /// Generates one trace with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not ordered positive numbers or the
    /// duration is non-positive.
    pub fn generate(&self, seed: u64) -> ThroughputTrace {
        assert!(
            self.min_mbps > 0.0 && self.max_mbps > self.min_mbps,
            "bad bounds"
        );
        assert!(self.duration_s > 0.0, "bad duration");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut segments = Vec::new();
        let mut elapsed = 0.0;

        // Per-trace base rate: a fixed line sits near one operating point;
        // an LTE link has a base too but wanders more.
        let base = rng.gen_range(self.min_mbps..self.max_mbps);

        let mut current = base;
        while elapsed < self.duration_s {
            let (hold, next) = match self.profile {
                TraceProfile::FccLike => {
                    let hold = rng.gen_range(5.0..30.0);
                    // Light multiplicative jitter around the base.
                    let jitter = 1.0 + rng.gen_range(-0.08..0.08);
                    (hold, base * jitter)
                }
                TraceProfile::LteLike => {
                    let hold = rng.gen_range(1.0..5.0);
                    let next = if rng.gen_bool(0.07) {
                        // Deep fade: handover or cell congestion.
                        current * rng.gen_range(0.25..0.5)
                    } else {
                        // Heavy-tailed wander around the base.
                        let swing = 1.0 + rng.gen_range(-0.35..0.35);
                        0.5 * current + 0.5 * base * swing
                    };
                    (hold, next)
                }
            };
            current = next.clamp(self.min_mbps, self.max_mbps);
            // Trim the final hold so the trace ends exactly at duration_s.
            let remaining = self.duration_s - elapsed;
            let hold = f64::min(hold, remaining);
            if hold <= 0.0 {
                break;
            }
            segments.push((hold, current));
            elapsed += hold;
        }
        ThroughputTrace::from_segments(segments)
    }
}

/// Errors from throughput-trace CSV parsing.
#[derive(Debug)]
pub enum TraceCsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed row.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        reason: String,
    },
    /// The file contained no usable segments.
    Empty,
}

impl std::fmt::Display for TraceCsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceCsvError::Io(e) => write!(f, "i/o error: {e}"),
            TraceCsvError::Parse { line, reason } => {
                write!(f, "parse error at line {line}: {reason}")
            }
            TraceCsvError::Empty => write!(f, "trace file contained no segments"),
        }
    }
}

impl std::error::Error for TraceCsvError {}

impl From<std::io::Error> for TraceCsvError {
    fn from(e: std::io::Error) -> Self {
        TraceCsvError::Io(e)
    }
}

impl ThroughputTrace {
    /// Writes the trace as `duration_s,mbps` CSV rows (with header).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn to_csv<W: std::io::Write>(&self, mut writer: W) -> Result<(), TraceCsvError> {
        writeln!(writer, "duration_s,mbps")?;
        for &(d, m) in &self.segments {
            writeln!(writer, "{d},{m}")?;
        }
        Ok(())
    }

    /// Reads a trace from `duration_s,mbps` CSV rows (header optional) —
    /// the format real FCC/Ghent logs are easily converted into, letting
    /// the synthetic generators be swapped for the paper's actual
    /// datasets.
    ///
    /// # Errors
    ///
    /// Returns [`TraceCsvError::Parse`] on malformed rows (including
    /// non-positive durations or negative throughputs; zero throughput is
    /// a valid outage window), [`TraceCsvError::Empty`]
    /// when no rows survive, and [`TraceCsvError::Io`] on read failures.
    pub fn from_csv<R: std::io::Read>(reader: R) -> Result<Self, TraceCsvError> {
        use std::io::BufRead;
        let mut segments = Vec::new();
        for (idx, line) in std::io::BufReader::new(reader).lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            // Skip a header row (first line whose first column is not numeric).
            if idx == 0
                && trimmed
                    .split(',')
                    .next()
                    .is_some_and(|f| f.trim().parse::<f64>().is_err())
            {
                continue;
            }
            let mut parts = trimmed.split(',');
            let (d, m) = match (parts.next(), parts.next(), parts.next()) {
                (Some(d), Some(m), None) => (d, m),
                _ => {
                    return Err(TraceCsvError::Parse {
                        line: idx + 1,
                        reason: "expected exactly 2 fields".into(),
                    })
                }
            };
            let parse = |s: &str, name: &str, min: f64| -> Result<f64, TraceCsvError> {
                let v: f64 = s.trim().parse().map_err(|e| TraceCsvError::Parse {
                    line: idx + 1,
                    reason: format!("{name}: {e}"),
                })?;
                if !v.is_finite() || v < min || (min == 0.0 && v.is_sign_negative()) {
                    return Err(TraceCsvError::Parse {
                        line: idx + 1,
                        reason: format!("{name} out of range, got {v}"),
                    });
                }
                Ok(v)
            };
            // Durations must be positive; throughputs may be exactly zero
            // (handover outage windows).
            segments.push((
                parse(d, "duration", f64::MIN_POSITIVE)?,
                parse(m, "mbps", 0.0)?,
            ));
        }
        if segments.is_empty() {
            return Err(TraceCsvError::Empty);
        }
        Ok(ThroughputTrace::from_segments(segments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace_lookup() {
        let t = ThroughputTrace::constant(50.0, 10.0);
        assert_eq!(t.at(0.0), 50.0);
        assert_eq!(t.at(9.99), 50.0);
        assert_eq!(t.duration(), 10.0);
        assert_eq!(t.mean(), 50.0);
        assert_eq!(t.min(), 50.0);
        assert_eq!(t.max(), 50.0);
    }

    #[test]
    fn segment_lookup_and_cycling() {
        let t = ThroughputTrace::from_segments(vec![(1.0, 10.0), (2.0, 20.0)]);
        assert_eq!(t.at(0.5), 10.0);
        assert_eq!(t.at(1.5), 20.0);
        assert_eq!(t.at(2.9), 20.0);
        // Cycles past the end.
        assert_eq!(t.at(3.2), 10.0);
        assert_eq!(t.at(7.5), 20.0); // 7.5 mod 3 = 1.5 → second segment
        assert!((t.mean() - (10.0 + 40.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_trace_panics() {
        let _ = ThroughputTrace::from_segments(vec![]);
    }

    #[test]
    #[should_panic(expected = "throughput must be non-negative")]
    fn negative_throughput_panics() {
        let _ = ThroughputTrace::from_segments(vec![(1.0, -1.0)]);
    }

    #[test]
    fn zero_throughput_segments_are_valid_outages() {
        let t = ThroughputTrace::from_segments(vec![(1.0, 40.0), (0.5, 0.0), (1.0, 40.0)]);
        assert_eq!(t.at(1.2), 0.0);
        assert_eq!(t.min(), 0.0);
        let mut buf = Vec::new();
        t.to_csv(&mut buf).unwrap();
        let back = ThroughputTrace::from_csv(buf.as_slice()).unwrap();
        assert_eq!(back.segments(), t.segments());
    }

    #[test]
    fn generated_traces_respect_bounds_and_duration() {
        for profile in [TraceProfile::FccLike, TraceProfile::LteLike] {
            let cfg = TraceGeneratorConfig::paper_default(profile);
            for seed in 0..20 {
                let t = cfg.generate(seed);
                assert!((t.duration() - 300.0).abs() < 1e-9);
                assert!(t.min() >= 20.0 - 1e-9, "{profile:?} below floor");
                assert!(t.max() <= 100.0 + 1e-9, "{profile:?} above ceiling");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TraceGeneratorConfig::paper_default(TraceProfile::LteLike);
        assert_eq!(cfg.generate(7), cfg.generate(7));
        assert_ne!(cfg.generate(7), cfg.generate(8));
    }

    #[test]
    fn lte_is_more_variable_than_fcc() {
        let mut fcc_cv = 0.0;
        let mut lte_cv = 0.0;
        let n = 30;
        for seed in 0..n {
            for (profile, acc) in [
                (TraceProfile::FccLike, &mut fcc_cv),
                (TraceProfile::LteLike, &mut lte_cv),
            ] {
                let t = TraceGeneratorConfig::paper_default(profile).generate(seed);
                let mean = t.mean();
                let var: f64 = t
                    .segments()
                    .iter()
                    .map(|&(d, m)| d * (m - mean) * (m - mean))
                    .sum::<f64>()
                    / t.duration();
                *acc += var.sqrt() / mean;
            }
        }
        assert!(
            lte_cv > 2.0 * fcc_cv,
            "LTE CV {lte_cv} should clearly exceed FCC CV {fcc_cv}"
        );
    }

    #[test]
    fn lte_holds_are_shorter() {
        let fcc = TraceGeneratorConfig::paper_default(TraceProfile::FccLike).generate(3);
        let lte = TraceGeneratorConfig::paper_default(TraceProfile::LteLike).generate(3);
        let avg = |t: &ThroughputTrace| t.duration() / t.segments().len() as f64;
        assert!(avg(&lte) < avg(&fcc));
    }

    #[test]
    fn csv_round_trip() {
        let t = TraceGeneratorConfig::paper_default(TraceProfile::LteLike).generate(9);
        let mut buf = Vec::new();
        t.to_csv(&mut buf).unwrap();
        let back = ThroughputTrace::from_csv(buf.as_slice()).unwrap();
        assert_eq!(back.segments().len(), t.segments().len());
        assert!((back.duration() - t.duration()).abs() < 1e-9);
        assert!((back.mean() - t.mean()).abs() < 1e-9);
    }

    #[test]
    fn csv_accepts_headerless_and_blank_lines() {
        let csv = "5.0,40.0\n\n10.0,60.0\n";
        let t = ThroughputTrace::from_csv(csv.as_bytes()).unwrap();
        assert_eq!(t.segments().len(), 2);
        assert_eq!(t.at(7.0), 60.0);
    }

    #[test]
    fn csv_rejects_malformed_rows() {
        assert!(matches!(
            ThroughputTrace::from_csv("duration_s,mbps\n1.0\n".as_bytes()),
            Err(TraceCsvError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            ThroughputTrace::from_csv("1.0,abc\n".as_bytes()),
            Err(TraceCsvError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            ThroughputTrace::from_csv("1.0,-5.0\n".as_bytes()),
            Err(TraceCsvError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            ThroughputTrace::from_csv("duration_s,mbps\n".as_bytes()),
            Err(TraceCsvError::Empty)
        ));
    }
}
