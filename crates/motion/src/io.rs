//! Pose-trace I/O: read and write 6-DoF motion traces as CSV, so the
//! synthetic generator can be swapped for real datasets (e.g. the Firefly
//! motion traces the paper replays) without touching the simulators.
//!
//! Format: one header line `x,y,z,yaw,pitch,roll`, then one row per slot,
//! floating-point, comma-separated.

use std::io::{BufRead, BufReader, Read, Write};

use crate::pose::Pose;

/// Errors from pose-trace parsing.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed row (wrong column count, non-numeric or non-finite
    /// field).
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::Parse { line, reason } => {
                write!(f, "parse error at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes a pose trace as CSV. Pass `&mut writer` to keep using the
/// writer afterwards.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_pose_csv<W: Write>(mut writer: W, trace: &[Pose]) -> Result<(), TraceIoError> {
    writeln!(writer, "x,y,z,yaw,pitch,roll")?;
    for pose in trace {
        let c = pose.components();
        writeln!(
            writer,
            "{},{},{},{},{},{}",
            c[0], c[1], c[2], c[3], c[4], c[5]
        )?;
    }
    Ok(())
}

/// Reads a pose trace from CSV (with or without the header line). Pass
/// `&mut reader` to keep using the reader afterwards.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] on malformed rows (including a
/// non-finite field such as `NaN` or `inf`) and
/// [`TraceIoError::Io`] on read failures.
pub fn read_pose_csv<R: Read>(reader: R) -> Result<Vec<Pose>, TraceIoError> {
    let mut out = Vec::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
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
        let fields: Vec<&str> = trimmed.split(',').collect();
        if fields.len() != 6 {
            return Err(TraceIoError::Parse {
                line: idx + 1,
                reason: format!("expected 6 fields, got {}", fields.len()),
            });
        }
        let mut c = [0.0f64; 6];
        for (i, field) in fields.iter().enumerate() {
            let parse_error = |reason: String| TraceIoError::Parse {
                line: idx + 1,
                reason: format!("field {}: {reason}", i + 1),
            };
            c[i] = field
                .trim()
                .parse::<f64>()
                .map_err(|e| parse_error(e.to_string()))?;
            if !c[i].is_finite() {
                return Err(parse_error(format!("not finite, got {}", c[i])));
            }
        }
        out.push(Pose::from_components(c));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{MotionConfig, MotionGenerator};

    #[test]
    fn round_trip_preserves_poses() {
        let trace = MotionGenerator::new(MotionConfig::paper_default(), 3).take_trace(200);
        let mut buf = Vec::new();
        write_pose_csv(&mut buf, &trace).unwrap();
        let back = read_pose_csv(buf.as_slice()).unwrap();
        assert_eq!(back.len(), trace.len());
        for (a, b) in trace.iter().zip(&back) {
            assert!((a.position.x - b.position.x).abs() < 1e-9);
            assert!((a.orientation.yaw - b.orientation.yaw).abs() < 1e-9);
            assert!((a.orientation.pitch - b.orientation.pitch).abs() < 1e-9);
        }
    }

    #[test]
    fn headerless_input_is_accepted() {
        let csv = "1.0,1.7,2.0,30.0,-5.0,0.0\n2.0,1.7,2.5,40.0,0.0,0.0\n";
        let poses = read_pose_csv(csv.as_bytes()).unwrap();
        assert_eq!(poses.len(), 2);
        assert_eq!(poses[1].orientation.yaw, 40.0);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let csv = "x,y,z,yaw,pitch,roll\n\n1,1.7,0,0,0,0\n\n";
        assert_eq!(read_pose_csv(csv.as_bytes()).unwrap().len(), 1);
    }

    #[test]
    fn wrong_column_count_is_reported_with_line() {
        let csv = "x,y,z,yaw,pitch,roll\n1,2,3\n";
        let err = read_pose_csv(csv.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn non_numeric_field_is_reported() {
        // Non-finite values parse as `f64` but are rejected too.
        for (csv, line, field) in [
            ("1,2,3,4,five,6\n", 1, "field 5"),
            ("1,2,3,4,5,6\nNaN,2,3,4,5,6\n", 2, "field 1"),
            ("1,2,3,inf,5,6\n", 1, "field 4"),
            ("1,2,3,4,5,6\n1,2,3,4,5,-infinity\n", 2, "field 6"),
        ] {
            let err = read_pose_csv(csv.as_bytes()).unwrap_err();
            assert!(matches!(err, TraceIoError::Parse { line: l, .. } if l == line));
            let message = err.to_string();
            assert!(message.contains(&format!("line {line}")), "{message}");
            assert!(message.contains(field), "{message}");
        }
    }
}
