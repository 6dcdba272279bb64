//! `cvr-bench judge <parent.jsonl> <change.jsonl>`: the paired rule a PR
//! is accepted by, over two series of `benchmark/` result lines (line `i`
//! of each file is pair `i`; `./ci.sh pair` writes them). Per end-to-end
//! metric of `BENCHMARK.json` it prints each side's median [q1, q3]
//! (Python's `statistics.quantiles(n=4)`, the rule `benchmark/` reports
//! spread with), the pairs the change won (ties count for neither) and a
//! verdict: `gain` — at least 9 wins in 10 and a median gap wider than the
//! parent's quartile distance; `worse` — the median is worse by more than
//! the metric's bound; `unmoved` — within the bound, on runs whose
//! quartile distance on either side is within the bound too;
//! `unresolved` — anything else. `(equal)` marks a metric whose every
//! value on both sides has the same bits.

use std::fmt::Write as _;

use cvr_bench::json::Json;

/// `(q1, median, q3)` as Python's `statistics.quantiles(v, n=4)` computes
/// them (the "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| -> f64 {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The verdict on one metric over the pairs `(parent[i], change[i])`, and
/// the pairs the change won; `None` for series of unequal length or
/// shorter than two. `bound` is the largest relative move of the median
/// that counts as unmoved.
pub fn verdict(
    lower_is_better: bool,
    bound: f64,
    parent: &[f64],
    change: &[f64],
) -> Option<(&'static str, usize)> {
    if parent.len() != change.len() {
        return None;
    }
    let ((q1, p, q3), (r1, c, r3)) = (quartiles(parent)?, quartiles(change)?);
    let too_wide = (q3 - q1) / p.abs() > bound || (r3 - r1) / c.abs() > bound;
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let wins = (change.iter().zip(parent))
        .filter(|&(&c, &p)| better(c, p))
        .count();
    let worse_by = match (c == p, lower_is_better) {
        (true, _) => 0.0,
        (false, true) => (c - p) / p.abs(),
        (false, false) => (p - c) / p.abs(),
    };
    let verdict = if better(c, p) && wins * 10 >= parent.len() * 9 && (c - p).abs() > q3 - q1 {
        "gain"
    } else if worse_by > bound {
        "worse"
    } else if worse_by.abs() <= bound && !too_wide {
        "unmoved"
    } else {
        "unresolved"
    };
    Some((verdict, wins))
}

/// Judges the passes of `parent` and `change` (`.jsonl` text) on every
/// end-to-end metric of `manifest` (`BENCHMARK.json`). Returns the report
/// and whether the change may land: no `worse` verdict, every pass
/// `correct` with 0 `failed`.
///
/// # Errors
///
/// A line that is not JSON, sides of unequal length or shorter than two
/// passes, a malformed manifest, or a pass without one of its metrics.
pub fn judge(manifest: &Json, parent: &str, change: &str) -> Result<(String, bool), String> {
    let passes = |text: &str| -> Result<Vec<Json>, String> {
        (text.lines().filter(|line| !line.trim().is_empty()))
            .map(Json::parse)
            .collect()
    };
    let (parent, change) = (passes(parent)?, passes(change)?);
    if parent.len() != change.len() || parent.len() < 2 {
        let (p, c) = (parent.len(), change.len());
        return Err(format!(
            "need two equal series of two or more passes, got {p} and {c}"
        ));
    }
    let mut out = String::new();
    let mut ok = true;
    for (side, passes) in [("parent", &parent), ("change", &change)] {
        for (i, pass) in passes.iter().enumerate() {
            let correct = pass.get("correct").and_then(Json::as_bool) == Some(true);
            let failed = pass.get("failed").and_then(Json::as_f64);
            if !correct || failed != Some(0.0) {
                let _ = writeln!(
                    out,
                    "FAIL {side} pass {}: correct={correct} failed={failed:?}",
                    i + 1
                );
                ok = false;
            }
        }
    }
    let metrics = (manifest.get("end_to_end").and_then(Json::as_array))
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let _ = writeln!(
        out,
        "{:<24} {:>35} {:>35} {:>5} {:>8}  verdict",
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "change"
    );
    for metric in metrics {
        let name = (metric.get("name").and_then(Json::as_str)).ok_or("an unnamed metric")?;
        let lower = metric.get("better").and_then(Json::as_str) == Some("lower");
        let bound =
            (metric.get("bound").and_then(Json::as_f64)).ok_or("a metric without a bound")?;
        let series = |passes: &[Json]| -> Result<Vec<f64>, String> {
            (passes.iter())
                .map(|pass| {
                    pass.path(&format!("metrics.{name}.value"))
                        .and_then(Json::as_f64)
                })
                .collect::<Option<_>>()
                .ok_or(format!("a pass has no {name}"))
        };
        let (p, c) = (series(&parent)?, series(&change)?);
        let (verdict, wins) = verdict(lower, bound, &p, &c).expect("two equal series");
        ok &= verdict != "worse";
        let ((p1, p2, p3), (c1, c2, c3)) = (quartiles(&p).unwrap(), quartiles(&c).unwrap());
        let equal = p.iter().chain(&c).all(|v| v.to_bits() == p[0].to_bits());
        let _ = writeln!(
            out,
            "{name:<24} {:>35} {:>35} {wins:>2}/{:<2} {:>+7.2}%  {verdict}{}",
            format!("{p2:.4} [{p1:.4}, {p3:.4}]"),
            format!("{c2:.4} [{c1:.4}, {c3:.4}]"),
            p.len(),
            if c2 == p2 {
                0.0
            } else {
                (c2 - p2) / p2.abs() * 100.0
            },
            if equal { " (equal)" } else { "" }
        );
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn the_verdict_table() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let scaled = |k: f64| parent.iter().map(|p| p * k).collect::<Vec<f64>>();
        let lower = |change: &[f64]| verdict(true, 0.1, &parent, change).unwrap();
        // Ten wins and a gap far beyond the parent's IQR (5.5).
        assert_eq!(lower(&scaled(0.5)), ("gain", 10));
        // The same numbers lose when higher is better.
        assert_eq!(
            verdict(false, 0.1, &parent, &scaled(0.5)),
            Some(("worse", 0))
        );
        // 20 % worse against a 10 % bound.
        assert_eq!(lower(&scaled(1.2)).0, "worse");
        // Every pair a tie: nothing won, unmoved.
        assert_eq!(lower(&parent), ("unmoved", 0));
        // Within the bound in the better direction is unmoved too.
        assert_eq!(lower(&scaled(0.97)), ("unmoved", 10));
        // 15 % better in all ten pairs, but inside a wide parent spread
        // (IQR 55) and beyond the bound: unresolved.
        let wide: Vec<f64> = (0..10).map(|i| 100.0 + 10.0 * f64::from(i)).collect();
        let better: Vec<f64> = wide.iter().map(|p| p * 0.85).collect();
        assert_eq!(verdict(true, 0.1, &wide, &better), Some(("unresolved", 10)));
        // Equal medians on runs that spread wider than the bound.
        assert_eq!(verdict(true, 0.1, &wide, &wide), Some(("unresolved", 0)));
        // A loss and a tie leave 8 wins of 10: short of 9.
        let mut eight = scaled(0.5);
        eight[0] = parent[0] * 3.0;
        eight[1] = parent[1];
        assert_eq!(lower(&eight), ("unresolved", 8));
        // Unjudgeable: one pair, or series of unequal length.
        assert_eq!(verdict(true, 0.1, &[1.0], &[1.0]), None);
        assert_eq!(verdict(true, 0.1, &[1.0, 2.0], &[1.0]), None);
    }

    fn pass(correct: bool, failed: u32, rss: f64) -> String {
        format!(
            "{{\"correct\": {correct}, \"attempted\": 10, \"failed\": {failed}, \
             \"metrics\": {{\"peak_rss_mb\": {{\"value\": {rss}, \"unit\": \"MB\"}}}}}}\n"
        )
    }

    #[test]
    fn judge_refuses_worse_metrics_incorrect_passes_and_failed_operations() {
        let manifest = Json::parse(
            "{\"end_to_end\": [{\"name\": \"peak_rss_mb\", \"better\": \"lower\", \"bound\": 0.1}]}",
        )
        .unwrap();
        let judge = |parent: &str, change: &str| judge(&manifest, parent, change);
        let parent = pass(true, 0, 18.6) + &pass(true, 0, 18.7);
        let (report, ok) = judge(&parent, &(pass(true, 0, 10.6) + &pass(true, 0, 10.7))).unwrap();
        assert!(
            ok && report.contains(" 2/2 ") && report.contains("gain"),
            "{report}"
        );
        let (report, ok) = judge(&parent, &parent).unwrap();
        assert!(ok && report.contains("unmoved"), "{report}");
        let (report, ok) = judge(&parent, &(pass(true, 0, 25.0) + &pass(true, 0, 25.0))).unwrap();
        assert!(!ok && report.contains("worse"), "{report}");
        let (report, ok) = judge(&parent, &(pass(false, 0, 18.6) + &pass(true, 0, 18.6))).unwrap();
        assert!(
            !ok && report.contains("FAIL change pass 1: correct=false"),
            "{report}"
        );
        let (_, ok) = judge(&(pass(true, 2, 18.6) + &pass(true, 0, 18.7)), &parent).unwrap();
        assert!(!ok, "a failed operation refuses");
        assert!(judge(&parent, &pass(true, 0, 18.6)).is_err());
        assert!(judge(&parent, &(parent.clone() + "not json\n")).is_err());
        let other = manifest.to_string().replace("peak_rss_mb", "slots_per_s");
        assert!(super::judge(&Json::parse(&other).unwrap(), &parent, &parent).is_err());
    }

    #[test]
    fn the_committed_manifest_is_judgeable() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let metrics = manifest.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(metrics.len(), 9);
        for m in metrics {
            assert!(matches!(
                m.path("better").and_then(Json::as_str),
                Some("lower" | "higher")
            ));
            assert!(m
                .path("bound")
                .and_then(Json::as_f64)
                .is_some_and(|b| b > 0.0));
        }
    }
}
