//! `perfbench compare BASE HEAD`: the paired-run rule for claiming a
//! gain and for ruling out a regression.
//!
//! BASE and HEAD are files of result lines written by `perfbench run
//! --out`, one file per commit, with runs of the two commits made in
//! alternation. The i-th run of a workload in BASE pairs with the i-th
//! in HEAD.

use crate::metrics::{self, Better, MetricDef};
use crate::stats::{median, quartiles, relative_iqr};
use anafault::protocol::{parse_json, Json};
use std::collections::BTreeMap;

/// Pairs needed before any verdict.
pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Wins at least nine tenths of the pairs, by more than the parent's
    /// interquartile range.
    Gain,
    /// Median worse than the parent's by more than the bound.
    Regression,
    /// Spread wider than the bound: no claim either way.
    Unresolved,
    /// Spread wider than the bound, but every run of the change reads
    /// better than every run of the parent.
    Better,
    /// Within the bound.
    Unchanged,
    /// A per-layer metric that is not a gain (no bound to judge against).
    NoClaim,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::NoClaim => "-",
        }
    }
}

/// Judges one metric from paired runs (the first `min(len)` of each).
pub fn judge(def: &MetricDef, base: &[f64], head: &[f64]) -> Result<(Verdict, usize), String> {
    let n = base.len().min(head.len());
    if n < MIN_PAIRS {
        return Err(format!(
            "{}: {n} paired runs; the rule needs at least {MIN_PAIRS}",
            def.name
        ));
    }
    let (base, head) = (&base[..n], &head[..n]);
    let better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let wins = base
        .iter()
        .zip(head)
        .filter(|(b, h)| better(**h, **b))
        .count();
    let (mb, mh) = (median(base), median(head));
    let improvement = match def.better {
        Better::Lower => mb - mh,
        Better::Higher => mh - mb,
    };
    let (q1, q3) = quartiles(base).expect("at least two runs");
    if wins * 10 >= n * 9 && improvement > q3 - q1 {
        return Ok((Verdict::Gain, wins));
    }
    let Some(bound) = def.bound else {
        return Ok((Verdict::NoClaim, wins));
    };
    if -improvement > bound * mb.abs() {
        return Ok((Verdict::Regression, wins));
    }
    if relative_iqr(base).max(relative_iqr(head)) > bound {
        let all_better = head.iter().all(|&h| base.iter().all(|&b| better(h, b)));
        let verdict = if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
        return Ok((verdict, wins));
    }
    Ok((Verdict::Unchanged, wins))
}

/// Metric values per (workload, metric), in file order, plus the failed
/// operation count.
#[derive(Debug, Default)]
pub struct Runs {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub failed: u64,
}

/// Reads the result lines of a `perfbench run --out` file; other lines
/// (fingerprints) are skipped.
pub fn load(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::default();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse_json(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let Some(Json::String(workload)) = doc.get("workload") else {
            continue;
        };
        runs.failed += doc.get("failed").and_then(|v| v.as_u64().ok()).unwrap_or(0);
        let Some(Json::Object(metrics)) = doc.get("metrics") else {
            return Err(format!("line {}: no metrics", n + 1));
        };
        for (name, entry) in metrics {
            let value = entry
                .field("value")
                .and_then(Json::as_f64)
                .map_err(|e| format!("line {}: {name}: {e}", n + 1))?;
            runs.values
                .entry((workload.clone(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// Compares two files' runs. Returns the report and whether the change
/// regressed (a metric beyond its bound, or more failed operations).
pub fn compare(base: &Runs, head: &Runs) -> Result<(String, bool), String> {
    let mut report = format!(
        "{:<14} {:<26} {:>12} {:>12} {:>7} {:>6}  verdict\n",
        "workload", "metric", "base p50", "head p50", "change", "wins"
    );
    let mut regressed = false;
    let mut compared = 0;
    for ((workload, name), b) in &base.values {
        let (Some(h), Some(def)) = (
            head.values.get(&(workload.clone(), name.clone())),
            metrics::def(name),
        ) else {
            continue;
        };
        let (verdict, wins) = judge(def, b, h).map_err(|e| format!("{workload}: {e}"))?;
        compared += 1;
        regressed |= verdict == Verdict::Regression;
        let n = b.len().min(h.len());
        let (mb, mh) = (median(&b[..n]), median(&h[..n]));
        let change = if mb != 0.0 {
            (mh - mb) / mb.abs() * 100.0
        } else {
            0.0
        };
        report.push_str(&format!(
            "{workload:<14} {:<26} {mb:>12.6} {mh:>12.6} {change:>+6.1}% {:>3}/{n:<2}  {} ({})\n",
            format!("{name} [{}]", def.unit),
            wins,
            verdict.as_str(),
            def.better.as_str()
        ));
    }
    if compared == 0 {
        return Err("the two files share no (workload, metric) pair".into());
    }
    if head.failed > base.failed {
        regressed = true;
        report.push_str(&format!(
            "failed operations rose: {} in base, {} in head\n",
            base.failed, head.failed
        ));
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: MetricDef = MetricDef {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.10),
    };

    /// Ten runs around `center` with a ±`spread` sawtooth.
    fn runs(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + spread * ((i % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn clear_improvement_is_a_gain() {
        let (v, wins) = judge(&LATENCY, &runs(100.0, 0.01), &runs(80.0, 0.01)).unwrap();
        assert_eq!((v, wins), (Verdict::Gain, 10));
    }

    #[test]
    fn eight_wins_of_ten_is_not_a_gain() {
        let base = runs(100.0, 0.01);
        let mut head = runs(80.0, 0.01);
        head[0] = 200.0;
        head[1] = 200.0;
        let (v, wins) = judge(&LATENCY, &base, &head).unwrap();
        assert_eq!(wins, 8);
        assert_ne!(v, Verdict::Gain);
    }

    #[test]
    fn gap_inside_the_parents_spread_is_not_a_gain() {
        // Head wins every pair by 1 %, but the parent's IQR is ~2 %.
        let base = runs(100.0, 0.02);
        let head: Vec<f64> = base.iter().map(|b| b * 0.99).collect();
        let (v, wins) = judge(&LATENCY, &base, &head).unwrap();
        assert_eq!((v, wins), (Verdict::Unchanged, 10));
    }

    #[test]
    fn beyond_the_bound_is_a_regression() {
        let (v, _) = judge(&LATENCY, &runs(100.0, 0.01), &runs(115.0, 0.01)).unwrap();
        assert_eq!(v, Verdict::Regression);
        let (v, _) = judge(&LATENCY, &runs(100.0, 0.01), &runs(105.0, 0.01)).unwrap();
        assert_eq!(v, Verdict::Unchanged);
        let throughput = MetricDef {
            name: "faults_per_s",
            unit: "1/s",
            better: Better::Higher,
            bound: Some(0.10),
        };
        let (v, _) = judge(&throughput, &runs(100.0, 0.01), &runs(85.0, 0.01)).unwrap();
        assert_eq!(v, Verdict::Regression);
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let (v, _) = judge(&LATENCY, &runs(100.0, 0.4), &runs(104.0, 0.4)).unwrap();
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn needs_ten_pairs() {
        let short: Vec<f64> = runs(100.0, 0.01)[..9].to_vec();
        assert!(judge(&LATENCY, &short, &runs(100.0, 0.01)).is_err());
    }

    #[test]
    fn files_compare_by_workload_and_flag_failures() {
        let line = |w: &str, v: f64, failed: u64| {
            format!(
                "{{\"workload\": \"{w}\", \"seed\": 1, \"correct\": true, \"attempted\": 5, \
                 \"failed\": {failed}, \"metrics\": {{\"latency_p50_ms\": {{\"value\": {v}, \
                 \"unit\": \"ms\"}}}}}}\n"
            )
        };
        let file = |center: f64, failed: u64| {
            let mut s = String::from("{\"fingerprint\": {}}\n");
            for v in runs(center, 0.01) {
                s.push_str(&line("fig5-drop", v, failed));
            }
            s
        };
        let base = load(&file(100.0, 0)).unwrap();
        assert_eq!(
            base.values[&("fig5-drop".into(), "latency_p50_ms".into())].len(),
            10
        );
        let (report, regressed) = compare(&base, &load(&file(101.0, 0)).unwrap()).unwrap();
        assert!(!regressed, "{report}");
        assert!(report.contains("unchanged"));
        let (report, regressed) = compare(&base, &load(&file(130.0, 0)).unwrap()).unwrap();
        assert!(regressed && report.contains("REGRESSION"), "{report}");
        let (report, regressed) = compare(&base, &load(&file(100.0, 1)).unwrap()).unwrap();
        assert!(
            regressed && report.contains("failed operations rose"),
            "{report}"
        );
    }
}
