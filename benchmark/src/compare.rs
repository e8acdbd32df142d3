//! `compare <old> <new>`: every workload × end-to-end metric of two
//! result files against the bounds in `BENCHMARK.json`. A file may hold
//! several runs of a workload; medians are compared and the quartile
//! spread decides whether the comparison can be trusted at all.

use crate::record::RunLine;
use crate::spec::Metric;
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The run-to-run spread exceeds the bound and the two sides
    /// overlap: neither "unchanged" nor "regressed" can be claimed.
    Unresolved,
    Regression,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub old: f64,
    pub new: f64,
    /// How much worse the new median is, as a share of the old one
    /// (negative = better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn judge(old: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (old_mid, new_mid) = (median(old), median(new));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if old_mid == 0.0 {
        if sign * (new_mid - old_mid) > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        sign * (new_mid - old_mid) / old_mid.abs()
    };
    let noise = spread(old).max(spread(new));
    let every_new = |beats: fn(f64, f64) -> bool| {
        new.iter()
            .all(|&n| old.iter().all(|&o| beats(sign * n, sign * o)))
    };
    let verdict = if worse_by > bound {
        if noise > bound && !every_new(|n, o| n > o) {
            Verdict::Unresolved
        } else {
            Verdict::Regression
        }
    } else if noise > bound && !every_new(|n, o| n < o) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, noise, verdict)
}

/// One row per workload × metric (plus `failed_share`, bound 0),
/// workloads in `old`'s order; a workload missing from either side
/// yields no rows.
pub fn compare(old: &[RunLine], new: &[RunLine], metrics: &[Metric]) -> Vec<Row> {
    let failed_share = Metric {
        name: "failed_share".into(),
        unit: "ratio".into(),
        lower_is_better: true,
        bound: Some(0.0),
    };
    let mut workloads: Vec<&str> = Vec::new();
    for line in old {
        if !workloads.contains(&line.workload.as_str())
            && new.iter().any(|n| n.workload == line.workload)
        {
            workloads.push(&line.workload);
        }
    }
    let mut rows = Vec::new();
    for workload in workloads {
        for m in metrics.iter().chain([&failed_share]) {
            let values = |side: &[RunLine]| -> Vec<f64> {
                side.iter()
                    .filter(|l| l.workload == workload)
                    .filter_map(|l| l.value(&m.name))
                    .collect()
            };
            let (old, new) = (values(old), values(new));
            if old.is_empty() || new.is_empty() {
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let (worse_by, spread, verdict) = judge(&old, &new, m.lower_is_better, bound);
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                old: median(&old),
                new: median(&new),
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>8} {:>7}  {}\n",
        "workload", "metric", "old", "new", "worse", "spread", "bound", "verdict"
    );
    for r in rows {
        out += &format!(
            "{:<16} {:<18} {:>14.4} {:>14.4} {:>+7.1}% {:>7.1}% {:>6.1}%  {} [{}]\n",
            r.workload,
            r.metric,
            r.old,
            r.new,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => "REGRESSION",
            },
            r.unit,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(workload: &str, metric: &str, values: &[f64]) -> Vec<RunLine> {
        values
            .iter()
            .map(|&v| RunLine {
                workload: workload.into(),
                attempted: 1000.0,
                failed: 0.0,
                end_to_end: [(metric.to_string(), v)].into(),
            })
            .collect()
    }

    fn rate() -> Vec<Metric> {
        vec![Metric {
            name: "ops_per_s".into(),
            unit: "ops/s".into(),
            lower_is_better: false,
            bound: Some(0.1),
        }]
    }

    fn verdict_of(old: &[f64], new: &[f64]) -> Verdict {
        let rows = compare(
            &runs("w", "ops_per_s", old),
            &runs("w", "ops_per_s", new),
            &rate(),
        );
        rows[0].verdict
    }

    #[test]
    fn within_bound_is_ok_and_direction_is_respected() {
        assert_eq!(verdict_of(&[100.0], &[95.0]), Verdict::Ok);
        // Higher is better: +50% is an improvement, not a regression.
        assert_eq!(verdict_of(&[100.0], &[150.0]), Verdict::Ok);
    }

    #[test]
    fn beyond_bound_is_a_regression() {
        assert_eq!(verdict_of(&[100.0], &[80.0]), Verdict::Regression);
        assert_eq!(
            verdict_of(&[100.0, 101.0, 99.0, 100.0], &[80.0, 81.0, 79.0, 80.0]),
            Verdict::Regression
        );
    }

    #[test]
    fn wide_overlapping_spread_is_unresolved() {
        let noisy_old = [100.0, 140.0, 70.0, 120.0];
        assert_eq!(
            verdict_of(&noisy_old, &[98.0, 135.0, 75.0, 110.0]),
            Verdict::Unresolved
        );
        // …unless every new run beats every old run.
        assert_eq!(
            verdict_of(&noisy_old, &[150.0, 200.0, 160.0, 190.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn any_new_failure_is_a_regression() {
        let old = runs("w", "ops_per_s", &[100.0]);
        let mut new = old.clone();
        new[0].failed = 1.0;
        let rows = compare(&old, &new, &rate());
        let failed = rows.iter().find(|r| r.metric == "failed_share").unwrap();
        assert_eq!(failed.verdict, Verdict::Regression);
        assert!(render(&rows).contains("REGRESSION"));
    }
}
