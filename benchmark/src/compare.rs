//! `aspp-perf --compare A.json B.json`: the noise-aware gate. Applies each
//! gated metric's bound to the medians of two result files of full runs and
//! says, per (metric, workload), whether B is better, the same, worse, or
//! unresolved because the run-to-run spread is wider than the bound.

use crate::catalog;
use crate::json::{self, Value};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// One (workload, metric) row of a result file.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub value: f64,
    /// (q1, q3, min, max) when the value is a median of samples.
    pub spread: Option<(f64, f64, f64, f64)>,
}

impl Row {
    fn relative_spread(&self) -> f64 {
        match self.spread {
            Some((q1, q3, _, _)) if self.value != 0.0 => (q3 - q1) / self.value.abs(),
            _ => 0.0,
        }
    }
}

/// Judges `b` against `a` for a metric with the given direction and bound.
pub fn judge(a: &Row, b: &Row, lower_is_better: bool, bound: f64) -> Verdict {
    let worsening = if lower_is_better {
        b.value - a.value
    } else {
        a.value - b.value
    };
    if a.value == 0.0 {
        // A ratio that is 0 at A (fail_ratio): any increase is a regression.
        return match worsening.partial_cmp(&0.0) {
            Some(std::cmp::Ordering::Greater) => Verdict::Worse,
            Some(std::cmp::Ordering::Less) => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    let relative = worsening / a.value.abs();
    if a.relative_spread().max(b.relative_spread()) > bound {
        // Too noisy to call, unless every run of B beats every run of A.
        let all_better = match (a.spread, b.spread) {
            (Some((_, _, a_min, a_max)), Some((_, _, b_min, b_max))) => {
                if lower_is_better {
                    b_max < a_min
                } else {
                    b_min > a_max
                }
            }
            _ => false,
        };
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if relative > bound {
        Verdict::Worse
    } else if relative < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// A result file: the conditions of the run and its rows.
#[derive(Debug, PartialEq)]
pub struct ResultFile {
    pub conditions: Vec<(String, String)>,
    pub rows: Vec<Row>,
}

/// Reads a result file.
pub fn read(text: &str) -> Result<ResultFile, String> {
    let doc = json::parse(text)?;
    let conditions = match doc.get("conditions") {
        Some(Value::Obj(map)) => map
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_string()))
            .collect(),
        _ => return Err("no \"conditions\" object".into()),
    };
    let rows = doc
        .get("results")
        .and_then(Value::as_array)
        .ok_or("no \"results\" array")?
        .iter()
        .map(|r| {
            let text = |key: &str| {
                r.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("a result row lacks {key:?}"))
            };
            let num = |key: &str| r.get(key).and_then(Value::as_f64);
            Ok(Row {
                workload: text("workload")?,
                metric: text("metric")?,
                value: num("value").ok_or("a result row lacks \"value\"")?,
                spread: match (num("q1"), num("q3"), num("min"), num("max")) {
                    (Some(q1), Some(q3), Some(min), Some(max)) => Some((q1, q3, min, max)),
                    _ => None,
                },
            })
        })
        .collect::<Result<Vec<Row>, String>>()?;
    Ok(ResultFile { conditions, rows })
}

/// Compares two result files; prints one row per gated (metric, workload)
/// and returns how many are worse.
pub fn run(path_a: &str, path_b: &str) -> Result<usize, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| read(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (key, a) in &a.conditions {
        let b = b
            .conditions
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str());
        if b != Some(a.as_str()) {
            println!(
                "conditions differ: {key}: {a:?} vs {:?}",
                b.unwrap_or("(none)")
            );
        }
    }
    println!(
        "{:<18} {:<28} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "spread", "bound"
    );
    let mut worse = 0;
    for a in &a.rows {
        let Some(metric) = catalog::find(&a.metric) else {
            continue;
        };
        let (Some(bound), Some(b)) = (
            metric.bound,
            b.rows
                .iter()
                .find(|b| b.workload == a.workload && b.metric == a.metric),
        ) else {
            continue;
        };
        let verdict = judge(a, b, metric.lower_is_better, bound);
        if verdict == Verdict::Worse {
            worse += 1;
        }
        let change = if a.value == 0.0 {
            0.0
        } else {
            (b.value - a.value) / a.value.abs()
        };
        println!(
            "{:<18} {:<28} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
            a.workload,
            a.metric,
            a.value,
            b.value,
            change * 100.0,
            a.relative_spread().max(b.relative_spread()) * 100.0,
            bound * 100.0,
            match verdict {
                Verdict::Better => "better",
                Verdict::Same => "same",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(value: f64, spread: Option<(f64, f64, f64, f64)>) -> Row {
        Row {
            workload: "w".into(),
            metric: "wall_s".into(),
            value,
            spread,
        }
    }

    #[test]
    fn applies_the_bound_in_the_metrics_direction() {
        let a = row(1.0, Some((0.99, 1.01, 0.98, 1.02)));
        let tight = |v: f64| row(v, Some((v - 0.01, v + 0.01, v - 0.02, v + 0.02)));
        assert_eq!(judge(&a, &tight(1.05), true, 0.1), Verdict::Same);
        assert_eq!(judge(&a, &tight(1.2), true, 0.1), Verdict::Worse);
        assert_eq!(judge(&a, &tight(0.8), true, 0.1), Verdict::Better);
        // Higher is better: the same numbers read the other way.
        assert_eq!(judge(&a, &tight(1.2), false, 0.1), Verdict::Better);
        assert_eq!(judge(&a, &tight(0.8), false, 0.1), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = row(1.0, Some((0.9, 1.1, 0.8, 1.3)));
        let slower = row(1.3, Some((1.2, 1.4, 1.1, 1.5)));
        assert_eq!(judge(&noisy, &slower, true, 0.1), Verdict::Unresolved);
        let much_faster = row(0.5, Some((0.45, 0.55, 0.4, 0.6)));
        assert_eq!(judge(&noisy, &much_faster, true, 0.1), Verdict::Better);
        let overlapping = row(0.85, Some((0.8, 0.9, 0.7, 0.95)));
        assert_eq!(judge(&noisy, &overlapping, true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn any_increase_of_a_zero_ratio_is_worse() {
        assert_eq!(
            judge(&row(0.0, None), &row(0.01, None), true, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(&row(0.0, None), &row(0.0, None), true, 0.0),
            Verdict::Same
        );
    }

    #[test]
    fn reads_back_what_a_full_run_writes() {
        let mut sink = crate::report::Sink::default();
        sink.put_samples("wall_s", &[1.0, 2.0, 3.0, 4.0], 1.0);
        sink.put("peak_rss_mb", 90.0);
        sink.check("ok", true);
        let doc = crate::report::result_document(
            &[("seed", "7".to_string())],
            &[("serve-1shard".to_string(), sink)],
        );
        let ResultFile { conditions, rows } = read(&doc).unwrap();
        assert_eq!(conditions, vec![("seed".to_string(), "7".to_string())]);
        assert_eq!(rows.len(), 3);
        let wall = rows.iter().find(|r| r.metric == "wall_s").unwrap();
        assert_eq!(wall.value, 2.5);
        assert_eq!(wall.spread, Some((1.25, 3.75, 1.0, 4.0)));
        assert_eq!(
            rows.iter()
                .find(|r| r.metric == "peak_rss_mb")
                .unwrap()
                .spread,
            None
        );
        assert!(read("{}").is_err());
    }
}
