//! Where measurements land: the per-workload sink of metric values and
//! check outcomes, the one-line result the driver reads, the result file a
//! full run writes, and the conditions that file carries.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::catalog::{self, Metric};
use crate::json;
use crate::stats::{self, Summary};

/// One metric as measured on one workload.
#[derive(Clone, Debug)]
pub struct Entry {
    pub value: f64,
    /// Present when the value is the median of several samples.
    pub summary: Option<Summary>,
}

/// Everything one workload produced: metric values, and the operations
/// attempted and failed (commands, samples and output checks alike).
#[derive(Debug, Default)]
pub struct Sink {
    pub metrics: BTreeMap<String, Entry>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Sink {
    pub fn put(&mut self, name: &str, value: f64) {
        debug_assert!(catalog::find(name).is_some(), "{name} is not catalogued");
        self.metrics.insert(
            name.to_string(),
            Entry {
                value,
                summary: None,
            },
        );
    }

    /// Records the median of `samples`, each first multiplied by `scale`,
    /// keeping quartiles and range. An empty sample records nothing.
    pub fn put_samples(&mut self, name: &str, samples: &[f64], scale: f64) {
        debug_assert!(catalog::find(name).is_some(), "{name} is not catalogued");
        if samples.is_empty() {
            return;
        }
        let scaled: Vec<f64> = samples.iter().map(|s| s * scale).collect();
        let summary = stats::summarize(&scaled);
        self.metrics.insert(
            name.to_string(),
            Entry {
                value: summary.median,
                summary: Some(summary),
            },
        );
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|e| e.value)
    }

    /// Counts one operation; a failed one keeps its description (the first
    /// twenty do).
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what.to_string());
            }
        }
    }

    /// Counts operations done elsewhere (a serve session keeps its own tally).
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records an operation that could not even be attempted properly.
    pub fn error(&mut self, what: String) {
        self.check(&what, false);
    }

    /// Takes over what a later run of the same workload measured: its
    /// operations and failures, and every metric not already present (the
    /// end-to-end run's own, longer session outranks the traced run's).
    pub fn absorb(&mut self, later: Sink) {
        self.count(later.attempted, later.failed);
        self.failures.extend(later.failures);
        for (name, entry) in later.metrics {
            self.metrics.entry(name).or_insert(entry);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Prints `metrics` of `sink` by name with their units, for people.
pub fn print_metrics(workload: &str, sink: &Sink, metrics: &[Metric]) {
    for m in metrics {
        let Some(entry) = sink.metrics.get(m.name) else {
            continue;
        };
        let detail = entry.summary.as_ref().map_or(String::new(), |s| {
            format!(
                "  (n={} q1={:.4} q3={:.4} min={:.4} max={:.4} iqr={:.1}%)",
                s.n,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.spread() * 100.0
            )
        });
        println!(
            "{workload:<18} {:<34} {:>14.4} {}{detail}",
            m.name, entry.value, m.unit
        );
    }
}

/// Prints the failure ratio of `sink` and what failed.
pub fn print_outcome(workload: &str, sink: &Sink) {
    println!(
        "{workload:<18} {:<34} {:>14.4} ratio  ({} failed of {} attempted)",
        "fail_ratio",
        sink.fail_ratio(),
        sink.failed,
        sink.attempted
    );
    for failure in &sink.failures {
        println!("{workload:<18} FAILED: {failure}");
    }
}

/// The line the driver reads: `correct`, `attempted`, `failed` and every
/// metric of `metrics` (0 where the workload did not exercise the layer).
pub fn result_line(sink: &Sink, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        sink.correct(),
        sink.attempted.max(1),
        sink.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = sink.value(m.name).filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(m.name),
            json::number(value),
            json::quote(m.unit)
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The conditions of a run, read when it runs: commit and dirty flag (both
/// "unknown" outside a git checkout), seed, cores, CPU model, compiler.
pub fn conditions(root: &Path, seed: u64, quick: bool) -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    let git_rev = command_line("git", &["rev-parse", "HEAD"], root).unwrap_or_else(unknown);
    let dirty = command_line("git", &["status", "--porcelain"], root)
        .map_or_else(unknown, |s| (!s.is_empty()).to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(unknown);
    vec![
        ("git_rev", git_rev),
        ("git_dirty", dirty),
        ("seed", seed.to_string()),
        ("quick", quick.to_string()),
        ("nproc", nproc().to_string()),
        ("cpu_model", cpu),
        (
            "rustc",
            command_line("rustc", &["-V"], root).unwrap_or_else(unknown),
        ),
    ]
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Renders a full run as one JSON document: the conditions, then one row
/// per (workload, metric) with value, unit and — where the value is a
/// median — n, quartiles and range.
pub fn result_document(conditions: &[(&str, String)], runs: &[(String, Sink)]) -> String {
    let mut out = String::from("{\n  \"conditions\": {");
    for (i, (key, value)) in conditions.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}{}: {}", json::quote(key), json::quote(value))
            .expect("writing to a String cannot fail");
    }
    out.push_str("},\n  \"results\": [\n");
    let mut rows = Vec::new();
    for (workload, sink) in runs {
        let mut row = |name: &str, unit: &str, entry: &Entry| {
            let mut r = format!(
                "    {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"value\": {}",
                json::quote(workload),
                json::quote(name),
                json::quote(unit),
                json::number(entry.value)
            );
            if let Some(s) = &entry.summary {
                write!(
                    r,
                    ", \"n\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}",
                    s.n,
                    json::number(s.q1),
                    json::number(s.q3),
                    json::number(s.min),
                    json::number(s.max)
                )
                .expect("writing to a String cannot fail");
            }
            r.push('}');
            rows.push(r);
        };
        for (name, entry) in &sink.metrics {
            let unit = catalog::find(name).map_or("", |m| m.unit);
            row(name, unit, entry);
        }
        let ratio = Entry {
            value: sink.fail_ratio(),
            summary: None,
        };
        row(catalog::FAIL_RATIO.name, catalog::FAIL_RATIO.unit, &ratio);
    }
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut sink = Sink::default();
        sink.put_samples("wall_s", &[2.0, 1.0, 3.0], 1.0);
        sink.put("peak_rss_mb", 101.5);
        sink.check("exit code", true);
        let line = result_line(&sink, &catalog::END_TO_END);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = v.get("metrics").unwrap();
        let wall = metrics.get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(2.0));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        // Not measured on this workload: present, reads 0.
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut sink = Sink::default();
        assert!(!sink.correct(), "nothing attempted is not a pass");
        sink.check("a", true);
        sink.check("b", false);
        sink.count(8, 1);
        assert_eq!((sink.attempted, sink.failed), (10, 2));
        assert!(!sink.correct());
        assert_eq!(sink.fail_ratio(), 0.2);
        assert_eq!(sink.failures, vec!["b".to_string()]);

        let mut later = Sink::default();
        later.put("wall_s", 9.0);
        later.put("cli.spawn_ms", 3.0);
        later.check("c", false);
        sink.put("wall_s", 1.0);
        sink.absorb(later);
        assert_eq!((sink.attempted, sink.failed), (11, 3));
        assert_eq!(sink.value("wall_s"), Some(1.0), "the earlier value stays");
        assert_eq!(sink.value("cli.spawn_ms"), Some(3.0));
    }

    #[test]
    fn result_document_parses_and_keeps_spread() {
        let mut sink = Sink::default();
        sink.put_samples("wall_s", &[1.0, 2.0, 3.0, 4.0], 1.0);
        sink.check("ok", true);
        let doc = result_document(
            &[("seed", "7".to_string())],
            &[("impact-internet".to_string(), sink)],
        );
        let v = json::parse(&doc).unwrap();
        assert_eq!(
            v.get("conditions")
                .and_then(|c| c.get("seed"))
                .and_then(Value::as_str),
            Some("7")
        );
        let rows = v.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("n").and_then(Value::as_u64), Some(4));
        assert_eq!(rows[0].get("value").and_then(Value::as_f64), Some(2.5));
        assert_eq!(
            rows[1].get("metric").and_then(Value::as_str),
            Some("fail_ratio")
        );
    }
}
