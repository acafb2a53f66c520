//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own files, around the calls into
//! each crate (`layers.rs`); tracing inside `aspp` itself is a later change.
//! A span carries its layer (the crate it calls into), a stage name, start
//! and end relative to the tracer's origin, and the span that caused it.
//! Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json;

#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Records nested spans. A disabled tracer runs the closures and records
/// nothing, which is what the untraced in-process run uses.
pub struct Tracer {
    enabled: bool,
    paused: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            paused: false,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span of `layer`/`name`, a child of the span open
    /// at the time of the call.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled || self.paused {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            parent: self.open.last().copied(),
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            end_us: f64::NAN,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        result
    }

    /// Stops (`true`) or resumes (`false`) recording; only between spans.
    pub fn pause(&mut self, paused: bool) {
        debug_assert!(self.open.is_empty(), "pause inside an open span");
        self.paused = paused;
    }

    /// Total time of the spans that have no parent, in ms.
    pub fn top_level_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ms)
            .sum()
    }

    /// Durations in ms of every span called `layer`.`name`, in call order.
    pub fn durations_ms(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time per layer in ms: each span's duration minus the part its
    /// direct children cover, summed over the layer's spans.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ms[parent] += span.ms();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ms) {
            *by_layer.entry(span.layer).or_insert(0.0) += span.ms() - children;
        }
        by_layer
    }

    /// One JSON object per span: `id`, `parent`, `workload` (the identifier
    /// shared by every span of the run), `layer`, `name`, `start_us`, `end_us`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"workload\":{},\"layer\":{},\"name\":{},\"start_us\":{},\"end_us\":{}}}",
                json::quote(workload),
                json::quote(span.layer),
                json::quote(span.name),
                json::number(span.start_us),
                json::number(span.end_us),
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_spans_and_attributes_self_time() {
        let mut t = Tracer::new(true);
        t.span("core", "outer", |t| {
            t.span("routing", "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("routing", "inner", |_| ());
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].ms() >= 5.0);
        let by_layer = t.self_ms_by_layer();
        let total: f64 = by_layer.values().sum();
        assert!(
            (total - t.top_level_ms()).abs() < 1e-6,
            "self times sum to the top level"
        );
        assert!(by_layer["routing"] >= 5.0);
        assert_eq!(t.durations_ms("routing", "inner").len(), 2);
        let lines: Vec<json::Value> = t
            .to_jsonl("w")
            .lines()
            .map(|l| json::parse(l).unwrap())
            .collect();
        assert_eq!(
            lines[1].get("parent").and_then(json::Value::as_u64),
            Some(0)
        );
        assert_eq!(lines[0].get("parent"), Some(&json::Value::Null));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core", "x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
