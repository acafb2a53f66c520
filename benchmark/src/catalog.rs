//! The catalogue: every workload and metric by name, with unit, direction
//! and — for end-to-end metrics — the bound by which it may worsen before a
//! change counts as a regression. `BENCHMARK.json` at the repo root carries
//! the same catalogue for the driver; a test keeps the two in step.

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Relative worsening that counts as a regression; `None` for metrics
    /// that are reported but not gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: true,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: false,
        bound: None,
    }
}

/// The workloads, each with the reason it is here (`BENCHMARK.json`'s `why`).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "impact-internet",
        "aspp impact at 80k ASes: attacked passes with tier-1 attackers on warm workspaces; the delta path's best case",
    ),
    (
        "defense-internet",
        "aspp defense at 80k ASes: every pass is policied, so delta is gated off and full propagation does the work",
    ),
    (
        "estimate-internet",
        "aspp estimate at 80k ASes: topology build plus 40 cold clean passes dominate; attacked passes are tiny stub deltas",
    ),
    (
        "serve-1shard",
        "one resident aspp serve session, 1 shard: wire scan, decode, detect, queries and checkpoints; routing idle after seeding",
    ),
    (
        "serve-nshard",
        "the identical session on min(nproc,4) shards: shard pool, bounded channels, backpressure and merge",
    ),
];

/// End-to-end metrics every workload reports with tracing off; the driver
/// gates these. `fail_ratio` is not listed because it is 0 on a healthy
/// run: it travels as the `attempted`/`failed` counts of the result line.
pub const END_TO_END: [Metric; 3] = [
    gated("wall_s", "s", true, 0.25),
    gated("setup_s", "s", true, 0.25),
    gated("peak_rss_mb", "MB", true, 0.25),
];

/// End-to-end metrics only a `serve-*` session has. They are measured with
/// tracing off inside the CLI session like the three above, but the driver's
/// contract wants every end-to-end metric from every workload, so they are
/// catalogued per layer (`serve.*`) and gated by `aspp-perf --compare`.
pub const SERVE_END_TO_END: [Metric; 4] = [
    gated("serve.ingest_rps", "rec/s", false, 0.25),
    gated("serve.ingest_chunk_p50_ms", "ms", true, 0.25),
    gated("serve.ingest_chunk_p95_ms", "ms", true, 0.25),
    gated("serve.checkpoint_p50_ms", "ms", true, 0.25),
];

/// Failed ÷ attempted operations; any increase is a regression.
pub const FAIL_RATIO: Metric = gated("fail_ratio", "ratio", true, 0.0);

/// Per-layer metrics of the traced run (layer = crate name). A layer that
/// does no work on a workload reads 0 there.
pub const PER_LAYER: [Metric; 61] = [
    // topology
    lower("topology.generate_ms", "ms"),
    higher("topology.nodes", "count"),
    higher("topology.links", "count"),
    lower("topology.tier_classify_ms", "ms"),
    // routing
    lower("routing.csr_first_touch_ms", "ms"),
    lower("routing.clean_pass_ms", "ms"),
    lower("routing.attacked_pass_t1_ms", "ms"),
    lower("routing.attacked_pass_stub_ms", "ms"),
    lower("routing.attacked_cold_ms", "ms"),
    lower("routing.policied_pass_ms", "ms"),
    lower("routing.impact_metrics_us", "us"),
    lower("routing.observed_path_us", "us"),
    higher("routing.batch_cells_per_s_w1", "1/s"),
    higher("routing.batch_cells_per_s_wn", "1/s"),
    higher("routing.batch_scaling", "ratio"),
    higher("routing.batch_cells", "count"),
    // attack, scenario, core
    lower("attack.deployment_order_ms", "ms"),
    lower("attack.defense_grid_ms", "ms"),
    lower("scenario.estimate_ms", "ms"),
    lower("core.fig7_ms", "ms"),
    lower("core.fig8_ms", "ms"),
    lower("core.fig9_ms", "ms"),
    lower("core.fig10_ms", "ms"),
    lower("core.fig11_ms", "ms"),
    lower("core.fig12_ms", "ms"),
    lower("core.render_ms", "ms"),
    // the binary itself
    lower("cli.spawn_ms", "ms"),
    lower("cli.overhead_ms", "ms"),
    // data, feed, detect
    lower("data.corpus_parse_ms", "ms"),
    higher("data.corpus_bytes", "count"),
    lower("feed.seed_ms", "ms"),
    lower("feed.replay_generate_ms", "ms"),
    higher("feed.codec_encode_mbps", "MB/s"),
    higher("feed.codec_scan_mbps", "MB/s"),
    higher("feed.codec_decode_rps", "rec/s"),
    higher("detect.process_rps", "rec/s"),
    higher("detect.alarms_per_pass", "count"),
    higher("detect.alarm_ratio", "ratio"),
    lower("detect.state_export_ms", "ms"),
    higher("feed.ingest_rps_1shard", "rec/s"),
    higher("feed.ingest_rps_nshard", "rec/s"),
    higher("feed.shard_scaling", "ratio"),
    lower("feed.pipeline_self_ms_per_chunk", "ms"),
    lower("feed.batches_per_chunk", "count"),
    lower("feed.backpressure_waits", "count"),
    lower("feed.depth_high_water", "count"),
    higher("feed.shard_balance", "ratio"),
    lower("feed.checkpoint_capture_ms", "ms"),
    lower("feed.checkpoint_encode_ms", "ms"),
    lower("feed.checkpoint_bytes", "count"),
    lower("feed.checkpoint_decode_ms", "ms"),
    lower("feed.checkpoint_restore_ms", "ms"),
    lower("feed.service_query_p50_us", "us"),
    lower("feed.service_query_p99_us", "us"),
    lower("feed.service_status_p50_us", "us"),
    // the serve-only end-to-end metrics (see SERVE_END_TO_END)
    SERVE_END_TO_END[0],
    SERVE_END_TO_END[1],
    SERVE_END_TO_END[2],
    SERVE_END_TO_END[3],
    // the trace itself
    higher("trace.coverage", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
];

/// Looks a metric up by name across every list.
pub fn find(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(std::iter::once(&FAIL_RATIO))
        .find(|m| m.name == name)
        .copied()
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

pub fn is_serve(workload: &str) -> bool {
    workload.starts_with("serve-")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    /// `BENCHMARK.json` must list exactly this catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();

        let workloads: Vec<(&str, &str)> = field(&doc, "workloads")
            .as_array()
            .unwrap()
            .iter()
            .map(|w| {
                (
                    field(w, "name").as_str().unwrap(),
                    field(w, "why").as_str().unwrap(),
                )
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let listed = |key: &str| -> Vec<(String, String, bool, Option<f64>)> {
            field(&doc, key)
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        field(m, "name").as_str().unwrap().to_string(),
                        field(m, "unit").as_str().unwrap().to_string(),
                        field(m, "better").as_str().unwrap() == "lower",
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let own = |metrics: &[Metric], bounded: bool| -> Vec<(String, String, bool, Option<f64>)> {
            metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.lower_is_better,
                        m.bound.filter(|_| bounded),
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END, true));
        // The driver's per-layer entries carry no bound.
        assert_eq!(listed("per_layer"), own(&PER_LAYER, false));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name));
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
        assert!(find("wall_s").is_some() && find("serve.ingest_rps").is_some());
        assert!(is_workload("serve-nshard") && !is_workload("nope"));
    }
}
