//! Smoke-scale runs of every table/figure harness, asserting the paper's
//! qualitative findings (the "shape" contract documented in EXPERIMENTS.md).

use aspp_core::experiments::{case_study, detection, impact, usage, Scale};

const SEED: u64 = 2024;

#[test]
fn table1_and_fig1_facebook_anomaly() {
    let study = case_study::run(SEED);
    // Figure 1: the anomalous route wins by effective length while being
    // physically longer.
    assert!(study.anomalous_path_att.len() < study.normal_path_att.len());
    assert!(study.anomalous_path_att.unique_len() > study.normal_path_att.unique_len());
    assert_eq!(study.anomalous_path_att.origin_padding(), 3);
    assert_eq!(study.normal_path_att.origin_padding(), 5);
    // Table I: the detour at least doubles the RTT.
    assert!(study.anomalous_trace.final_rtt_ms() > 2.0 * study.normal_trace.final_rtt_ms());
}

#[test]
fn fig5_fig6_usage_shapes() {
    let result = usage::run(Scale::Smoke, SEED);
    // Prepending is common but not dominant in tables.
    assert!(result.summary.mean_table_fraction > 0.02);
    assert!(result.summary.mean_table_fraction < 0.5);
    // Updates surface at least as much prepending as tables.
    assert!(result.updates_cdf.mean() >= result.all_table_cdf.mean() - 1e-9);
    // Depth histogram is shallow-heavy with a tail.
    let d2 = result.table_depth.get(&2).copied().unwrap_or(0.0);
    assert!(d2 > 0.2, "depth-2 share: {d2}");
}

#[test]
fn fig7_fig8_tier1_beats_random() {
    let graph = Scale::Smoke.internet(SEED);
    let f7 = impact::fig7(&graph, Scale::Smoke, SEED);
    let f8 = impact::fig8(&graph, Scale::Smoke, SEED);
    assert!(f7.mean_after() > 3.0 * f8.mean_after().clamp(1e-6, 1.0));
    assert!(f7.mean_after() > 0.2);
}

#[test]
fn fig9_to_fig12_sweep_shapes() {
    let graph = Scale::Smoke.internet(SEED);

    // Fig 9: strong growth then plateau for tier-1 vs tier-1.
    let f9 = impact::fig9(&graph);
    let series: Vec<f64> = f9.compliant.iter().map(|i| i.after_fraction).collect();
    assert!(series[1] > series[0] + 0.1, "λ=2 jump: {series:?}");
    assert!(series[7] > 0.5, "high-λ majority pollution: {series:?}");
    assert!((series[7] - series[6]).abs() < 0.02, "plateau: {series:?}");

    // Fig 10: tier-1 attacker vs low-tier victim grows strongly too.
    let f10 = impact::fig10(&graph);
    let s10: Vec<f64> = f10.compliant.iter().map(|i| i.after_fraction).collect();
    assert!(s10[7] > s10[0] + 0.2, "fig10 growth: {s10:?}");

    // Fig 11: compliant attack is devastating thanks to the sibling chain.
    let f11 = impact::fig11(&graph);
    assert!(f11.compliant.last().unwrap().after_fraction > 0.5);

    // Fig 12: compliant small attacker confined; violating one grows large.
    let f12 = impact::fig12(&graph);
    let c = f12.compliant.last().unwrap().after_fraction;
    let v = f12
        .violating
        .as_ref()
        .unwrap()
        .last()
        .unwrap()
        .after_fraction;
    assert!(v > c, "violating ({v}) beats compliant ({c})");
    assert!(v > 0.3);
}

#[test]
fn fig13_fig14_detection_shapes() {
    let graph = Scale::Smoke.internet(SEED);
    let curve = detection::fig13(&graph, Scale::Smoke, SEED);
    assert!(curve
        .points
        .windows(2)
        .all(|w| w[1].accuracy >= w[0].accuracy - 1e-9));
    assert!(curve.best_accuracy() > 0.5);

    let latency = detection::fig14(&graph, Scale::Smoke, SEED);
    assert!(latency.total > 0);
    // Detected attacks are caught early: median well below full pollution.
    if !latency.fractions.is_empty() {
        assert!(latency.fractions.quantile(0.5) < 0.6);
    }
}

#[test]
fn renders_are_complete() {
    let graph = Scale::Smoke.internet(SEED);
    for text in [
        case_study::run(SEED).render(),
        usage::run(Scale::Smoke, SEED).render(),
        impact::fig7(&graph, Scale::Smoke, SEED).render(),
        impact::fig9(&graph).render(),
        detection::fig13(&graph, Scale::Smoke, SEED).render(),
        detection::fig14(&graph, Scale::Smoke, SEED).render(),
    ] {
        assert!(!text.trim().is_empty());
        assert!(text.contains('#'), "missing title in {text:.60}");
    }
}
