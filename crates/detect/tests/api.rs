//! Public-API regression tests for `aspp-detect`.

use std::sync::Arc;

use aspp_attack::fixtures::{figure3, figure3_topology};
use aspp_attack::sweep::random_pair_experiments;
use aspp_detect::baseline::{detect_link_anomalies, detect_moas};
use aspp_detect::eval::{accuracy_vs_monitors, detect_attack, visibility_matrix};
use aspp_detect::monitors::random_monitors;
use aspp_detect::realtime::StreamingDetector;
use aspp_detect::selection::{compare_selections, evaluate_selection, prepare};
use aspp_detect::{Confidence, Detector, RouteView};
use aspp_routing::{AttackerModel, BatchRunner, DestinationSpec, RoutingEngine};
use aspp_topology::gen::InternetConfig;
use aspp_types::{AsPath, Asn, Ipv4Prefix};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn alarm_quantifies_removed_padding_exactly() {
    use figure3::*;
    let g = figure3_topology();
    let engine = RoutingEngine::new(&g);
    for (padding, keep) in [(3usize, 1usize), (5, 2), (8, 1)] {
        let spec = DestinationSpec::new(V)
            .origin_padding(padding)
            .attacker(AttackerModel::new(M).keep(keep));
        let outcome = engine.compute(&spec);
        let monitors = [B, D, E];
        let before = RouteView::from_paths(
            monitors
                .iter()
                .filter_map(|&m| outcome.clean_observed_path(m)),
        );
        let after =
            RouteView::from_paths(monitors.iter().filter_map(|&m| outcome.observed_path(m)));
        let alarms = Detector::new(&g).scan(&before, &after);
        let high = alarms
            .iter()
            .find(|a| a.confidence == Confidence::High && a.suspect == M)
            .unwrap_or_else(|| panic!("no high alarm for λ={padding}, keep={keep}"));
        assert_eq!(
            high.removed_count(),
            Some(padding - keep),
            "λ={padding}, keep={keep}"
        );
    }
}

#[test]
fn random_monitor_sampler_is_unbiased_in_size() {
    let g = InternetConfig::small().seed(302).build();
    let mons = random_monitors(&g, 50, &mut StdRng::seed_from_u64(5));
    assert_eq!(mons.len(), 50);
    let unique: std::collections::HashSet<_> = mons.iter().collect();
    assert_eq!(unique.len(), 50);
}

#[test]
fn accuracy_curve_attack_counts_stable_across_monitor_counts() {
    let g = InternetConfig::small().seed(303).build();
    let exps = random_pair_experiments(&g, 10, 3, 6);
    let curve = accuracy_vs_monitors(&g, &exps, &[5, 25, 60], &BatchRunner::new());
    assert!(curve.windows(2).all(|w| w[0].attacks == w[1].attacks));
    for p in &curve {
        assert!(p.accuracy_high <= p.accuracy_attributed + 1e-9);
        assert!(p.accuracy_attributed <= p.accuracy + 1e-9);
    }
}

#[test]
fn streaming_detector_matches_batch_detector() {
    use figure3::*;
    let g = figure3_topology();
    let engine = RoutingEngine::new(&g);
    let spec = DestinationSpec::new(V)
        .origin_padding(4)
        .attacker(AttackerModel::new(M));
    let outcome = engine.compute(&spec);
    let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
    let monitors = [B, D, E];

    // Batch detection.
    let before = RouteView::from_paths(
        monitors
            .iter()
            .filter_map(|&m| outcome.clean_observed_path(m)),
    );
    let after = RouteView::from_paths(monitors.iter().filter_map(|&m| outcome.observed_path(m)));
    let batch = Detector::new(&g).scan(&before, &after);

    // Streaming detection over the same change.
    let mut stream = StreamingDetector::shared(Arc::new(g.clone()));
    for &m in &monitors {
        stream.seed(m, prefix, outcome.clean_observed_path(m).unwrap());
    }
    let mut stream_alarms = Vec::new();
    for (i, &m) in monitors.iter().enumerate() {
        if outcome.route_changed(m) {
            stream_alarms.extend(stream.process(&aspp_data::UpdateRecord {
                seq: i as u64 + 1,
                monitor: m,
                prefix,
                action: aspp_data::UpdateAction::Announce(outcome.observed_path(m).unwrap()),
            }));
        }
    }
    let batch_suspects: std::collections::HashSet<Asn> = batch.iter().map(|a| a.suspect).collect();
    let stream_suspects: std::collections::HashSet<Asn> =
        stream_alarms.iter().map(|a| a.alarm.suspect).collect();
    assert_eq!(batch_suspects, stream_suspects);
}

#[test]
fn selection_comparison_is_deterministic() {
    let g = InternetConfig::small().seed(304).build();
    let runner = BatchRunner::new();
    let train = prepare(&g, &random_pair_experiments(&g, 10, 4, 1), &runner);
    let test = prepare(&g, &random_pair_experiments(&g, 10, 4, 2), &runner);
    let a = compare_selections(&g, &train, &test, 6, 9);
    let b = compare_selections(&g, &train, &test, 6, 9);
    assert_eq!(a.greedy_monitors, b.greedy_monitors);
    assert_eq!(a.greedy, b.greedy);
}

#[test]
fn evaluate_selection_with_no_monitors_detects_nothing() {
    let g = InternetConfig::small().seed(305).build();
    let exps = prepare(
        &g,
        &random_pair_experiments(&g, 8, 4, 3),
        &BatchRunner::new(),
    );
    assert_eq!(evaluate_selection(&g, &exps, &[]), 0.0);
}

#[test]
fn visibility_matrix_covers_all_strategies_once() {
    use figure3::*;
    let g = figure3_topology();
    let matrix = visibility_matrix(&g, V, M, 3, &[B, D, E], &BatchRunner::new());
    assert_eq!(matrix.len(), 3);
    let strategies: std::collections::HashSet<String> =
        matrix.iter().map(|(s, _)| format!("{s:?}")).collect();
    assert_eq!(strategies.len(), 3);
}

#[test]
fn moas_detector_needs_paths_not_magic() {
    let empty = RouteView::new();
    assert!(detect_moas(&empty, &empty).is_none());
    let one = RouteView::from_paths(["7 1".parse::<AsPath>().unwrap()]);
    assert!(
        detect_moas(&empty, &one).is_none(),
        "single origin, no alert"
    );
}

#[test]
fn link_anomaly_on_empty_topology_flags_everything() {
    let empty = aspp_topology::AsGraph::default();
    let view = RouteView::from_paths(["3 2 1".parse::<AsPath>().unwrap()]);
    let anomalies = detect_link_anomalies(&empty, &view);
    assert_eq!(anomalies.len(), 2);
}

#[test]
fn detect_attack_reports_infeasible_attacks() {
    let mut g = figure3_topology().to_builder();
    g.add_as(Asn(55_555)); // isolated attacker
    let g = g.finish();
    let spec = DestinationSpec::new(figure3::V)
        .origin_padding(4)
        .attacker(AttackerModel::new(Asn(55_555)));
    let result = detect_attack(&g, &spec, &[figure3::B]);
    assert!(!result.feasible);
    assert!(!result.detected);
}
