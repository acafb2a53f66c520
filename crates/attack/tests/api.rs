//! Public-API regression tests for `aspp-attack`.

use aspp_attack::fixtures::{facebook_anomaly_spec, facebook_topology, figure3, figure3_topology};
use aspp_attack::mitigation::{deaggregation, padding_reduction};
use aspp_attack::sweep::{
    best_connected_stub, pair_experiments, prepend_sweep, representative_of_tier, run_ranked,
    tier1_pair_experiments,
};
use aspp_attack::{run_experiment, run_experiments};
use aspp_routing::{AttackerModel, BatchRunner, DestinationSpec, ExportMode, RoutingEngine};
use aspp_topology::gen::InternetConfig;
use aspp_topology::AsGraph;
use aspp_types::{well_known, Asn};

fn internet(seed: u64) -> AsGraph {
    InternetConfig::small().seed(seed).build()
}

/// The default ASPP cell: `attacker` strips `victim`'s λ-copy padding.
fn cell(victim: Asn, attacker: Asn, padding: usize) -> DestinationSpec {
    DestinationSpec::new(victim)
        .origin_padding(padding)
        .attacker(AttackerModel::new(attacker))
}

fn attacker(spec: &DestinationSpec) -> Asn {
    spec.attacker_model().expect("an attack cell").asn()
}

#[test]
fn facebook_scenario_spec_reproduces_three_pad_route() {
    let g = facebook_topology();
    let outcome = RoutingEngine::new(&g).compute(&facebook_anomaly_spec());
    let path = outcome.observed_path(well_known::ATT).unwrap();
    assert_eq!(
        path.origin_padding(),
        3,
        "paper's anomalous route keeps 3 copies"
    );
}

#[test]
fn figure3_constants_are_wired_to_the_topology() {
    let g = figure3_topology();
    use figure3::*;
    assert_eq!(
        g.relationship(A, V),
        Some(aspp_types::Relationship::Customer)
    );
    assert_eq!(
        g.relationship(M, B),
        Some(aspp_types::Relationship::Customer)
    );
    assert_eq!(g.relationship(A, C), Some(aspp_types::Relationship::Peer));
}

#[test]
fn impact_gain_is_consistent() {
    let g = internet(501);
    let impact = run_experiment(&g, &cell(Asn(20_000), Asn(100), 5));
    assert!((impact.gain() - (impact.after_fraction - impact.before_fraction)).abs() < 1e-12);
}

#[test]
fn runner_handles_single_and_empty_batches() {
    let g = internet(502);
    let runner = BatchRunner::new();
    assert!(run_experiments(&g, &[], &runner).is_empty());
    let one = [cell(Asn(20_001), Asn(100), 3)];
    let results = run_experiments(&g, &one, &runner);
    assert_eq!(results.len(), 1);
    assert_eq!(results[0], run_experiment(&g, &one[0]));
}

#[test]
fn ranked_batches_preserve_membership() {
    let g = internet(503);
    let exps = tier1_pair_experiments(&g, 8, 3, 1);
    let ranked = run_ranked(&g, &exps);
    assert_eq!(ranked.len(), exps.len());
    let mut input: Vec<_> = exps.to_vec();
    let mut output: Vec<_> = ranked.iter().map(|i| i.spec.clone()).collect();
    input.sort_by_key(|s| (s.victim(), attacker(s)));
    output.sort_by_key(|s| (s.victim(), attacker(s)));
    assert_eq!(input, output);
}

#[test]
fn pair_experiments_avoid_self_attacks() {
    let pool: Vec<Asn> = (1..6).map(Asn).collect();
    for s in pair_experiments(&pool, &pool, 50, 3, 2) {
        assert_ne!(s.victim(), attacker(&s));
    }
}

#[test]
fn sweep_modes_cover_range_exactly() {
    let g = internet(504);
    let series = prepend_sweep(&g, &cell(Asn(20_002), Asn(100), 1), [2, 4, 6]);
    let lambdas: Vec<usize> = series.iter().map(|i| i.spec.padding_level()).collect();
    assert_eq!(lambdas, vec![2, 4, 6]);
}

#[test]
fn tier_representative_is_stable() {
    let g = internet(505);
    assert_eq!(representative_of_tier(&g, 1), representative_of_tier(&g, 1));
    assert!(representative_of_tier(&g, 1).is_some());
    assert!(best_connected_stub(&g).is_some());
}

#[test]
fn mitigations_never_negative_relief_reported() {
    let g = internet(506);
    let spec = cell(Asn(20_003), Asn(100), 5);
    let pr = padding_reduction(&g, &spec, 1);
    assert!(pr.relief() >= 0.0);
    let da = deaggregation(&g, &spec, "10.0.0.0/8".parse().unwrap()).unwrap();
    assert!(da.relief() >= 0.0);
    assert!((0.0..=1.0).contains(&da.polluted_after));
}

#[test]
fn export_mode_violating_dominates_over_many_pairs() {
    let g = internet(507);
    let mut dominated = 0;
    let mut total = 0;
    for (v, m) in [
        (Asn(20_004), Asn(10_003)),
        (Asn(20_005), Asn(1_005)),
        (Asn(1_006), Asn(10_007)),
        (Asn(10_008), Asn(20_009)),
    ] {
        let c = run_experiment(&g, &cell(v, m, 5));
        let viol = run_experiment(
            &g,
            &cell(v, m, 5).attacker(AttackerModel::new(m).mode(ExportMode::ViolateValleyFree)),
        );
        total += 1;
        if viol.after_fraction >= c.after_fraction - 1e-9 {
            dominated += 1;
        }
    }
    assert_eq!(dominated, total, "violating never loses to compliant");
}
