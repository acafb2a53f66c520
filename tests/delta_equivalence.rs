//! Bit-identity guarantee for the delta attacked pass: for any random
//! topology, any `AttackStrategy` and either `ExportMode`,
//! `RoutingEngine::compute_with` (the delta pass from the clean
//! equilibrium) must produce exactly what the whole-graph second pass (every
//! node dirty, from an absent table) produces — per-node
//! routes compared bit-for-bit, not approximately, and the cold
//! `HijackImpact` fractions with them. The reference is `audit::full_pass_divergence`,
//! which recomputes an outcome's attacked pass by the full propagation.

use aspp_core::prelude::*;
use aspp_core::routing::audit::full_pass_divergence;
use aspp_core::topology::AsGraphBuilder;
use proptest::prelude::*;

fn all_experiments(victim: Asn, attacker: Asn, poisoned: Asn) -> Vec<DestinationSpec> {
    let strategies = [
        AttackStrategy::StripPadding { keep: 1 },
        AttackStrategy::StripPadding { keep: 2 },
        AttackStrategy::StripAllPadding,
        AttackStrategy::ForgeDirect,
        AttackStrategy::OriginHijack,
        AttackStrategy::PoisonPath { poisoned },
    ];
    let modes = [ExportMode::Compliant, ExportMode::ViolateValleyFree];
    let mut specs = Vec::new();
    for pad in [1usize, 3, 5] {
        for strategy in strategies {
            for mode in modes {
                specs.push(
                    DestinationSpec::new(victim)
                        .origin_padding(pad)
                        .attacker(AttackerModel::new(attacker).mode(mode).strategy(strategy)),
                );
            }
        }
    }
    specs
}

/// Every per-node observable must agree between the two outcomes.
fn assert_outcomes_identical(graph: &AsGraph, full: &RoutingOutcome, delta: &RoutingOutcome) {
    assert_eq!(full.has_attack(), delta.has_attack());
    assert_eq!(full.polluted_count(), delta.polluted_count());
    assert_eq!(full.changed_count(), delta.changed_count());
    assert_eq!(
        full.polluted_fraction().to_bits(),
        delta.polluted_fraction().to_bits()
    );
    assert_eq!(
        full.baseline_fraction().to_bits(),
        delta.baseline_fraction().to_bits()
    );
    for asn in graph.asns() {
        assert_eq!(full.route(asn), delta.route(asn), "route of AS{asn}");
        assert_eq!(
            full.observed_path(asn),
            delta.observed_path(asn),
            "observed path of AS{asn}"
        );
        assert_eq!(full.is_polluted(asn), delta.is_polluted(asn));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn delta_pass_bit_identical_to_full_pass(
        seed in any::<u64>(),
        picks in (0usize..100, 0usize..100, 0usize..100),
    ) {
        let graph = InternetConfig::small()
            .tier2_count(10).tier3_count(15).stub_count(25).seed(seed).build();
        let asns: Vec<Asn> = graph.asns().collect();
        let victim = asns[picks.0 % asns.len()];
        let attacker = asns[picks.1 % asns.len()];
        let poisoned = asns[picks.2 % asns.len()];
        if victim == attacker { return Ok(()); }

        let engine = RoutingEngine::new(&graph);
        let mut ws_delta = RouteWorkspace::new();
        for spec in all_experiments(victim, attacker, poisoned) {
            let delta = engine.compute_with(&spec, &mut ws_delta);
            prop_assert_eq!(full_pass_divergence(&delta), None, "{:?}", spec);

            // The cold per-cell impact numbers must agree bit-for-bit too.
            let impact = run_experiment(&graph, &spec);
            prop_assert_eq!(impact.after_fraction.to_bits(), delta.polluted_fraction().to_bits());
            prop_assert_eq!(impact.before_fraction.to_bits(), delta.baseline_fraction().to_bits());
            prop_assert_eq!(impact.polluted_count, delta.polluted_count());
        }
        prop_assert!(
            ws_delta.delta_passes() > 0,
            "some attacked passes must be served by the delta pass"
        );
    }
}

/// Every equilibrium in the same strategy matrix the bit-identity proptest
/// exercises must also satisfy the paper's routing invariants — the
/// [`aspp_core::routing::audit`] checker run in always-on mode.
#[test]
fn strategy_matrix_equilibria_audit_clean() {
    let graph = InternetConfig::small().seed(2024).build();
    let engine = RoutingEngine::new(&graph);
    let asns: Vec<Asn> = graph.asns().collect();
    let (victim, attacker) = (asns[0], asns[asns.len() / 2]);
    for spec in all_experiments(victim, attacker, asns[asns.len() / 3]) {
        let outcome = engine.compute(&spec);
        let audit = aspp_core::routing::audit::audit_outcome(&outcome);
        assert!(audit.is_clean(), "{spec:?} failed audit:\n{audit}");
    }
}

/// The delta pass serves the bread-and-butter configuration — the paper's
/// λ-sweep — one pass per attacked compute.
#[test]
fn delta_pass_serves_default_sweeps() {
    let graph = InternetConfig::small().seed(2024).build();
    let engine = RoutingEngine::new(&graph);
    let asns: Vec<Asn> = graph.asns().collect();
    let mut ws = RouteWorkspace::new();
    for pad in 2..=6 {
        let spec = DestinationSpec::new(asns[0])
            .origin_padding(pad)
            .attacker(AttackerModel::new(asns[10]));
        let _ = engine.compute_with(&spec, &mut ws);
    }
    assert!(
        ws.delta_passes() >= 4,
        "expected mostly delta passes, got {}",
        ws.delta_passes()
    );
}

/// Policy beats length without costing anyone its clean route: attacker AS3
/// buys transit from the victim's provider AS1 (on its clean chain) and from
/// AS5, which peers with AS1 and has no customers besides AS3. At λ=1 there
/// is nothing to strip, so AS5 trades its length-2 peer route for the
/// attacker's length-3 customer route. No clean child of AS5 loses its
/// route, so the delta pass survives the lengthened adoption.
#[test]
fn lengthened_adoption_that_costs_no_child_rides_the_delta_pass() {
    let mut g = AsGraphBuilder::new();
    g.add_provider_customer(Asn(1), Asn(2)).unwrap();
    g.add_provider_customer(Asn(1), Asn(3)).unwrap();
    g.add_provider_customer(Asn(5), Asn(3)).unwrap();
    g.add_peering(Asn(1), Asn(5)).unwrap();
    let graph = g.finish();
    let spec = DestinationSpec::new(Asn(2))
        .origin_padding(1)
        .attacker(AttackerModel::new(Asn(3)).mode(ExportMode::ViolateValleyFree));
    let mut ws = RouteWorkspace::new();
    let outcome = RoutingEngine::new(&graph).compute_with(&spec, &mut ws);
    let (clean, attacked) = (
        outcome.clean_route(Asn(5)).unwrap(),
        outcome.route(Asn(5)).unwrap(),
    );
    assert!(attacked.via_attacker && attacked.effective_len > clean.effective_len);
    assert_eq!(ws.delta_passes(), 1);
    assert_eq!(full_pass_divergence(&outcome), None);
}

/// A graph derived from another must not be served the workspace's cached
/// clean pass, so delta re-convergence never seeds from a stale equilibrium.
#[test]
fn delta_results_track_graph_mutation() {
    let graph = InternetConfig::small().seed(77).build();
    let asns: Vec<Asn> = graph.asns().collect();
    let (victim, attacker) = (asns[3], asns[20]);
    let spec = DestinationSpec::new(victim)
        .origin_padding(3)
        .attacker(AttackerModel::new(attacker));

    let mut ws = RouteWorkspace::new();
    {
        let engine = RoutingEngine::new(&graph);
        let warm = engine.compute_with(&spec, &mut ws);
        let fresh = engine.compute(&spec);
        assert_eq!(warm.polluted_count(), fresh.polluted_count());
    }

    // Splice a brand-new provider above the victim in a derived copy: routes
    // to the victim change materially, and the workspace must notice.
    let mut builder = graph.to_builder();
    builder
        .add_provider_customer(Asn(999_999), victim)
        .expect("new edge");
    let derived = builder.finish();
    let engine = RoutingEngine::new(&derived);
    let after = engine.compute_with(&spec, &mut ws);
    let oracle = engine.compute(&spec);
    assert_outcomes_identical(&derived, &oracle, &after);
    assert_eq!(
        ws.cache_hits(),
        0,
        "a derived graph must not be served from cache"
    );
}
