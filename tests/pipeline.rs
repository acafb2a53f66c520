//! End-to-end integration: topology generation → policy routing → ASPP
//! interception → multi-vantage-point detection, with cross-crate
//! invariants checked at every stage.

use aspp_core::attack::sweep::random_pair_experiments;
use aspp_core::detect::monitors::top_degree;
use aspp_core::prelude::*;
use aspp_core::topology::tier::customer_cone;

fn internet(seed: u64) -> AsGraph {
    InternetConfig::small().seed(seed).build()
}

#[test]
fn full_attack_and_detection_pipeline() {
    let graph = internet(9001);
    let tiers = TierMap::classify(&graph);

    // A mid-tier transit attacker with real spread potential.
    let attacker = graph
        .asns()
        .find(|&a| {
            tiers.tier_of(a) == Some(2)
                && graph.customers(a).count() >= 2
                && graph.peers(a).next().is_some()
        })
        .expect("tier-2 transit exists");
    let victim = Asn(20_010);

    let spec = DestinationSpec::new(victim)
        .origin_padding(4)
        .attacker(AttackerModel::new(attacker));
    let impact = run_experiment(&graph, &spec);
    assert!(impact.attack_feasible);
    assert!(impact.after_fraction > 0.0, "transit attacker must pollute");
    assert!(impact.after_fraction >= impact.before_fraction);

    // The polluted ASes' paths all traverse the attacker and are loop-free.
    let engine = RoutingEngine::new(&graph);
    let outcome = engine.compute(&spec);
    for asn in outcome.polluted_asns() {
        let path = outcome.observed_path(asn).expect("polluted AS has a path");
        assert!(
            path.contains(attacker),
            "AS{asn} path {path} misses attacker"
        );
        assert!(!path.has_loop(), "AS{asn} path {path} loops");
        assert_eq!(path.origin(), Some(victim));
    }

    // Detection from the top vantage points finds the attack.
    let monitors = top_degree(&graph, 40);
    let result = aspp_core::detect::eval::detect_attack(&graph, &spec, &monitors);
    assert!(result.effective);
    assert!(
        result.any_alarm,
        "attack with real spread must raise an alarm"
    );
}

#[test]
fn single_homed_victim_customers_stay_loyal() {
    // Paper Section VI-B: staying clean requires being a (direct or
    // indirect) customer of the victim — and the victim's single-homed
    // customers, whose only provider is the victim itself, can never
    // switch: their unique route is the direct customer-of-victim one.
    let graph = internet(9002);
    let tiers = TierMap::classify(&graph);
    let victim = graph
        .asns()
        .find(|&a| tiers.tier_of(a) == Some(2) && graph.customers(a).any(|c| graph.degree(c) == 1))
        .expect("tier-2 victim with a single-homed customer");
    let attacker = tiers.tier1().min().unwrap();

    let outcome = RoutingEngine::new(&graph).compute(
        &DestinationSpec::new(victim)
            .origin_padding(6)
            .attacker(AttackerModel::new(attacker)),
    );
    // Conversely, every polluted AS is outside the victim's cone or
    // multi-connected (the paper's necessary condition).
    let cone = customer_cone(&graph, victim);
    for asn in outcome.polluted_asns() {
        assert!(
            !cone.contains(&asn) || graph.degree(asn) > 1,
            "single-homed cone member AS{asn} was polluted"
        );
    }
    for customer in graph.customers(victim).filter(|&c| graph.degree(c) == 1) {
        assert!(
            !outcome.is_polluted(customer),
            "single-homed customer AS{customer} must stay loyal"
        );
    }
}

#[test]
fn keep_count_controls_attack_strength() {
    // Keeping more origin copies weakens the attack monotonically; keeping
    // all of them (keep ≥ λ) makes it a no-op.
    let graph = internet(9003);
    let victim = Asn(20_001);
    let attacker = Asn(100);
    let mut last = f64::INFINITY;
    for keep in 1..=6 {
        let spec = DestinationSpec::new(victim)
            .origin_padding(6)
            .attacker(AttackerModel::new(attacker).keep(keep));
        let impact = run_experiment(&graph, &spec);
        assert!(
            impact.after_fraction <= last + 0.02,
            "keep={keep} should not increase pollution"
        );
        last = impact.after_fraction;
    }
    // With `keep = λ` nothing is stripped, but the attacker still announces
    // the route to neighbors that would never have received it (its peers)
    // — the export-scope deviation behind the paper's non-zero "after
    // hijack" value at λ = 1 in Figure 9. The invariant: nobody's route
    // gets *worse*; switches only happen toward equal-or-preferred routes.
    let spec = DestinationSpec::new(victim)
        .origin_padding(6)
        .attacker(AttackerModel::new(attacker).keep(6));
    let outcome = RoutingEngine::new(&graph).compute(&spec);
    for asn in graph.asns() {
        let clean = outcome.clean_route(asn);
        let attacked = outcome.route(asn);
        match (clean, attacked) {
            (Some(c), Some(a)) => {
                assert!(
                    (a.class, a.effective_len) <= (c.class, c.effective_len),
                    "AS{asn} route degraded with keep=λ: {c:?} -> {a:?}"
                );
            }
            (c, a) => assert_eq!(c.is_some(), a.is_some(), "AS{asn} reachability changed"),
        }
    }
}

#[test]
fn random_attacks_all_produce_consistent_metrics() {
    let graph = internet(9004);
    for spec in random_pair_experiments(&graph, 30, 3, 77) {
        let impact = run_experiment(&graph, &spec);
        assert!((0.0..=1.0).contains(&impact.after_fraction));
        assert!((0.0..=1.0).contains(&impact.before_fraction));
        assert_eq!(impact.population, graph.len() - 2);
        let polluted = impact.after_fraction * impact.population as f64;
        assert!((polluted - impact.polluted_count as f64).abs() < 1e-6);
    }
}

#[test]
fn detection_improves_with_monitor_diversity() {
    let graph = internet(9005);
    let specs = random_pair_experiments(&graph, 12, 4, 5);
    let curve = aspp_core::detect::eval::accuracy_vs_monitors(
        &graph,
        &specs,
        &[2, 30, 140],
        &BatchRunner::new(),
    );
    assert!(curve[0].accuracy <= curve[2].accuracy + 1e-9);
    // Every point agrees on the number of effective attacks.
    assert!(curve.windows(2).all(|w| w[0].attacks == w[1].attacks));
}
