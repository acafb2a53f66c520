//! Public-API regression tests for `aspp-routing`.

use aspp_routing::audit::audit_outcome;
use aspp_routing::bgp::BgpSimulation;
use aspp_routing::events::updates_after_failure;
use aspp_routing::{
    AttackStrategy, AttackerModel, AuditViolation, DestinationSpec, ExportMode, PrependConfig,
    PrependingPolicy, RouteInfo, RoutingEngine,
};
use aspp_topology::gen::InternetConfig;
use aspp_topology::{AsGraph, AsGraphBuilder};
use aspp_types::{Asn, RouteClass};

fn internet(seed: u64) -> AsGraph {
    InternetConfig::small().seed(seed).build()
}

#[test]
fn equal_class_and_length_go_to_the_lowest_neighbor_asn() {
    // AS1 hears victim AS10 over two customer routes of length 2, via AS7
    // and via AS3. AS7 joins the builder first, so the lower ASN is not the
    // lower builder index; `finish` numbers the nodes by ASN.
    let mut g = AsGraphBuilder::new();
    g.add_provider_customer(Asn(7), Asn(10)).unwrap();
    g.add_provider_customer(Asn(3), Asn(10)).unwrap();
    g.add_provider_customer(Asn(1), Asn(7)).unwrap();
    g.add_provider_customer(Asn(1), Asn(3)).unwrap();
    let graph = g.finish();
    let spec = DestinationSpec::new(Asn(10));
    let via = |next_hop| RouteInfo {
        class: RouteClass::FromCustomer,
        effective_len: 2,
        next_hop: Some(next_hop),
        via_attacker: false,
    };

    let mut outcome = RoutingEngine::new(&graph).compute(&spec);
    assert_eq!(outcome.route(Asn(1)), Some(via(Asn(3))));
    let bgp = BgpSimulation::new(&graph).run(&spec);
    assert_eq!(bgp.route(Asn(1)), Some(via(Asn(3))));
    let audit = audit_outcome(&outcome);
    assert!(audit.is_clean(), "{audit}");

    // Through AS7 the route is valid but not AS1's best: the auditor ranks
    // offers by the same order and names the better neighbor.
    outcome.override_route_unchecked(Asn(1), Some(via(Asn(7))));
    let flagged: Vec<_> = audit_outcome(&outcome).violations().cloned().collect();
    assert_eq!(
        flagged,
        [AuditViolation::NotLocallyOptimal {
            asn: Asn(1),
            better_via: Asn(3),
        }]
    );
}

/// AS1 sells transit to AS2 and peers with AS3.
fn transit_and_peer() -> AsGraph {
    let mut g = AsGraphBuilder::new();
    g.add_provider_customer(Asn(1), Asn(2)).unwrap();
    g.add_peering(Asn(1), Asn(3)).unwrap();
    g.finish()
}

#[test]
#[should_panic(expected = "effective route length exceeds 268435455")]
fn a_route_longer_than_its_word_holds_fails_naming_the_bound() {
    // AS3's route would be 2^28 + 1 hops long.
    let graph = transit_and_peer();
    let spec = DestinationSpec::new(Asn(2)).origin_padding(1 << 28);
    let _ = RoutingEngine::new(&graph).compute(&spec);
}

#[test]
fn the_largest_padding_the_cli_accepts_computes() {
    let graph = transit_and_peer();
    let spec = DestinationSpec::new(Asn(2)).origin_padding(65_535);
    let outcome = RoutingEngine::new(&graph).compute(&spec);
    let route = |class, effective_len, next_hop| RouteInfo {
        class,
        effective_len,
        next_hop: Some(next_hop),
        via_attacker: false,
    };
    assert_eq!(
        outcome.route(Asn(1)),
        Some(route(RouteClass::FromCustomer, 65_535, Asn(2)))
    );
    assert_eq!(
        outcome.route(Asn(3)),
        Some(route(RouteClass::FromPeer, 65_536, Asn(1)))
    );
}

#[test]
fn attacked_routes_never_worse_than_clean() {
    // The attack adds options; under the fixed decision order nobody's
    // apparent route degrades.
    let graph = internet(202);
    let engine = RoutingEngine::new(&graph);
    let spec = DestinationSpec::new(Asn(20_001))
        .origin_padding(5)
        .attacker(AttackerModel::new(Asn(1_001)).mode(ExportMode::ViolateValleyFree));
    let outcome = engine.compute(&spec);
    for asn in graph.asns() {
        let (Some(clean), Some(now)) = (outcome.clean_route(asn), outcome.route(asn)) else {
            continue;
        };
        assert!(
            (now.class, now.effective_len) <= (clean.class, clean.effective_len),
            "AS{asn}: {clean:?} -> {now:?}"
        );
    }
}

#[test]
fn baseline_fraction_is_independent_of_attack_strategy() {
    let graph = internet(203);
    let engine = RoutingEngine::new(&graph);
    let mut baselines = Vec::new();
    for strategy in [
        AttackStrategy::StripPadding { keep: 1 },
        AttackStrategy::ForgeDirect,
        AttackStrategy::OriginHijack,
    ] {
        let spec = DestinationSpec::new(Asn(20_002))
            .origin_padding(4)
            .attacker(AttackerModel::new(Asn(1_002)).strategy(strategy));
        baselines.push(engine.compute(&spec).baseline_fraction());
    }
    assert!(baselines.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
}

#[test]
fn origin_hijack_beats_strip_at_high_padding() {
    // A 1-hop bogus origin out-competes even the stripped genuine route.
    let graph = internet(204);
    let engine = RoutingEngine::new(&graph);
    let victim = Asn(20_003);
    let attacker = Asn(1_003);
    let strip = engine
        .compute(
            &DestinationSpec::new(victim)
                .origin_padding(6)
                .attacker(AttackerModel::new(attacker)),
        )
        .polluted_fraction();
    let hijack = engine
        .compute(
            &DestinationSpec::new(victim)
                .origin_padding(6)
                .attacker(AttackerModel::new(attacker).strategy(AttackStrategy::OriginHijack)),
        )
        .polluted_fraction();
    assert!(
        hijack >= strip - 1e-9,
        "origin hijack ({hijack}) at least as strong as strip ({strip})"
    );
}

#[test]
fn spec_builders_clamp_to_one_copy() {
    // λ = 0 announces one copy, and an attacker keeps at least one.
    let spec = DestinationSpec::new(Asn(1))
        .origin_padding(0)
        .attacker(AttackerModel::new(Asn(2)).keep(0));
    assert_eq!(spec.victim(), Asn(1));
    assert_eq!(spec.padding_level(), 1);
    assert_eq!(spec.attacker_model().unwrap().kept_copies(), 1);
    let strip = AttackerModel::new(Asn(2)).strategy(AttackStrategy::StripPadding { keep: 0 });
    assert_eq!(strip.kept_copies(), 1);
    // The spec is a value: equal builds compare equal, and λ is part of it.
    assert_eq!(spec, spec.clone().origin_padding(1));
    assert_ne!(spec, spec.clone().origin_padding(2));
    assert_eq!(DestinationSpec::new(Asn(1)).padding_level(), 1);
}

#[test]
fn per_neighbor_policy_inside_attack_spec() {
    // The victim pads one provider; the attacker behind that provider can
    // strip only what it actually received.
    let mut graph = AsGraphBuilder::new();
    let (v, p1, p2, m, x) = (Asn(1), Asn(10), Asn(20), Asn(30), Asn(40));
    graph.add_provider_customer(p1, v).unwrap();
    graph.add_provider_customer(p2, v).unwrap();
    graph.add_provider_customer(m, p1).unwrap();
    graph.add_provider_customer(x, m).unwrap();
    graph.add_provider_customer(x, p2).unwrap();
    let graph = graph.finish();

    let mut config = PrependConfig::new();
    config.set(v, PrependingPolicy::per_neighbor(0, [(p1, 4)]));
    let spec = DestinationSpec::new(v)
        .prepend_config(config)
        .attacker(AttackerModel::new(m));
    let outcome = RoutingEngine::new(&graph).compute(&spec);
    // M receives [p1 v×5] and strips to [p1 v]; x compares via M (len 3)
    // against via p2 (len 2) — the clean side wins here.
    assert!(!outcome.is_polluted(x));
    // But the attacker did strip: its announcement is 4 copies shorter.
    assert_eq!(outcome.attacker_base_path().unwrap().to_string(), "10 1");
}

#[test]
fn events_respect_attack_specs() {
    // Churn computed under an attacked spec diffs attacked equilibria.
    let graph = internet(205);
    let spec = DestinationSpec::new(Asn(20_004))
        .origin_padding(3)
        .attacker(AttackerModel::new(Asn(100)));
    let victim_provider = graph.providers(Asn(20_004)).min().unwrap();
    let before = RoutingEngine::new(&graph).compute(&spec);
    let updates = updates_after_failure(&before, victim_provider, Asn(20_004));
    // The failure must shift someone, and every new path is loop-free.
    assert!(!updates.is_empty());
    for u in &updates {
        if let Some(p) = &u.new_path {
            assert!(!p.has_loop());
        }
    }
}

#[test]
fn bgp_simulation_polluted_fraction_matches_engine() {
    let graph = internet(207);
    let spec = DestinationSpec::new(Asn(20_006))
        .origin_padding(4)
        .attacker(AttackerModel::new(Asn(1_004)));
    let sim = BgpSimulation::new(&graph).run(&spec);
    let engine = RoutingEngine::new(&graph).compute(&spec);
    assert!((sim.polluted_fraction(Some(Asn(1_004))) - engine.polluted_fraction()).abs() < 1e-9);
}

#[test]
fn victim_route_is_origin_class_everywhere() {
    let graph = internet(208);
    for engine_outcome in [
        RoutingEngine::new(&graph).compute(&DestinationSpec::new(Asn(100))),
        RoutingEngine::new(&graph).compute(&DestinationSpec::new(Asn(90_000))),
    ] {
        let v = engine_outcome.victim();
        let info = engine_outcome.route(v).unwrap();
        assert_eq!(info.class, RouteClass::Origin);
        assert_eq!(info.effective_len, 0);
        assert_eq!(info.next_hop, None);
    }
}

#[test]
fn pollution_distance_bounded_by_path_length() {
    let graph = internet(209);
    let spec = DestinationSpec::new(Asn(20_007))
        .origin_padding(5)
        .attacker(AttackerModel::new(Asn(100)));
    let outcome = RoutingEngine::new(&graph).compute(&spec);
    for asn in outcome.polluted_asns().collect::<Vec<_>>() {
        let d = outcome.pollution_distance(asn).unwrap();
        let path = outcome.observed_path(asn).unwrap();
        assert!(
            (d as usize) < path.unique_len(),
            "distance {d} vs path {path}"
        );
    }
}

#[test]
fn bgp_outcome_accessors_are_consistent() {
    let graph = internet(210);
    let spec = DestinationSpec::new(Asn(20_008)).origin_padding(3);
    let outcome = BgpSimulation::new(&graph).run(&spec);
    assert_eq!(outcome.reachable_count(), graph.len());
    assert!(outcome.messages_processed() > 0);
    for asn in graph.asns().take(30) {
        let received = outcome.received_path(asn).unwrap();
        let observed = outcome.observed_path(asn).unwrap();
        assert_eq!(observed.first(), Some(asn));
        assert_eq!(observed.len(), received.len() + 1);
    }
    // The origin's received path is empty; its observation is itself.
    assert!(outcome.received_path(Asn(20_008)).unwrap().is_empty());
    assert_eq!(
        outcome.observed_path(Asn(20_008)).unwrap().to_string(),
        "20008"
    );
    // Unknown ASes answer None.
    assert!(outcome.route(Asn(999_999)).is_none());
}
