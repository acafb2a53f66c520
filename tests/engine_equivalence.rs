//! Cross-validation of the two routing implementations: the equilibrium
//! engine (the paper's Figure 2 algorithm, a generalized Dijkstra) and the
//! message-level BGP simulator (per-AS RIBs, announcement/withdrawal
//! messages, loop detection). At convergence they must agree on every AS's
//! best route, for every victim, padding level, attacker placement, export
//! mode, and attack strategy.

use aspp_core::experiments::Scale;
use aspp_core::prelude::*;
use aspp_core::routing::bgp::BgpSimulation;
use aspp_core::routing::AttackStrategy;
use proptest::prelude::*;

fn assert_equivalent(graph: &AsGraph, spec: &DestinationSpec) {
    let sim = BgpSimulation::new(graph).run(spec);
    let eng = RoutingEngine::new(graph).compute(spec);
    // Under an origin hijack the attacker's own entry is bookkeeping, not
    // routing: the engine pins the clean route (interception semantics)
    // while the live protocol may let the blackholer's own route decay.
    let skip_attacker = spec
        .attacker_model()
        .is_some_and(|a| matches!(a.attack_strategy(), AttackStrategy::OriginHijack));
    for asn in graph.asns() {
        if skip_attacker && Some(asn) == spec.attacker_model().map(|a| a.asn()) {
            continue;
        }
        let a = sim.route(asn);
        let b = eng.route(asn);
        match (a, b) {
            (Some(a), Some(b)) => {
                assert_eq!(
                    (a.class, a.effective_len, a.next_hop, a.via_attacker),
                    (b.class, b.effective_len, b.next_hop, b.via_attacker),
                    "divergence at AS{asn} (victim {}, attacker {:?})",
                    spec.victim(),
                    spec.attacker_model()
                        .map(aspp_core::routing::AttackerModel::asn),
                );
                // Paths agree too, not just metrics.
                assert_eq!(sim.observed_path(asn), eng.observed_path(asn));
            }
            (a, b) => assert_eq!(a.is_some(), b.is_some(), "reachability at AS{asn}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn clean_equivalence_on_random_internets(
        seed in any::<u64>(), pad in 1usize..6, victim_pick in 0usize..100
    ) {
        let graph = InternetConfig::small()
            .tier2_count(10).tier3_count(15).stub_count(25).seed(seed).build();
        let asns: Vec<Asn> = graph.asns().collect();
        let victim = asns[victim_pick % asns.len()];
        assert_equivalent(&graph, &DestinationSpec::new(victim).origin_padding(pad));
    }

    #[test]
    fn attacked_equivalence_on_random_internets(
        seed in any::<u64>(),
        pad in 2usize..6,
        picks in (0usize..100, 0usize..100, 0usize..100),
        violate in any::<bool>(),
    ) {
        let graph = InternetConfig::small()
            .tier2_count(10).tier3_count(15).stub_count(25).seed(seed).build();
        let asns: Vec<Asn> = graph.asns().collect();
        let victim = asns[picks.0 % asns.len()];
        let attacker = asns[picks.1 % asns.len()];
        if victim == attacker { return Ok(()); }
        let mode = if violate { ExportMode::ViolateValleyFree } else { ExportMode::Compliant };
        let attacker = AttackerModel::new(attacker).mode(mode);
        let spec = DestinationSpec::new(victim).origin_padding(pad).attacker(attacker);
        assert_equivalent(&graph, &spec);
        // The same attack routed around a random AS: the one strategy whose
        // rejection chain is not parent-closed, so it always takes the full
        // attacked pass and no delta oracle ever sees it.
        let poisoned = asns[picks.2 % asns.len()];
        let poison = attacker.strategy(AttackStrategy::PoisonPath { poisoned });
        assert_equivalent(&graph, &spec.attacker(poison));
    }

    #[test]
    fn baseline_strategy_equivalence(
        seed in any::<u64>(), picks in (0usize..60, 0usize..60), which in 0usize..3
    ) {
        let graph = InternetConfig::small()
            .tier2_count(8).tier3_count(10).stub_count(18).seed(seed).build();
        let asns: Vec<Asn> = graph.asns().collect();
        let victim = asns[picks.0 % asns.len()];
        let attacker = asns[picks.1 % asns.len()];
        if victim == attacker { return Ok(()); }
        let strategy = [
            AttackStrategy::StripPadding { keep: 1 },
            AttackStrategy::ForgeDirect,
            AttackStrategy::OriginHijack,
        ][which];
        // StripAllPadding is covered by the dedicated test below and
        // PoisonPath by the one above; these three exercise the distinct
        // export paths.
        let spec = DestinationSpec::new(victim)
            .origin_padding(4)
            .attacker(AttackerModel::new(attacker).strategy(strategy));
        assert_equivalent(&graph, &spec);
    }
}

/// `InternetConfig::small()` (seed `seed`) with random sibling links
/// between the ASes `siblings` picks and one customer→provider cycle
/// spliced in through the three ASes `cycle` picks — shapes no generator
/// preset makes. Any link already joining two ASes of the cycle is
/// replaced; a sibling link that would duplicate a link is skipped.
fn looped_internet(seed: u64, siblings: &[(usize, usize)], cycle: [usize; 3]) -> AsGraph {
    let graph = InternetConfig::small().seed(seed).build();
    let asns: Vec<Asn> = graph.asns().collect();
    let pick = |i: usize| asns[i % asns.len()];
    let mut builder = graph.to_builder();
    for &(x, y) in siblings {
        let _ = builder.add_sibling(pick(x), pick(y));
    }
    let [a, b, c] = cycle.map(pick);
    for (provider, customer) in [(a, b), (b, c), (c, a)] {
        builder.remove_link(provider, customer);
        builder.add_provider_customer(provider, customer).unwrap();
    }
    builder.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sibling links and a provider loop put the full pass's climb through
    /// cycles it settles by a local fixpoint: the engine must still agree
    /// with the message-level simulator route for route — the clean pass
    /// and every attack strategy in both export modes — and every outcome,
    /// an ASPA-policied one included, must audit clean.
    #[test]
    fn sibling_and_provider_loop_equivalence(
        seed in any::<u64>(),
        siblings in proptest::collection::vec((0usize..200, 0usize..200), 1..6),
        cycle in (0usize..200, 1usize..200, 1usize..200),
        picks in (0usize..200, 0usize..200, 0usize..200),
        pad in 1usize..6,
    ) {
        // Three distinct ASes of the 149.
        let n = InternetConfig::small().total_ases();
        let (a, b) = (cycle.0 % n, (cycle.0 + 1 + cycle.1 % (n - 1)) % n);
        let c = (0..n).map(|i| (cycle.2 + i) % n).find(|&c| c != a && c != b).unwrap();
        let graph = looped_internet(seed, &siblings, [a, b, c]);
        prop_assert!(!graph.propagation_order().cycles().is_empty());
        let asns: Vec<Asn> = graph.asns().collect();
        let victim = asns[picks.0 % asns.len()];
        let attacker = asns[picks.1 % asns.len()];
        if victim == attacker {
            return Ok(());
        }

        let audited = |outcome: &RoutingOutcome<'_>| {
            let report = aspp_core::routing::audit::audit_outcome(outcome);
            assert!(report.is_clean(), "{report}");
        };
        let clean = DestinationSpec::new(victim).origin_padding(pad);
        let mut specs = vec![clean.clone()];
        for strategy in [
            AttackStrategy::StripPadding { keep: 1 },
            AttackStrategy::StripAllPadding,
            AttackStrategy::ForgeDirect,
            AttackStrategy::OriginHijack,
            AttackStrategy::PoisonPath { poisoned: asns[picks.2 % asns.len()] },
        ] {
            for mode in [ExportMode::Compliant, ExportMode::ViolateValleyFree] {
                let model = AttackerModel::new(attacker).strategy(strategy).mode(mode);
                specs.push(clean.clone().attacker(model));
            }
        }
        for spec in &specs {
            assert_equivalent(&graph, spec);
            audited(&RoutingEngine::new(&graph).compute(spec));
        }

        let deployers = DeploymentMap::from_asns(&graph, asns.iter().copied().step_by(2));
        let aspa = DeployedPolicy::new(PolicyKind::Aspa, deployers);
        let spec = clean.attacker(AttackerModel::new(attacker).mode(ExportMode::ViolateValleyFree));
        let outcome = RoutingEngine::new(&graph).compute_with_policy(&spec, &mut RouteWorkspace::new(), &aspa);
        let report = aspp_core::routing::audit::audit_outcome_with(&outcome, &aspa);
        prop_assert!(report.is_clean(), "{}", report);
        prop_assert_eq!(aspp_core::routing::audit::full_pass_divergence(&outcome, &aspa), None);
    }
}

// Shrunk failure cases formerly persisted in
// `engine_equivalence.proptest-regressions`, promoted to explicit tests so
// they run on every `cargo test` regardless of the property runner's case
// stream. The topology builder seeds them through the same StdRng stream
// they were recorded against.

#[test]
fn regression_attacked_equivalence_seed0_pad2() {
    // shrinks to seed = 0, pad = 2, picks = (49, 23), violate = false
    let graph = InternetConfig::small()
        .tier2_count(10)
        .tier3_count(15)
        .stub_count(25)
        .seed(0)
        .build();
    let asns: Vec<Asn> = graph.asns().collect();
    let victim = asns[49 % asns.len()];
    let attacker = asns[23 % asns.len()];
    assert_ne!(victim, attacker);
    let spec = DestinationSpec::new(victim)
        .origin_padding(2)
        .attacker(AttackerModel::new(attacker).mode(ExportMode::Compliant));
    assert_equivalent(&graph, &spec);
}

#[test]
fn regression_origin_hijack_equivalence_seed14243435913310978049() {
    // shrinks to seed = 14243435913310978049, picks = (0, 7), which = 2
    let graph = InternetConfig::small()
        .tier2_count(8)
        .tier3_count(10)
        .stub_count(18)
        .seed(14_243_435_913_310_978_049)
        .build();
    let asns: Vec<Asn> = graph.asns().collect();
    let victim = asns[0 % asns.len()];
    let attacker = asns[7 % asns.len()];
    assert_ne!(victim, attacker);
    let spec = DestinationSpec::new(victim)
        .origin_padding(4)
        .attacker(AttackerModel::new(attacker).strategy(AttackStrategy::OriginHijack));
    assert_equivalent(&graph, &spec);
}

#[test]
fn sibling_chain_equivalence() {
    // The Figure 11 augmented topology exercises sibling-class inheritance
    // in both implementations.
    let mut builder = InternetConfig::small().seed(99).build().to_builder();
    let victim = Asn(100);
    let attacker = Asn(90_000);
    builder.add_sibling(victim, Asn(99_999)).unwrap();
    builder
        .add_provider_customer(attacker, Asn(99_999))
        .unwrap();
    let graph = builder.finish();
    for pad in [1, 4, 8] {
        let spec = DestinationSpec::new(victim)
            .origin_padding(pad)
            .attacker(AttackerModel::new(attacker));
        assert_equivalent(&graph, &spec);
    }
}

#[test]
fn long_claim_equilibria_equivalence() {
    // λ=300 with the attacker keeping 256 origin copies: every route the
    // attack changes is hundreds of hops long, and the delta pass that
    // computes them is compared.
    let graph = InternetConfig::small().seed(61).build();
    let clean = DestinationSpec::new(Asn(20_003)).origin_padding(300);
    let attacked = clean
        .clone()
        .attacker(AttackerModel::new(Asn(100)).keep(256));
    let mut ws = RouteWorkspace::new();
    for spec in [clean, attacked] {
        assert_equivalent(&graph, &spec);
        let outcome = RoutingEngine::new(&graph).compute_with(&spec, &mut ws);
        let report = aspp_core::routing::audit::audit_outcome(&outcome);
        assert!(report.is_clean(), "{report}");
        if outcome.has_attack() {
            assert!(
                outcome.polluted_count() > 0,
                "the delta pass changed nothing"
            );
        }
    }
    assert_eq!(ws.delta_passes(), 1);
}

#[test]
fn per_neighbor_policies_equivalence() {
    let graph = InternetConfig::small().seed(44).build();
    let victim = Asn(20_007);
    let providers: Vec<Asn> = graph.providers(victim).collect();
    let mut config = PrependConfig::new();
    config.set(
        victim,
        PrependingPolicy::per_neighbor(
            4,
            providers
                .first()
                .map(|&p| (p, 0))
                .into_iter()
                .collect::<Vec<_>>(),
        ),
    );
    config.set(Asn(1_003), PrependingPolicy::Uniform(2));
    config.set(Asn(1_007), PrependingPolicy::Uniform(1));
    let spec = DestinationSpec::new(victim).prepend_config(config);
    assert_equivalent(&graph, &spec);
}

#[test]
fn strip_all_padding_equivalence_with_intermediary_padder() {
    let graph = InternetConfig::small().seed(77).build();
    let mut config = PrependConfig::new();
    config.set(Asn(20_009), PrependingPolicy::Uniform(3));
    config.set(Asn(1_004), PrependingPolicy::Uniform(2)); // intermediary padder
    let spec = DestinationSpec::new(Asn(20_009))
        .prepend_config(config)
        .attacker(AttackerModel::new(Asn(100)).strategy(AttackStrategy::StripAllPadding));
    assert_equivalent(&graph, &spec);
}

/// The same links frozen in two insertion orders route identically — the
/// clean pass, every attack strategy in both export modes, and a policied
/// pass: `finish()` numbers the nodes by ASN, so the lowest-neighbor-ASN
/// tie-break cannot depend on the order the ASes arrived in.
#[test]
fn construction_order_does_not_change_route_tables() {
    use aspp_core::topology::AsGraphBuilder;
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    let graph = InternetConfig::small().seed(31).build();
    let freeze = |links: &[(Asn, Asn, Relationship)]| {
        let mut builder = AsGraphBuilder::new();
        for &(a, b, rel) in links {
            builder.add_link(a, b, rel).unwrap();
        }
        builder.finish()
    };
    let mut links: Vec<_> = graph.links().collect();
    links.reverse();
    let reversed = freeze(&links);
    links.shuffle(&mut StdRng::seed_from_u64(31));
    let shuffled = freeze(&links);

    let asns: Vec<Asn> = graph.asns().collect();
    let aspa = |g: &AsGraph| {
        let deployers = DeploymentMap::from_asns(g, asns.iter().copied().step_by(3));
        DeployedPolicy::new(PolicyKind::Aspa, deployers)
    };
    let same = |outcome: &RoutingOutcome<'_>, reference: &RoutingOutcome<'_>| {
        for &asn in &asns {
            assert_eq!(outcome.route(asn), reference.route(asn), "route of AS{asn}");
            assert_eq!(outcome.observed_path(asn), reference.observed_path(asn));
        }
    };
    let strategies = [
        AttackStrategy::StripPadding { keep: 1 },
        AttackStrategy::StripAllPadding,
        AttackStrategy::ForgeDirect,
        AttackStrategy::OriginHijack,
        AttackStrategy::PoisonPath { poisoned: asns[1] },
    ];
    for (victim, attacker) in [
        (asns[3], asns[40]),
        (asns[120], asns[7]),
        (asns[60], asns[0]),
    ] {
        let clean = DestinationSpec::new(victim).origin_padding(3);
        let mut specs = vec![clean.clone()];
        for strategy in strategies {
            for mode in [ExportMode::Compliant, ExportMode::ViolateValleyFree] {
                let model = AttackerModel::new(attacker).strategy(strategy).mode(mode);
                specs.push(clean.clone().attacker(model));
            }
        }
        for spec in &specs {
            let reference = RoutingEngine::new(&graph).compute(spec);
            for g in [&reversed, &shuffled] {
                same(&RoutingEngine::new(g).compute(spec), &reference);
            }
        }
        let spec = clean.attacker(AttackerModel::new(attacker));
        let mut ws = RouteWorkspace::new();
        let reference =
            RoutingEngine::new(&graph).compute_with_policy(&spec, &mut ws, &aspa(&graph));
        for g in [&reversed, &shuffled] {
            same(
                &RoutingEngine::new(g).compute_with_policy(&spec, &mut ws, &aspa(g)),
                &reference,
            );
        }
    }
}

/// Route for route on a preset Internet: the clean pass, the λ=3 strip in
/// both export modes and an origin hijack, each by a tier-1 attacker, over
/// `victims` stub victims. A tier-1 attacker's delta pass reaches much of
/// the graph, and many nodes hear several offers of one class and length,
/// which the lowest neighbor ASN decides between.
fn assert_equivalent_on_tier1_attacks(graph: &AsGraph, victims: usize) {
    let tiers = TierMap::classify(graph);
    let attacker = tiers.tier1().next().expect("a tier-1 AS");
    let stubs: Vec<Asn> = graph.asns().filter(|&a| tiers.is_stub(graph, a)).collect();
    for &victim in stubs.iter().step_by(stubs.len() / victims).take(victims) {
        let clean = DestinationSpec::new(victim).origin_padding(3);
        assert_equivalent(graph, &clean);
        let attacker = AttackerModel::new(attacker);
        for model in [
            attacker.mode(ExportMode::Compliant),
            attacker.mode(ExportMode::ViolateValleyFree),
            attacker.strategy(AttackStrategy::OriginHijack),
        ] {
            assert_equivalent(graph, &clean.clone().attacker(model));
        }
    }
}

#[test]
fn paper_scale_equivalence_on_tier1_attacks() {
    assert_equivalent_on_tier1_attacks(&Scale::Paper.internet(2024), 3);
}

#[test]
#[ignore = "80 000-AS run: seconds in release, minutes in debug"]
fn internet_scale_equivalence_on_tier1_attacks() {
    assert_equivalent_on_tier1_attacks(&Scale::Internet.internet(2024), 3);
}
