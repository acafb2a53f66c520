//! Cross-crate property tests: invariants of the routing equilibrium over
//! randomized topologies and attack parameters.

use aspp_core::prelude::*;
use proptest::prelude::*;

/// Builds a random small Internet from a proptest seed.
fn arb_internet() -> impl Strategy<Value = AsGraph> {
    (any::<u64>(), 2usize..5, 5usize..12, 10usize..25).prop_map(|(seed, t1, t2, stubs)| {
        InternetConfig::small()
            .tier1_count(t1)
            .tier2_count(t2)
            .tier3_count(t2)
            .stub_count(stubs)
            .content_count(1)
            .seed(seed)
            .build()
    })
}

/// Checks the Customer-Provider* Peer-Peer? Provider-Customer* shape of a
/// path in travel order (origin first), allowing sibling edges anywhere.
fn is_valley_free(graph: &AsGraph, path: &AsPath) -> bool {
    let mut travel = path.collapsed();
    travel.reverse();
    let mut phase = 0; // 0 climbing, 1 after peer, 2 descending
    for w in travel.windows(2) {
        let Some(rel) = graph.relationship(w[0], w[1]) else {
            return false;
        };
        match rel {
            Relationship::Sibling => {}
            Relationship::Provider => {
                if phase != 0 {
                    return false;
                }
            }
            Relationship::Peer => {
                if phase != 0 {
                    return false;
                }
                phase = 1;
            }
            Relationship::Customer => phase = 2,
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every clean best path is valley-free, loop-free, reaches the origin,
    /// and its length matches the engine's effective length.
    #[test]
    fn clean_equilibrium_invariants(graph in arb_internet(), pad in 1usize..5) {
        let victim = graph.asns().next().unwrap();
        let engine = RoutingEngine::new(&graph);
        let outcome = engine.compute(&DestinationSpec::new(victim).origin_padding(pad));
        for asn in graph.asns() {
            if asn == victim { continue; }
            let Some(info) = outcome.route(asn) else { continue };
            let path = outcome.observed_path(asn).expect("route implies path");
            prop_assert_eq!(path.origin(), Some(victim));
            prop_assert!(!path.has_loop(), "loop in {}", path);
            prop_assert_eq!(path.len() as u32, info.effective_len + 1);
            prop_assert_eq!(path.origin_padding(), pad, "padding surfaced in {}", path);
            prop_assert!(is_valley_free(&graph, &path), "valley in {}", path);
        }
    }

    /// Attacked equilibria keep their invariants: polluted paths traverse
    /// the attacker, contain exactly `keep` origin copies, and never loop.
    #[test]
    fn attacked_equilibrium_invariants(
        graph in arb_internet(), pad in 2usize..6, keep in 1usize..3
    ) {
        let asns: Vec<Asn> = graph.asns().collect();
        let victim = asns[0];
        let attacker = asns[asns.len() / 2];
        if victim == attacker { return Ok(()); }
        let engine = RoutingEngine::new(&graph);
        let spec = DestinationSpec::new(victim)
            .origin_padding(pad)
            .attacker(AttackerModel::new(attacker).keep(keep));
        let outcome = engine.compute(&spec);
        for asn in graph.asns() {
            if asn == victim || asn == attacker { continue; }
            let Some(info) = outcome.route(asn) else { continue };
            let path = outcome.observed_path(asn).expect("route implies path");
            prop_assert!(!path.has_loop(), "loop in {}", path);
            prop_assert_eq!(path.len() as u32, info.effective_len + 1);
            if info.via_attacker {
                prop_assert!(path.contains(attacker));
                prop_assert_eq!(
                    path.origin_padding(),
                    keep.min(pad),
                    "stripped padding visible in {}", path
                );
            } else {
                prop_assert_eq!(path.origin_padding(), pad);
            }
        }
        // Fractions are consistent probabilities.
        let f = outcome.polluted_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
    }

    /// The attack never decreases any AS's route preference: switching to
    /// the malicious route only happens when it is at least as preferred.
    #[test]
    fn attack_only_improves_apparent_routes(graph in arb_internet()) {
        let asns: Vec<Asn> = graph.asns().collect();
        let victim = asns[0];
        let attacker = asns[1];
        let engine = RoutingEngine::new(&graph);
        let spec = DestinationSpec::new(victim)
            .origin_padding(4)
            .attacker(AttackerModel::new(attacker));
        let outcome = engine.compute(&spec);
        for asn in graph.asns() {
            if asn == victim || asn == attacker { continue; }
            let (Some(clean), Some(now)) = (outcome.clean_route(asn), outcome.route(asn)) else {
                continue;
            };
            if now.via_attacker {
                // Apparent (class, length) must be no worse than the clean route.
                prop_assert!(
                    (now.class, now.effective_len) <= (clean.class, clean.effective_len),
                    "AS{} switched to a worse route: {:?} -> {:?}", asn, clean, now
                );
            }
        }
    }

    /// Corpus round-trip: any generated corpus survives serialization.
    #[test]
    fn corpus_serialization_round_trip(seed in any::<u64>(), prefixes in 3usize..12) {
        let graph = InternetConfig::small()
            .tier2_count(8).tier3_count(8).stub_count(12).seed(seed).build();
        let corpus = CorpusConfig::new(prefixes).monitors_top_degree(6).seed(seed).generate(&graph);
        let parsed = Corpus::parse_strict(&corpus.to_text()).expect("own output parses");
        prop_assert_eq!(parsed, corpus);
    }
}
