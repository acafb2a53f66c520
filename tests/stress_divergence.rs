//! Extended engine-vs-simulator divergence hunt: sweeps thousands of
//! (seed, victim, attacker, padding, strategy) combinations and reports
//! every disagreement. Too slow for the default suite — run with
//! `cargo test --release --test stress_divergence -- --ignored`.
use aspp_core::prelude::*;
use aspp_core::routing::bgp::BgpSimulation;
use aspp_core::routing::AttackStrategy;

fn divergence(graph: &AsGraph, spec: &DestinationSpec) -> Option<String> {
    let sim = BgpSimulation::new(graph).run(spec);
    let eng = RoutingEngine::new(graph).compute(spec);
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
                if (a.class, a.effective_len, a.next_hop, a.via_attacker)
                    != (b.class, b.effective_len, b.next_hop, b.via_attacker)
                {
                    return Some(format!(
                        "metrics at AS{asn}: sim=({:?},{},{:?},{}) eng=({:?},{},{:?},{})",
                        a.class,
                        a.effective_len,
                        a.next_hop,
                        a.via_attacker,
                        b.class,
                        b.effective_len,
                        b.next_hop,
                        b.via_attacker
                    ));
                }
                if sim.observed_path(asn) != eng.observed_path(asn) {
                    return Some(format!(
                        "path at AS{asn}: sim={:?} eng={:?}",
                        sim.observed_path(asn),
                        eng.observed_path(asn)
                    ));
                }
            }
            (a, b) => {
                if a.is_some() != b.is_some() {
                    return Some(format!(
                        "reachability at AS{asn}: sim={} eng={}",
                        a.is_some(),
                        b.is_some()
                    ));
                }
            }
        }
    }
    None
}

#[test]
#[ignore]
fn hunt() {
    let mut found = 0;
    'outer: for seed in 0..60u64 {
        let graph = InternetConfig::small()
            .tier2_count(10)
            .tier3_count(15)
            .stub_count(25)
            .seed(seed)
            .build();
        let asns: Vec<Asn> = graph.asns().collect();
        for vp in (0..asns.len()).step_by(3) {
            for ap in (0..asns.len()).step_by(5) {
                let (victim, attacker) = (asns[vp], asns[ap]);
                if victim == attacker {
                    continue;
                }
                for pad in [2usize, 4] {
                    for (label, spec) in [
                        (
                            "compliant",
                            DestinationSpec::new(victim)
                                .origin_padding(pad)
                                .attacker(AttackerModel::new(attacker).mode(ExportMode::Compliant)),
                        ),
                        (
                            "violate",
                            DestinationSpec::new(victim).origin_padding(pad).attacker(
                                AttackerModel::new(attacker).mode(ExportMode::ViolateValleyFree),
                            ),
                        ),
                        (
                            "strip1",
                            DestinationSpec::new(victim).origin_padding(pad).attacker(
                                AttackerModel::new(attacker)
                                    .strategy(AttackStrategy::StripPadding { keep: 1 }),
                            ),
                        ),
                        (
                            "stripall",
                            DestinationSpec::new(victim).origin_padding(pad).attacker(
                                AttackerModel::new(attacker)
                                    .strategy(AttackStrategy::StripAllPadding),
                            ),
                        ),
                        (
                            "forge",
                            DestinationSpec::new(victim).origin_padding(pad).attacker(
                                AttackerModel::new(attacker).strategy(AttackStrategy::ForgeDirect),
                            ),
                        ),
                        (
                            "hijack",
                            DestinationSpec::new(victim).origin_padding(pad).attacker(
                                AttackerModel::new(attacker).strategy(AttackStrategy::OriginHijack),
                            ),
                        ),
                    ] {
                        if let Some(d) = divergence(&graph, &spec) {
                            println!("DIVERGE seed={seed} victim={victim} attacker={attacker} pad={pad} {label}: {d}");
                            found += 1;
                            if found > 8 {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(found, 0, "{found} divergences found");
}
