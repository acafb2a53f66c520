//! Public-API regression tests for `aspp-topology`.

use aspp_topology::gen::{InternetConfig, CONTENT_BASE, STUB_BASE, TIER1_BASE};
use aspp_topology::infer::{consensus_infer, gao_infer, InferParams, InferenceAccuracy};
use aspp_topology::io::{from_caida_strict, to_caida};
use aspp_topology::tier::{customer_cone, TierMap};
use aspp_topology::{AsGraph, AsGraphBuilder};
use aspp_types::{AsPath, Asn, Relationship};

#[test]
fn generated_internet_survives_caida_round_trip_with_tiers_intact() {
    let graph = InternetConfig::small().seed(123).build();
    let reparsed = from_caida_strict(&to_caida(&graph)).unwrap();
    let tiers_a = TierMap::classify(&graph);
    let tiers_b = TierMap::classify(&reparsed);
    for asn in graph.asns() {
        assert_eq!(tiers_a.tier_of(asn), tiers_b.tier_of(asn), "tier of {asn}");
    }
}

#[test]
fn customer_cones_nest_along_provider_chains() {
    let graph = InternetConfig::small().seed(6).build();
    // Every provider's cone contains each of its customers' cones.
    let mut checked = 0;
    for provider in graph.asns().take(30) {
        let provider_cone = customer_cone(&graph, provider);
        for customer in graph.customers(provider) {
            let customer_cone_set = customer_cone(&graph, customer);
            assert!(
                customer_cone_set.is_subset(&provider_cone),
                "cone of {customer} not within cone of {provider}"
            );
            checked += 1;
        }
    }
    assert!(checked > 10, "enough nesting cases exercised");
}

#[test]
fn tier1_cone_union_covers_everything() {
    let graph = InternetConfig::small().seed(7).build();
    let tiers = TierMap::classify(&graph);
    let mut covered = std::collections::HashSet::new();
    for t1 in tiers.tier1() {
        covered.extend(customer_cone(&graph, t1));
    }
    assert_eq!(covered.len(), graph.len(), "core cones cover the Internet");
}

#[test]
fn asn_blocks_encode_roles() {
    let graph = InternetConfig::small().seed(8).build();
    let tiers = TierMap::classify(&graph);
    // Tier-1 block members are tier-1; stub-block members have no customers.
    assert_eq!(tiers.tier_of(Asn(TIER1_BASE)), Some(1));
    assert!(tiers.is_stub(&graph, Asn(STUB_BASE)));
    assert!(graph.peers(Asn(CONTENT_BASE)).count() > 5);
}

#[test]
fn inference_accuracy_on_rich_path_corpus() {
    // Build a corpus of hand-derivable valley-free paths: every stub pair
    // through the hierarchy, as produced by a prior routing run and saved.
    let graph = InternetConfig::small()
        .tier2_count(8)
        .tier3_count(8)
        .stub_count(16)
        .seed(9)
        .build();
    // Synthesize simple up-over-down paths: stub -> provider -> ... via
    // breadth-first provider chains to a tier-1, then down to another stub.
    let tiers = TierMap::classify(&graph);
    let mut paths: Vec<AsPath> = Vec::new();
    let stubs: Vec<Asn> = graph
        .asns()
        .filter(|&a| tiers.is_stub(&graph, a))
        .take(12)
        .collect();
    for &s in &stubs {
        for &d in &stubs {
            if s == d {
                continue;
            }
            if let (Some(up), Some(down)) = (provider_chain(&graph, s), provider_chain(&graph, d)) {
                // up: s..tier1a ; down: d..tier1b — join over the clique.
                let mut hops: Vec<Asn> = Vec::new();
                hops.extend(up.iter().rev()); // tier1a .. s reversed => s..? fix below
                hops.reverse(); // s .. tier1a
                let mut travel = hops; // travel order: s first
                let tier1a = *travel.last().unwrap();
                let tier1b = *down.last().unwrap();
                if tier1a != tier1b {
                    travel.push(tier1b);
                }
                travel.extend(down.iter().rev().skip(1)); // tier1b.. d minus dup
                travel.reverse(); // most-recent-first: d side first? monitor at s
                paths.push(AsPath::from_hops(travel));
            }
        }
    }
    assert!(paths.len() > 50);
    let mut t1: Vec<Asn> = tiers.tier1().collect();
    t1.sort();
    let seed: Vec<(Asn, Asn)> = t1
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| t1[i + 1..].iter().map(move |&b| (a, b)))
        .collect();
    let inferred = consensus_infer(&paths, &seed, InferParams::default());
    let acc = InferenceAccuracy::compare(&graph, &inferred);
    assert!(
        acc.accuracy() > 0.55,
        "hand-built corpus accuracy {:.2}",
        acc.accuracy()
    );
}

fn provider_chain(graph: &AsGraph, from: Asn) -> Option<Vec<Asn>> {
    // Walks lowest-ASN providers up to a provider-free AS.
    let mut chain = vec![from];
    let mut current = from;
    for _ in 0..12 {
        match graph.providers(current).min() {
            Some(p) => {
                chain.push(p);
                current = p;
            }
            None => return Some(chain),
        }
    }
    None
}

#[test]
fn gao_is_deterministic() {
    let graph = InternetConfig::small().seed(10).build();
    let paths: Vec<AsPath> = graph
        .asns()
        .take(20)
        .filter_map(|a| provider_chain(&graph, a))
        .map(AsPath::from_hops)
        .collect();
    let a = gao_infer(&paths, &[], InferParams::default());
    let b = gao_infer(&paths, &[], InferParams::default());
    let la: Vec<_> = {
        let mut v: Vec<_> = a.links().collect();
        v.sort();
        v
    };
    let lb: Vec<_> = {
        let mut v: Vec<_> = b.links().collect();
        v.sort();
        v
    };
    assert_eq!(la, lb);
}

#[test]
fn remove_link_then_relink_changes_relationship() {
    let mut b = AsGraphBuilder::new();
    b.add_provider_customer(Asn(1), Asn(2)).unwrap();
    assert_eq!(b.remove_link(Asn(1), Asn(2)), Some(Relationship::Customer));
    b.add_peering(Asn(1), Asn(2)).unwrap();
    let g = b.finish();
    assert_eq!(g.relationship(Asn(1), Asn(2)), Some(Relationship::Peer));
    assert_eq!(g.link_count(), 1);
}

#[test]
fn builder_presets_scale_monotonically() {
    let presets = [
        InternetConfig::small(),
        InternetConfig::medium(),
        InternetConfig::internet(),
    ];
    for pair in presets.windows(2) {
        assert!(pair[0].total_ases() < pair[1].total_ases());
    }
}
