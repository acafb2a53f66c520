//! Integration of the relationship-inference pipeline (paper Section IV-A):
//! observed monitor paths → Gao / degree / consensus inference → accuracy
//! against the generator's ground truth, and Figure 7 on the inferred graph.

use aspp_core::experiments::{impact, Scale};
use aspp_core::prelude::*;
use aspp_core::topology::infer::{
    consensus_infer, degree_infer, gao_infer, InferParams, InferenceAccuracy,
};

/// Observed paths from every AS toward each destination, as monitors would
/// accumulate them.
fn observed_paths(graph: &AsGraph, destinations: &[Asn]) -> Vec<AsPath> {
    let engine = RoutingEngine::new(graph);
    let mut paths = Vec::new();
    for &dst in destinations {
        let outcome = engine.compute(&DestinationSpec::new(dst));
        for asn in graph.asns() {
            if asn != dst {
                if let Some(p) = outcome.observed_path(asn) {
                    paths.push(p);
                }
            }
        }
    }
    paths
}

/// Every pair of `graph`'s tier-1 ASes: the clique the inference is seeded
/// with.
fn tier1_clique(graph: &AsGraph) -> Vec<(Asn, Asn)> {
    let mut t1: Vec<Asn> = TierMap::classify(graph).tier1().collect();
    t1.sort();
    t1.iter()
        .enumerate()
        .flat_map(|(i, &a)| t1[i + 1..].iter().map(move |&b| (a, b)))
        .collect()
}

fn setup() -> (AsGraph, Vec<AsPath>, Vec<(Asn, Asn)>) {
    let graph = InternetConfig::small().seed(4242).build();
    let destinations: Vec<Asn> = (0..15).map(|i| Asn(20_000 + i)).collect();
    let paths = observed_paths(&graph, &destinations);
    let seed = tier1_clique(&graph);
    (graph, paths, seed)
}

/// Figure 7's tail below 5 % pollution appears once the topology is
/// inferred, as the paper's was, from what the Figure 5 corpus's monitors
/// saw: the paper counts ≈30 of 80 tier-1 instances there, the generated
/// graph none. Inferred from every table and update path of the
/// paper-scale corpus (≈47 % of the links, ≈58 % of them with the right
/// relationship), it counts 32/80, 42/72 and 42/80 at these seeds.
/// Release only: ≈0.5 s for the three seeds on 2 cores.
#[test]
#[ignore = "paper scale; run in release with --ignored"]
fn figure7_tail_appears_on_the_inferred_topology() {
    let below_5pct = |graph: &AsGraph, seed: u64| {
        let fig7 = impact::fig7(graph, Scale::Paper, seed);
        let impacts = fig7.impacts.iter();
        (
            impacts.filter(|i| i.after_fraction < 0.05).count(),
            fig7.impacts.len(),
        )
    };
    for seed in [2024, 2025, 7] {
        let graph = Scale::Paper.internet(seed);
        let corpus = CorpusConfig::new(Scale::Paper.preset().corpus_prefixes)
            .monitors_top_degree(Scale::Paper.preset().corpus_monitors)
            .seed(seed)
            .generate(&graph);
        let tables = corpus.tables().flat_map(|(_, t)| t.iter().map(|(_, p)| p));
        let updates = corpus.updates().iter().filter_map(|u| u.path());
        let paths: Vec<AsPath> = tables.chain(updates).cloned().collect();
        let inferred = consensus_infer(&paths, &tier1_clique(&graph), InferParams::default());

        let (generated, n) = below_5pct(&graph, seed);
        assert_eq!(
            generated, 0,
            "seed {seed}: {generated}/{n} on the generated graph"
        );
        let (tail, n) = below_5pct(&inferred, seed);
        assert!(tail >= 20, "seed {seed}: {tail}/{n} on the inferred graph");
    }
}

#[test]
fn gao_recovers_majority_of_relationships() {
    let (graph, paths, seed) = setup();
    let inferred = gao_infer(&paths, &seed, InferParams::default());
    let acc = InferenceAccuracy::compare(&graph, &inferred);
    assert!(
        acc.accuracy() > 0.6,
        "Gao accuracy {:.2} too low ({} agree / {} conflict)",
        acc.accuracy(),
        acc.agreeing,
        acc.conflicting
    );
    // Inference never invents links that no path crossed.
    assert_eq!(acc.spurious, 0, "no spurious links from real paths");
}

#[test]
fn consensus_not_worse_than_components() {
    let (graph, paths, seed) = setup();
    let gao = InferenceAccuracy::compare(&graph, &gao_infer(&paths, &seed, InferParams::default()));
    let consensus = InferenceAccuracy::compare(
        &graph,
        &consensus_infer(&paths, &seed, InferParams::default()),
    );
    assert!(
        consensus.accuracy() >= gao.accuracy() - 0.05,
        "consensus {:.2} much worse than gao {:.2}",
        consensus.accuracy(),
        gao.accuracy()
    );
}

#[test]
fn tier1_seed_links_always_inferred_as_peers() {
    let (_, paths, seed) = setup();
    let inferred = gao_infer(&paths, &seed, InferParams::default());
    for &(a, b) in &seed {
        if inferred.relationship(a, b).is_some() {
            assert_eq!(
                inferred.relationship(a, b),
                Some(Relationship::Peer),
                "seeded tier-1 pair {a}-{b}"
            );
        }
    }
}

#[test]
fn provider_customer_links_directional_accuracy() {
    // Check that inferred provider/customer links rarely point the wrong
    // way (inverted direction is the damaging error class for simulation).
    let (graph, paths, seed) = setup();
    let inferred = gao_infer(&paths, &seed, InferParams::default());
    let mut correct = 0usize;
    let mut inverted = 0usize;
    for (a, b, rel) in inferred.links() {
        if rel == Relationship::Peer || rel == Relationship::Sibling {
            continue;
        }
        match graph.relationship(a, b) {
            Some(truth) if truth == rel => correct += 1,
            Some(truth) if truth == rel.reverse() => inverted += 1,
            _ => {}
        }
    }
    assert!(
        inverted * 5 < correct,
        "too many inverted provider links: {inverted} vs {correct} correct"
    );
}

#[test]
fn degree_inference_identifies_the_core() {
    let (graph, paths, _) = setup();
    let inferred = degree_infer(&paths, InferParams::default());
    // All true tier-1 pairs observed on paths should come out as peers.
    let tiers = TierMap::classify(&graph);
    let t1: Vec<Asn> = tiers.tier1().collect();
    let mut seen = 0;
    let mut peer = 0;
    for (i, &a) in t1.iter().enumerate() {
        for &b in &t1[i + 1..] {
            if let Some(rel) = inferred.relationship(a, b) {
                seen += 1;
                if rel == Relationship::Peer {
                    peer += 1;
                }
            }
        }
    }
    assert!(seen > 0);
    assert!(
        peer * 3 >= seen * 2,
        "core peering under-recognized: {peer}/{seen}"
    );
}
