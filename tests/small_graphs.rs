//! Every small graph, checked three ways. The delta-soundness bugs of the
//! engine's history and Chiesa et al.'s hijack gadgets all live on graphs
//! of a handful of ASes, and small graphs can be enumerated instead of
//! sampled.
//!
//! Four ASes: the victim AS2, the attacker AS3 and two others, AS1 and AS4,
//! so that either other AS can win or lose a lowest-ASN tie-break. Each of
//! the six pairs is unlinked, peers, or a provider→customer link either
//! way. Every case — the clean pass and all five attack strategies in both
//! export modes, at λ ∈ {1, 2, 3} — must
//!
//! 1. equal the all-dirty run of the engine's propagation loop
//!    ([`full_pass_divergence`]),
//! 2. satisfy the equilibrium auditor, and
//! 3. agree route for route with the message-level [`BgpSimulation`].
//!
//! The default half enumerates the graphs whose provider→customer links are
//! acyclic (Gao–Rexford's safety condition). The `#[ignore]`d half, run in
//! release, adds sibling links and provider loops, and every defense policy
//! over every deployment subset on the acyclic graphs; the simulator is not
//! policy-aware, so policied cases are checked by the auditor and the
//! all-dirty run only:
//! `cargo test --release --test small_graphs -- --ignored`.

use std::sync::Arc;

use aspp_core::prelude::*;
use aspp_core::routing::audit::{audit_outcome, full_pass_divergence};
use aspp_core::routing::bgp::BgpSimulation;
use aspp_core::topology::AsGraphBuilder;

const VICTIM: Asn = Asn(2);
const ATTACKER: Asn = Asn(3);
const ASNS: [Asn; 4] = [Asn(1), VICTIM, ATTACKER, Asn(4)];
/// The six unordered pairs of [`ASNS`], by index.
const PAIRS: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

/// How one pair `(a, b)` is linked; `Some(rel)` is what `b` is to `a`.
const ACYCLIC_LINKS: [Option<Relationship>; 4] = [
    None,
    Some(Relationship::Peer),
    Some(Relationship::Customer),
    Some(Relationship::Provider),
];
const ALL_LINKS: [Option<Relationship>; 5] = [
    None,
    Some(Relationship::Peer),
    Some(Relationship::Customer),
    Some(Relationship::Provider),
    Some(Relationship::Sibling),
];

/// Every graph whose six pairs take their links from `links`, and whether
/// its provider→customer links form a cycle.
fn graphs(links: &[Option<Relationship>]) -> impl Iterator<Item = (AsGraph, bool)> + '_ {
    let total = links.len().pow(PAIRS.len() as u32);
    (0..total).map(move |mut code| {
        let mut builder = AsGraphBuilder::new();
        // Customers of each AS, for the cycle check.
        let mut below = [[false; 4]; 4];
        for asn in ASNS {
            builder.add_as(asn);
        }
        for (a, b) in PAIRS {
            let link = links[code % links.len()];
            code /= links.len();
            let Some(rel) = link else { continue };
            builder.add_link(ASNS[a], ASNS[b], rel).unwrap();
            match rel {
                Relationship::Customer => below[a][b] = true,
                Relationship::Provider => below[b][a] = true,
                _ => {}
            }
        }
        (builder.finish(), has_cycle(&below))
    })
}

/// Whether the 4-node relation `below` has a directed cycle.
fn has_cycle(below: &[[bool; 4]; 4]) -> bool {
    // Warshall's closure; a cycle puts some node below itself.
    let mut reach = *below;
    for k in 0..4 {
        for i in 0..4 {
            for j in 0..4 {
                reach[i][j] |= reach[i][k] && reach[k][j];
            }
        }
    }
    (0..4).any(|i| reach[i][i])
}

/// The clean spec and every attacked spec of the matrix, at padding `lambda`.
fn cases(lambda: usize) -> Vec<DestinationSpec> {
    let clean = DestinationSpec::new(VICTIM).origin_padding(lambda);
    let mut specs = vec![clean.clone()];
    for strategy in [
        AttackStrategy::StripPadding { keep: 1 },
        AttackStrategy::StripAllPadding,
        AttackStrategy::ForgeDirect,
        AttackStrategy::OriginHijack,
        AttackStrategy::PoisonPath { poisoned: ASNS[0] },
    ] {
        for mode in [ExportMode::Compliant, ExportMode::ViolateValleyFree] {
            let model = AttackerModel::new(ATTACKER).strategy(strategy).mode(mode);
            specs.push(clean.clone().attacker(model));
        }
    }
    specs
}

/// Checks one computed `outcome` against the all-dirty run and the auditor,
/// naming the graph and case on failure.
fn check_engine(graph: &AsGraph, outcome: &RoutingOutcome<'_>) {
    let spec = outcome.spec();
    assert_eq!(
        full_pass_divergence(outcome),
        None,
        "{spec:?} on {}",
        describe(graph)
    );
    let audit = audit_outcome(outcome);
    assert!(
        audit.is_clean(),
        "{spec:?} on {}:\n{audit}",
        describe(graph)
    );
}

/// Checks the unpolicied `outcome` against the message-level simulator. An
/// attacker with no route to the victim announces nothing in the engine
/// (the simulator lets an origin hijacker announce anyway), so such cases
/// are compared by the other two checks only.
fn check_simulator(graph: &AsGraph, outcome: &RoutingOutcome<'_>) {
    let spec = outcome.spec();
    if spec.attacker_model().is_some() && !outcome.has_attack() {
        return;
    }
    let sim = BgpSimulation::new(graph).run(spec);
    // Under an origin hijack the attacker's own entry is bookkeeping: the
    // engine pins its clean route, the live protocol may let it decay.
    let hijacker = spec
        .attacker_model()
        .filter(|a| matches!(a.attack_strategy(), AttackStrategy::OriginHijack))
        .map(|a| a.asn());
    for asn in ASNS {
        if Some(asn) == hijacker {
            continue;
        }
        let (a, b) = (sim.route(asn), outcome.route(asn));
        let key = |r: Option<aspp_core::routing::RouteInfo>| {
            r.map(|r| (r.class, r.effective_len, r.next_hop, r.via_attacker))
        };
        assert_eq!(
            key(a),
            key(b),
            "AS{asn}: simulator vs engine, {spec:?} on {}",
            describe(graph)
        );
        assert_eq!(sim.observed_path(asn), outcome.observed_path(asn));
    }
}

/// The graph's links, for failure messages.
fn describe(graph: &AsGraph) -> String {
    let mut links = Vec::new();
    for (a, b) in PAIRS {
        if let Some(rel) = graph.relationship(ASNS[a], ASNS[b]) {
            links.push(format!("AS{}-{rel:?}->AS{}", ASNS[a], ASNS[b]));
        }
    }
    format!("[{}]", links.join(", "))
}

/// Every acyclic 4-AS graph, every case, three ways. Returns the number of
/// graphs and cases checked.
fn acyclic_three_ways() -> (usize, usize) {
    let (mut graphs_seen, mut checked) = (0, 0);
    for (graph, cyclic) in graphs(&ACYCLIC_LINKS) {
        if cyclic {
            continue;
        }
        graphs_seen += 1;
        let engine = RoutingEngine::new(&graph);
        let mut ws = RouteWorkspace::new();
        for lambda in 1..=3 {
            for spec in cases(lambda) {
                let outcome = engine.compute_with(&spec, &mut ws);
                check_engine(&graph, &outcome);
                check_simulator(&graph, &outcome);
                checked += 1;
            }
        }
    }
    (graphs_seen, checked)
}

#[test]
fn every_acyclic_four_as_graph_agrees_three_ways() {
    let start = std::time::Instant::now();
    let (graphs_seen, checked) = acyclic_three_ways();
    // 4⁶ labellings, less those with a provider loop.
    assert_eq!(graphs_seen, 3_608);
    assert_eq!(checked, graphs_seen * 3 * 11);
    eprintln!(
        "{checked} cases on {graphs_seen} graphs in {:.1?}",
        start.elapsed()
    );
}

/// Sibling links and provider loops, unpolicied, three ways.
#[test]
#[ignore = "15 625 graphs: run in release"]
fn every_four_as_graph_with_siblings_and_loops_agrees_three_ways() {
    let mut cyclic_graphs = 0;
    for (graph, cyclic) in graphs(&ALL_LINKS) {
        cyclic_graphs += usize::from(cyclic || !graph.propagation_order().cycles().is_empty());
        let engine = RoutingEngine::new(&graph);
        let mut ws = RouteWorkspace::new();
        for lambda in 1..=3 {
            for spec in cases(lambda) {
                let outcome = engine.compute_with(&spec, &mut ws);
                check_engine(&graph, &outcome);
                check_simulator(&graph, &outcome);
            }
        }
    }
    assert!(cyclic_graphs > 0);
}

/// Every policy kind over every subset of deployers, on every acyclic
/// graph: the auditor and the all-dirty run.
#[test]
#[ignore = "≈1.3 M policied cases: run in release"]
fn every_policy_over_every_deployment_subset_audits_clean() {
    for (graph, cyclic) in graphs(&ACYCLIC_LINKS) {
        if cyclic {
            continue;
        }
        let engine = RoutingEngine::new(&graph);
        let mut ws = RouteWorkspace::new();
        for kind in PolicyKind::ALL {
            for subset in 1..16usize {
                let deployers = (0..4).filter(|i| subset >> i & 1 == 1).map(|i| ASNS[i]);
                let map = DeploymentMap::from_asns(&graph, deployers);
                let policy = Arc::new(DeployedPolicy::new(kind, map));
                for lambda in 1..=3 {
                    for spec in cases(lambda) {
                        let spec = spec.defense(Arc::clone(&policy));
                        check_engine(&graph, &engine.compute_with(&spec, &mut ws));
                    }
                }
            }
        }
    }
}
