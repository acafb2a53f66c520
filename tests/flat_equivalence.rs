//! Flat-ID engine equivalence: the packed route-table representation
//! (dense u32 node ids, bit-packed route words, arena-reconstructed paths)
//! must be observationally **bit-identical** to the reference formulations
//! it replaced — the full-graph oracle pass
//! (`audit::full_pass_divergence`) at the route-table level, and
//! an independently re-derived chain-walking reconstruction at the
//! observed-path level — across the full 4-strategy × 2-export-mode × λ
//! matrix, on the paper topology and proptest-randomized instances.

use aspp_core::attack::sweep::{random_pair_experiments, strategy_matrix};
use aspp_core::experiments::Scale;
use aspp_core::prelude::*;
use aspp_core::routing::audit::full_pass_divergence;
use proptest::prelude::*;

/// Reference observed-path reconstruction, re-derived from the public
/// per-AS route info the way the pre-flat engine built paths: collect the
/// next-hop chain (stopping at the attacker, whose exports carry the
/// stripped base path), then walk it back from the source, front-prepending
/// each exporter `1 + extra(exporter, receiver)` times.
fn reference_observed(outcome: &RoutingOutcome<'_>, asn: Asn, attacked: bool) -> Option<AsPath> {
    let route_of = |a: Asn| {
        if attacked {
            outcome.route(a)
        } else {
            outcome.clean_route(a)
        }
    };
    route_of(asn)?;
    let attacker = if attacked { outcome.attacker() } else { None };
    let mut chain = vec![asn];
    let mut cur = asn;
    loop {
        if Some(cur) == attacker {
            break;
        }
        match route_of(cur).and_then(|r| r.next_hop) {
            Some(hop) => {
                chain.push(hop);
                cur = hop;
            }
            None => break,
        }
    }
    let source = *chain.last().expect("chain includes asn");
    let mut path = if attacker.is_some() && Some(source) == attacker {
        outcome.attacker_base_path().expect("attack ran")
    } else {
        AsPath::new()
    };
    for pair in chain.windows(2).rev() {
        let (receiver, exporter) = (pair[0], pair[1]);
        let copies = if Some(exporter) == attacker {
            1
        } else {
            1 + outcome.spec().prepending().extra_for(exporter, receiver)
        };
        path.prepend_n(exporter, copies);
    }
    Some(path.prepended(asn))
}

/// Asserts every observable of `outcome` against its reference
/// formulation: observed paths (both passes, every AS) and the bulk
/// changed-count and baseline-fraction aggregates against per-AS oracles.
fn assert_outcome_matches_references(outcome: &RoutingOutcome<'_>) {
    let mut reference_changed = 0usize;
    for asn in outcome.asns() {
        let clean = outcome.clean_observed_path(asn);
        assert_eq!(
            clean,
            reference_observed(outcome, asn, false),
            "clean observed path of AS{asn}"
        );
        let observed = outcome.observed_path(asn);
        if outcome.has_attack() {
            assert_eq!(
                observed,
                reference_observed(outcome, asn, true),
                "attacked observed path of AS{asn}"
            );
        }
        if outcome.has_attack() && observed != clean {
            reference_changed += 1;
        }
    }
    assert_eq!(outcome.changed_count(), reference_changed);

    // Baseline fraction: per-AS clean chain walks, the memoization-free
    // oracle for the through-the-attacker sweep.
    if let Some(attacker) = outcome.attacker() {
        let victim = outcome.victim();
        let mut through = 0usize;
        for asn in outcome.asns() {
            if asn == victim || asn == attacker || outcome.clean_route(asn).is_none() {
                continue;
            }
            let mut cur = asn;
            let mut hits = false;
            loop {
                if cur == attacker {
                    hits = true;
                    break;
                }
                match outcome.clean_route(cur).and_then(|r| r.next_hop) {
                    Some(hop) => cur = hop,
                    None => break,
                }
            }
            through += usize::from(hits);
        }
        let expected = through as f64 / outcome.population().max(1) as f64;
        let got = outcome.baseline_fraction();
        assert!(
            (got - expected).abs() < 1e-12,
            "baseline_fraction {got} != oracle {expected}"
        );
    }
}

#[test]
fn paper_matrix_flat_tables_and_paths_match_references() {
    let graph = Scale::Paper.internet(31);
    let matrix: Vec<DestinationSpec> = random_pair_experiments(&graph, 1, 1, 31)
        .iter()
        .flat_map(|p| strategy_matrix(p.victim(), p.attacker_model().unwrap().asn(), 1..=8))
        .collect();
    assert_eq!(matrix.len(), 4 * 2 * 8, "full grid for one pair");

    let engine = RoutingEngine::new(&graph);
    let mut ws = RouteWorkspace::new();
    for spec in &matrix {
        let outcome = engine.compute_with(spec, &mut ws);
        assert_eq!(
            full_pass_divergence(&outcome),
            None,
            "delta route table diverges from full oracle for {spec:?}"
        );
        assert_outcome_matches_references(&outcome);
    }
    assert!(
        ws.delta_passes() > 0,
        "the matrix must exercise the delta pass"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn randomized_flat_outcomes_match_references(
        seed in 0u64..1_000,
        lambda in 1usize..=8,
    ) {
        let graph = Scale::Smoke.internet(seed);
        let matrix: Vec<DestinationSpec> = random_pair_experiments(&graph, 1, 1, seed)
            .iter()
            .flat_map(|p| strategy_matrix(p.victim(), p.attacker_model().unwrap().asn(), lambda..=lambda))
            .collect();
        prop_assert_eq!(matrix.len(), 8);

        let engine = RoutingEngine::new(&graph);
        for spec in &matrix {
            let mut ws = RouteWorkspace::new();
            let outcome = engine.compute_with(spec, &mut ws);
            assert_outcome_matches_references(&outcome);
        }
    }
}
