//! Batch-engine equivalence: `BatchRunner` / `run_experiments` must
//! be **bit-identical** to the serial path — per-cell
//! `RoutingEngine::compute_with` at the route-table level, and per-cell
//! `run_experiment` at the impact level — across the full
//! 4-strategy × 2-export-mode × λ=1..8 matrix, every runner
//! configuration, and proptest-randomized victim/attacker pairs.

use aspp_repro::attack::sweep::{random_pair_experiments, strategy_matrix};
use aspp_repro::experiments::Scale;
use aspp_repro::prelude::*;
use aspp_repro::routing::RouteInfo;
use proptest::prelude::*;

/// The full per-pair grid: 4 attack strategies ×
/// {Compliant, ViolateValleyFree} × λ = 1..8 = 64 cells per pair.
fn full_matrix(
    graph: &aspp_repro::topology::AsGraph,
    pairs: usize,
    seed: u64,
) -> Vec<HijackExperiment> {
    random_pair_experiments(graph, pairs, 1, seed)
        .iter()
        .flat_map(|p| strategy_matrix(p.victim(), p.attacker(), 1..=8))
        .collect()
}

/// Serial oracle at the impact level: one fresh workspace per cell, the
/// historical pre-batch path.
fn serial_impacts(
    graph: &aspp_repro::topology::AsGraph,
    exps: &[HijackExperiment],
) -> Vec<HijackImpact> {
    exps.iter().map(|e| run_experiment(graph, e)).collect()
}

#[test]
fn full_matrix_batch_is_bit_identical_to_serial_impacts() {
    let graph = Scale::Smoke.internet(23);
    let matrix = full_matrix(&graph, 3, 23);
    assert_eq!(matrix.len(), 3 * 4 * 2 * 8, "full grid per pair");

    let expected = serial_impacts(&graph, &matrix);
    for runner in [
        BatchRunner::new(),
        BatchRunner::new().workers(1),
        BatchRunner::new().workers(3),
        BatchRunner::new().workers(5),
    ] {
        let got = run_experiments(&graph, &matrix, &runner);
        assert_eq!(got, expected, "runner {runner:?} diverges from serial");
    }
}

#[test]
fn full_matrix_batch_route_tables_match_serial_compute_with() {
    // The strongest form: compare the entire final route table of every
    // cell, not just the reduced impact numbers, against cold per-cell
    // `compute`.
    let graph = Scale::Smoke.internet(29);
    let matrix = full_matrix(&graph, 2, 29);
    let specs: Vec<DestinationSpec> = matrix.iter().map(HijackExperiment::to_spec).collect();

    let engine = RoutingEngine::new(&graph);
    let table = |outcome: &RoutingOutcome<'_>| -> Vec<Option<RouteInfo>> {
        let mut asns: Vec<Asn> = outcome.asns().collect();
        asns.sort();
        asns.into_iter().map(|a| outcome.route(a)).collect()
    };
    let expected: Vec<Vec<Option<RouteInfo>>> =
        specs.iter().map(|s| table(&engine.compute(s))).collect();

    for runner in [BatchRunner::new(), BatchRunner::new().workers(4)] {
        let got = runner.run(&graph, &specs, |_, outcome| table(outcome));
        assert_eq!(got, expected, "route tables diverge under {runner:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn randomized_pairs_batch_matches_serial(
        seed in 0u64..1_000,
        pairs in 1usize..4,
        lambda_max in 1usize..=8,
        workers in 1usize..6,
    ) {
        let graph = Scale::Smoke.internet(seed);
        let matrix: Vec<HijackExperiment> = random_pair_experiments(&graph, pairs, 1, seed)
            .iter()
            .flat_map(|p| strategy_matrix(p.victim(), p.attacker(), 1..=lambda_max))
            .collect();
        prop_assert!(!matrix.is_empty());

        let expected = serial_impacts(&graph, &matrix);
        let batch = run_experiments(&graph, &matrix, &BatchRunner::new().workers(workers));
        prop_assert_eq!(batch, expected);
    }
}
