//! Batch-engine equivalence: `BatchRunner` / `run_experiments` must
//! be **bit-identical** to the serial path — per-cell
//! `RoutingEngine::compute_with` at the route-table level, and per-cell
//! `run_experiment` at the impact level — across the full
//! 4-strategy × 2-export-mode × λ=1..8 matrix, every runner
//! configuration, proptest-randomized victim/attacker pairs, and a
//! one-unit batch that only parallelises through the finish phase.

use aspp_core::attack::sweep::{random_pair_experiments, strategy_matrix};
use aspp_core::experiments::Scale;
use aspp_core::prelude::*;
use aspp_core::routing::RouteInfo;
use proptest::prelude::*;

/// The full per-pair grid: 4 attack strategies ×
/// {Compliant, ViolateValleyFree} × λ = 1..8 = 64 cells per pair.
fn full_matrix(
    graph: &aspp_core::topology::AsGraph,
    pairs: usize,
    seed: u64,
) -> Vec<DestinationSpec> {
    random_pair_experiments(graph, pairs, 1, seed)
        .iter()
        .flat_map(|p| strategy_matrix(p.victim(), p.attacker_model().unwrap().asn(), 1..=8))
        .collect()
}

/// Serial oracle at the impact level: one fresh workspace per cell, the
/// historical pre-batch path.
fn serial_impacts(
    graph: &aspp_core::topology::AsGraph,
    specs: &[DestinationSpec],
) -> Vec<HijackImpact> {
    specs.iter().map(|s| run_experiment(graph, s)).collect()
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
    let specs = full_matrix(&graph, 2, 29);

    let engine = RoutingEngine::new(&graph);
    let expected: Vec<Vec<Option<RouteInfo>>> = specs
        .iter()
        .map(|s| route_table(&engine.compute(s)))
        .collect();

    for runner in [BatchRunner::new(), BatchRunner::new().workers(4)] {
        let got = runner.run(&graph, &specs, |_, outcome| route_table(outcome));
        assert_eq!(got, expected, "route tables diverge under {runner:?}");
    }
}

/// Sorted-by-ASN final route table of one outcome.
fn route_table(outcome: &RoutingOutcome<'_>) -> Vec<Option<RouteInfo>> {
    let mut asns: Vec<Asn> = outcome.asns().collect();
    asns.sort();
    asns.into_iter().map(|a| outcome.route(a)).collect()
}

#[test]
fn one_unit_batch_is_finished_by_every_worker_and_matches_per_cell_compute() {
    use aspp_core::routing::{DeployedPolicy, DeploymentMap, PolicyKind, RouteWorkspace};
    use std::collections::HashSet;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    // One victim at one λ: 3 attackers × 4 strategies × 2 modes = 24 cells
    // sharing a single clean equilibrium, i.e. a single steal unit.
    let graph = Scale::Smoke.internet(31);
    let victim = random_pair_experiments(&graph, 1, 1, 31)[0].victim();
    let mut attackers: Vec<Asn> = graph.asns().filter(|&a| a != victim).collect();
    attackers.sort();
    let specs: Vec<DestinationSpec> = [0, attackers.len() / 2, attackers.len() - 1]
        .into_iter()
        .flat_map(|at| strategy_matrix(victim, attackers[at], 4..=4))
        .collect();
    assert_eq!(specs.len(), 24);

    let everyone = DeploymentMap::from_indices(graph.len(), 0..graph.len());
    let half = DeploymentMap::from_indices(graph.len(), 0..graph.len() / 2);
    let policies = [
        Arc::new(DeployedPolicy::new(PolicyKind::Aspa, everyone)),
        Arc::new(DeployedPolicy::new(PolicyKind::PeerlockLite, half)),
    ];
    let cells: Vec<DestinationSpec> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| s.clone().defense(Arc::clone(&policies[i % 2])))
        .collect();

    let engine = RoutingEngine::new(&graph);
    let expected: Vec<_> = specs
        .iter()
        .map(|s| route_table(&engine.compute(s)))
        .collect();
    let expected_policied: Vec<_> = cells
        .iter()
        .map(|s| {
            let mut cold = RouteWorkspace::with_cache_capacity(0);
            route_table(&engine.compute_with(s, &mut cold))
        })
        .collect();
    assert_ne!(expected, expected_policied, "the policies must bite");

    for workers in [1usize, 2, 3, 7] {
        // Every thread parks in its first reduce until all `workers` have
        // claimed a cell of the one unit, so the owner cannot drain it
        // alone. Bounded: a scheduler that never shares the unit fails the
        // head count below instead of hanging.
        let seen = Mutex::new(HashSet::new());
        let all_here = Condvar::new();
        let arrive = || {
            let mut seen = seen.lock().unwrap();
            if seen.insert(std::thread::current().id()) {
                all_here.notify_all();
                let _parked = all_here
                    .wait_timeout_while(seen, Duration::from_secs(20), |s| s.len() < workers)
                    .unwrap();
            }
        };
        let runner = BatchRunner::new().workers(workers);
        let got = runner.run(&graph, &specs, |_, outcome| {
            arrive();
            route_table(outcome)
        });
        assert_eq!(got, expected, "undefended at workers({workers})");
        assert_eq!(seen.lock().unwrap().len(), workers);

        let got = runner.run(&graph, &cells, |_, outcome| route_table(outcome));
        assert_eq!(got, expected_policied, "policied at workers({workers})");
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
        let matrix: Vec<DestinationSpec> = random_pair_experiments(&graph, pairs, 1, seed)
            .iter()
            .flat_map(|p| strategy_matrix(p.victim(), p.attacker_model().unwrap().asn(), 1..=lambda_max))
            .collect();
        prop_assert!(!matrix.is_empty());

        let expected = serial_impacts(&graph, &matrix);
        let batch = run_experiments(&graph, &matrix, &BatchRunner::new().workers(workers));
        prop_assert_eq!(batch, expected);
    }
}
