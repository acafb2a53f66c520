//! Defense-policy equivalence: a spec defended by an empty deployment is
//! the same equilibrium as the undefended spec and as the full-pass
//! reference, across the full 4-strategy × 2-export-mode × λ matrix, and
//! shares its clean pass; defended attacked passes, which are delta passes
//! in which a node refused by its clean parent re-selects, must equal the
//! full pass under every policy kind and deployment; and policies that are
//! *semantically blind* to an attack must not perturb it at any deployment
//! fraction (ROV vs ASPP stripping, the repository's headline negative
//! result).

use std::sync::Arc;

use aspp_core::attack::defense::{
    deploy_count, deployment_order, run_defense_sweep, DeployStrategy,
};
use aspp_core::attack::sweep::{random_pair_experiments, strategy_matrix};
use aspp_core::experiments::Scale;
use aspp_core::prelude::*;
use aspp_core::routing::audit::full_pass_divergence;
use aspp_core::routing::RouteInfo;
use proptest::prelude::*;
use proptest::test_runner::rng_for;

/// `spec` with its attacker re-modelled by `model`.
fn remodel(
    spec: &DestinationSpec,
    model: impl FnOnce(AttackerModel) -> AttackerModel,
) -> DestinationSpec {
    let m = model(
        *spec
            .attacker_model()
            .expect("a sampled cell has an attacker"),
    );
    spec.clone().attacker(m)
}

/// Every AS's final route (and clean route), in deterministic order.
fn tables(outcome: &RoutingOutcome<'_>) -> Vec<(Option<RouteInfo>, Option<RouteInfo>)> {
    let mut asns: Vec<Asn> = outcome.asns().collect();
    asns.sort();
    asns.into_iter()
        .map(|a| (outcome.route(a), outcome.clean_route(a)))
        .collect()
}

#[test]
fn nodefense_and_empty_deployment_match_the_default_engine_exactly() {
    let graph = Scale::Paper.internet(31);
    let matrix: Vec<DestinationSpec> = random_pair_experiments(&graph, 1, 1, 31)
        .iter()
        .flat_map(|p| strategy_matrix(p.victim(), p.attacker_model().unwrap().asn(), 1..=8))
        .collect();
    assert_eq!(matrix.len(), 4 * 2 * 8, "full grid for one pair");

    let engine = RoutingEngine::new(&graph);
    let empty = Arc::new(DeployedPolicy::new(
        PolicyKind::Aspa,
        DeploymentMap::empty(graph.len()),
    ));
    let mut warm = RouteWorkspace::new();
    for spec in &matrix {
        let default = engine.compute_with(spec, &mut warm);
        assert_eq!(full_pass_divergence(&default), None, "{spec:?}");
        // An undefended and a defended spec of one victim on one fresh
        // workspace: one clean pass computed, then served.
        let mut ws = RouteWorkspace::new();
        let undefended = tables(&engine.compute_with(spec, &mut ws));
        let defended = spec.clone().defense(Arc::clone(&empty));
        let undeployed = tables(&engine.compute_with(&defended, &mut ws));
        assert_eq!((ws.cache_misses(), ws.cache_hits()), (1, 1), "{spec:?}");
        assert_eq!(
            tables(&default),
            undefended,
            "a warm workspace diverges from a fresh one for {spec:?}"
        );
        assert_eq!(
            undefended, undeployed,
            "an empty deployment map diverges from the default engine for {spec:?}"
        );
    }
}

#[test]
fn aspa_and_peerlock_deployment_curves_never_increase_pollution() {
    let graph = Scale::Smoke.internet(47);
    let specs: Vec<DestinationSpec> = random_pair_experiments(&graph, 5, 5, 47)
        .iter()
        .map(|s| remodel(s, |m| m.mode(ExportMode::ViolateValleyFree)))
        .collect();
    let fractions = [0.0, 0.1, 0.3, 0.5, 0.7, 1.0];
    let points = run_defense_sweep(
        &graph,
        &specs,
        &[PolicyKind::Aspa, PolicyKind::PeerlockLite],
        &DeployStrategy::ALL,
        &fractions,
        13,
        &BatchRunner::new(),
    );
    assert_eq!(points.len(), 2 * 3 * fractions.len());
    for curve in points.chunks(fractions.len()) {
        assert!(
            curve
                .windows(2)
                .all(|w| w[1].mean_after <= w[0].mean_after + 1e-12),
            "deployment must never help the attacker: {curve:?}"
        );
    }
}

#[test]
fn universal_rov_extinguishes_origin_hijack_but_not_the_strip() {
    let graph = Scale::Smoke.internet(53);
    let pair = &random_pair_experiments(&graph, 1, 4, 53)[0];
    let engine = RoutingEngine::new(&graph);
    let rov_everywhere = Arc::new(DeployedPolicy::new(
        PolicyKind::Rov,
        DeploymentMap::from_indices(graph.len(), 0..graph.len()),
    ));
    let mut ws = RouteWorkspace::new();

    let hijack = remodel(pair, |m| {
        m.mode(ExportMode::ViolateValleyFree)
            .strategy(AttackStrategy::OriginHijack)
    });
    assert!(
        engine.compute_with(&hijack, &mut ws).polluted_count() > 0,
        "undefended origin hijack must pollute for the contrast to mean anything"
    );
    let defended = engine.compute_with(&hijack.defense(Arc::clone(&rov_everywhere)), &mut ws);
    assert_eq!(
        defended.polluted_count(),
        0,
        "every AS validates origins, so no forged-origin route survives"
    );

    let strip = remodel(pair, |m| m.mode(ExportMode::ViolateValleyFree));
    let undefended = engine.compute_with(&strip, &mut ws);
    let rov_defended = engine.compute_with(&strip.clone().defense(rov_everywhere), &mut ws);
    assert_eq!(full_pass_divergence(&rov_defended), None);
    assert_eq!(
        tables(&undefended),
        tables(&rov_defended),
        "the stripped announcement keeps the true origin: ROV sees nothing"
    );
}

/// Whether some AS ranks its attacked route worse than its clean one, or
/// lost its route: the cells where a node's clean parent offered it less
/// than before, so that the delta pass had it re-select.
fn ranks_worse_somewhere(outcome: &RoutingOutcome<'_>) -> bool {
    let key = |r: RouteInfo| (r.class, r.effective_len, r.next_hop);
    outcome
        .asns()
        .any(|a| match (outcome.route(a), outcome.clean_route(a)) {
            (Some(r), Some(c)) => key(r) > key(c),
            (None, Some(_)) => true,
            _ => false,
        })
}

/// The nested deployments of `kind` the differential test sweeps: nobody,
/// ≈10 %, ≈50 % and everybody, along a random and a top-degree adoption
/// order (the shared empty and full maps once).
fn nested_deployments(graph: &AsGraph, kind: PolicyKind, seed: u64) -> Vec<Arc<DeployedPolicy>> {
    let mut policies: Vec<Arc<DeployedPolicy>> = Vec::new();
    for strategy in [DeployStrategy::Random, DeployStrategy::TopDegree] {
        let order = deployment_order(graph, strategy, seed);
        for fraction in [0.0, 0.1, 0.5, 1.0] {
            let k = deploy_count(order.len(), fraction);
            let map = DeploymentMap::from_asns(graph, order[..k].iter().copied());
            let policy = Arc::new(DeployedPolicy::new(kind, map));
            if !policies.contains(&policy) {
                policies.push(policy);
            }
        }
    }
    policies
}

/// Policied delta passes against the full pass: on small random topologies,
/// every attack strategy × export mode × policy kind × nested deployment,
/// computed on one warm workspace, must equal the full-pass reference route
/// for route. Cases are drawn like a proptest's (the deterministic per-test
/// RNG), in an explicit loop so the coverage asserts can span the whole
/// run: policied delta passes, and cells where some AS ranks worse than
/// clean, must both occur.
#[test]
fn policied_delta_passes_match_the_full_pass() {
    const CASES: usize = 8;
    let mut rng = rng_for(concat!(
        module_path!(),
        "::policied_delta_passes_match_the_full_pass"
    ));
    let inputs = (
        any::<u64>(),
        (0usize..100, 0usize..100, 0usize..100),
        1usize..=5,
    );
    let (mut policied_deltas, mut worse_than_clean) = (0, 0);
    for case in 1..=CASES {
        let (seed, picks, lambda) = inputs.generate(&mut rng);
        let graph = InternetConfig::small()
            .tier2_count(10)
            .tier3_count(15)
            .stub_count(25)
            .seed(seed)
            .build();
        let asns: Vec<Asn> = graph.asns().collect();
        let pick = |i: usize| asns[i % asns.len()];
        let (victim, attacker, poisoned) = (pick(picks.0), pick(picks.1), pick(picks.2));
        if victim == attacker {
            continue;
        }
        let engine = RoutingEngine::new(&graph);
        let mut ws = RouteWorkspace::new();
        for strategy in [
            AttackStrategy::StripPadding { keep: 1 },
            AttackStrategy::StripAllPadding,
            AttackStrategy::ForgeDirect,
            AttackStrategy::OriginHijack,
            AttackStrategy::PoisonPath { poisoned },
        ] {
            for mode in [ExportMode::Compliant, ExportMode::ViolateValleyFree] {
                let spec = DestinationSpec::new(victim)
                    .origin_padding(lambda)
                    .attacker(AttackerModel::new(attacker).mode(mode).strategy(strategy));
                for kind in PolicyKind::ALL {
                    for policy in nested_deployments(&graph, kind, seed) {
                        let passes = ws.delta_passes();
                        let deployers = policy.map().deployed_count();
                        let outcome = engine.compute_with(&spec.clone().defense(policy), &mut ws);
                        assert_eq!(
                            full_pass_divergence(&outcome),
                            None,
                            "case {case}/{CASES}: {spec:?} under {kind} at {deployers} deployers",
                        );
                        if deployers > 0 {
                            policied_deltas += ws.delta_passes() - passes;
                        }
                        if ranks_worse_somewhere(&outcome) {
                            worse_than_clean += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(policied_deltas > 0, "no policied cell took the delta path");
    assert!(
        worse_than_clean > 0,
        "no cell had an AS rank its route worse than clean"
    );
}

/// An orphan on the Figure 1 graph: AS9318 hijacks Facebook's prefix, and
/// ROV deployer AS4134, whose clean route runs through AS9318, refuses the
/// forged origin from its own clean parent. Its clean route is gone and no
/// other neighbor may export to it, so it re-selects and ends routeless,
/// within the delta pass.
#[test]
fn rov_deployer_orphaned_by_its_clean_parent_re_selects() {
    use well_known::*;
    let graph = fixtures::facebook_topology();
    let spec = DestinationSpec::new(FACEBOOK)
        .attacker(AttackerModel::new(KOREA_TELECOM).strategy(AttackStrategy::OriginHijack));
    let rov = DeployedPolicy::new(
        PolicyKind::Rov,
        DeploymentMap::from_asns(&graph, [CHINA_TELECOM]),
    );
    let mut ws = RouteWorkspace::new();
    let outcome = RoutingEngine::new(&graph).compute_with(&spec.defense(Arc::new(rov)), &mut ws);
    assert_eq!(
        outcome.clean_route(CHINA_TELECOM).unwrap().next_hop,
        Some(KOREA_TELECOM)
    );
    assert_eq!(outcome.route(CHINA_TELECOM), None);
    assert_eq!(ws.delta_passes(), 1);
    assert_eq!(full_pass_divergence(&outcome), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// ROV adoption at *any* fraction, under *any* deployment strategy,
    /// is invisible to ASPP stripping: the attacked equilibrium is bit
    /// identical to the undefended one for both strip variants and both
    /// export modes.
    #[test]
    fn rov_at_any_fraction_never_changes_strip_outcomes(
        seed in 0u64..1_000,
        lambda in 2usize..=8,
        percent in 0usize..=100,
        strategy_idx in 0usize..3,
    ) {
        let graph = Scale::Smoke.internet(seed);
        let strategy = DeployStrategy::ALL[strategy_idx];
        let order = deployment_order(&graph, strategy, seed);
        let k = (percent * order.len()).div_ceil(100);
        let rov = Arc::new(DeployedPolicy::new(
            PolicyKind::Rov,
            DeploymentMap::from_asns(&graph, order[..k].iter().copied()),
        ));
        let pair = &random_pair_experiments(&graph, 1, lambda, seed)[0];
        let engine = RoutingEngine::new(&graph);
        let mut ws = RouteWorkspace::new();
        for attack in [
            AttackStrategy::StripPadding { keep: 1 },
            AttackStrategy::StripAllPadding,
        ] {
            for mode in [ExportMode::Compliant, ExportMode::ViolateValleyFree] {
                let spec = remodel(pair, |m| m.mode(mode).strategy(attack));
                let undefended = tables(&engine.compute_with(&spec, &mut ws));
                let defended = engine.compute_with(&spec.defense(Arc::clone(&rov)), &mut ws);
                prop_assert_eq!(full_pass_divergence(&defended), None);
                let defended = tables(&defended);
                prop_assert_eq!(
                    &undefended,
                    &defended,
                    "ROV at {}% ({} ASes, {}) perturbed a strip equilibrium",
                    percent,
                    k,
                    strategy
                );
            }
        }
    }
}
