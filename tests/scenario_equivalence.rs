//! Scenario-subsystem acceptance tests.
//!
//! * The headline data-plane claim: a subprefix hijacker captures traffic
//!   that the paper's exact-prefix ASPP strip never can, because
//!   longest-prefix match prefers the more-specific entry regardless of
//!   path attributes.
//! * MOAS origin conflict end-to-end: polluted ASes blackhole.
//! * Every timeline-step equilibrium is audit-clean (proptest).
//! * Scenario-vs-engine oracle: a single-attacker single-step scenario is
//!   bit-identical to `RoutingEngine::compute_with` at the route-table
//!   level.
//! * The Monte-Carlo estimator is deterministic across worker counts and
//!   its 95% bootstrap CI brackets the exact enumeration mean at
//!   n ≥ 1000 on the paper topology.

use aspp_core::dataplane::{lpm_walk, PrefixTable};
use aspp_core::experiments::scenario::{
    canonical_actors, canonical_prefix, canonical_timeline, cross_validate, estimator_config,
};
use aspp_core::experiments::Scale;
use aspp_core::prelude::*;
use aspp_core::routing::audit::audit_outcome;
use aspp_core::routing::RouteInfo;
use aspp_core::scenario::timeline::StepState;
use proptest::prelude::*;

/// The subprefix hijacker captures sources the exact-prefix strip cannot:
/// with only the /16 announced, the strip attack leaves every walk
/// delivered to the victim; adding the hijacker's more-specific /17 flips
/// those same walks to the hijacker, path quality notwithstanding.
#[test]
fn subprefix_hijack_captures_what_the_exact_prefix_strip_cannot() {
    let graph = Scale::Smoke.internet(41);
    let (victim, primary, competitor) = canonical_actors(&graph);
    let prefix = canonical_prefix();
    let engine = RoutingEngine::new(&graph);

    // The paper's strip attack on the covering /16.
    let strip =
        engine.compute(&DestinationSpec::new(victim).origin_padding(5).attacker(
            AttackerModel::new(primary).strategy(AttackStrategy::StripPadding { keep: 1 }),
        ));
    // The competitor originates the lower half as a more-specific /17.
    let (lo, _hi) = prefix.split().expect("/16 splits");
    let hijack = engine.compute(&DestinationSpec::new(competitor));

    let mut exact_only = PrefixTable::new();
    exact_only.announce(prefix, &strip);
    let mut with_subprefix = PrefixTable::new();
    with_subprefix.announce(prefix, &strip);
    with_subprefix.announce(lo, &hijack);

    let mut flipped = 0usize;
    for src in graph.asns().filter(|&a| a != victim && a != competitor) {
        let before = lpm_walk(&exact_only, src, lo.first_addr());
        assert!(
            !before.is_captured_by(competitor),
            "AS{src}: strip alone must never hand traffic to the competitor"
        );
        if lpm_walk(&with_subprefix, src, lo.first_addr()).is_captured_by(competitor) {
            assert!(
                before.is_delivered(),
                "AS{src}: the flipped walk was previously delivered to the victim"
            );
            flipped += 1;
        }
    }
    assert!(
        flipped > graph.len() / 2,
        "subprefix must capture a majority of sources, got {flipped}/{}",
        graph.len()
    );
}

/// MOAS origin conflict end-to-end: the canonical timeline's final step
/// withdraws the subprefix and re-originates the exact prefix from the
/// competitor. Pollution persists but every polluted AS now blackholes —
/// interception and LPM capture both collapse to zero.
#[test]
fn moas_step_blackholes_instead_of_intercepting() {
    let graph = Scale::Smoke.internet(41);
    let run = canonical_timeline(&graph, Scale::Smoke, 41).run_with(&graph, &BatchRunner::new());
    let moas = run.steps.last().expect("timeline has steps");
    assert!(matches!(
        moas.state.attacker,
        Some((_, AttackStrategy::OriginHijack, _))
    ));
    assert!(moas.state.hijackers.is_empty(), "subprefix withdrawn");
    assert!(moas.polluted_fraction > 0.0, "MOAS still pollutes");
    assert!(
        moas.exact_delivery.blackholed > 0.0,
        "polluted ASes blackhole under a forged origin"
    );
    assert_eq!(moas.exact_delivery.intercepted, 0.0, "nothing intercepted");
    assert_eq!(moas.captured, 0.0, "no subprefix, no LPM capture");
    // Blackholing + delivery account for the whole population.
    let total = moas.exact_delivery.delivered + moas.exact_delivery.blackholed;
    assert!((total - 1.0).abs() < 1e-12, "fates partition: {total}");
}

/// Scenario-vs-engine oracle: a single-attacker, single-step scenario
/// must be bit-identical to the plain `compute_with` path — the full
/// route table, the pollution fraction, and the delivery stats.
#[test]
fn single_step_scenario_is_bit_identical_to_compute_with() {
    let graph = Scale::Smoke.internet(53);
    let (victim, primary, _) = canonical_actors(&graph);
    let scenario = Scenario::new(victim, canonical_prefix())
        .base_lambda(6)
        .at(0, Action::attack(primary));

    let state = scenario.state_at(0);
    let specs = scenario.step_specs(&state);
    assert_eq!(specs.len(), 1, "no hijackers, exact prefix only");

    let engine = RoutingEngine::new(&graph);
    let mut ws = RouteWorkspace::new();
    let oracle = engine.compute_with(&specs[0], &mut ws);
    let table = |outcome: &RoutingOutcome<'_>| -> Vec<Option<RouteInfo>> {
        graph.asns().map(|a| outcome.route(a)).collect()
    };

    for runner in [
        BatchRunner::new().workers(1),
        BatchRunner::new().workers(2),
        BatchRunner::new().workers(8),
    ] {
        let got = runner.run(&graph, &specs, |_, outcome| table(outcome));
        assert_eq!(got[0], table(&oracle), "route tables diverge");

        let run = scenario.run_with(&graph, &runner);
        assert_eq!(run.steps.len(), 1);
        assert_eq!(
            run.steps[0].polluted_fraction.to_bits(),
            oracle.polluted_fraction().to_bits(),
            "pollution fraction must be bit-identical"
        );
        let stats = aspp_core::dataplane::forwarding::delivery_stats(&oracle);
        assert_eq!(
            run.steps[0].exact_delivery.delivered.to_bits(),
            stats.delivered.to_bits()
        );
        assert_eq!(
            run.steps[0].exact_delivery.intercepted.to_bits(),
            stats.intercepted.to_bits()
        );
    }
}

/// Every per-prefix equilibrium behind every canonical-timeline step is
/// audit-clean: valley-free, loop-free, stable under re-propagation.
/// Under `--features debug-audit` the engine additionally self-audits and
/// runs the delta-vs-full oracle inside `compute`.
#[test]
fn canonical_timeline_steps_are_audit_clean() {
    let graph = Scale::Smoke.internet(61);
    let scenario = canonical_timeline(&graph, Scale::Smoke, 61);
    let engine = RoutingEngine::new(&graph);
    for t in scenario.times() {
        let state = scenario.state_at(t);
        for spec in scenario.step_specs(&state) {
            let outcome = engine.compute(&spec);
            let audit = audit_outcome(&outcome);
            assert!(
                audit.is_clean(),
                "t={t} spec for AS{} has {} violations",
                spec.victim(),
                audit.violation_count()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized scenarios: arbitrary λ escalations and actor orders keep
    /// every step equilibrium audit-clean, and `state_at` stays within its
    /// contract (λ ≥ 1, ≤ 2 hijackers).
    #[test]
    fn randomized_scenario_steps_are_audit_clean(
        seed in 0u64..500,
        lambda in 1usize..10,
        escalate in 1usize..12,
    ) {
        let graph = Scale::Smoke.internet(seed);
        let (victim, primary, competitor) = canonical_actors(&graph);
        let scenario = Scenario::new(victim, canonical_prefix())
            .base_lambda(lambda)
            .at(0, Action::attack(primary))
            .at(1, Action::Escalate { lambda: escalate })
            .at(1, Action::SubprefixHijack { attacker: competitor })
            .at(2, Action::WithdrawAttack);

        let engine = RoutingEngine::new(&graph);
        for t in scenario.times() {
            let state: StepState = scenario.state_at(t);
            prop_assert!(state.lambda >= 1);
            prop_assert!(state.hijackers.len() <= 2);
            for spec in scenario.step_specs(&state) {
                let outcome = engine.compute(&spec);
                prop_assert!(
                    audit_outcome(&outcome).is_clean(),
                    "t={t} equilibrium not audit-clean"
                );
            }
        }
    }
}

/// Same seed ⇒ identical draws, CI bounds, and sample points at every
/// worker count: all estimator randomness is drawn up-front from seeded
/// RNGs, and `BatchRunner` returns input-order results.
#[test]
fn estimator_is_deterministic_across_worker_counts() {
    let graph = Scale::Smoke.internet(71);
    let config = estimator_config(Scale::Smoke, 71);
    let serial = mc_estimate::estimate_with(&graph, &config, &BatchRunner::new().workers(1));
    for workers in [1, 2, 8] {
        let got = mc_estimate::estimate_with(&graph, &config, &BatchRunner::new().workers(workers));
        assert_eq!(got, serial, "estimate diverges at {workers} workers");
    }
}

/// The cross-validation the estimator ships with: at the paper scale's
/// n = 1000 draws, the 95% bootstrap CI must bracket the exact mean
/// computed by full enumeration over the same pools.
#[test]
fn paper_scale_ci_brackets_exact_enumeration_at_1000_samples() {
    let graph = Scale::Paper.internet(2024);
    let config = estimator_config(Scale::Paper, 2024);
    assert!(config.samples >= 1000, "paper scale draws n >= 1000");
    let (est, exact, within) = cross_validate(&graph, &config, &BatchRunner::new());
    assert!(
        within,
        "exact mean {} outside 95% CI [{}, {}]",
        exact.mean_pollution, est.pollution_ci.0, est.pollution_ci.1
    );
    // The estimate is in the right neighbourhood, not merely bracketing.
    assert!((est.mean_pollution - exact.mean_pollution).abs() < 0.05);
}

/// The estimator's coverage, not one draw of it: over seeds 1–200 at paper
/// scale, the 95% bootstrap CI must hold the exact mean about 190 times.
/// The band 184–196 is the binomial ±2σ of 200 draws at p = 0.95, for
/// pollution and interception alike.
#[test]
#[ignore = "200 paper-scale cross-validations: seconds in release, far longer in debug"]
fn paper_scale_ci_coverage_is_nominal_over_200_seeds() {
    let (mut pollution, mut interception) = (0, 0);
    for seed in 1..=200 {
        let graph = Scale::Paper.internet(seed);
        let config = estimator_config(Scale::Paper, seed);
        let (est, exact, _) = cross_validate(&graph, &config, &BatchRunner::new());
        let inside = |(lo, hi): (f64, f64), mean: f64| usize::from(lo <= mean && mean <= hi);
        pollution += inside(est.pollution_ci, exact.mean_pollution);
        interception += inside(est.interception_ci, exact.mean_interception);
    }
    for (what, covered) in [("pollution", pollution), ("interception", interception)] {
        assert!(
            (184..=196).contains(&covered),
            "{what} coverage {covered}/200 outside the binomial band 184-196"
        );
    }
}
