//! Drivers behind `aspp scenario` and `aspp estimate`: the canonical
//! multi-actor timeline and the scale-tuned Monte-Carlo estimator runs.
//!
//! The canonical timeline walks the whole attack family the subsystem
//! models, on one victim:
//!
//! | t | move |
//! |---|------|
//! | 0 | a tier-1 attacker launches the paper's ASPP strip |
//! | 1 | the victim escalates its padding λ (mitigation attempt) |
//! | 2 | a second attacker competes with a subprefix hijack |
//! | 3 | the first attacker switches to path poisoning, steering around its competitor |
//! | 4 | the competitor abandons the subprefix and forces a MOAS origin conflict |
//!
//! Each step is a full per-prefix equilibrium batch; the run reports
//! pollution, data-plane interception, longest-prefix-match capture,
//! detector alarms, and inter-step churn (see [`aspp_scenario::timeline`]).

use super::Scale;
use aspp_attack::sweep::{best_connected_stub, representative_of_tier};
use aspp_routing::{AttackStrategy, BatchRunner, ExportMode};
use aspp_scenario::estimate::{estimate_with, exact_enumeration, ExactEnumeration};
use aspp_scenario::{Action, Estimate, EstimatorConfig, Scenario, ScenarioRun};
use aspp_topology::AsGraph;
use aspp_types::{Asn, Ipv4Prefix};

/// The fixed documentation prefix the canonical scenario announces.
#[must_use]
pub fn canonical_prefix() -> Ipv4Prefix {
    "203.0.0.0/16".parse().expect("static prefix parses")
}

/// The canonical actors: a well-connected stub victim, a tier-1 primary
/// attacker, and a distinct competitor from the next tier down.
#[must_use]
pub fn canonical_actors(graph: &AsGraph) -> (Asn, Asn, Asn) {
    let victim = best_connected_stub(graph).expect("generated graphs have stubs");
    let primary = representative_of_tier(graph, 1).expect("generated graphs have a tier 1");
    let competitor = representative_of_tier(graph, 2)
        .filter(|&c| c != primary && c != victim)
        .or_else(|| {
            graph
                .asns_by_degree()
                .into_iter()
                .find(|&a| a != primary && a != victim)
        })
        .expect("graph has at least three ASes");
    (victim, primary, competitor)
}

/// Builds the canonical five-step timeline on `graph` at `scale`.
#[must_use]
pub fn canonical_timeline(graph: &AsGraph, scale: Scale, seed: u64) -> Scenario {
    let (victim, primary, competitor) = canonical_actors(graph);
    Scenario::new(victim, canonical_prefix())
        .base_lambda(5)
        .monitors(scale.preset().latency_monitors.min(60))
        .capture_sources(scale.preset().scenario_capture_sources)
        .seed(seed)
        .at(0, Action::attack(primary))
        .at(1, Action::Escalate { lambda: 8 })
        .at(
            2,
            Action::SubprefixHijack {
                attacker: competitor,
            },
        )
        .at(
            3,
            Action::Attack {
                attacker: primary,
                strategy: AttackStrategy::PoisonPath {
                    poisoned: competitor,
                },
                mode: ExportMode::Compliant,
            },
        )
        .at(
            4,
            Action::WithdrawHijack {
                attacker: competitor,
            },
        )
        .at(
            4,
            Action::Attack {
                attacker: competitor,
                strategy: AttackStrategy::OriginHijack,
                mode: ExportMode::Compliant,
            },
        )
}

/// Runs the canonical timeline through `runner`.
#[must_use]
pub fn run_with_runner(
    graph: &AsGraph,
    scale: Scale,
    seed: u64,
    runner: &BatchRunner,
) -> ScenarioRun {
    let _span = aspp_obs::trace::span("experiments.scenario");
    canonical_timeline(graph, scale, seed).run_with(graph, runner)
}

/// The estimator configuration the given scale runs at.
#[must_use]
pub fn estimator_config(scale: Scale, seed: u64) -> EstimatorConfig {
    let preset = scale.preset();
    let (victims, attackers) = preset.estimator_pools;
    EstimatorConfig {
        victims,
        attackers,
        samples: preset.estimator_samples,
        resamples: preset.estimator_resamples,
        vantages: preset.estimator_vantages,
        lambda: 5,
        strategy: AttackStrategy::StripPadding { keep: 1 },
        mode: ExportMode::Compliant,
        seed,
    }
}

/// Cross-validates the estimator against exact enumeration over the same
/// pools, both through `runner`: returns the estimate, the ground truth,
/// and whether the exact mean pollution lies inside the 95% bootstrap CI.
#[must_use]
pub fn cross_validate(
    graph: &AsGraph,
    config: &EstimatorConfig,
    runner: &BatchRunner,
) -> (Estimate, ExactEnumeration, bool) {
    let est = estimate_with(graph, config, runner);
    let exact = exact_enumeration(graph, config, runner);
    let within =
        est.pollution_ci.0 <= exact.mean_pollution && exact.mean_pollution <= est.pollution_ci.1;
    (est, exact, within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_timeline_covers_the_attack_family() {
        let graph = Scale::Smoke.internet(17);
        let scenario = canonical_timeline(&graph, Scale::Smoke, 17);
        assert_eq!(scenario.times(), vec![0, 1, 2, 3, 4]);
        let run = scenario.run_with(&graph, &BatchRunner::new());
        assert_eq!(run.steps.len(), 5);
        // t2: the subprefix hijacker captures while the strip only transits.
        assert!(run.steps[2].captured > 0.5, "{}", run.steps[2].captured);
        // t4: MOAS blackholes whatever it pollutes; the subprefix is gone.
        assert_eq!(run.steps[4].captured, 0.0);
        let final_state = &run.steps[4].state;
        assert!(matches!(
            final_state.attacker,
            Some((_, AttackStrategy::OriginHijack, _))
        ));
        assert!(final_state.hijackers.is_empty());
    }

    #[test]
    fn smoke_cross_validation_brackets_the_exact_mean() {
        let graph = Scale::Smoke.internet(13);
        let config = estimator_config(Scale::Smoke, 13);
        let (est, exact, within) = cross_validate(&graph, &config, &BatchRunner::new());
        assert!(
            within,
            "exact {} outside CI [{}, {}]",
            exact.mean_pollution, est.pollution_ci.0, est.pollution_ci.1
        );
    }
}
