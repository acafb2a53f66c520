//! Single hijack experiments and their impact metrics.
//!
//! An experiment cell — victim, attacker, λ and the attacker's behaviour —
//! is a [`DestinationSpec`] with an attacker; this module reduces its
//! routing outcome to the paper's before/after pollution figures.

use std::fmt;

use aspp_routing::{BatchRunner, DestinationSpec, RoutingEngine, RoutingOutcome};
use aspp_topology::AsGraph;
use aspp_types::Asn;

/// The measured impact of one interception experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct HijackImpact {
    /// The experiment cell that was run.
    pub spec: DestinationSpec,
    /// Fraction of ASes whose traffic to the victim already traversed the
    /// attacker before the hijack (the paper's "Before hijack").
    pub before_fraction: f64,
    /// Fraction of ASes adopting the malicious route (the paper's
    /// "After hijack" / pollution range).
    pub after_fraction: f64,
    /// Absolute number of polluted ASes.
    pub polluted_count: usize,
    /// Number of ASes in the denominator (all except victim and attacker).
    pub population: usize,
    /// Whether the attacker had a route to the victim at all.
    pub attack_feasible: bool,
}

impl HijackImpact {
    /// Reduces a routing outcome to its impact metrics. Shared by
    /// [`run_experiment`] and [`run_experiments`], so both report identical
    /// numbers by construction; a caller already holding the outcome uses
    /// it directly instead of computing the cell again. A spec without an
    /// attacker gives a zero-impact cell with `attack_feasible` false.
    #[must_use]
    pub fn of(outcome: &RoutingOutcome<'_>) -> Self {
        HijackImpact {
            spec: outcome.spec().clone(),
            before_fraction: outcome.baseline_fraction(),
            after_fraction: outcome.polluted_fraction(),
            polluted_count: outcome.polluted_count(),
            population: outcome.population(),
            attack_feasible: outcome.has_attack(),
        }
    }

    /// Percentage-point gain of the attack over the baseline.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.after_fraction - self.before_fraction
    }
}

impl fmt::Display for HijackImpact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A cell without an attacker names AS0, the reserved "no AS".
        write!(
            f,
            "AS{} hijacks AS{} (λ={}): before {:.1}% -> after {:.1}% ({} / {} ASes)",
            self.spec.attacker_model().map_or(Asn(0), |m| m.asn()),
            self.spec.victim(),
            self.spec.padding_level(),
            self.before_fraction * 100.0,
            self.after_fraction * 100.0,
            self.polluted_count,
            self.population,
        )
    }
}

/// Runs one experiment on `graph` from cold state (the paper's Section IV-B
/// simulation) — the per-cell reference [`run_experiments`] is pinned to.
///
/// # Panics
///
/// Panics if victim or attacker is missing from the graph or they coincide
/// (propagated from the routing engine).
#[must_use]
pub fn run_experiment(graph: &AsGraph, spec: &DestinationSpec) -> HijackImpact {
    let _span = aspp_obs::trace::span("attack.experiment");
    HijackImpact::of(&RoutingEngine::new(graph).compute(spec))
}

/// Runs many experiments through `runner` (the batch equilibrium engine,
/// [`aspp_routing::batch`]), preserving input order.
///
/// All cells sharing a clean equilibrium — the same victim and λ — form one
/// steal unit, so each such clean pass is computed once per batch and every
/// strategy/export-mode cell against it rides the warm workspace (cached
/// clean pass + delta attacked pass), while a λ sweep spreads its λ values
/// over the workers. Results are bit-identical to mapping [`run_experiment`]
/// serially at every worker count; this is the harness behind the figure
/// sweeps and `aspp sweep`.
#[must_use]
pub fn run_experiments(
    graph: &AsGraph,
    specs: &[DestinationSpec],
    runner: &BatchRunner,
) -> Vec<HijackImpact> {
    let _span = aspp_obs::trace::span("attack.experiments_batch");
    runner.run(graph, specs, |_, outcome| HijackImpact::of(outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use aspp_routing::{AttackerModel, ExportMode};
    use aspp_topology::gen::InternetConfig;
    use aspp_types::well_known;

    fn cell(victim: Asn, attacker: Asn, padding: usize) -> DestinationSpec {
        DestinationSpec::new(victim)
            .origin_padding(padding)
            .attacker(AttackerModel::new(attacker))
    }

    #[test]
    fn facebook_scenario_impact() {
        let g = fixtures::facebook_topology();
        let spec = DestinationSpec::new(well_known::FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(well_known::KOREA_TELECOM).keep(3));
        let impact = run_experiment(&g, &spec);
        assert!(impact.attack_feasible);
        assert!(impact.after_fraction > impact.before_fraction);
        assert!(impact.gain() > 0.0);
        // Display is informative.
        let s = impact.to_string();
        assert!(s.contains("9318") && s.contains("32934"));
    }

    #[test]
    fn padding_one_equals_baseline() {
        // With λ=1 there is nothing to strip: after == before (the attacker
        // merely re-announces the real route).
        let g = InternetConfig::small().seed(31).build();
        let impact = run_experiment(&g, &cell(Asn(20_001), Asn(20_002), 1));
        assert!(
            (impact.after_fraction - impact.before_fraction).abs() < 0.05,
            "λ=1 should be near-baseline: before {} after {}",
            impact.before_fraction,
            impact.after_fraction
        );
    }

    #[test]
    fn violating_export_never_reduces_impact() {
        let g = InternetConfig::small().seed(32).build();
        for (v, m) in [(Asn(100), Asn(20_003)), (Asn(20_004), Asn(20_005))] {
            let compliant = run_experiment(&g, &cell(v, m, 5));
            let violating = run_experiment(
                &g,
                &cell(v, m, 5).attacker(AttackerModel::new(m).mode(ExportMode::ViolateValleyFree)),
            );
            assert!(
                violating.after_fraction >= compliant.after_fraction - 1e-9,
                "violating ({}) < compliant ({})",
                violating.after_fraction,
                compliant.after_fraction
            );
        }
    }

    #[test]
    fn batch_matches_serial() {
        // Repeated victims across λ levels and strategies: the batch path
        // must agree with the per-cell reference bit for bit, at every
        // worker configuration.
        let g = InternetConfig::small().seed(36).build();
        let mut specs = Vec::new();
        for pad in 1..6 {
            for (v, m) in [(Asn(100), Asn(20_001)), (Asn(20_002), Asn(101))] {
                specs.push(cell(v, m, pad));
                specs.push(
                    cell(v, m, pad)
                        .attacker(AttackerModel::new(m).mode(ExportMode::ViolateValleyFree)),
                );
            }
        }
        let serial: Vec<HijackImpact> = specs.iter().map(|s| run_experiment(&g, s)).collect();
        for workers in [0, 1, 3] {
            let runner = BatchRunner::new().workers(workers);
            assert_eq!(serial, run_experiments(&g, &specs, &runner));
        }
        assert!(run_experiments(&g, &[], &BatchRunner::new()).is_empty());
    }

    #[test]
    fn attackerless_spec_is_a_zero_impact_cell() {
        let g = InternetConfig::small().seed(31).build();
        let spec = DestinationSpec::new(Asn(20_001)).origin_padding(4);
        let impact = HijackImpact::of(&RoutingEngine::new(&g).compute(&spec));
        assert_eq!(impact.spec, spec);
        assert!(!impact.attack_feasible);
        assert_eq!(impact.before_fraction, 0.0);
        assert_eq!(impact.after_fraction, 0.0);
        assert_eq!(impact.polluted_count, 0);
        assert_eq!(impact.population, g.len() - 1);
        assert_eq!(impact, run_experiment(&g, &spec));
        assert!(impact.to_string().starts_with("AS0 hijacks AS20001 (λ=4)"));
    }
}
