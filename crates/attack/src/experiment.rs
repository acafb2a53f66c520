//! Single hijack experiments and their impact metrics.

use std::fmt;

use aspp_routing::{
    AttackStrategy, AttackerModel, BatchRunner, DestinationSpec, ExportMode, RoutingEngine,
    RoutingOutcome, TieBreak,
};
use aspp_topology::AsGraph;
use aspp_types::Asn;

/// One interception experiment: a fixed victim/attacker pair, a padding
/// level λ, and attacker behaviour knobs.
///
/// # Example
///
/// ```
/// use aspp_attack::{ExportMode, HijackExperiment};
/// use aspp_types::Asn;
///
/// let exp = HijackExperiment::new(Asn(7018), Asn(1239))
///     .padding(3)
///     .export_mode(ExportMode::ViolateValleyFree);
/// assert_eq!(exp.victim(), Asn(7018));
/// assert_eq!(exp.padding_level(), 3);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HijackExperiment {
    victim: Asn,
    attacker: Asn,
    padding: usize,
    keep: usize,
    mode: ExportMode,
    strategy: Option<AttackStrategy>,
    tie: TieBreak,
}

impl HijackExperiment {
    /// An experiment where `attacker` intercepts `victim`'s prefix; the
    /// victim pads ×3 by default (the paper's Figure 7/8 setting: "3 ASNs to
    /// pad because it is half of the average AS path length").
    #[must_use]
    pub fn new(victim: Asn, attacker: Asn) -> Self {
        HijackExperiment {
            victim,
            attacker,
            padding: 3,
            keep: 1,
            mode: ExportMode::Compliant,
            strategy: None,
            tie: TieBreak::default(),
        }
    }

    /// Sets λ, the total copies of the victim ASN announced (min 1).
    #[must_use]
    pub fn padding(mut self, copies: usize) -> Self {
        self.padding = copies.max(1);
        self
    }

    /// Sets how many origin copies the attacker keeps (min 1).
    #[must_use]
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Sets the attacker's export discipline.
    #[must_use]
    pub fn export_mode(mut self, mode: ExportMode) -> Self {
        self.mode = mode;
        self
    }

    /// Uses a baseline attack strategy instead of the default ASPP strip
    /// (overrides [`keep`](Self::keep) when set to a non-strip strategy).
    #[must_use]
    pub fn strategy(mut self, strategy: AttackStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Sets the tie-break rule for route selection.
    #[must_use]
    pub fn tie_break(mut self, tie: TieBreak) -> Self {
        self.tie = tie;
        self
    }

    /// The victim AS.
    #[must_use]
    pub fn victim(&self) -> Asn {
        self.victim
    }

    /// The attacker AS.
    #[must_use]
    pub fn attacker(&self) -> Asn {
        self.attacker
    }

    /// λ — total announced copies of the victim ASN.
    #[must_use]
    pub fn padding_level(&self) -> usize {
        self.padding
    }

    /// The attacker's export mode.
    #[must_use]
    pub fn mode(&self) -> ExportMode {
        self.mode
    }

    /// The attack strategy in effect (the default ASPP strip when none was
    /// set explicitly).
    #[must_use]
    pub fn attack_strategy(&self) -> AttackStrategy {
        self.strategy
            .unwrap_or(AttackStrategy::StripPadding { keep: self.keep })
    }

    /// Builds the routing-engine destination spec for this experiment.
    #[must_use]
    pub fn to_spec(&self) -> DestinationSpec {
        let mut attacker = AttackerModel::new(self.attacker)
            .keep(self.keep)
            .mode(self.mode);
        if let Some(strategy) = self.strategy {
            attacker = attacker.strategy(strategy);
        }
        DestinationSpec::new(self.victim)
            .origin_padding(self.padding)
            .tie_break(self.tie)
            .attacker(attacker)
    }
}

/// The measured impact of one interception experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HijackImpact {
    /// The experiment that was run.
    pub experiment: HijackExperiment,
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
    /// Percentage-point gain of the attack over the baseline.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.after_fraction - self.before_fraction
    }
}

impl fmt::Display for HijackImpact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AS{} hijacks AS{} (λ={}): before {:.1}% -> after {:.1}% ({} / {} ASes)",
            self.experiment.attacker(),
            self.experiment.victim(),
            self.experiment.padding_level(),
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
pub fn run_experiment(graph: &AsGraph, exp: &HijackExperiment) -> HijackImpact {
    let _span = aspp_obs::trace::span("attack.experiment");
    impact_of(exp, &RoutingEngine::new(graph).compute(&exp.to_spec()))
}

/// Reduces a routing outcome to the experiment's impact metrics. Shared by
/// [`run_experiment`] and [`run_experiments`], so both report identical
/// numbers by construction.
fn impact_of(exp: &HijackExperiment, outcome: &RoutingOutcome<'_>) -> HijackImpact {
    HijackImpact {
        experiment: *exp,
        before_fraction: outcome.baseline_fraction(),
        after_fraction: outcome.polluted_fraction(),
        polluted_count: outcome.polluted_count(),
        population: outcome.population(),
        attack_feasible: outcome.has_attack(),
    }
}

/// Runs many experiments through `runner` (the batch equilibrium engine,
/// [`aspp_routing::batch`]), preserving input order.
///
/// All cells sharing a clean equilibrium — the same victim, λ and
/// tie-break — form one steal unit, so each such clean pass is computed
/// once per batch and every strategy/export-mode cell against it rides the
/// warm workspace (cached clean pass + delta attacked pass), while a λ sweep
/// spreads its λ values over the workers. Results are bit-identical to
/// mapping [`run_experiment`] serially at every worker count; this is the
/// harness behind the figure sweeps and `aspp sweep`.
#[must_use]
pub fn run_experiments(
    graph: &AsGraph,
    exps: &[HijackExperiment],
    runner: &BatchRunner,
) -> Vec<HijackImpact> {
    let _span = aspp_obs::trace::span("attack.experiments_batch");
    let specs: Vec<DestinationSpec> = exps.iter().map(HijackExperiment::to_spec).collect();
    runner.run(graph, &specs, |i, outcome| impact_of(&exps[i], outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use aspp_topology::gen::InternetConfig;
    use aspp_types::well_known;

    #[test]
    fn facebook_scenario_impact() {
        let g = fixtures::facebook_topology();
        let exp = HijackExperiment::new(well_known::FACEBOOK, well_known::KOREA_TELECOM)
            .padding(5)
            .keep(3);
        let impact = run_experiment(&g, &exp);
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
        let exp = HijackExperiment::new(Asn(20_001), Asn(20_002)).padding(1);
        let impact = run_experiment(&g, &exp);
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
            let compliant = run_experiment(&g, &HijackExperiment::new(v, m).padding(5));
            let violating = run_experiment(
                &g,
                &HijackExperiment::new(v, m)
                    .padding(5)
                    .export_mode(ExportMode::ViolateValleyFree),
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
        let mut exps = Vec::new();
        for pad in 1..6 {
            for (v, m) in [(Asn(100), Asn(20_001)), (Asn(20_002), Asn(101))] {
                exps.push(HijackExperiment::new(v, m).padding(pad));
                exps.push(
                    HijackExperiment::new(v, m)
                        .padding(pad)
                        .export_mode(ExportMode::ViolateValleyFree),
                );
            }
        }
        let serial: Vec<HijackImpact> = exps.iter().map(|e| run_experiment(&g, e)).collect();
        for workers in [0, 1, 3] {
            let runner = BatchRunner::new().workers(workers);
            assert_eq!(serial, run_experiments(&g, &exps, &runner));
        }
        assert!(run_experiments(&g, &[], &BatchRunner::new()).is_empty());
    }

    #[test]
    fn builder_clamps() {
        let exp = HijackExperiment::new(Asn(1), Asn(2)).padding(0).keep(0);
        assert_eq!(exp.padding_level(), 1);
        let spec = exp.to_spec();
        assert_eq!(spec.victim(), Asn(1));
        assert_eq!(spec.attacker_model().unwrap().kept_copies(), 1);
    }
}
