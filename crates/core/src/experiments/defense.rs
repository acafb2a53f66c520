//! Defense-deployment study (beyond the paper's evaluation): how fast
//! does interception success collapse as defenses roll out?
//!
//! The paper shows the ASPP strip evades every detector the 2012 Internet
//! ran. This study runs the modern counterfactual: deploy ROV, ASPA,
//! peerlock-lite, or first-AS enforcement at a growing fraction of ASes —
//! chosen at random, top-down by tier, or by degree — and replay the
//! paper's attack grid at every deployment level. The headline result is
//! *negative* for today's deployed defense: ROV's curve is perfectly flat
//! against the strip (the announcement's origin is genuine), while the
//! path-aware policies do bend the curve. See
//! [`aspp_attack::defense`] for the sweep machinery and
//! `aspp_routing::policy` for the policy semantics.

use aspp_attack::defense::{run_defense_sweep, DefensePoint, DeployStrategy};
use aspp_attack::sweep::random_pair_experiments;
use aspp_routing::{
    AttackStrategy, AttackerModel, BatchRunner, DestinationSpec, ExportMode, PolicyKind,
};
use aspp_topology::AsGraph;

use super::Scale;
use crate::report::{pct, TextTable};

/// Configuration for the deployment study.
#[derive(Clone, Debug)]
pub struct DefenseConfig {
    /// Sampled attacker/victim pairs per grid cell.
    pub pairs: usize,
    /// Victim padding λ for the strip grid (the paper's Figure 7/8 default
    /// is 3).
    pub lambda: usize,
    /// Policies to sweep.
    pub kinds: Vec<PolicyKind>,
    /// Deployment strategies to sweep.
    pub strategies: Vec<DeployStrategy>,
    /// Adoption fractions (each indexes a nested prefix of the strategy's
    /// adoption order).
    pub fractions: Vec<f64>,
    /// Seed for pair sampling and random deployment order.
    pub seed: u64,
}

impl DefenseConfig {
    /// The default grid at `scale`: every policy, every strategy,
    /// fractions 0–100%, λ = 3.
    #[must_use]
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        DefenseConfig {
            pairs: scale.preset().defense_pairs,
            lambda: 3,
            kinds: PolicyKind::ALL.to_vec(),
            strategies: DeployStrategy::ALL.to_vec(),
            fractions: vec![0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
            seed,
        }
    }
}

/// The deployment study's results: one curve family for the paper's strip
/// attack, one for the origin-hijack contrast.
#[derive(Clone, Debug)]
pub struct DefenseStudy {
    /// The configuration that produced the study.
    pub config: DefenseConfig,
    /// Grid points for the ASPP strip (keep 1, valley-free-violating
    /// exports — the paper's strongest variant). Ordered strategy-major,
    /// then policy, then fraction.
    pub strip: Vec<DefensePoint>,
    /// Grid points for the origin-hijack baseline under the same
    /// deployments — the contrast that shows ROV is not useless, just
    /// blind to this attack.
    pub origin_hijack: Vec<DefensePoint>,
}

impl DefenseStudy {
    /// The points of one strip curve: `(kind, strategy)` against every
    /// fraction, in the config's fraction order.
    #[must_use]
    pub fn strip_curve(&self, kind: PolicyKind, strategy: DeployStrategy) -> Vec<&DefensePoint> {
        self.strip
            .iter()
            .filter(|p| p.kind == kind && p.strategy == strategy)
            .collect()
    }

    /// Renders one table per strategy (rows = fractions, one interception
    /// success column per policy), for the strip grid and the
    /// origin-hijack contrast.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (label, points) in [
            ("ASPP strip, keep 1, violating exports", &self.strip),
            ("origin-hijack contrast", &self.origin_hijack),
        ] {
            for &strategy in &self.config.strategies {
                out.push_str(&format!(
                    "# Defense deployment — {label}, {strategy} adoption \
                     (λ={}, {} pairs)\n",
                    self.config.lambda, self.config.pairs
                ));
                let mut headers = vec!["deployed %".to_string(), "ASes".to_string()];
                headers.extend(self.config.kinds.iter().map(|k| format!("{k} after %")));
                let mut table = TextTable::new(headers);
                for &fraction in &self.config.fractions {
                    let row_points: Vec<&DefensePoint> = self
                        .config
                        .kinds
                        .iter()
                        .filter_map(|&kind| {
                            points.iter().find(|p| {
                                p.kind == kind && p.strategy == strategy && p.fraction == fraction
                            })
                        })
                        .collect();
                    let deployed = row_points.first().map_or(0, |p| p.deployed);
                    let mut cells = vec![pct(fraction), deployed.to_string()];
                    cells.extend(row_points.iter().map(|p| pct(p.mean_after)));
                    table.row(cells);
                }
                out.push_str(&table.to_string());
                out.push('\n');
            }
        }
        out
    }
}

/// Runs the deployment study through `runner`.
///
/// # Panics
///
/// Panics if the graph is too small to sample the configured pair count
/// (propagated from the routing engine).
#[must_use]
pub fn run_with_runner(
    graph: &AsGraph,
    config: &DefenseConfig,
    runner: &BatchRunner,
) -> DefenseStudy {
    let _span = aspp_obs::trace::span("experiments.defense");
    // Both attacks leak past the valley-free rule, from the same pairs.
    let pairs = random_pair_experiments(graph, config.pairs, config.lambda, config.seed);
    let cells = |strategy| {
        let leak = |m: AttackerModel| m.mode(ExportMode::ViolateValleyFree).strategy(strategy);
        let cell = |s: &DestinationSpec| Some(s.clone().attacker(leak(*s.attacker_model()?)));
        pairs.iter().filter_map(cell).collect::<Vec<_>>()
    };
    let strip = run_defense_sweep(
        graph,
        &cells(AttackStrategy::default()),
        &config.kinds,
        &config.strategies,
        &config.fractions,
        config.seed,
        runner,
    );
    let origin_hijack = run_defense_sweep(
        graph,
        &cells(AttackStrategy::OriginHijack),
        &config.kinds,
        &config.strategies,
        &config.fractions,
        config.seed,
        runner,
    );
    DefenseStudy {
        config: config.clone(),
        strip,
        origin_hijack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> DefenseStudy {
        let graph = Scale::Smoke.internet(19);
        let config = DefenseConfig {
            pairs: 4,
            lambda: 5,
            kinds: vec![PolicyKind::Aspa, PolicyKind::Rov],
            strategies: vec![DeployStrategy::TopDegree],
            fractions: vec![0.0, 0.5, 1.0],
            seed: 2,
        };
        run_with_runner(&graph, &config, &BatchRunner::new())
    }

    #[test]
    fn grid_is_complete_and_curves_behave() {
        let s = study();
        assert_eq!(s.strip.len(), 2 * 3);
        assert_eq!(s.origin_hijack.len(), 2 * 3);
        let aspa = s.strip_curve(PolicyKind::Aspa, DeployStrategy::TopDegree);
        assert_eq!(aspa.len(), 3);
        assert!(aspa
            .windows(2)
            .all(|w| w[1].mean_after <= w[0].mean_after + 1e-12));
        let rov = s.strip_curve(PolicyKind::Rov, DeployStrategy::TopDegree);
        assert!(
            (rov[0].mean_after - rov[2].mean_after).abs() < 1e-12,
            "ROV is blind to prepend stripping"
        );
        // The contrast: full ROV extinguishes the origin hijack.
        let hijack_rov: Vec<&DefensePoint> = s
            .origin_hijack
            .iter()
            .filter(|p| p.kind == PolicyKind::Rov)
            .collect();
        assert_eq!(hijack_rov.last().unwrap().mean_after, 0.0);
    }

    #[test]
    fn render_lists_every_strategy_and_policy() {
        let s = study();
        let text = s.render();
        assert!(text.contains("top-degree adoption"));
        assert!(text.contains("aspa after %"));
        assert!(text.contains("rov after %"));
        assert!(text.contains("origin-hijack contrast"));
    }

    #[test]
    fn default_config_covers_the_full_grid() {
        let c = DefenseConfig::at_scale(Scale::Smoke, 1);
        assert_eq!(c.kinds.len(), 4);
        assert_eq!(c.strategies.len(), 3);
        assert!(c.fractions.first() == Some(&0.0) && c.fractions.last() == Some(&1.0));
    }
}
