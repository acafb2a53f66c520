//! Defense-deployment sweeps: interception success vs. adoption fraction.
//!
//! The paper measures how far an ASPP interception spreads when *nobody*
//! defends. This module asks the follow-up question: how fast does the
//! attack's reach collapse as a defense policy ([`PolicyKind`]) is adopted
//! by a growing fraction of ASes, under different deployment strategies
//! ([`DeployStrategy`])? The answer is a family of
//! interception-success-vs-deployment-fraction curves, one per
//! (policy, strategy) combination, computed by [`run_defense_sweep`].
//!
//! Two structural properties make the curves meaningful:
//!
//! * **Nested deployments.** For a fixed strategy and seed, the set of
//!   deployers at fraction `f₁ < f₂` is a strict subset of the set at
//!   `f₂` — fractions index prefixes of one [`deployment_order`]. Since
//!   defenses only *remove* attacker-derived offers and the clean
//!   equilibrium is policy-independent, pollution is monotonically
//!   non-increasing along each curve by construction, not by luck.
//! * **One batch, one clean pass per (victim, λ).** The whole
//!   policy × strategy × fraction × experiment grid is flattened into a
//!   single [`BatchRunner::run`] call over defended specs, so every cell
//!   sharing a clean equilibrium — across *all* deployment maps — forms one
//!   steal unit served from one cached clean pass per worker that joins it.
//!   Policied attacked passes are delta passes from that clean pass like
//!   undefended ones; a receiver that refuses its own clean parent's
//!   attacker-derived offer re-selects within the pass.

use std::fmt;
use std::sync::Arc;

use aspp_routing::{BatchRunner, DeployedPolicy, DeploymentMap, DestinationSpec, PolicyKind};
use aspp_topology::tier::TierMap;
use aspp_topology::AsGraph;
use aspp_types::Asn;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How deployers are chosen as the adoption fraction grows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeployStrategy {
    /// Uniformly random adoption order (seeded, deterministic) — models
    /// uncoordinated grassroots deployment.
    Random,
    /// Tier-1 first, then tier 2, and so on (degree-descending within a
    /// tier) — models a top-down mandate rolling down the hierarchy.
    ByTier,
    /// Highest-degree ASes first regardless of tier — models targeting the
    /// best-connected networks.
    TopDegree,
}

impl DeployStrategy {
    /// Every strategy, in display order.
    pub const ALL: [DeployStrategy; 3] = [
        DeployStrategy::Random,
        DeployStrategy::ByTier,
        DeployStrategy::TopDegree,
    ];

    /// Stable CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DeployStrategy::Random => "random",
            DeployStrategy::ByTier => "by-tier",
            DeployStrategy::TopDegree => "top-degree",
        }
    }

    /// Parses a CLI name (the inverse of [`name`](Self::name)).
    #[must_use]
    pub fn parse(s: &str) -> Option<DeployStrategy> {
        DeployStrategy::ALL.into_iter().find(|d| d.name() == s)
    }
}

impl fmt::Display for DeployStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The full adoption order for `strategy`: a permutation of every AS in
/// `graph`. Fraction `f` deploys the first `⌈f·n⌉` entries, so the
/// deployment sets at increasing fractions are nested by construction.
///
/// `seed` only affects [`DeployStrategy::Random`]; the other strategies
/// are fully determined by the topology (ties broken by ascending ASN).
#[must_use]
pub fn deployment_order(graph: &AsGraph, strategy: DeployStrategy, seed: u64) -> Vec<Asn> {
    match strategy {
        DeployStrategy::Random => {
            let mut order: Vec<Asn> = graph.asns().collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed));
            order
        }
        DeployStrategy::ByTier => {
            let tiers = TierMap::classify(graph);
            // A stable sort by tier keeps the degree ranking within a tier.
            // Unclassified ASes (no route to any tier-1) deploy last.
            let mut order = graph.asns_by_degree();
            order.sort_by_cached_key(|&a| tiers.tier_of(a).unwrap_or(u32::MAX));
            order
        }
        DeployStrategy::TopDegree => graph.asns_by_degree(),
    }
}

/// The number of deployers at adoption fraction `fraction` of an `n`-AS
/// topology: `⌈fraction·n⌉`, clamped to `[0, n]`.
#[must_use]
pub fn deploy_count(n: usize, fraction: f64) -> usize {
    if fraction.is_nan() || fraction <= 0.0 {
        return 0;
    }
    let k = (fraction * n as f64).ceil();
    (k as usize).min(n)
}

/// One point on a deployment curve: a (policy, strategy, fraction) grid
/// cell with impact aggregated over the sweep's experiments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DefensePoint {
    /// The defense policy every deployer runs.
    pub kind: PolicyKind,
    /// How deployers were chosen.
    pub strategy: DeployStrategy,
    /// Requested adoption fraction.
    pub fraction: f64,
    /// Actual deployer count (`⌈fraction·n⌉`).
    pub deployed: usize,
    /// Number of experiments aggregated into this point.
    pub experiments: usize,
    /// Mean pre-attack attacker-traversal fraction across experiments.
    pub mean_before: f64,
    /// Mean interception success (polluted fraction) across experiments.
    pub mean_after: f64,
}

impl DefensePoint {
    /// Mean percentage-point gain of the attack over its baseline at this
    /// deployment level.
    #[must_use]
    pub fn mean_gain(&self) -> f64 {
        self.mean_after - self.mean_before
    }
}

impl fmt::Display for DefensePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} via {} at {:>5.1}% ({} ASes): after {:.2}% (gain {:+.2}pp)",
            self.kind,
            self.strategy,
            self.fraction * 100.0,
            self.deployed,
            self.mean_after * 100.0,
            self.mean_gain() * 100.0,
        )
    }
}

/// Runs the full policy × strategy × fraction × experiment grid (one
/// experiment per spec) through the batch engine and aggregates each grid
/// cell into a [`DefensePoint`].
///
/// Points are returned strategy-major, then policy, then fraction (in the
/// caller's order), so consecutive runs of `fractions.len()` points form
/// one ready-to-plot curve.
///
/// # Panics
///
/// Panics if any experiment's victim or attacker is missing from `graph`
/// or they coincide (propagated from the routing engine).
#[must_use]
pub fn run_defense_sweep(
    graph: &AsGraph,
    specs: &[DestinationSpec],
    kinds: &[PolicyKind],
    strategies: &[DeployStrategy],
    fractions: &[f64],
    seed: u64,
    runner: &BatchRunner,
) -> Vec<DefensePoint> {
    let _span = aspp_obs::trace::span("attack.defense_sweep");
    if specs.is_empty() {
        return Vec::new();
    }

    // One policy object per grid cell; fractions index nested prefixes of
    // one adoption order per strategy.
    struct GridCell {
        kind: PolicyKind,
        strategy: DeployStrategy,
        fraction: f64,
        policy: Arc<DeployedPolicy>,
    }
    let mut grid: Vec<GridCell> = Vec::with_capacity(
        strategies
            .len()
            .saturating_mul(kinds.len())
            .saturating_mul(fractions.len()),
    );
    for &strategy in strategies {
        let order: Vec<usize> = deployment_order(graph, strategy, seed)
            .into_iter()
            .filter_map(|a| graph.index_of(a))
            .collect();
        for &kind in kinds {
            for &fraction in fractions {
                let k = deploy_count(graph.len(), fraction);
                let map = DeploymentMap::from_indices(graph.len(), order[..k].iter().copied());
                grid.push(GridCell {
                    kind,
                    strategy,
                    fraction,
                    policy: Arc::new(DeployedPolicy::new(kind, map)),
                });
            }
        }
    }

    // Flatten to one batch: grid-major, experiment-minor. Steal units are
    // keyed by clean equilibrium (victim, λ), so one
    // experiment's cells across all deployment maps share one cached clean
    // pass regardless of this ordering.
    let cells: Vec<DestinationSpec> = grid
        .iter()
        .flat_map(|cell| {
            specs
                .iter()
                .map(|s| s.clone().defense(Arc::clone(&cell.policy)))
        })
        .collect();
    let fractions_pair: Vec<(f64, f64)> = runner.run(graph, &cells, |_, outcome| {
        (outcome.baseline_fraction(), outcome.polluted_fraction())
    });

    grid.iter()
        .enumerate()
        .map(|(g, cell)| {
            let chunk = &fractions_pair[g * specs.len()..(g + 1) * specs.len()];
            let n = chunk.len() as f64;
            DefensePoint {
                kind: cell.kind,
                strategy: cell.strategy,
                fraction: cell.fraction,
                deployed: cell.policy.map().deployed_count(),
                experiments: chunk.len(),
                mean_before: chunk.iter().map(|p| p.0).sum::<f64>() / n,
                mean_after: chunk.iter().map(|p| p.1).sum::<f64>() / n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep;
    use aspp_routing::{AttackStrategy, AttackerModel, ExportMode};
    use aspp_topology::gen::InternetConfig;
    use aspp_topology::AsGraphBuilder;
    use aspp_types::Relationship;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    fn graph() -> AsGraph {
        InternetConfig::small().seed(23).build()
    }

    /// `n` sampled pairs at λ, each attacker re-modelled by `model`.
    fn sampled(
        g: &AsGraph,
        n: usize,
        lambda: usize,
        seed: u64,
        model: impl Fn(AttackerModel) -> AttackerModel,
    ) -> Vec<DestinationSpec> {
        sweep::random_pair_experiments(g, n, lambda, seed)
            .into_iter()
            .map(|s| {
                let m = model(*s.attacker_model().unwrap());
                s.attacker(m)
            })
            .collect()
    }

    fn strip_exps(g: &AsGraph) -> Vec<DestinationSpec> {
        sampled(g, 6, 5, 17, |m| m.mode(ExportMode::ViolateValleyFree))
    }

    #[test]
    fn deployment_orders_are_permutations() {
        let g = graph();
        for strategy in DeployStrategy::ALL {
            let order = deployment_order(&g, strategy, 7);
            assert_eq!(order.len(), g.len(), "{strategy}");
            let mut sorted = order.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), g.len(), "{strategy} must cover every AS");
        }
        // Random is seed-deterministic and seed-sensitive.
        assert_eq!(
            deployment_order(&g, DeployStrategy::Random, 7),
            deployment_order(&g, DeployStrategy::Random, 7)
        );
        assert_ne!(
            deployment_order(&g, DeployStrategy::Random, 7),
            deployment_order(&g, DeployStrategy::Random, 8)
        );
    }

    #[test]
    fn by_tier_puts_tier1_first_and_top_degree_leads_with_hub() {
        let g = graph();
        let tiers = TierMap::classify(&g);
        let by_tier = deployment_order(&g, DeployStrategy::ByTier, 0);
        let t1_count = tiers.tier1().count();
        assert!(by_tier[..t1_count]
            .iter()
            .all(|&a| tiers.tier_of(a) == Some(1)));
        let top = deployment_order(&g, DeployStrategy::TopDegree, 0);
        let max_degree = g.asns().map(|a| g.degree(a)).max().unwrap();
        assert_eq!(g.degree(top[0]), max_degree);
    }

    /// The by-tier order as first written: a comparator that looks up the
    /// tier and the degree of both ASes on every comparison.
    fn by_tier_by_lookup(graph: &AsGraph) -> Vec<Asn> {
        let tiers = TierMap::classify(graph);
        let mut order: Vec<Asn> = graph.asns().collect();
        order.sort_by_key(|&a| {
            (
                tiers.tier_of(a).unwrap_or(u32::MAX),
                Reverse(graph.degree(a)),
                a,
            )
        });
        order
    }

    proptest! {
        /// Arbitrary link soups (ASes off the provider hierarchy and
        /// isolated ones included, inserted in no ASN order) and generated
        /// internets: the keyed sort ranks exactly as the comparator.
        #[test]
        fn by_tier_order_matches_the_lookup_comparator(
            soup in proptest::collection::vec((1u32..40, 1u32..40, 0usize..4), 0..80),
            isolated in proptest::collection::vec(1u32..60, 0..6),
            seed in any::<u64>(),
        ) {
            let rels = [
                Relationship::Customer,
                Relationship::Peer,
                Relationship::Provider,
                Relationship::Sibling,
            ];
            let mut b = AsGraphBuilder::new();
            for asn in isolated {
                b.add_as(Asn(asn));
            }
            for (x, y, rel) in soup {
                let _ = b.add_link(Asn(x), Asn(y), rels[rel]);
            }
            let generated = InternetConfig::small().seed(seed).build();
            for g in [b.finish(), generated] {
                prop_assert_eq!(
                    deployment_order(&g, DeployStrategy::ByTier, 0),
                    by_tier_by_lookup(&g)
                );
            }
        }
    }

    #[test]
    fn deploy_count_edges() {
        assert_eq!(deploy_count(100, 0.0), 0);
        assert_eq!(deploy_count(100, -1.0), 0);
        assert_eq!(deploy_count(100, f64::NAN), 0);
        assert_eq!(deploy_count(100, 1.0), 100);
        assert_eq!(deploy_count(100, 2.0), 100);
        assert_eq!(
            deploy_count(100, 0.001),
            1,
            "any positive fraction deploys someone"
        );
        assert_eq!(deploy_count(100, 0.25), 25);
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in DeployStrategy::ALL {
            assert_eq!(DeployStrategy::parse(s.name()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(DeployStrategy::parse("bogus"), None);
    }

    #[test]
    fn aspa_and_peerlock_curves_decline_rov_stays_flat_on_strip() {
        let g = graph();
        let exps = strip_exps(&g);
        let fractions = [0.0, 0.25, 0.5, 1.0];
        let points = run_defense_sweep(
            &g,
            &exps,
            &[PolicyKind::Aspa, PolicyKind::PeerlockLite, PolicyKind::Rov],
            &[DeployStrategy::TopDegree],
            &fractions,
            3,
            &BatchRunner::new(),
        );
        assert_eq!(points.len(), 3 * fractions.len());
        for curve in points.chunks(fractions.len()) {
            // Nested deployments + import-only filtering: monotone
            // non-increasing along every curve.
            assert!(
                curve
                    .windows(2)
                    .all(|w| w[1].mean_after <= w[0].mean_after + 1e-12),
                "non-monotone curve: {curve:?}"
            );
        }
        let aspa = &points[..fractions.len()];
        assert!(
            aspa.last().unwrap().mean_after < aspa[0].mean_after,
            "full top-degree ASPA must bite on leaked strip announcements"
        );
        let rov = &points[2 * fractions.len()..];
        assert!(
            rov.iter()
                .all(|p| (p.mean_after - rov[0].mean_after).abs() < 1e-12),
            "ROV validates origins only — ASPP stripping keeps the true origin"
        );
    }

    #[test]
    fn full_rov_extinguishes_origin_hijack() {
        let g = graph();
        let exps = sampled(&g, 4, 3, 5, |m| m.strategy(AttackStrategy::OriginHijack));
        let points = run_defense_sweep(
            &g,
            &exps,
            &[PolicyKind::Rov],
            &[DeployStrategy::Random],
            &[0.0, 1.0],
            11,
            &BatchRunner::new().workers(1),
        );
        assert!(points[0].mean_after > 0.0, "undefended hijack pollutes");
        assert_eq!(
            points[1].mean_after, 0.0,
            "universal ROV rejects every forged-origin announcement"
        );
    }

    #[test]
    fn zero_fraction_matches_undefended_sweep() {
        let g = graph();
        let exps = strip_exps(&g);
        let undefended = crate::experiment::run_experiments(&g, &exps, &BatchRunner::new());
        let mean_after =
            undefended.iter().map(|i| i.after_fraction).sum::<f64>() / exps.len() as f64;
        for strategy in DeployStrategy::ALL {
            let points = run_defense_sweep(
                &g,
                &exps,
                &[PolicyKind::Aspa],
                &[strategy],
                &[0.0],
                9,
                &BatchRunner::new().workers(1),
            );
            assert!((points[0].mean_after - mean_after).abs() < 1e-15);
            assert_eq!(points[0].deployed, 0);
        }
    }

    #[test]
    fn empty_experiments_yield_no_points() {
        let g = graph();
        let points = run_defense_sweep(
            &g,
            &[],
            &[PolicyKind::Aspa],
            &[DeployStrategy::Random],
            &[0.5],
            0,
            &BatchRunner::new(),
        );
        assert!(points.is_empty());
    }
}
