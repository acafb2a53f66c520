//! Experiment sweeps reproducing the paper's Figures 7–12.

use aspp_routing::{AttackStrategy, AttackerModel, BatchRunner, DestinationSpec, ExportMode};
use aspp_topology::tier::TierMap;
use aspp_topology::AsGraph;
use aspp_types::Asn;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::experiment::{run_experiments, HijackImpact};

/// Samples `n` distinct tier-1 attacker/victim pairs (Figure 7: "80
/// instances of such hijacking cases with 3 prepended instances").
///
/// # Example
///
/// ```
/// use aspp_attack::sweep;
/// use aspp_topology::gen::InternetConfig;
///
/// let g = InternetConfig::small().seed(3).build();
/// let specs = sweep::tier1_pair_experiments(&g, 10, 3, 42);
/// assert_eq!(specs.len(), 10);
/// assert!(specs.iter().all(|s| s.padding_level() == 3));
/// ```
#[must_use]
pub fn tier1_pair_experiments(
    graph: &AsGraph,
    n: usize,
    padding: usize,
    seed: u64,
) -> Vec<DestinationSpec> {
    let tiers = TierMap::classify(graph);
    let tier1: Vec<Asn> = tiers.tier1().collect();
    pair_experiments(&tier1, &tier1, n, padding, seed)
}

/// Samples `n` attacker/victim pairs uniformly over the whole AS population
/// (Figure 8: random pairs are "mostly Tier-4 and Tier-5 ASes" because the
/// fringe dominates by count).
#[must_use]
pub fn random_pair_experiments(
    graph: &AsGraph,
    n: usize,
    padding: usize,
    seed: u64,
) -> Vec<DestinationSpec> {
    let all: Vec<Asn> = graph.asns().collect();
    pair_experiments(&all, &all, n, padding, seed)
}

/// Samples pairs with the attacker drawn from `attackers` and the victim
/// from `victims` (attacker ≠ victim), λ = `padding`: one default ASPP
/// attacker cell per pair.
///
/// Samples **without replacement**: every returned pair is distinct, and
/// exactly `n` experiments are returned whenever the pools admit that many
/// distinct pairs. When they don't (tiny pools), every distinct pair is
/// returned once — the only case where the result is shorter than `n`.
#[must_use]
pub fn pair_experiments(
    victims: &[Asn],
    attackers: &[Asn],
    n: usize,
    padding: usize,
    seed: u64,
) -> Vec<DestinationSpec> {
    let cell = |v: Asn, m: Asn| {
        DestinationSpec::new(v)
            .origin_padding(padding)
            .attacker(AttackerModel::new(m))
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let attacker_set: std::collections::HashSet<Asn> = attackers.iter().copied().collect();
    let overlap = victims.iter().filter(|v| attacker_set.contains(v)).count();
    let total = victims.len() * attackers.len() - overlap;
    let target = n.min(total);
    if target == 0 {
        return Vec::new();
    }

    let mut out = Vec::with_capacity(target);
    if total <= n.saturating_mul(4).max(64) {
        // Small pair space: enumerate every distinct pair and shuffle, which
        // guarantees the full count with no rejection loop.
        let mut pairs: Vec<(Asn, Asn)> = victims
            .iter()
            .flat_map(|&v| {
                attackers
                    .iter()
                    .filter(move |&&m| m != v)
                    .map(move |&m| (v, m))
            })
            .collect();
        pairs.shuffle(&mut rng);
        pairs.truncate(target);
        out.extend(pairs.into_iter().map(|(v, m)| cell(v, m)));
    } else {
        // Large pair space: rejection-sample with dedup. Since
        // total > 4n, each draw is fresh with probability > 3/4 and the
        // loop terminates quickly.
        let mut seen = std::collections::HashSet::with_capacity(target);
        while out.len() < target {
            let &v = victims.choose(&mut rng).expect("non-empty pool");
            let &m = attackers.choose(&mut rng).expect("non-empty pool");
            if v == m || !seen.insert((v, m)) {
                continue;
            }
            out.push(cell(v, m));
        }
    }
    out
}

/// Runs a batch of experiments and ranks the impacts by descending pollution
/// — the x-axis ordering of Figures 7 and 8. Uses the batch equilibrium
/// engine, so repeated victims amortize their clean passes.
#[must_use]
pub fn run_ranked(graph: &AsGraph, specs: &[DestinationSpec]) -> Vec<HijackImpact> {
    let mut impacts = run_experiments(graph, specs, &BatchRunner::new());
    // total_cmp: a NaN fraction (impossible today, but a degenerate
    // population could produce one) must not panic mid-sort.
    impacts.sort_by(|a, b| b.after_fraction.total_cmp(&a.after_fraction));
    impacts
}

/// Sweeps λ over `paddings` for the cell `spec` (its victim, attacker and
/// the attacker's behaviour; its own λ is replaced) — the harness behind
/// Figures 9–12.
///
/// # Example
///
/// ```
/// use aspp_attack::sweep;
/// use aspp_routing::{AttackerModel, DestinationSpec};
/// use aspp_topology::gen::InternetConfig;
/// use aspp_types::Asn;
///
/// let g = InternetConfig::small().seed(4).build();
/// let cell = DestinationSpec::new(Asn(100)).attacker(AttackerModel::new(Asn(101)));
/// let series = sweep::prepend_sweep(&g, &cell, 1..=4);
/// assert_eq!(series.len(), 4);
/// // Pollution is non-decreasing in λ for a fixed pair.
/// assert!(series.windows(2).all(|w| w[1].after_fraction >= w[0].after_fraction - 1e-9));
/// ```
#[must_use]
pub fn prepend_sweep(
    graph: &AsGraph,
    spec: &DestinationSpec,
    paddings: impl IntoIterator<Item = usize>,
) -> Vec<HijackImpact> {
    let specs: Vec<DestinationSpec> = paddings
        .into_iter()
        .map(|p| spec.clone().origin_padding(p))
        .collect();
    run_experiments(graph, &specs, &BatchRunner::new())
}

/// Builds the full strategy-matrix sweep for one victim/attacker pair:
/// every [`AttackStrategy`] × export mode × λ in `paddings` — the cell grid
/// behind `aspp sweep` and the equivalence suites. Cells are ordered λ-major
/// within each (strategy, mode) series so each series is a ready-to-plot
/// Figure-9-style curve.
#[must_use]
pub fn strategy_matrix(
    victim: Asn,
    attacker: Asn,
    paddings: impl IntoIterator<Item = usize> + Clone,
) -> Vec<DestinationSpec> {
    let strategies = [
        AttackStrategy::StripPadding { keep: 1 },
        AttackStrategy::StripAllPadding,
        AttackStrategy::ForgeDirect,
        AttackStrategy::OriginHijack,
    ];
    let modes = [ExportMode::Compliant, ExportMode::ViolateValleyFree];
    let mut specs = Vec::new();
    for strategy in strategies {
        for mode in modes {
            let model = AttackerModel::new(attacker).mode(mode).strategy(strategy);
            for p in paddings.clone() {
                specs.push(
                    DestinationSpec::new(victim)
                        .origin_padding(p)
                        .attacker(model),
                );
            }
        }
    }
    specs
}

/// Picks one AS per requested tier, deterministically: the lowest-ASN member
/// of each tier. Handy for the "special attack scenarios" (Section VI-B-2).
#[must_use]
pub fn representative_of_tier(graph: &AsGraph, tier: u32) -> Option<Asn> {
    let tiers = TierMap::classify(graph);
    tiers.in_tier(tier).min()
}

/// Picks the stub AS with the most peering links — the paper's
/// "small but well-connected enterprise ISP" (Figure 11's Facebook-like
/// attacker). Returns `None` if the graph has no stubs.
#[must_use]
pub fn best_connected_stub(graph: &AsGraph) -> Option<Asn> {
    graph
        .asns()
        .filter(|&a| graph.customers(a).next().is_none())
        .max_by_key(|&a| (graph.peers(a).count(), std::cmp::Reverse(a.value())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_topology::gen::{InternetConfig, CONTENT_BASE};

    fn graph() -> AsGraph {
        InternetConfig::small().seed(77).build()
    }

    fn attacker(spec: &DestinationSpec) -> Asn {
        spec.attacker_model()
            .expect("a sampled cell has an attacker")
            .asn()
    }

    #[test]
    fn tier1_pairs_are_tier1() {
        let g = graph();
        let tiers = TierMap::classify(&g);
        let exps = tier1_pair_experiments(&g, 12, 3, 1);
        assert_eq!(exps.len(), 12);
        for e in &exps {
            assert_eq!(tiers.tier_of(e.victim()), Some(1));
            assert_eq!(tiers.tier_of(attacker(e)), Some(1));
            assert_ne!(e.victim(), attacker(e));
            assert_eq!(e.padding_level(), 3);
        }
    }

    #[test]
    fn random_pairs_mostly_low_tier() {
        let g = graph();
        let tiers = TierMap::classify(&g);
        let exps = random_pair_experiments(&g, 40, 3, 2);
        assert_eq!(exps.len(), 40);
        let low_tier = exps
            .iter()
            .filter(|e| tiers.tier_of(e.victim()).unwrap_or(0) >= 3)
            .count();
        // Stubs dominate the population, so most sampled victims are low-tier.
        assert!(low_tier > exps.len() / 2, "{low_tier}/40 low-tier victims");
    }

    #[test]
    fn sampling_is_deterministic() {
        let g = graph();
        assert_eq!(
            tier1_pair_experiments(&g, 8, 3, 9),
            tier1_pair_experiments(&g, 8, 3, 9)
        );
        assert_ne!(
            tier1_pair_experiments(&g, 8, 3, 9),
            tier1_pair_experiments(&g, 8, 3, 10)
        );
    }

    #[test]
    fn ranked_is_descending() {
        let g = graph();
        let exps = tier1_pair_experiments(&g, 10, 3, 3);
        let ranked = run_ranked(&g, &exps);
        assert!(ranked
            .windows(2)
            .all(|w| w[0].after_fraction >= w[1].after_fraction));
    }

    #[test]
    fn degenerate_pools() {
        // Single-AS pool can never form a pair.
        let exps = pair_experiments(&[Asn(1)], &[Asn(1)], 5, 3, 0);
        assert!(exps.is_empty());
        // Empty pools likewise.
        let exps = pair_experiments(&[], &[], 5, 3, 0);
        assert!(exps.is_empty());
    }

    #[test]
    fn two_as_pool_yields_each_pair_once() {
        // Only two distinct ordered pairs exist; asking for five must return
        // exactly those two, not duplicates and not an empty guard-bailout.
        let pool = [Asn(1), Asn(2)];
        let exps = pair_experiments(&pool, &pool, 5, 3, 0);
        assert_eq!(exps.len(), 2);
        let mut pairs: Vec<_> = exps.iter().map(|e| (e.victim(), attacker(e))).collect();
        pairs.sort();
        assert_eq!(pairs, vec![(Asn(1), Asn(2)), (Asn(2), Asn(1))]);
    }

    #[test]
    fn sampled_pairs_are_distinct() {
        let g = graph();
        let exps = random_pair_experiments(&g, 40, 3, 2);
        let mut pairs: Vec<_> = exps.iter().map(|e| (e.victim(), attacker(e))).collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), 40, "pairs must be sampled without replacement");
    }

    #[test]
    fn tier1_pairs_are_distinct() {
        // The tier-1 pool is small, so with-replacement sampling would
        // collide almost surely; demand strict distinctness at every
        // request size, including one exceeding the pool (which must clamp,
        // not loop or repeat).
        let g = graph();
        for n in [4usize, 12, 1000] {
            for seed in 0..4 {
                let exps = tier1_pair_experiments(&g, n, 3, seed);
                let mut pairs: Vec<_> = exps.iter().map(|e| (e.victim(), attacker(e))).collect();
                let total = pairs.len();
                pairs.sort();
                pairs.dedup();
                assert_eq!(
                    pairs.len(),
                    total,
                    "duplicate tier-1 pair (n={n}, seed={seed})"
                );
                assert!(exps.iter().all(|e| e.victim() != attacker(e)));
            }
        }
    }

    #[test]
    fn strategy_matrix_covers_the_grid() {
        let exps = strategy_matrix(Asn(1), Asn(2), 1..=8);
        assert_eq!(exps.len(), 4 * 2 * 8);
        let mut distinct: Vec<_> = exps.clone();
        distinct.sort_by_key(|e| format!("{e:?}"));
        distinct.dedup();
        assert_eq!(distinct.len(), exps.len(), "every cell is distinct");
        // λ-major within each series: the first eight cells share one
        // (strategy, mode) and sweep λ = 1..=8.
        assert!(exps[..8]
            .windows(2)
            .all(|w| w[1].padding_level() == w[0].padding_level() + 1));
    }

    #[test]
    fn strategy_matrix_is_lambda_major_per_series() {
        let specs = strategy_matrix(Asn(1), Asn(2), 1..=3);
        let grid: Vec<(AttackStrategy, ExportMode, usize)> = specs
            .iter()
            .map(|s| {
                assert_eq!((s.victim(), attacker(s)), (Asn(1), Asn(2)));
                let m = s.attacker_model().unwrap();
                (m.attack_strategy(), m.export_mode(), s.padding_level())
            })
            .collect();
        let mut expected = Vec::new();
        for strategy in [
            AttackStrategy::StripPadding { keep: 1 },
            AttackStrategy::StripAllPadding,
            AttackStrategy::ForgeDirect,
            AttackStrategy::OriginHijack,
        ] {
            for mode in [ExportMode::Compliant, ExportMode::ViolateValleyFree] {
                expected.extend((1..=3).map(|lambda| (strategy, mode, lambda)));
            }
        }
        assert_eq!(grid, expected);
    }

    #[test]
    fn representative_and_stub_pickers() {
        let g = graph();
        let t1 = representative_of_tier(&g, 1).unwrap();
        assert_eq!(t1, Asn(100));
        let stub = best_connected_stub(&g).unwrap();
        // Content ASes are stubs with rich peering -> they should win.
        assert!(stub.value() >= CONTENT_BASE);
        assert!(representative_of_tier(&g, 99).is_none());
    }

    #[test]
    fn tier1_vs_tier1_padding_sweep_saturates() {
        // Figure 9's qualitative shape: strong growth then plateau.
        let g = graph();
        let cell = DestinationSpec::new(Asn(100)).attacker(AttackerModel::new(Asn(101)));
        let series = prepend_sweep(&g, &cell, 1..=8);
        assert_eq!(series.len(), 8);
        let last = series.last().unwrap().after_fraction;
        let first = series.first().unwrap().after_fraction;
        assert!(last > first, "padding must increase pollution");
        // Plateau: the last two λ values pollute (nearly) identically.
        let prev = series[6].after_fraction;
        assert!(
            (last - prev).abs() < 0.02,
            "plateau expected: {prev} vs {last}"
        );
    }
}
