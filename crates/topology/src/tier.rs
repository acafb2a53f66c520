//! Tier classification and customer-cone analytics.
//!
//! The paper's impact analysis distinguishes attacker/victim locations by
//! tier: "a tier-1 AS is an AS with no providers and is peering with all
//! other tier-1 ASes" (Section VI-B). Lower tiers are defined by provider
//! distance from the core: a tier-k AS buys transit from some tier-(k-1) AS.

use std::collections::{HashSet, VecDeque};

use aspp_types::{Asn, Relationship};

use crate::AsGraph;

/// Tier assignment for every AS in a graph.
///
/// Tier 1 is the provider-free core; an AS at tier *k* > 1 has its best
/// (lowest-tier) provider at tier *k − 1*. ASes unreachable from the core by
/// provider→customer edges (possible in pathological graphs) are assigned
/// [`TierMap::UNREACHABLE`].
///
/// # Example
///
/// ```
/// use aspp_topology::{AsGraphBuilder, tier::TierMap};
/// use aspp_types::Asn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = AsGraphBuilder::new();
/// g.add_peering(Asn(1), Asn(2))?;             // two tier-1s
/// g.add_provider_customer(Asn(1), Asn(10))?;  // tier-2
/// g.add_provider_customer(Asn(10), Asn(100))?; // tier-3 stub
/// let g = g.finish();
/// let tiers = TierMap::classify(&g);
/// assert_eq!(tiers.tier_of(Asn(1)), Some(1));
/// assert_eq!(tiers.tier_of(Asn(10)), Some(2));
/// assert_eq!(tiers.tier_of(Asn(100)), Some(3));
/// assert!(tiers.is_stub(&g, Asn(100)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TierMap {
    /// `(asn, tier)` for every AS of the classified graph, sorted by ASN.
    tiers: Vec<(Asn, u32)>,
}

impl TierMap {
    /// Tier value assigned to ASes with no provider path from the core.
    pub const UNREACHABLE: u32 = u32::MAX;

    /// Classifies every AS in `graph`.
    ///
    /// Tier-1 ASes are those with no providers; every other AS's tier is one
    /// more than the minimum tier among its providers (BFS from the core).
    /// Sibling links are ignored for tier computation.
    #[must_use]
    pub fn classify(graph: &AsGraph) -> Self {
        // Multi-source BFS down provider->customer edges over the graph's
        // dense node indices: the queue pops in non-decreasing tier order,
        // so the first visit of a node is at its minimum tier.
        let mut tier = vec![Self::UNREACHABLE; graph.len()];
        let mut queue: VecDeque<u32> = VecDeque::new();
        for (idx, t) in tier.iter_mut().enumerate() {
            let has_provider = graph
                .neighbors_at(idx)
                .iter()
                .any(|e| e.rel() == Relationship::Provider);
            if !has_provider {
                *t = 1;
                queue.push_back(idx as u32);
            }
        }
        while let Some(idx) = queue.pop_front() {
            let next_tier = tier[idx as usize] + 1;
            for entry in graph.neighbors_at(idx as usize) {
                let customer = entry.node() as usize;
                if entry.rel() == Relationship::Customer && tier[customer] == Self::UNREACHABLE {
                    tier[customer] = next_tier;
                    queue.push_back(entry.node());
                }
            }
        }

        // Node indices are in ascending ASN, so `tiers` is sorted by ASN.
        let tiers = graph.asn_table().iter().copied().zip(tier).collect();
        TierMap { tiers }
    }

    /// The tier of `asn`, or `None` if it was not in the classified graph.
    #[must_use]
    pub fn tier_of(&self, asn: Asn) -> Option<u32> {
        self.tiers
            .binary_search_by_key(&asn, |&(a, _)| a)
            .ok()
            .map(|pos| self.tiers[pos].1)
    }

    /// Iterates over all tier-1 (provider-free core) ASes, in ascending ASN.
    pub fn tier1(&self) -> impl Iterator<Item = Asn> + '_ {
        self.in_tier(1)
    }

    /// Iterates over all ASes at exactly tier `t`, in ascending ASN.
    pub fn in_tier(&self, t: u32) -> impl Iterator<Item = Asn> + '_ {
        self.tiers
            .iter()
            .filter(move |&&(_, tier)| tier == t)
            .map(|&(asn, _)| asn)
    }

    /// The deepest finite tier present.
    #[must_use]
    pub fn max_tier(&self) -> u32 {
        self.tiers
            .iter()
            .map(|&(_, tier)| tier)
            .filter(|&t| t != Self::UNREACHABLE)
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if `asn` has no customers (an edge/stub network).
    #[must_use]
    pub fn is_stub(&self, graph: &AsGraph, asn: Asn) -> bool {
        graph.customers(asn).next().is_none()
    }

    /// Verifies the paper's tier-1 definition: every pair of tier-1 ASes is
    /// connected by a peering (or sibling) link. Returns the offending pair
    /// on failure.
    ///
    /// # Errors
    ///
    /// Returns the first tier-1 pair found without a direct peering/sibling
    /// link.
    pub fn verify_tier1_clique(&self, graph: &AsGraph) -> Result<(), (Asn, Asn)> {
        let t1: Vec<Asn> = self.tier1().collect();
        for (i, &a) in t1.iter().enumerate() {
            for &b in &t1[i + 1..] {
                match graph.relationship(a, b) {
                    Some(Relationship::Peer) | Some(Relationship::Sibling) => {}
                    _ => return Err((a, b)),
                }
            }
        }
        Ok(())
    }
}

/// Computes the customer cone of `asn`: the set of ASes reachable from it by
/// repeatedly following provider→customer (or sibling) edges, including
/// `asn` itself. The paper uses cone membership to reason about which ASes
/// resist pollution ("an AS is not polluted only if it is a direct or
/// indirect customer of the victim …", Section VI-B).
///
/// # Example
///
/// ```
/// use aspp_topology::{AsGraphBuilder, tier::customer_cone};
/// use aspp_types::Asn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = AsGraphBuilder::new();
/// g.add_provider_customer(Asn(1), Asn(2))?;
/// g.add_provider_customer(Asn(2), Asn(3))?;
/// g.add_provider_customer(Asn(9), Asn(3))?; // 3 is multi-homed
/// let g = g.finish();
/// let cone = customer_cone(&g, Asn(1));
/// assert!(cone.contains(&Asn(1)) && cone.contains(&Asn(2)) && cone.contains(&Asn(3)));
/// assert!(!cone.contains(&Asn(9)));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn customer_cone(graph: &AsGraph, asn: Asn) -> HashSet<Asn> {
    let mut cone = HashSet::new();
    if !graph.contains(asn) {
        return cone;
    }
    let mut queue = VecDeque::new();
    cone.insert(asn);
    queue.push_back(asn);
    while let Some(current) = queue.pop_front() {
        for (neighbor, rel) in graph.neighbors(current) {
            if matches!(rel, Relationship::Customer | Relationship::Sibling)
                && cone.insert(neighbor)
            {
                queue.push_back(neighbor);
            }
        }
    }
    cone
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::InternetConfig;
    use crate::AsGraphBuilder;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The classifier this module shipped before the dense rewrite — a
    /// hash-map BFS through `providers()`/`customers()` — kept as the
    /// reference the CSR one is checked against.
    fn classify_reference(graph: &AsGraph) -> HashMap<Asn, u32> {
        let mut tiers: HashMap<Asn, u32> = HashMap::with_capacity(graph.len());
        let mut queue: VecDeque<Asn> = VecDeque::new();
        for asn in graph.asns() {
            if graph.providers(asn).next().is_none() {
                tiers.insert(asn, 1);
                queue.push_back(asn);
            }
        }
        while let Some(asn) = queue.pop_front() {
            let next_tier = tiers[&asn] + 1;
            for customer in graph.customers(asn) {
                let entry = tiers.entry(customer).or_insert(u32::MAX);
                if next_tier < *entry {
                    *entry = next_tier;
                    queue.push_back(customer);
                }
            }
        }
        for asn in graph.asns() {
            tiers.entry(asn).or_insert(TierMap::UNREACHABLE);
        }
        tiers
    }

    fn assert_matches_reference(graph: &AsGraph) {
        let tiers = TierMap::classify(graph);
        let reference = classify_reference(graph);
        assert_eq!(tiers.tiers.len(), reference.len());
        for (&asn, &tier) in &reference {
            assert_eq!(tiers.tier_of(asn), Some(tier), "tier of AS{asn}");
        }
        let finite = reference.values().filter(|&&t| t != TierMap::UNREACHABLE);
        assert_eq!(tiers.max_tier(), finite.copied().max().unwrap_or(0));
        for t in [1, 2, 3, TierMap::UNREACHABLE] {
            let mut want: Vec<Asn> = reference
                .iter()
                .filter(|&(_, &tier)| tier == t)
                .map(|(&asn, _)| asn)
                .collect();
            want.sort();
            assert_eq!(tiers.in_tier(t).collect::<Vec<_>>(), want, "tier {t}");
        }
    }

    proptest! {
        #[test]
        fn dense_classifier_matches_reference_on_generated_internets(seed in any::<u64>()) {
            let graph = InternetConfig::small()
                .tier2_count(6).tier3_count(8).stub_count(14).seed(seed).build();
            assert_matches_reference(&graph);
        }

        /// Arbitrary link soup over a few ASNs: provider loops, sibling
        /// links, isolated peers, ASNs inserted out of order.
        #[test]
        fn dense_classifier_matches_reference_on_arbitrary_links(
            links in proptest::collection::vec((1u32..12, 1u32..12, 0usize..4), 0..30),
        ) {
            let rels = [
                Relationship::Customer,
                Relationship::Peer,
                Relationship::Provider,
                Relationship::Sibling,
            ];
            let mut graph = AsGraphBuilder::new();
            for (a, b, rel) in links {
                // Self-loops and duplicate links are rejected; skip them.
                let _ = graph.add_link(Asn(a), Asn(b), rels[rel]);
            }
            let graph = graph.finish();
            assert_matches_reference(&graph);
        }
    }

    #[test]
    fn siblings_do_not_carry_tiers() {
        let mut g = hierarchy().to_builder();
        // 100's sibling has no provider of its own: tier 1 by definition,
        // not tier 3 by inheritance; and 11's sibling hangs off nothing.
        g.add_sibling(Asn(100), Asn(101)).unwrap();
        g.add_sibling(Asn(11), Asn(12)).unwrap();
        g.add_provider_customer(Asn(12), Asn(120)).unwrap();
        let g = g.finish();
        let tiers = TierMap::classify(&g);
        assert_eq!(tiers.tier_of(Asn(101)), Some(1));
        assert_eq!(tiers.tier_of(Asn(12)), Some(1));
        assert_eq!(tiers.tier_of(Asn(120)), Some(2));
        assert_matches_reference(&g);
    }

    #[test]
    fn provider_loop_without_an_entry_point_is_unreachable_beside_a_core() {
        let mut g = hierarchy().to_builder();
        // 50 -> 51 -> 52 -> 50, nobody provider-free, plus a stub below it.
        g.add_provider_customer(Asn(50), Asn(51)).unwrap();
        g.add_provider_customer(Asn(51), Asn(52)).unwrap();
        g.add_provider_customer(Asn(52), Asn(50)).unwrap();
        g.add_provider_customer(Asn(52), Asn(53)).unwrap();
        let g = g.finish();
        let tiers = TierMap::classify(&g);
        for asn in [Asn(50), Asn(51), Asn(52), Asn(53)] {
            assert_eq!(tiers.tier_of(asn), Some(TierMap::UNREACHABLE));
        }
        assert_eq!(tiers.max_tier(), 3, "the loop does not count as a tier");
        assert_eq!(tiers.in_tier(TierMap::UNREACHABLE).count(), 4);
        assert_matches_reference(&g);
    }

    #[test]
    fn multihomed_stub_with_providers_at_different_tiers() {
        let mut g = hierarchy().to_builder();
        // 200 buys from tier-3 AS100 and from tier-2 AS10: tier 3, and the
        // deeper provider must not overwrite it whatever the visit order.
        g.add_provider_customer(Asn(100), Asn(200)).unwrap();
        g.add_provider_customer(Asn(10), Asn(200)).unwrap();
        let g = g.finish();
        let tiers = TierMap::classify(&g);
        assert_eq!(tiers.tier_of(Asn(200)), Some(3));
        assert!(tiers.is_stub(&g, Asn(200)));
        assert_matches_reference(&g);
    }

    /// Small hierarchy:
    ///   1 -- 2 (peers, tier-1 clique)
    ///   1 -> 10, 2 -> 11 (tier-2)
    ///   10 -> 100, 11 -> 100 (multi-homed tier-3)
    fn hierarchy() -> AsGraph {
        let mut g = AsGraphBuilder::new();
        g.add_peering(Asn(1), Asn(2)).unwrap();
        g.add_provider_customer(Asn(1), Asn(10)).unwrap();
        g.add_provider_customer(Asn(2), Asn(11)).unwrap();
        g.add_provider_customer(Asn(10), Asn(100)).unwrap();
        g.add_provider_customer(Asn(11), Asn(100)).unwrap();
        g.finish()
    }

    #[test]
    fn classification_levels() {
        let g = hierarchy();
        let tiers = TierMap::classify(&g);
        assert_eq!(tiers.tier_of(Asn(1)), Some(1));
        assert_eq!(tiers.tier_of(Asn(2)), Some(1));
        assert_eq!(tiers.tier_of(Asn(10)), Some(2));
        assert_eq!(tiers.tier_of(Asn(11)), Some(2));
        assert_eq!(tiers.tier_of(Asn(100)), Some(3));
        assert_eq!(tiers.tier_of(Asn(999)), None);
        assert_eq!(tiers.max_tier(), 3);
    }

    #[test]
    fn tier1_iterator_and_clique_check() {
        let g = hierarchy();
        let tiers = TierMap::classify(&g);
        let mut t1: Vec<Asn> = tiers.tier1().collect();
        t1.sort();
        assert_eq!(t1, vec![Asn(1), Asn(2)]);
        assert_eq!(tiers.verify_tier1_clique(&g), Ok(()));
    }

    #[test]
    fn clique_violation_detected() {
        let mut g = hierarchy().to_builder();
        // A third provider-free AS not peering with the others.
        g.add_provider_customer(Asn(3), Asn(12)).unwrap();
        let g = g.finish();
        let tiers = TierMap::classify(&g);
        let err = tiers.verify_tier1_clique(&g).unwrap_err();
        assert!(err.0 == Asn(3) || err.1 == Asn(3));
    }

    #[test]
    fn multihomed_takes_minimum_tier() {
        let mut g = hierarchy().to_builder();
        // 100 also buys directly from tier-1 AS1 -> becomes tier-2.
        g.add_provider_customer(Asn(1), Asn(100)).unwrap();
        let g = g.finish();
        let tiers = TierMap::classify(&g);
        assert_eq!(tiers.tier_of(Asn(100)), Some(2));
    }

    #[test]
    fn stub_detection() {
        let g = hierarchy();
        let tiers = TierMap::classify(&g);
        assert!(tiers.is_stub(&g, Asn(100)));
        assert!(!tiers.is_stub(&g, Asn(10)));
    }

    #[test]
    fn cone_includes_sibling_reachable() {
        let mut g = hierarchy().to_builder();
        g.add_sibling(Asn(100), Asn(101)).unwrap();
        let g = g.finish();
        let cone = customer_cone(&g, Asn(10));
        assert!(cone.contains(&Asn(101)), "siblings join the cone");
        assert_eq!(customer_cone(&g, Asn(999)).len(), 0);
    }

    #[test]
    fn cone_never_climbs_up_or_across() {
        let mut g = hierarchy().to_builder();
        g.add_peering(Asn(10), Asn(11)).unwrap();
        let g = g.finish();
        let cone = customer_cone(&g, Asn(10));
        assert!(!cone.contains(&Asn(1)), "providers excluded");
        assert!(!cone.contains(&Asn(11)), "peers excluded");
        assert!(cone.contains(&Asn(100)));
    }

    #[test]
    fn isolated_cycle_is_unreachable() {
        // Customer cycle with no provider-free entry point.
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(1), Asn(2)).unwrap();
        g.add_provider_customer(Asn(2), Asn(3)).unwrap();
        g.add_provider_customer(Asn(3), Asn(1)).unwrap();
        let g = g.finish();
        let tiers = TierMap::classify(&g);
        for asn in [Asn(1), Asn(2), Asn(3)] {
            assert_eq!(tiers.tier_of(asn), Some(TierMap::UNREACHABLE));
        }
        assert_eq!(tiers.max_tier(), 0);
    }

    #[test]
    fn peer_only_as_is_tier1_by_definition() {
        let mut g = AsGraphBuilder::new();
        g.add_peering(Asn(5), Asn(6)).unwrap();
        let g = g.finish();
        let tiers = TierMap::classify(&g);
        assert_eq!(tiers.tier_of(Asn(5)), Some(1));
        assert_eq!(g.relationship(Asn(5), Asn(6)), Some(Relationship::Peer));
    }
}
