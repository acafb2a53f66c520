//! Route churn: link failures and the BGP updates they trigger.
//!
//! The paper's Figure 5/6 measurements distinguish routing-*table* views
//! from *update* streams and find that updates expose more prepending:
//! "in the unstable states, these routes are more likely to be visible in
//! the route monitoring system". This module produces exactly that
//! instability — fail a link on the current best tree, recompute the
//! equilibrium, and report every AS whose announced route changed.

use aspp_types::{AsPath, Asn};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::engine::{RoutingEngine, RoutingOutcome};

/// One AS's route change caused by a churn event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteUpdate {
    /// The AS whose announced route changed.
    pub asn: Asn,
    /// The previously announced path (`None` if the AS had no route).
    pub old_path: Option<AsPath>,
    /// The new announced path (`None` on withdrawal).
    pub new_path: Option<AsPath>,
}

/// Computes the updates triggered by failing the link `a — b` under
/// `before`, the equilibrium of the intact topology: every AS whose observed
/// path differs between `before` and the same spec recomputed on the
/// degraded topology.
///
/// `before`'s graph is not modified; the failed topology is a derived copy.
///
/// # Example
///
/// ```
/// use aspp_routing::{events::updates_after_failure, DestinationSpec, RoutingEngine};
/// use aspp_topology::AsGraphBuilder;
/// use aspp_types::Asn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = AsGraphBuilder::new();
/// g.add_provider_customer(Asn(10), Asn(1))?;
/// g.add_provider_customer(Asn(20), Asn(1))?;
/// g.add_provider_customer(Asn(30), Asn(10))?;
/// g.add_provider_customer(Asn(30), Asn(20))?;
/// let g = g.finish();
/// let before = RoutingEngine::new(&g).compute(&DestinationSpec::new(Asn(1)));
/// let updates = updates_after_failure(&before, Asn(10), Asn(1));
/// // AS10 loses its direct route; AS30 fails over via AS20.
/// assert!(updates.iter().any(|u| u.asn == Asn(30)));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn updates_after_failure(before: &RoutingOutcome<'_>, a: Asn, b: Asn) -> Vec<RouteUpdate> {
    let (graph, spec) = (before.graph(), before.spec());
    let mut degraded = graph.to_builder();
    degraded.remove_link(a, b);
    let degraded = degraded.finish();
    let after = RoutingEngine::new(&degraded).compute(spec);

    let mut updates = Vec::new();
    for asn in graph.asns() {
        if asn == spec.victim() {
            continue;
        }
        let old_path = before.observed_path(asn);
        let new_path = after.observed_path(asn);
        if old_path != new_path {
            updates.push(RouteUpdate {
                asn,
                old_path,
                new_path,
            });
        }
    }
    updates
}

/// Picks a random link on `outcome`'s best-route tree — the kind of failure
/// that actually produces visible churn. Returns `None` if the destination
/// has no incident routed link.
#[must_use]
pub fn random_tree_link<R: Rng>(outcome: &RoutingOutcome<'_>, rng: &mut R) -> Option<(Asn, Asn)> {
    let mut tree_links: Vec<(Asn, Asn)> = Vec::new();
    for asn in outcome.graph().asns() {
        if let Some(info) = outcome.route(asn) {
            if let Some(hop) = info.next_hop {
                tree_links.push((asn, hop));
            }
        }
    }
    tree_links.choose(rng).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DestinationSpec;
    use crate::prepend::{PrependConfig, PrependingPolicy};
    use aspp_topology::{AsGraph, AsGraphBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Victim 1 multi-homed to 10 (primary) and 20 (padded backup);
    /// AS30 above both.
    fn multihomed() -> (AsGraph, DestinationSpec) {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(20), Asn(1)).unwrap();
        g.add_provider_customer(Asn(30), Asn(10)).unwrap();
        g.add_provider_customer(Asn(30), Asn(20)).unwrap();
        let g = g.finish();
        let mut config = PrependConfig::new();
        // Backup provisioning: heavy padding toward 20.
        config.set(Asn(1), PrependingPolicy::per_neighbor(0, [(Asn(20), 4)]));
        let spec = DestinationSpec::new(Asn(1)).prepend_config(config);
        (g, spec)
    }

    #[test]
    fn failover_reveals_padded_backup() {
        let (g, spec) = multihomed();
        let before = RoutingEngine::new(&g).compute(&spec);
        let updates = updates_after_failure(&before, Asn(10), Asn(1));
        let u30 = updates
            .iter()
            .find(|u| u.asn == Asn(30))
            .expect("AS30 updates");
        let new = u30.new_path.as_ref().unwrap();
        // The backup path carries the padding: 30 20 1 1 1 1 1.
        assert_eq!(new.to_string(), "30 20 1 1 1 1 1");
        assert!(new.has_prepending());
        let old = u30.old_path.as_ref().unwrap();
        assert!(!old.has_prepending(), "primary path was clean: {old}");
    }

    #[test]
    fn cutting_the_only_link_withdraws() {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        let g = g.finish();
        let before = RoutingEngine::new(&g).compute(&DestinationSpec::new(Asn(1)));
        let updates = updates_after_failure(&before, Asn(10), Asn(1));
        assert_eq!(updates.len(), 1);
        assert!(updates[0].new_path.is_none());
        assert_eq!(updates[0].asn, Asn(10));
    }

    #[test]
    fn unrelated_link_failure_is_silent() {
        let (g, spec) = multihomed();
        let mut g = g.to_builder();
        g.add_peering(Asn(40), Asn(41)).unwrap();
        let g = g.finish();
        let before = RoutingEngine::new(&g).compute(&spec);
        let updates = updates_after_failure(&before, Asn(40), Asn(41));
        assert!(updates.is_empty());
    }

    #[test]
    fn random_tree_link_is_on_a_best_path() {
        let (g, spec) = multihomed();
        let before = RoutingEngine::new(&g).compute(&spec);
        let mut rng = StdRng::seed_from_u64(5);
        let (a, b) = random_tree_link(&before, &mut rng).unwrap();
        assert!(g.relationship(a, b).is_some());
        // Failing it must produce at least one update (it carried traffic).
        let updates = updates_after_failure(&before, a, b);
        assert!(!updates.is_empty());
    }
}
