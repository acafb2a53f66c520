//! The rules the propagation loop of [`super::sweep`] reads besides the
//! routes: the attack it seeds, export rows, prepending, the length bound,
//! and who refuses an attacker-derived offer.
use aspp_topology::AsGraph;
use aspp_types::{Relationship, RouteClass};

use super::route::{NodeRoute, PackedRoute};
use super::spec::{DestinationSpec, ExportMode};
use crate::policy::{AttackFacts, DeployedPolicy};
use crate::prepend::PrependingPolicy;

/// Everything about one attack that its attacked pass reads.
pub(super) struct AttackSeed {
    pub(super) m_idx: usize,
    pub(super) base_len: u32,
    pub(super) clean_class: RouteClass,
    pub(super) mode: ExportMode,
    pub(super) pinned: NodeRoute,
    /// The ASes that refuse the claimed path, sorted.
    pub(super) chain: Vec<usize>,
    /// Per-attack policy inputs, computed once so the per-offer check is
    /// branch-and-mask only; the default (unread) for an undefended spec.
    pub(super) facts: AttackFacts,
}

impl AttackSeed {
    /// The [`export_row`] of the attack itself: customers, siblings and peers
    /// always hear it, providers when the attacker violates the valley-free
    /// rule or the class it claims may climb anyway (paper Figures 11–12).
    pub(super) fn export_row(&self) -> [Option<RouteClass>; 4] {
        row_where(self.clean_class, |rel| {
            self.mode == ExportMode::ViolateValleyFree
                || rel != Relationship::Provider
                || self.clean_class.may_export_to(rel)
        })
    }
}

/// One valley-free export table row: the class a route of class `class`
/// acquires at a receiver related by `rel` (indexed by `rel as usize`), or
/// `None` where export is forbidden. Hoists the per-edge permission and
/// class matches out of the edge loop.
pub(crate) fn export_row(class: RouteClass) -> [Option<RouteClass>; 4] {
    row_where(class, |rel| class.may_export_to(rel))
}

/// The row that hands `class` to every kind of neighbor `allowed` admits.
fn row_where(class: RouteClass, allowed: impl Fn(Relationship) -> bool) -> [Option<RouteClass>; 4] {
    let mut row = [None; 4];
    for rel in [
        Relationship::Customer,
        Relationship::Provider,
        Relationship::Peer,
        Relationship::Sibling,
    ] {
        if allowed(rel) {
            row[rel as usize] = Some(class_at_receiver(class, rel));
        }
    }
    row
}

/// The class a route acquires at the receiver when exported over a link
/// where the receiver sees the exporter as `rel_of_receiver_from_exporter`
/// reversed. Sibling links inherit the exporter's class (same
/// administration), with `Origin` degrading to `FromCustomer`.
pub(crate) fn class_at_receiver(
    exporter_class: RouteClass,
    rel_of_receiver: Relationship,
) -> RouteClass {
    match rel_of_receiver {
        Relationship::Sibling => match exporter_class {
            RouteClass::Origin => RouteClass::FromCustomer,
            other => other,
        },
        other => RouteClass::from_neighbor(other.reverse()),
    }
}

/// The prepending configured for one pass, by node index: the handful of
/// ASes the spec configures, sorted, so an exporter's policy is a short
/// search of a few words instead of a dense per-node table.
struct Padding<'s> {
    by_node: Vec<(u32, &'s PrependingPolicy)>,
}

impl<'s> Padding<'s> {
    fn new(graph: &AsGraph, spec: &'s DestinationSpec) -> Self {
        let mut by_node: Vec<(u32, &PrependingPolicy)> = spec
            .prepending()
            .iter()
            .filter_map(|(asn, policy)| Some((graph.index_of(asn)? as u32, policy)))
            .collect();
        by_node.sort_unstable_by_key(|&(node, _)| node);
        Padding { by_node }
    }

    /// The prepending policy of the node `exporter`, if it pads.
    #[inline]
    fn of(&self, exporter: usize) -> Option<&'s PrependingPolicy> {
        if self.by_node.is_empty() {
            return None;
        }
        let pos = self
            .by_node
            .binary_search_by_key(&(exporter as u32), |&(node, _)| node);
        pos.ok().map(|pos| self.by_node[pos].1)
    }
}

/// Why [`Rules::offer_len`] stops: the offer is longer than a route word
/// holds.
const TOO_LONG: &str = "effective route length exceeds 268435455, the 28-bit maximum";

/// What decides an offer besides the routes: the graph, the pass's
/// prepending, and who refuses attacker-derived offers — the attacker's
/// claimed chain (loop prevention) and the spec's [`DeployedPolicy`].
pub(super) struct Rules<'a> {
    pub(super) graph: &'a AsGraph,
    pad: Padding<'a>,
    /// The attacker's claimed chain, sorted; empty in a clean pass.
    chain: &'a [usize],
    policy: Option<&'a DeployedPolicy>,
    facts: AttackFacts,
    /// Offers the policy has refused so far in this pass.
    pub(super) policy_rejects: u64,
}

impl<'a> Rules<'a> {
    pub(super) fn new(
        graph: &'a AsGraph,
        spec: &'a DestinationSpec,
        attack: Option<&'a AttackSeed>,
    ) -> Self {
        Rules {
            graph,
            pad: Padding::new(graph, spec),
            chain: attack.map_or(&[][..], |a| &a.chain),
            policy: spec.defense_policy(),
            facts: attack.map_or_else(AttackFacts::default, |a| a.facts),
            policy_rejects: 0,
        }
    }

    /// The prepending policy of the node `exporter`, if it pads.
    #[inline]
    pub(super) fn pad_of(&self, exporter: usize) -> Option<&'a PrependingPolicy> {
        self.pad.of(exporter)
    }

    /// The effective length of a `len`-hop route exported to node
    /// `receiver` by an exporter padding by `pad`: its own ASN plus whatever
    /// it pads toward that neighbor. Panics, naming the bound, when the
    /// result is longer than a route word holds.
    #[inline]
    pub(super) fn offer_len(&self, pad: Option<&PrependingPolicy>, len: u32, receiver: u32) -> u32 {
        let extra = pad.map_or(0, |p| p.extra_for(self.graph.asn_at(receiver as usize)));
        let len = u32::try_from(extra.saturating_add(len as usize + 1)).unwrap_or(u32::MAX);
        assert!(len <= PackedRoute::MAX_LEN, "{TOO_LONG}");
        len
    }

    /// Whether `node` refuses an attacker-derived offer arriving with class
    /// `class`: it is on the claimed chain (loop prevention) or, in a
    /// defended spec, the [`DeployedPolicy`] drops it (tallied in
    /// `policy_rejects`).
    #[inline]
    pub(super) fn refuses(&mut self, node: u32, class: RouteClass) -> bool {
        if self.chain.binary_search(&(node as usize)).is_ok() {
            return true;
        }
        let rejected = self
            .policy
            .is_some_and(|p| !p.accepts_attacker_route(node as usize, class, &self.facts));
        self.policy_rejects += u64::from(rejected);
        rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::full_pass_divergence;
    use crate::engine::Pass;
    use crate::{AttackerModel, RouteWorkspace, RoutingEngine};
    use aspp_topology::gen::{InternetConfig, TIER1_BASE, TIER2_BASE, TIER3_BASE};
    use aspp_types::Asn;

    /// On a graph where a tier-1 attacker's pass pollutes most of the
    /// graph and a tier-3 attacker's a few of its stub customers, both are
    /// delta passes, and both equal the all-dirty run.
    #[test]
    fn wide_and_narrow_delta_passes_match_the_full_pass() {
        let graph = InternetConfig::internet().seed(2024).build();
        let engine = RoutingEngine::new(&graph);
        let mut ws = RouteWorkspace::new();
        let cell = |attacker| {
            DestinationSpec::new(Asn(TIER2_BASE + 5))
                .origin_padding(3)
                .attacker(AttackerModel::new(Asn(attacker)))
        };

        let wide = engine.compute_with(&cell(TIER1_BASE), &mut ws);
        assert_eq!(ws.delta_passes(), 1);
        assert!(wide.polluted_count() > graph.len() / 4);
        assert_eq!(full_pass_divergence(&wide), None);

        let narrow = engine.compute_with(&cell(TIER3_BASE + 1), &mut ws);
        assert_eq!(ws.delta_passes(), 2);
        assert!(narrow.polluted_count() > 0);
        assert!(narrow.polluted_count() < graph.len() / 100);
        assert_eq!(full_pass_divergence(&narrow), None);
    }

    #[test]
    fn offer_rank_orders_like_the_decision_tuple() {
        let mut offers = Vec::new();
        for class in [
            RouteClass::FromCustomer,
            RouteClass::FromPeer,
            RouteClass::FromProvider,
        ] {
            for len in [0, 3, 256, PackedRoute::MAX_LEN] {
                for parent in [0, 64_512, (1 << 30) - 1] {
                    for via_attacker in [false, true] {
                        let offer = PackedRoute::new(class, len, parent, via_attacker);
                        let route = NodeRoute {
                            class,
                            len,
                            parent: Some(parent as usize),
                            via_attacker,
                        };
                        assert_eq!(offer.unpack(), Some(route));
                        assert_eq!(offer.via_attacker(), via_attacker);
                        offers.push(((class, len, parent), offer.rank()));
                    }
                }
            }
        }
        let mut by_tuple = offers.clone();
        by_tuple.sort_unstable_by_key(|&(tuple, _)| tuple);
        offers.sort_by_key(|&(_, rank)| rank);
        assert_eq!(offers, by_tuple);
        // No route ranks after an absent one, whose rank names no parent.
        let absent = Pass::absent(1).rank(0);
        assert!(offers.iter().all(|&(_, rank)| rank < absent));
        assert_eq!(absent as u32, u32::MAX);
        assert!(TOO_LONG.contains(&PackedRoute::MAX_LEN.to_string()));
    }
}
