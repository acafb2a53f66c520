//! The delta attacked pass — the one label-correcting loop over the bucket
//! queue — and the rules it shares with the full pass of [`super::sweep`]:
//! export rows, prepending, the length bound, and who refuses an
//! attacker-derived offer.
//!
//! # Delta re-convergence
//!
//! Every attacked equilibrium is first attempted **incrementally** from the
//! clean one, under whatever [`DefensePolicy`] the cell carries; the full
//! pass is the fallback — the path every aborted attempt takes — and,
//! replayed by [`crate::audit::full_pass_divergence`], the reference the
//! equivalence tests compare against. The two are independent loops — a
//! bucket queue here, sweeps in propagation order there — so that replay
//! checks one algorithm against another.
//! The delta pass starts from a copy of the clean pass, seeds the frontier
//! with `M`'s claimed exports, and relaxes outward; an attacker-derived
//! offer either
//!
//! * loses to the node's clean label — it is dropped at push, the frontier
//!   stops, and the node (and everything behind it) keeps its clean route
//!   verbatim; or
//! * wins (or ties) — the node is re-converged onto the attacker label and
//!   re-exports it.
//!
//! **Why pruning is sound.** The attacked pass differs from the clean pass
//! only in `M`'s exports, so a node the frontier never reaches keeps its
//! clean route exactly when the clean parent it learned that route from
//! still exports it. A parent that adopted an attacker label ranked it no
//! worse than its clean key, so its class is no worse: its export row only
//! widens, and every clean child still hears from it — now the attacker
//! label. That child either takes the offer (and enters the frontier),
//! settled earlier on an offer no worse than its clean key (and loses
//! nothing), or does not take it, which is the one event that can leave a
//! stale clean route behind. Bucket closure + minimum offer makes each
//! adopted label the one the full pass would have selected: no offer
//! reaches a `(class, length)` bucket once the scan has opened it, so a
//! node settles on the minimum over every offer it gets, whatever order its
//! bucket drains in. The order can decide only whether an abort is seen —
//! an offer that reaches a node already settled raises none — and an abort
//! only sends the attempt to the full pass, whose result is the same.
//!
//! Offers and clean routes rank by their [`PackedRoute`] words, read
//! straight from the clean pass. A tie between an attacker label and the
//! clean label means the clean parent itself was re-converged (the rank
//! ends in the exporter's node index, so a tie implies the same parent),
//! i.e. the clean option no longer exists, so ties adopt the attacker label.
//!
//! **The abort.** Two events void the attempt. The first is for
//! soundness: a receiver that does not take the offer of its own clean
//! parent — loop prevention refuses it (the receiver is on the claimed
//! chain), its [`DefensePolicy`] refuses it, or it ranks below the
//! receiver's clean route (policy beats length, so a parent can adopt a
//! *longer* route of better class, and the attacker's own claim may be
//! longer than its clean route). The receiver must then re-select among
//! what is left, which only the full pass models. The second is for speed:
//! a pass about to scan more adjacency entries than [`scan_budget`] allows.
//! Such a pass pollutes a wide share of the graph, and the full pass's
//! linear sweeps compute the same equilibrium faster than the queue does.
//! [`PassCtx::offer`] and [`PassCtx::export`] raise the flag, [`propagate`]
//! returns `None` after the exports that raised it, and the caller falls
//! back to the full pass, so results stay **bit-identical** to it in every
//! case — property-tested across all attack strategies, both export modes
//! and every policy kind in `tests/delta_equivalence.rs` and
//! `tests/defense_equivalence.rs`.
use aspp_obs::counters::{self, Counter};
use aspp_topology::AsGraph;
use aspp_types::{Relationship, RouteClass};

use super::queue::BucketQueue;
use super::route::{NodeRoute, PackedRoute, Pass};
use super::spec::{DestinationSpec, ExportMode};
use super::workspace::{NodeScratch, RouteWorkspace};
use crate::policy::{AttackFacts, DefensePolicy};
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
    /// Per-attack policy inputs, computed once so the per-offer hook is
    /// branch-and-mask only; the default (unread) under a `NOOP` policy.
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
/// claimed chain (loop prevention) and the [`DefensePolicy`]. Shared by the
/// full pass ([`super::sweep`]) and the delta pass ([`propagate`]).
pub(super) struct Rules<'a, P> {
    pub(super) graph: &'a AsGraph,
    pad: Padding<'a>,
    /// The attacker's claimed chain, sorted; empty in a clean pass.
    chain: &'a [usize],
    policy: &'a P,
    facts: AttackFacts,
}

impl<'a, P: DefensePolicy> Rules<'a, P> {
    pub(super) fn new(
        graph: &'a AsGraph,
        spec: &'a DestinationSpec,
        attack: Option<&'a AttackSeed>,
        policy: &'a P,
    ) -> Self {
        Rules {
            graph,
            pad: Padding::new(graph, spec),
            chain: attack.map_or(&[][..], |a| &a.chain),
            policy,
            facts: attack.map_or_else(AttackFacts::default, |a| a.facts),
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
    /// `class`: it is on the claimed chain (loop prevention) or, under a
    /// policy that is not the compile-time `NOOP`, its [`DefensePolicy`]
    /// drops it.
    #[inline]
    pub(super) fn refuses(&self, node: u32, class: RouteClass) -> bool {
        self.chain.binary_search(&(node as usize)).is_ok()
            || (!P::NOOP
                && !self
                    .policy
                    .accepts_attacker_route(node as usize, class, &self.facts))
    }
}

/// How many adjacency entries a delta pass over a graph of `entries` may
/// scan before it hands its cell to the full pass: a sixteenth of them,
/// and never fewer than 2¹⁵.
///
/// At 80 000 ASes a full pass is a ≈2.5 ms sweep, while a delta pass costs
/// ≈11 ns per entry it scans: 6–13 ms for one that pollutes most of the
/// graph (tier-1 attackers, origin hijacks), which scans 0.9 M of the
/// 1 M entries. A wide pass adopts its high-degree nodes first, so its
/// scan count, not its adopted-node count, tells early that it is wide.
/// Measured on `defense --scale internet --deploy top-degree` (DESIGN
/// § What earned its place): a sixteenth cut its wall by ≈23 %, an eighth
/// gained less. The floor keeps every graph of up to 2¹⁵ entries (the
/// paper preset has 11 778) off the bound, since no pass scans a node's
/// list twice.
fn scan_budget(entries: usize) -> usize {
    (entries / 16).max(1 << 15)
}

/// What the delta pass reads and writes besides its route table. Its
/// methods are the export side of the loop in [`propagate`].
struct PassCtx<'a, P> {
    rules: Rules<'a, P>,
    queue: &'a mut BucketQueue,
    scratch: &'a mut [NodeScratch],
    /// The clean pass the delta pass re-converges from: each node's clean
    /// rank, whose parent field names its clean parent.
    clean: &'a Pass,
    epoch: u32,
    /// The adjacency entries the pass may still scan ([`scan_budget`]).
    budget: usize,
    /// Set when a receiver did not take its clean parent's offer, or when
    /// an export would overrun the budget: the delta attempt is void.
    aborted: bool,
}

impl<P: DefensePolicy> PassCtx<'_, P> {
    /// Offers the attacker-derived route `node` holds — `len` hops — to
    /// every kind of neighbor `row` has a class for, unless scanning
    /// `node`'s adjacency list would overrun the budget, which voids the
    /// attempt instead.
    fn export(&mut self, node: usize, row: [Option<RouteClass>; 4], len: u32) {
        let graph = self.rules.graph;
        let neighbors = graph.neighbors_at(node);
        let Some(budget) = self.budget.checked_sub(neighbors.len()) else {
            self.aborted = true;
            return;
        };
        self.budget = budget;
        let pad = self.rules.pad_of(node);
        for &entry in neighbors {
            let Some(class) = row[entry.rel() as usize] else {
                continue;
            };
            let x = entry.node();
            let len = self.rules.offer_len(pad, len, x);
            self.offer(class, len, node as u32, x);
        }
    }

    /// The push-time filter: drops offers to settled targets, offers the
    /// receiver [refuses](Rules::refuses) and offers that rank below the
    /// receiver's clean route. It then applies the lazy decrease-key (an
    /// offer that does not beat the best one already recorded for its node
    /// is redundant: the node settles on the recorded one) and queues the
    /// node in the offer's bucket. The mutable state it reads lives in the
    /// target's single [`NodeScratch`] entry.
    ///
    /// A dropped offer vanishes as if the export never happened — it neither
    /// queues nor clobbers the lazy decrease-key rank. A receiver that drops
    /// the offer of its own clean parent (the exporter its clean rank
    /// names) voids the attempt.
    #[inline]
    fn offer(&mut self, class: RouteClass, len: u32, parent: u32, node: u32) {
        let s = &mut self.scratch[node as usize];
        if s.adopted_epoch == self.epoch {
            return;
        }
        let offer = PackedRoute::new(class, len, parent, true);
        let rank = offer.rank();
        let clean = self.clean.rank(node as usize);
        if self.rules.refuses(node, class) || clean < rank {
            if clean as u32 == parent {
                self.aborted = true;
            }
            return;
        }
        if s.offer_epoch == self.epoch && s.offer_rank.rank() <= rank {
            counters::incr(Counter::FilterDrop);
            return;
        }
        s.offer_epoch = self.epoch;
        s.offer_rank = offer;
        self.queue.push(class, len, node);
    }
}

/// The delta pass of the module docs — the only function that pops the
/// queue. It starts from a copy of the clean table `clean`, pins the
/// attacker, exports the path it claims and settles the nodes the
/// attacker's offers win one `(class, length)` bucket at a time, each on
/// its best recorded offer, `policy` filtering the offers at their
/// receivers.
///
/// Returns `None` when a receiver did not take its clean parent's offer or
/// the pass outgrew its [`scan_budget`]: the caller must run the full
/// pass. A delta pass that survives is bit-identical to the full pass for
/// the same seed and policy.
pub(super) fn propagate<P: DefensePolicy>(
    graph: &AsGraph,
    spec: &DestinationSpec,
    v_idx: usize,
    ws: &mut RouteWorkspace,
    attack: &AttackSeed,
    clean: &Pass,
    policy: &P,
) -> Option<Pass> {
    ws.begin_pass(graph.len());
    let mut best = clean.clone();
    let mut cx = PassCtx {
        rules: Rules::new(graph, spec, Some(attack), policy),
        queue: &mut ws.queue,
        scratch: &mut ws.scratch[..],
        clean,
        epoch: ws.epoch,
        budget: scan_budget(2 * graph.link_count()),
        aborted: false,
    };

    // The victim keeps its origin route; the attacker pins its clean route
    // and exports the path it claims instead.
    cx.scratch[v_idx].adopted_epoch = cx.epoch;
    best.set(attack.m_idx, Some(attack.pinned));
    cx.scratch[attack.m_idx].adopted_epoch = cx.epoch;
    cx.export(attack.m_idx, attack.export_row(), attack.base_len);
    if cx.aborted {
        return None;
    }

    let mut frontier = 0u64;
    while let Some((class, len, node)) = cx.queue.pop() {
        let node = node as usize;
        let s = cx.scratch[node];
        if s.adopted_epoch == cx.epoch {
            // An earlier entry already settled it.
            continue;
        }
        // Bucket closure: no push reaches an opened bucket, so the recorded
        // offer is the minimum over every offer the node gets, and it is
        // this bucket's — an offer of an earlier bucket settled it there.
        let route = s.offer_rank;
        debug_assert_eq!(
            route.unpack().map(|r| (s.offer_epoch, r.class, r.len)),
            Some((cx.epoch, class, len))
        );
        // Only offers no worse than the clean rank were recorded, so a tie
        // adopts.
        debug_assert!(route.rank() <= cx.clean.rank(node));
        frontier += 1;
        cx.scratch[node].adopted_epoch = cx.epoch;
        best.set_word(node, route);
        // The attacker itself never reaches this point: it was settled
        // above, so its pinned route is never re-exported — only the
        // claimed one is.
        debug_assert_ne!(attack.m_idx, node);
        cx.export(node, export_row(class), len);
        if cx.aborted {
            return None;
        }
    }
    counters::add(Counter::DeltaFrontierNode, frontier);
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::full_pass_divergence;
    use crate::policy::NoDefense;
    use crate::{AttackerModel, RoutingEngine};
    use aspp_topology::gen::{InternetConfig, TIER1_BASE, TIER2_BASE, TIER3_BASE};
    use aspp_types::Asn;

    /// No pass scans a node's list twice, so a graph of at most the floor's
    /// entries never meets the bound: the paper preset keeps every delta
    /// pass it had.
    #[test]
    fn paper_preset_is_below_the_scan_floor() {
        let entries = 2 * InternetConfig::medium().seed(2024).build().link_count();
        assert_eq!(entries, 11_778);
        assert!(entries <= 1 << 15);
        assert_eq!(scan_budget(entries), 1 << 15);
        assert_eq!(scan_budget(1 << 20), 1 << 16);
    }

    /// On a graph above the floor a tier-1 attacker's pass, which pollutes
    /// most of the graph, outgrows its budget and hands its cell to the
    /// full pass (without the budget it survives as a delta pass); a
    /// tier-3 attacker's pass, which pollutes a few of its stub customers,
    /// stays a delta pass.
    #[test]
    fn a_wide_delta_pass_hands_its_cell_to_the_full_pass() {
        let graph = InternetConfig::internet_smoke().seed(2024).build();
        assert!(2 * graph.link_count() > 1 << 15);
        let engine = RoutingEngine::new(&graph);
        let mut ws = RouteWorkspace::new();
        let cell = |attacker| {
            DestinationSpec::new(Asn(TIER2_BASE + 5))
                .origin_padding(3)
                .attacker(AttackerModel::new(Asn(attacker)))
        };

        let wide = engine.compute_with(&cell(TIER1_BASE), &mut ws);
        assert_eq!((ws.delta_passes(), ws.delta_fallbacks()), (0, 1));
        assert!(wide.polluted_count() > graph.len() / 4);
        assert_eq!(full_pass_divergence(&wide, &NoDefense), None);

        let narrow = engine.compute_with(&cell(TIER3_BASE + 1), &mut ws);
        assert_eq!((ws.delta_passes(), ws.delta_fallbacks()), (1, 1));
        assert!(narrow.polluted_count() > 0);
        assert_eq!(full_pass_divergence(&narrow, &NoDefense), None);
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
