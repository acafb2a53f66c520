//! The full pass: every clean pass, every fallback from an aborted delta
//! attempt, and the [`crate::audit::full_pass_divergence`] replay, computed
//! in three linear sweeps over the graph's
//! [`PropagationOrder`] — customers before
//! providers — instead of through the bucket queue.
//!
//! # Why three sweeps reach the queue's equilibrium
//!
//! A node's route is the best offer it takes among those its neighbors
//! make from their own routes (the victim's origin and the attacker's
//! claimed path aside). Along an export step class never improves and
//! length strictly grows, so that fixpoint is unique: the routes of one
//! `(class, length)` bucket depend only on the buckets before it. Any
//! schedule that offers each node's route only once it is final, and reads
//! a node only once every offer it can take has been made, computes it —
//! the bucket queue is one such schedule, and so is this:
//!
//! 1. **Climb.** Origin and customer routes travel only customer→provider
//!    and sibling links, so in customer-cone rank a node comes after all of
//!    its customers: its origin or customer route is final when the sweep
//!    reaches it, and it offers that route to its providers.
//! 2. **Peer hop.** A peer route is one hop from an origin or customer
//!    route, so the climb makes it on the way: each node it passes offers
//!    its final route to its peers as well.
//! 3. **Descend.** Every route goes down to customers, so in reverse rank
//!    each node offers its final route to its customers.
//!
//! Provider loops and sibling links put nodes that feed each other in one
//! strongly connected component of the climb. Each such component settles
//! the class a sweep decides by a local fixpoint ([`Sweep::settle`]): a
//! small Dijkstra over the component, whose pops run in rank order like the
//! queue's buckets. Attacker seeding, chain masking, the [`DefensePolicy`]
//! hook, prepending and the 28-bit length bound are those of the delta pass
//! ([`Rules`]); every `(exporter, neighbor)` pair an export row names is
//! offered once, so the length bound panics exactly where the queue's did.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use aspp_topology::{AsGraph, PropagationOrder};
use aspp_types::{Relationship, RouteClass};

use super::propagate::{export_row, AttackSeed, Rules};
use super::route::{NodeRoute, PackedRoute, Pass};
use super::spec::DestinationSpec;
use crate::policy::DefensePolicy;

/// The full pass for `spec` (victim at node `v_idx`): the clean pass when
/// `attack` is `None`, else the attacked pass it seeds, `policy` filtering
/// attacker-derived offers at their receivers.
pub(super) fn full_pass<P: DefensePolicy>(
    graph: &AsGraph,
    spec: &DestinationSpec,
    v_idx: usize,
    attack: Option<&AttackSeed>,
    policy: &P,
) -> Pass {
    let mut sweep = Sweep {
        rules: Rules::new(graph, spec, attack, policy),
        order: graph.propagation_order(),
        best: Pass::absent(graph.len()),
        pinned: attack.map_or(u32::MAX, |a| a.m_idx as u32),
        heap: BinaryHeap::new(),
    };
    let origin = NodeRoute {
        class: RouteClass::Origin,
        len: 0,
        parent: None,
        via_attacker: false,
    };
    sweep.best.set(v_idx, Some(origin));
    if let Some(att) = attack {
        // The attacker keeps its clean route and exports the path it claims
        // instead.
        sweep.best.set(att.m_idx, Some(att.pinned));
        let row = att.export_row();
        let pad = sweep.rules.pad_of(att.m_idx);
        for &entry in graph.neighbors_at(att.m_idx) {
            if let Some(class) = row[entry.rel() as usize] {
                let x = entry.node();
                let len = sweep.rules.offer_len(pad, att.base_len, x);
                sweep.offer(x, PackedRoute::new(class, len, att.m_idx as u32, true));
            }
        }
    }
    sweep.climb();
    sweep.descend();
    sweep.best
}

/// One full pass in progress.
struct Sweep<'a, P> {
    rules: Rules<'a, P>,
    order: &'a PropagationOrder,
    /// Each node's best offer so far, final once the sweep has passed it.
    best: Pass,
    /// The attacker's node, whose route is pinned (`u32::MAX` for none).
    pinned: u32,
    /// [`settle`](Self::settle)'s queue, `(rank, node)`.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl<P: DefensePolicy> Sweep<'_, P> {
    /// Records `word` at `node` when it ranks before the node's best so far
    /// and the node takes it; returns whether it did. The victim's origin
    /// outranks every offer, and the attacker's pinned route takes none.
    #[inline]
    fn offer(&mut self, node: u32, word: PackedRoute) -> bool {
        if word.rank() >= self.best.rank(node as usize) || node == self.pinned {
            return false;
        }
        if word.via_attacker() && self.rules.refuses(node, word.class()) {
            return false;
        }
        self.best.set_word(node as usize, word);
        true
    }

    /// Sweeps 1 and 2: in rank order, each node offers its origin or
    /// customer route — final, since its customers went before it — to its
    /// providers and its peers; a cycle first settles customer routes
    /// inside. Peer routes then pass among siblings once every peer hop is
    /// made.
    fn climb(&mut self) {
        let order = self.order;
        let mut pos = 0;
        for cycle in order.cycles() {
            let (start, end) = (cycle.start as usize, cycle.end as usize);
            for &x in &order.nodes()[pos..start] {
                self.push_up(x);
            }
            let members = &order.nodes()[start..end];
            self.settle(members, RouteClass::FromCustomer);
            for &x in members {
                self.push_up(x);
            }
            pos = end;
        }
        for &x in &order.nodes()[pos..] {
            self.push_up(x);
        }
        for cycle in order.cycles() {
            let members = &order.nodes()[cycle.start as usize..cycle.end as usize];
            self.settle(members, RouteClass::FromPeer);
        }
    }

    /// Node `x` offers its origin or customer route, if it holds one, to
    /// its providers (as a customer route) and its peers (as a peer route).
    #[inline]
    fn push_up(&mut self, x: u32) {
        let route = self.best.word(x as usize);
        if !route.climbs() || x == self.pinned {
            return;
        }
        let pad = self.rules.pad_of(x as usize);
        let via = route.via_attacker();
        for &entry in self.rules.graph.neighbors_at(x as usize) {
            let class = match entry.rel() {
                Relationship::Provider => RouteClass::FromCustomer,
                Relationship::Peer => RouteClass::FromPeer,
                _ => continue,
            };
            let y = entry.node();
            let len = self.rules.offer_len(pad, route.length(), y);
            self.offer(y, PackedRoute::new(class, len, x, via));
        }
    }

    /// Sweep 3: in reverse rank order, each node offers its route to its
    /// customers; a cycle first settles provider routes inside.
    fn descend(&mut self) {
        let order = self.order;
        let mut end = order.nodes().len();
        for cycle in order.cycles().iter().rev() {
            let (start, stop) = (cycle.start as usize, cycle.end as usize);
            for k in (stop..end).rev() {
                self.push_down(k);
            }
            self.settle(&order.nodes()[start..stop], RouteClass::FromProvider);
            for k in (start..stop).rev() {
                self.push_down(k);
            }
            end = start;
        }
        for k in (0..end).rev() {
            self.push_down(k);
        }
    }

    /// The node at position `k` offers its route to each of its customers.
    #[inline]
    fn push_down(&mut self, k: usize) {
        let order = self.order;
        let customers = order.customers_at(k);
        let x = order.nodes()[k];
        let route = self.best.word(x as usize);
        if customers.is_empty() || !route.is_present() || x == self.pinned {
            return;
        }
        let via = route.via_attacker();
        let Some(pad) = self.rules.pad_of(x as usize) else {
            // No padding: one offer for every customer.
            let len = self.rules.offer_len(None, route.length(), customers[0]);
            let offer = PackedRoute::new(RouteClass::FromProvider, len, x, via);
            for &y in customers {
                self.offer(y, offer);
            }
            return;
        };
        for &y in customers {
            let len = self.rules.offer_len(Some(pad), route.length(), y);
            self.offer(y, PackedRoute::new(RouteClass::FromProvider, len, x, via));
        }
    }

    /// The local fixpoint of one cycle (`members`, sorted) for the routes
    /// of class `class`: every member's route is popped in rank order and
    /// offered over each link inside the cycle whose export row yields
    /// `class`. A popped route is final — every offer ranks after its
    /// exporter's route — so a member settles on the best offer it takes,
    /// as under the bucket queue.
    fn settle(&mut self, members: &[u32], class: RouteClass) {
        let graph = self.rules.graph;
        self.heap.clear();
        for &x in members {
            let route = self.best.word(x as usize);
            if route.is_present() && x != self.pinned {
                self.heap.push(Reverse((route.rank(), x)));
            }
        }
        while let Some(Reverse((rank, x))) = self.heap.pop() {
            let route = self.best.word(x as usize);
            if route.rank() != rank {
                // Superseded by a better offer, popped already.
                continue;
            }
            let row = export_row(route.class());
            let pad = self.rules.pad_of(x as usize);
            for &entry in graph.neighbors_at(x as usize) {
                let y = entry.node();
                if row[entry.rel() as usize] != Some(class) || members.binary_search(&y).is_err() {
                    continue;
                }
                let len = self.rules.offer_len(pad, route.length(), y);
                let offer = PackedRoute::new(class, len, x, route.via_attacker());
                if self.offer(y, offer) {
                    self.heap.push(Reverse((offer.rank(), y)));
                }
            }
        }
    }
}
