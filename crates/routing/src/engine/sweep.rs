//! The engine's one propagation loop: three sweeps over the graph's
//! [`PropagationOrder`] — customers before providers — that visit the
//! positions a pass has marked dirty. The full pass (every clean pass, and
//! the [`crate::audit::full_pass_divergence`] replay) marks every node
//! dirty and starts from an absent table; the delta pass (every attacked
//! pass) starts from a copy of the clean table and marks only what the
//! attack reaches.
//!
//! # Why three sweeps reach the equilibrium
//!
//! A node's route is the best offer it takes among those its neighbors
//! make from their own routes (the victim's origin and the attacker's
//! claimed path aside). Along an export step class never improves and
//! length strictly grows, so that fixpoint is unique, and any schedule that
//! settles each node only once every offer it can take is final computes
//! it. This one does:
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
//! as a whole, once in the climb and once in the descent: every member
//! re-selects from its neighbors outside the component, then a small
//! Dijkstra over the component ([`Sweep::settle`]) passes routes along its
//! inner links, popping them in rank order.
//!
//! # Why the delta pass is exact
//!
//! The delta pass differs from the full pass only in where it starts: the
//! clean table, with only the attacker's neighbors dirty. A node changes
//! only when an offer it hears changes, and an offer changes only when its
//! exporter's route does. So each node whose route changed hands its new
//! offer to its export row when its route is final ([`Sweep::hand`]), and
//! marks each receiver dirty if the receiver takes it — or if the
//! receiver's route came from it and the new offer is worse or gone. Such a
//! receiver is *stale*: its route is withdrawn, and it re-selects from all
//! its neighbors ([`Sweep::pull`]) when the sweep reaches it. A receiver
//! that hears nothing new keeps its clean route: it was the best of the
//! clean offers, and every offer but the changed ones is still made.
//!
//! Each receiver sits where the sweep has yet to settle it: a provider
//! later in the climb, a peer or a customer in the descent, a member of the
//! same component in its re-settling. That is the sweep's own argument —
//! the order is topological over the strongly connected components — so
//! when the sweep reaches a dirty node every route it reads is final, and
//! the node ends on the route the full pass gives it. DESIGN.md § Why the
//! delta pass is exact walks through the cases.
//!
//! Attacker seeding, chain masking, the spec's defense, prepending and the
//! 28-bit length bound are [`Rules`]; the bound panics on an offer
//! only a route final in its phase makes, so both passes panic alike.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use aspp_topology::{AsGraph, PropagationOrder};
use aspp_types::{Relationship, RouteClass};

use super::propagate::{export_row, AttackSeed, Rules};
use super::route::{NodeRoute, PackedRoute, Pass};
use super::spec::DestinationSpec;

/// The full pass for `spec` (victim at node `v_idx`): the clean pass when
/// `attack` is `None`, else the attacked pass it seeds, the spec's defense
/// filtering attacker-derived offers at their receivers. Every node is
/// dirty and the table starts absent.
pub(super) fn full_pass(
    graph: &AsGraph,
    spec: &DestinationSpec,
    v_idx: usize,
    attack: Option<&AttackSeed>,
) -> Pass {
    let mut unread = Marks::default();
    propagate::<false>(graph, spec, v_idx, attack, None, &mut unread).0
}

/// What a delta pass did, for the engine's counters.
pub(super) struct DeltaWork {
    /// Positions of the propagation order it visited.
    pub(super) visited: u64,
    /// Attacker-derived offers its policy refused.
    pub(super) policy_rejects: u64,
}

/// The delta pass: the attacked pass `attack` seeds, starting from the
/// clean table `clean` with only the attacker's neighbors dirty. Returns the
/// table and the work it did. `marks` must be [`reset`](Marks::reset) to
/// the graph's size.
pub(super) fn delta_pass(
    graph: &AsGraph,
    spec: &DestinationSpec,
    v_idx: usize,
    attack: &AttackSeed,
    clean: &Pass,
    marks: &mut Marks,
) -> (Pass, DeltaWork) {
    propagate::<true>(graph, spec, v_idx, Some(attack), Some(clean), marks)
}

/// The propagation loop: seeds the victim and the attacker, then climbs
/// and descends over the dirty positions of `marks`, from `base` (the
/// clean table) or from an absent table. `SPARSE` is false for the full
/// pass: every position is dirty and no node is ever stale (no node holds
/// a route from an exporter before that exporter offers), so the loop
/// reads no marks and that bookkeeping compiles out.
fn propagate<const SPARSE: bool>(
    graph: &AsGraph,
    spec: &DestinationSpec,
    v_idx: usize,
    attack: Option<&AttackSeed>,
    base: Option<&Pass>,
    marks: &mut Marks,
) -> (Pass, DeltaWork) {
    let mut sweep = Sweep::<SPARSE> {
        rules: Rules::new(graph, spec, attack),
        order: graph.propagation_order(),
        best: base.map_or_else(|| Pass::absent(graph.len()), Pass::clone),
        base,
        victim: v_idx as u32,
        pinned: attack.map_or(u32::MAX, |a| a.m_idx as u32),
        claim: attack.map_or(([None; 4], 0), |a| (a.export_row(), a.base_len)),
        marks,
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
        let m = att.m_idx as u32;
        for &entry in graph.neighbors_at(att.m_idx) {
            let offer = sweep.claim_to(entry.node(), entry.rel());
            sweep.hand(entry.node(), offer, m);
        }
    }
    sweep.climb();
    let work = DeltaWork {
        visited: sweep.descend(),
        policy_rejects: sweep.rules.policy_rejects,
    };
    (sweep.best, work)
}

/// The positions of the propagation order a pass visits (`dirty`), and
/// those whose node re-selects from scratch when visited (`stale`), one bit
/// per position.
#[derive(Debug, Default)]
pub(super) struct Marks {
    dirty: Vec<u64>,
    stale: Vec<u64>,
}

impl Marks {
    /// Clears every mark and sizes both sets for `n` positions, keeping
    /// their allocations.
    pub(super) fn reset(&mut self, n: usize) {
        for bits in [&mut self.dirty, &mut self.stale] {
            bits.clear();
            bits.resize(n.div_ceil(64), 0);
        }
    }

    /// The first dirty position in `from..end`.
    fn next_dirty(&self, from: usize, end: usize) -> Option<usize> {
        if from >= end {
            return None;
        }
        let mut w = from / 64;
        let mut word = self.dirty[w] & (!0 << (from % 64));
        while word == 0 {
            w += 1;
            if w * 64 >= end {
                return None;
            }
            word = self.dirty[w];
        }
        let k = w * 64 + word.trailing_zeros() as usize;
        (k < end).then_some(k)
    }

    /// The last dirty position in `start..end`.
    fn prev_dirty(&self, start: usize, end: usize) -> Option<usize> {
        if start >= end {
            return None;
        }
        let last = end - 1;
        let mut w = last / 64;
        let mut word = self.dirty[w] & (!0 >> (63 - last % 64));
        while word == 0 {
            if w * 64 <= start {
                return None;
            }
            w -= 1;
            word = self.dirty[w];
        }
        let k = w * 64 + 63 - word.leading_zeros() as usize;
        (k >= start).then_some(k)
    }
}

/// The positions of every component of `order` of more than one node,
/// ascending, between an empty range at either end: each sweep handles
/// the positions between two neighboring ranges, then the range.
fn components(order: &PropagationOrder) -> impl DoubleEndedIterator<Item = Range<usize>> + '_ {
    let n = order.nodes().len();
    let cycles = order
        .cycles()
        .iter()
        .map(|r| r.start as usize..r.end as usize);
    std::iter::once(0..0)
        .chain(cycles)
        .chain(std::iter::once(n..n))
}

fn set(bits: &mut [u64], k: usize) {
    bits[k / 64] |= 1 << (k % 64);
}

fn is_set(bits: &[u64], k: usize) -> bool {
    bits[k / 64] >> (k % 64) & 1 == 1
}

fn unset(bits: &mut [u64], k: usize) {
    bits[k / 64] &= !(1 << (k % 64));
}

/// One pass in progress; `SPARSE` as in [`propagate`].
struct Sweep<'a, const SPARSE: bool> {
    rules: Rules<'a>,
    order: &'a PropagationOrder,
    /// Each node's best offer so far, final once the sweep has settled it.
    best: Pass,
    /// The table the pass started from (`None`: absent): a node whose route
    /// still equals its base route makes the offers it made there.
    base: Option<&'a Pass>,
    victim: u32,
    /// The attacker's node, whose route is pinned (`u32::MAX` for none).
    pinned: u32,
    /// What the attacker claims: its export row and the claimed length.
    claim: ([Option<RouteClass>; 4], u32),
    marks: &'a mut Marks,
    /// [`settle`](Self::settle)'s queue, `(rank, node)`.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl<const SPARSE: bool> Sweep<'_, SPARSE> {
    /// The route node `x` held in the base table.
    #[inline]
    fn base_word(&self, x: u32) -> PackedRoute {
        match self.base {
            Some(base) if SPARSE => base.word(x as usize),
            _ => PackedRoute::ABSENT,
        }
    }

    /// The first dirty position in `from..end`.
    #[inline]
    fn next_dirty(&self, from: usize, end: usize) -> Option<usize> {
        if SPARSE {
            self.marks.next_dirty(from, end)
        } else {
            (from < end).then_some(from)
        }
    }

    /// The last dirty position in `start..end`.
    #[inline]
    fn prev_dirty(&self, start: usize, end: usize) -> Option<usize> {
        if SPARSE {
            self.marks.prev_dirty(start, end)
        } else {
            end.checked_sub(1).filter(|&k| k >= start)
        }
    }

    /// Whether the node at position `k` is stale.
    #[inline]
    fn is_stale(&self, k: usize) -> bool {
        SPARSE && is_set(&self.marks.stale, k)
    }

    /// The attacker's claimed route as offered to its neighbor `y`, which
    /// is its `rel`; absent where its export row forbids it.
    fn claim_to(&self, y: u32, rel: Relationship) -> PackedRoute {
        let Some(class) = self.claim.0[rel as usize] else {
            return PackedRoute::ABSENT;
        };
        let pad = self.rules.pad_of(self.pinned as usize);
        let len = self.rules.offer_len(pad, self.claim.1, y);
        PackedRoute::new(class, len, self.pinned, true)
    }

    /// Whether node `y` takes the present offer `word`: only
    /// attacker-derived offers are ever refused.
    #[inline]
    fn takes(&mut self, y: u32, word: PackedRoute) -> bool {
        !word.via_attacker() || !self.rules.refuses(y, word.class())
    }

    /// Records `word` at `node` when it ranks before the node's best so far
    /// and the node takes it; returns whether it did. The victim's origin
    /// outranks every offer, and the attacker's pinned route takes none.
    #[inline]
    fn offer(&mut self, node: u32, word: PackedRoute) -> bool {
        if word.rank() >= self.best.rank(node as usize) || node == self.pinned {
            return false;
        }
        if !self.takes(node, word) {
            return false;
        }
        self.best.set_word(node as usize, word);
        true
    }

    /// Node `x`, whose route is final and differs from its base route, now
    /// offers `word` (absent: nothing) to its neighbor `y`. `y` takes a
    /// better offer. If `y`'s route came from `x`, it takes the new offer
    /// when it is no worse; otherwise its route is withdrawn and it is
    /// marked stale, to re-select when the sweep reaches it. A receiver
    /// whose route changed is marked dirty.
    #[inline]
    fn hand(&mut self, y: u32, word: PackedRoute, x: u32) {
        let route = self.best.word(y as usize);
        if self.offer(y, word) {
            if SPARSE {
                set(&mut self.marks.dirty, self.order.position(y as usize));
            }
        } else if SPARSE && route.learned_from(x) && word != route && y != self.pinned {
            self.replace(y, word, route);
        }
    }

    /// `y`'s route `route` came from a node that now offers it `word`, no
    /// better: `y` takes it if it is the same route but for its via bit,
    /// and is marked stale otherwise.
    #[cold]
    fn replace(&mut self, y: u32, word: PackedRoute, route: PackedRoute) {
        let k = self.order.position(y as usize);
        if word.rank() == route.rank() && self.takes(y, word) {
            self.best.set_word(y as usize, word);
        } else {
            self.best.set_word(y as usize, PackedRoute::ABSENT);
            set(&mut self.marks.stale, k);
        }
        set(&mut self.marks.dirty, k);
    }

    /// Node `x` re-selects: its route becomes the best offer it takes among
    /// those its neighbors outside `members` make from their current routes
    /// (the attacker: from the path it claims), of class `FromCustomer` when
    /// `up`, of the other classes otherwise. The sweep calls it where those
    /// routes are final.
    fn pull(&mut self, x: u32, members: &[u32], up: bool) {
        let graph = self.rules.graph;
        let mut best = PackedRoute::ABSENT;
        for &entry in graph.neighbors_at(x as usize) {
            let z = entry.node();
            let to_x = entry.rel().reverse() as usize;
            let (class, len, via) = if z == self.pinned {
                (self.claim.0[to_x], self.claim.1, true)
            } else {
                let route = self.best.word(z as usize);
                if !route.is_present() || members.binary_search(&z).is_ok() {
                    continue;
                }
                let row = export_row(route.class());
                (row[to_x], route.length(), route.via_attacker())
            };
            let Some(class) = class.filter(|&c| (c == RouteClass::FromCustomer) == up) else {
                continue;
            };
            let len = self.rules.offer_len(self.rules.pad_of(z as usize), len, x);
            let offer = PackedRoute::new(class, len, z, via);
            if offer.rank() < best.rank() && self.takes(x, offer) {
                best = offer;
            }
        }
        self.best.set_word(x as usize, best);
    }

    /// Whether a member of a component re-selects when it settles: every
    /// node but the victim and the attacker, whose routes are fixed.
    #[inline]
    fn reselects(&self, x: u32) -> bool {
        x != self.victim && x != self.pinned
    }

    /// Sweeps 1 and 2, over the dirty positions in rank order: a stale node
    /// re-selects its customer route, a component re-settles its customer
    /// routes, and each node whose customer route changed offers it to its
    /// providers and peers.
    fn climb(&mut self) {
        let order = self.order;
        let mut from = 0;
        for cycle in components(order) {
            while let Some(k) = self.next_dirty(from, cycle.start) {
                let x = order.nodes()[k];
                if self.is_stale(k) {
                    self.pull(x, &[], true);
                    if self.best.word(x as usize).climbs() {
                        unset(&mut self.marks.stale, k);
                    }
                }
                self.push_up(x);
                from = k + 1;
            }
            if self.next_dirty(cycle.start, cycle.end).is_some() {
                let members = &order.nodes()[cycle.clone()];
                for &x in members {
                    if self.reselects(x) {
                        self.pull(x, members, true);
                    }
                }
                self.settle(members, RouteClass::FromCustomer);
                for &x in members {
                    self.push_up(x);
                }
            }
            from = cycle.end;
        }
    }

    /// Node `x` offers its origin or customer route, if it holds one and it
    /// differs from its base one, to its providers (as a customer route)
    /// and its peers (as a peer route).
    #[inline]
    fn push_up(&mut self, x: u32) {
        let route = self.best.word(x as usize).climbing();
        if route == self.base_word(x).climbing() || x == self.pinned {
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
            let offer = if route.is_present() {
                let len = self.rules.offer_len(pad, route.length(), y);
                PackedRoute::new(class, len, x, via)
            } else {
                PackedRoute::ABSENT
            };
            self.hand(y, offer, x);
        }
    }

    /// Sweep 3, over the dirty positions in reverse rank order: a stale
    /// node re-selects its peer or provider route, a component re-settles
    /// its peer and provider routes, and each node whose route changed
    /// offers it to its customers. Returns how many positions it visited.
    fn descend(&mut self) -> u64 {
        let order = self.order;
        let (mut end, mut visited) = (order.nodes().len(), 0);
        for cycle in components(order).rev() {
            while let Some(k) = self.prev_dirty(cycle.end, end) {
                if self.is_stale(k) {
                    self.pull(order.nodes()[k], &[], false);
                }
                self.push_down(k);
                visited += 1;
                end = k;
            }
            if self.prev_dirty(cycle.start, cycle.end).is_some() {
                let members = &order.nodes()[cycle.clone()];
                for &x in members {
                    if self.reselects(x) && !self.best.word(x as usize).climbs() {
                        self.pull(x, members, false);
                    }
                }
                self.settle(members, RouteClass::FromPeer);
                self.settle(members, RouteClass::FromProvider);
                for k in cycle.clone().rev() {
                    self.push_down(k);
                }
                visited += cycle.len() as u64;
            }
            end = cycle.start;
        }
        visited
    }

    /// The node at position `k` offers its route, if it differs from its
    /// base one, to each of its customers.
    #[inline]
    fn push_down(&mut self, k: usize) {
        let order = self.order;
        let customers = order.customers_at(k);
        let x = order.nodes()[k];
        let route = self.best.word(x as usize);
        if customers.is_empty() || route == self.base_word(x) || x == self.pinned {
            return;
        }
        if !route.is_present() {
            for &y in customers {
                self.hand(y, PackedRoute::ABSENT, x);
            }
            return;
        }
        let via = route.via_attacker();
        let Some(pad) = self.rules.pad_of(x as usize) else {
            // No padding: one offer for every customer.
            let len = self.rules.offer_len(None, route.length(), customers[0]);
            let offer = PackedRoute::new(RouteClass::FromProvider, len, x, via);
            for &y in customers {
                self.hand(y, offer, x);
            }
            return;
        };
        for &y in customers {
            let len = self.rules.offer_len(Some(pad), route.length(), y);
            self.hand(
                y,
                PackedRoute::new(RouteClass::FromProvider, len, x, via),
                x,
            );
        }
    }

    /// The local fixpoint of one component (`members`, sorted) for the
    /// routes of class `class`: every member's route is popped in rank order
    /// and offered over each link inside the component whose export row
    /// yields `class`. A popped route is final — every offer ranks after its
    /// exporter's route — so a member settles on the best offer it takes.
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
