//! The propagation order of a frozen [`AsGraph`]: its nodes ranked so that
//! every customer comes before its providers, plus each node's customers
//! laid out in that order.
//!
//! Routes learned from customers only climb customer→provider and sibling
//! links, and every other route only descends them, so one sweep up this
//! order and one down it visit every node after everything it can learn a
//! route from in that direction. Provider loops and sibling links make the
//! climb cyclic; their strongly connected components sit in the order as
//! contiguous runs ([`cycles`](PropagationOrder::cycles)), which a sweep
//! settles by a local fixpoint.

use std::ops::Range;

use aspp_types::Relationship;

use crate::AsGraph;

/// A graph's nodes in customer-cone rank: the strongly connected components
/// of the customer→provider and sibling links, topologically sorted with
/// customers first, each node's position in that order, and each node's
/// customers indexed by its position.
///
/// Built once per graph, on first use, by
/// [`AsGraph::propagation_order`]. The components of more than one node
/// keep their members in ascending node index.
///
/// # Example
///
/// ```
/// use aspp_topology::AsGraphBuilder;
/// use aspp_types::Asn;
///
/// let mut b = AsGraphBuilder::new();
/// b.add_provider_customer(Asn(1), Asn(2)).unwrap(); // AS1 provides AS2
/// b.add_provider_customer(Asn(2), Asn(3)).unwrap(); // AS2 provides AS3
/// let g = b.finish();
/// let order = g.propagation_order();
/// assert_eq!(order.nodes(), &[2, 1, 0]);
/// assert_eq!(order.position(0), 2);
/// assert_eq!(order.customers_at(1), &[2]);
/// assert!(order.cycles().is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct PropagationOrder {
    /// Node indices, every customer before its providers.
    nodes: Vec<u32>,
    /// `positions[v]`: where node `v` sits in `nodes`.
    positions: Vec<u32>,
    /// `offsets[k]..offsets[k + 1]` brackets the customers of `nodes[k]`.
    offsets: Vec<u32>,
    /// Customer node indices, grouped by the position of their provider.
    customers: Vec<u32>,
    /// Positions of the components of more than one node, ascending.
    cycles: Vec<Range<u32>>,
}

impl PropagationOrder {
    /// Ranks `graph`'s nodes by an iterative Tarjan search over the
    /// provider→customer and sibling links, indexing each node's customers
    /// by its position as it goes.
    ///
    /// The search closes a component only after every component its members
    /// reach downhill, so the components come out customers first. It
    /// starts from the nodes in descending index: where indices already
    /// rank customers after their providers — in every generated internet,
    /// whose generator numbers the ASes tier by tier — each node's customers
    /// are closed before the search reaches it, so the search never goes
    /// deep, walks the adjacency in memory order, and the order is
    /// descending index.
    pub(crate) fn build(graph: &AsGraph) -> Self {
        const UNSEEN: u32 = u32::MAX;
        const CLOSED: u32 = u32::MAX - 1;
        let n = graph.len();
        let downhill = |rel| matches!(rel, Relationship::Customer | Relationship::Sibling);
        // `index[v]`: discovery number while `v` is open, then `CLOSED`.
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        let mut open: Vec<u32> = Vec::new();
        let mut calls: Vec<(u32, u32)> = Vec::new();
        let mut nodes = Vec::with_capacity(n);
        let mut cycles = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut customers = Vec::new();
        offsets.push(0);
        let mut discovered = 0;
        for root in (0..n as u32).rev() {
            if index[root as usize] != UNSEEN {
                continue;
            }
            index[root as usize] = discovered;
            low[root as usize] = discovered;
            discovered += 1;
            open.push(root);
            calls.push((root, 0));
            while let Some(&mut (v, ref mut cursor)) = calls.last_mut() {
                let list = graph.neighbors_at(v as usize);
                let next = list[*cursor as usize..]
                    .iter()
                    .position(|e| downhill(e.rel()));
                if let Some(skip) = next {
                    let w = list[*cursor as usize + skip].node();
                    *cursor += skip as u32 + 1;
                    match index[w as usize] {
                        UNSEEN => {
                            index[w as usize] = discovered;
                            low[w as usize] = discovered;
                            discovered += 1;
                            open.push(w);
                            calls.push((w, 0));
                        }
                        CLOSED => {}
                        seen => low[v as usize] = low[v as usize].min(seen),
                    }
                    continue;
                }
                calls.pop();
                if let Some(&(parent, _)) = calls.last() {
                    low[parent as usize] = low[parent as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    let at = open.iter().rposition(|&w| w == v).expect("v is open");
                    let start = nodes.len();
                    nodes.extend(open.drain(at..));
                    for &w in &nodes[start..] {
                        index[w as usize] = CLOSED;
                    }
                    if nodes.len() - start > 1 {
                        nodes[start..].sort_unstable();
                        cycles.push(start as u32..nodes.len() as u32);
                    }
                    // Index the closed nodes' customers while their lists
                    // are still in cache.
                    for &w in &nodes[start..] {
                        let list = graph.neighbors_at(w as usize);
                        customers.extend(
                            list.iter()
                                .filter(|e| e.rel() == Relationship::Customer)
                                .map(|e| e.node()),
                        );
                        offsets
                            .push(u32::try_from(customers.len()).expect("customer count fits u32"));
                    }
                }
            }
        }
        let mut positions = vec![0; n];
        for (k, &v) in nodes.iter().enumerate() {
            positions[v as usize] = k as u32;
        }
        PropagationOrder {
            nodes,
            positions,
            offsets,
            customers,
            cycles,
        }
    }

    /// Every node index, each customer before its providers.
    #[inline]
    #[must_use]
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// The position of node `node` in [`nodes`](Self::nodes).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of the graph.
    #[inline]
    #[must_use]
    pub fn position(&self, node: usize) -> usize {
        self.positions[node] as usize
    }

    /// The customers of the node at position `pos` of
    /// [`nodes`](Self::nodes), in ascending node index.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.nodes().len()`.
    #[inline]
    #[must_use]
    pub fn customers_at(&self, pos: usize) -> &[u32] {
        &self.customers[self.offsets[pos] as usize..self.offsets[pos + 1] as usize]
    }

    /// The positions of every strongly connected component of more than one
    /// node — a provider loop, or ASes joined by sibling links — in
    /// ascending order. Each run of [`nodes`](Self::nodes) holds its members
    /// in ascending node index.
    #[must_use]
    pub fn cycles(&self) -> &[Range<u32>] {
        &self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::InternetConfig;
    use crate::AsGraphBuilder;
    use aspp_types::Asn;
    use proptest::prelude::*;

    /// Checks the order's contract on `g`: a permutation of the nodes,
    /// every customer→provider and sibling link pointing forward or inside
    /// one listed component, components internally sorted and strongly
    /// connected, and the customer index equal to the CSR's customers.
    fn check(g: &AsGraph) {
        let order = g.propagation_order();
        let n = g.len();
        let mut pos = vec![usize::MAX; n];
        for (k, &v) in order.nodes().iter().enumerate() {
            assert_eq!(pos[v as usize], usize::MAX, "node {v} listed twice");
            pos[v as usize] = k;
        }
        assert!(pos.iter().all(|&k| k < n), "every node listed");
        assert!((0..n).all(|v| order.position(v) == pos[v]));
        let mut component: Vec<usize> = (0..n).collect();
        for (c, range) in order.cycles().iter().enumerate() {
            let members = &order.nodes()[range.start as usize..range.end as usize];
            assert!(members.len() > 1);
            assert!(members.windows(2).all(|w| w[0] < w[1]));
            component[range.start as usize..range.end as usize].fill(n + c);
        }
        assert!(order.cycles().windows(2).all(|w| w[0].end <= w[1].start));
        for v in 0..n {
            for e in g.neighbors_at(v) {
                let (from, to) = (pos[v], pos[e.node() as usize]);
                match e.rel() {
                    Relationship::Provider | Relationship::Sibling => assert!(
                        from < to || component[from] == component[to],
                        "uphill link {v}->{} runs backward",
                        e.node()
                    ),
                    _ => {}
                }
            }
            let customers: Vec<u32> = g
                .neighbors_at(v)
                .iter()
                .filter(|e| e.rel() == Relationship::Customer)
                .map(|e| e.node())
                .collect();
            assert_eq!(order.customers_at(pos[v]), &customers[..]);
        }
        // A listed component is strongly connected: every member reaches
        // every other over uphill links inside it.
        for range in order.cycles() {
            let members = &order.nodes()[range.start as usize..range.end as usize];
            let mut reached = vec![members[0]];
            let mut frontier = vec![members[0]];
            while let Some(v) = frontier.pop() {
                for e in g.neighbors_at(v as usize) {
                    let w = e.node();
                    let uphill = matches!(e.rel(), Relationship::Provider | Relationship::Sibling);
                    if uphill && members.binary_search(&w).is_ok() && !reached.contains(&w) {
                        reached.push(w);
                        frontier.push(w);
                    }
                }
            }
            assert_eq!(reached.len(), members.len(), "component {members:?} splits");
        }
    }

    #[test]
    fn preset_internets_are_acyclic() {
        for seed in [1, 7] {
            let g = InternetConfig::small().seed(seed).build();
            check(&g);
            assert!(g.propagation_order().cycles().is_empty());
        }
        check(&AsGraph::default());
    }

    #[test]
    fn siblings_and_provider_loops_form_components() {
        let mut b = AsGraphBuilder::new();
        // A provider loop 1 → 2 → 3 → 1 above stub 4, and siblings 5 ~ 6
        // under 1.
        b.add_provider_customer(Asn(1), Asn(2)).unwrap();
        b.add_provider_customer(Asn(2), Asn(3)).unwrap();
        b.add_provider_customer(Asn(3), Asn(1)).unwrap();
        b.add_provider_customer(Asn(3), Asn(4)).unwrap();
        b.add_sibling(Asn(5), Asn(6)).unwrap();
        b.add_provider_customer(Asn(1), Asn(5)).unwrap();
        b.add_peering(Asn(4), Asn(6)).unwrap();
        let g = b.finish();
        check(&g);
        let order = g.propagation_order();
        let runs: Vec<Vec<u32>> = order
            .cycles()
            .iter()
            .map(|r| order.nodes()[r.start as usize..r.end as usize].to_vec())
            .collect();
        assert_eq!(runs, vec![vec![4, 5], vec![0, 1, 2]]);
    }

    proptest! {
        /// Arbitrary link soups, provider loops and siblings included.
        #[test]
        fn order_ranks_customers_first_on_any_graph(
            links in proptest::collection::vec((1u32..25, 1u32..25, 0usize..4), 0..60),
        ) {
            let mut b = AsGraphBuilder::new();
            for (x, y, rel) in links {
                let _ = b.add_link(Asn(x), Asn(y), Relationship::ALL[rel]);
            }
            check(&b.finish());
        }
    }
}
