//! The annotated AS-level graph.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use aspp_types::{Asn, Relationship};

/// An AS-level topology: an undirected graph whose edges are annotated with
/// business relationships (customer-provider, peer-peer, sibling).
///
/// Nodes are addressed either by [`Asn`] (public API) or by dense `usize`
/// indices (hot paths in the routing engine). Indices are assigned in
/// insertion order and are stable for the life of the graph.
///
/// # Example
///
/// ```
/// use aspp_topology::AsGraph;
/// use aspp_types::{Asn, Relationship};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = AsGraph::new();
/// g.add_provider_customer(Asn(3356), Asn(32934))?; // Level3 provides Facebook
/// g.add_peering(Asn(3356), Asn(7018))?;            // Level3 peers with AT&T
///
/// assert_eq!(g.relationship(Asn(3356), Asn(32934)), Some(Relationship::Customer));
/// assert_eq!(g.relationship(Asn(32934), Asn(3356)), Some(Relationship::Provider));
/// assert_eq!(g.degree(Asn(3356)), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct AsGraph {
    index: HashMap<Asn, usize>,
    nodes: Vec<Node>,
    /// Lazily-built CSR adjacency snapshot; reset by every mutation.
    csr: OnceLock<CsrIndex>,
    /// Bumped by every mutation; lets long-lived caches (e.g. the routing
    /// engine's clean-pass cache) detect that a graph changed under them.
    version: u64,
}

/// One packed CSR adjacency entry: the neighbor's dense node index in the
/// upper 30 bits and its [`Relationship`] (as seen from the owning node) in
/// the low 2. Packing both into a single `u32` halves the entry footprint
/// again versus `(u32, Relationship)` — at Internet scale (~1M directed
/// entries) the whole adjacency array stays within a few MB of contiguous,
/// branch-predictable memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(transparent)]
pub struct CsrEntry(u32);

impl CsrEntry {
    /// Discriminant-indexed decode table; `Relationship` has exactly four
    /// variants, so the low 2 bits round-trip losslessly.
    const REL: [Relationship; 4] = [
        Relationship::Customer,
        Relationship::Peer,
        Relationship::Provider,
        Relationship::Sibling,
    ];

    #[inline]
    fn pack(node: u32, rel: Relationship) -> Self {
        debug_assert!(node < (1 << 30), "node index must fit 30 bits");
        CsrEntry((node << 2) | rel as u32)
    }

    /// The neighbor's dense node index.
    #[inline]
    #[must_use]
    pub fn node(self) -> u32 {
        self.0 >> 2
    }

    /// The neighbor's relationship as seen from the owning node.
    #[inline]
    #[must_use]
    pub fn rel(self) -> Relationship {
        Self::REL[(self.0 & 3) as usize]
    }
}

/// A compressed-sparse-row snapshot of the adjacency lists: one contiguous
/// entry array plus per-node offsets. Route computation iterates millions of
/// neighbor lists per experiment; the CSR keeps them in one cache-friendly
/// allocation of packed [`CsrEntry`] words, plus a flat `Asn`-by-index table
/// so hot loops never touch the node structs (32-byte stride) or the
/// `Asn → index` hash map.
///
/// Obtained from [`AsGraph::csr`]; rebuilt lazily after any mutation.
#[derive(Clone, Debug, Default)]
pub struct CsrIndex {
    /// `offsets[i]..offsets[i + 1]` brackets node `i`'s entries.
    offsets: Vec<u32>,
    /// Packed `(neighbor index, relationship)` entries.
    entries: Vec<CsrEntry>,
    /// ASN of every dense index — the boundary-free reverse mapping.
    asn_of: Vec<Asn>,
}

impl CsrIndex {
    /// Neighbor entries of the node at dense index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, idx: usize) -> &[CsrEntry] {
        &self.entries[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }

    /// The ASN at dense index `idx`, from the snapshot's flat table (a
    /// 4-byte-stride array read, no hashing, no node-struct traffic).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    #[must_use]
    pub fn asn_at(&self, idx: usize) -> Asn {
        self.asn_of[idx]
    }

    /// The whole dense-index → ASN table.
    #[inline]
    #[must_use]
    pub fn asn_table(&self) -> &[Asn] {
        &self.asn_of
    }

    /// Number of nodes covered by this snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Returns `true` if the snapshot covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Clone, Debug)]
struct Node {
    asn: Asn,
    /// `(neighbor index, relationship of that neighbor as seen from here)`.
    neighbors: Vec<(usize, Relationship)>,
}

/// Errors produced while mutating an [`AsGraph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// Attempted to link an AS to itself.
    SelfLoop(Asn),
    /// The two ASes are already linked (possibly with another relationship).
    DuplicateLink(Asn, Asn),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop(asn) => write!(f, "self-loop on AS{asn} rejected"),
            GraphError::DuplicateLink(a, b) => {
                write!(f, "link between AS{a} and AS{b} already exists")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl AsGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        AsGraph::default()
    }

    /// Creates an empty graph with room for `n` ASes.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        AsGraph {
            index: HashMap::with_capacity(n),
            nodes: Vec::with_capacity(n),
            csr: OnceLock::new(),
            version: 0,
        }
    }

    /// Drops derived state after a mutation.
    fn invalidate_caches(&mut self) {
        self.csr = OnceLock::new();
        self.version = self.version.wrapping_add(1);
    }

    /// Monotonic mutation counter: two observations of the same graph value
    /// with equal versions (and equal [`len`](Self::len)) saw identical
    /// topology. Used by caches layered on top of the graph.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The CSR adjacency snapshot, built on first use after any mutation.
    ///
    /// This is the routing hot path's view of the topology; the per-node
    /// [`neighbors_at`](Self::neighbors_at) slices remain available for
    /// incremental use.
    #[must_use]
    pub fn csr(&self) -> &CsrIndex {
        self.csr.get_or_init(|| {
            let total: usize = self.nodes.iter().map(|n| n.neighbors.len()).sum();
            let mut offsets = Vec::with_capacity(self.nodes.len() + 1);
            let mut entries = Vec::with_capacity(total);
            let mut asn_of = Vec::with_capacity(self.nodes.len());
            offsets.push(0u32);
            for node in &self.nodes {
                asn_of.push(node.asn);
                for &(idx, rel) in &node.neighbors {
                    entries.push(CsrEntry::pack(
                        u32::try_from(idx).expect("node count fits u32"),
                        rel,
                    ));
                }
                offsets.push(u32::try_from(entries.len()).expect("entry count fits u32"));
            }
            CsrIndex {
                offsets,
                entries,
                asn_of,
            }
        })
    }

    /// Number of ASes in the graph.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no ASes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total number of links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.nodes.iter().map(|n| n.neighbors.len()).sum::<usize>() / 2
    }

    /// A content fingerprint of the topology: an FNV-1a hash over the sorted
    /// `(asn, asn, relationship)` link list. Two graphs with the same ASes
    /// and links hash identically regardless of insertion order; run
    /// manifests record it so results can be matched to the exact topology
    /// that produced them.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut links: Vec<(u32, u32, u8)> = self
            .links()
            .map(|(a, b, rel)| {
                // Key each undirected link from its lower-ASN endpoint;
                // flipping endpoints flips the relationship's direction.
                if a.value() <= b.value() {
                    (a.value(), b.value(), rel as u8)
                } else {
                    (b.value(), a.value(), rel.reverse() as u8)
                }
            })
            .collect();
        links.sort_unstable();
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.nodes.len() as u64);
        for (a, b, rel) in links {
            mix(u64::from(a));
            mix(u64::from(b));
            mix(u64::from(rel));
        }
        h
    }

    /// Inserts `asn` as an isolated node if absent; returns its index.
    pub fn add_as(&mut self, asn: Asn) -> usize {
        if let Some(&idx) = self.index.get(&asn) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            asn,
            neighbors: Vec::new(),
        });
        self.index.insert(asn, idx);
        self.invalidate_caches();
        idx
    }

    /// Returns `true` if `asn` is present.
    #[must_use]
    pub fn contains(&self, asn: Asn) -> bool {
        self.index.contains_key(&asn)
    }

    /// Dense index of `asn`, if present.
    #[must_use]
    pub fn index_of(&self, asn: Asn) -> Option<usize> {
        self.index.get(&asn).copied()
    }

    /// The ASN stored at dense index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[must_use]
    pub fn asn_at(&self, idx: usize) -> Asn {
        self.nodes[idx].asn
    }

    /// Iterates over all ASNs in insertion order.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.nodes.iter().map(|n| n.asn)
    }

    /// Adds a link where `b` is related to `a` as `rel_of_b`.
    ///
    /// For example `add_link(a, b, Relationship::Customer)` records that `b`
    /// is `a`'s customer (equivalently, `a` is `b`'s provider). Both ASes are
    /// inserted if absent.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] if `a == b`;
    /// [`GraphError::DuplicateLink`] if the pair is already linked.
    pub fn add_link(&mut self, a: Asn, b: Asn, rel_of_b: Relationship) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        let ia = self.add_as(a);
        let ib = self.add_as(b);
        if self.nodes[ia].neighbors.iter().any(|&(n, _)| n == ib) {
            return Err(GraphError::DuplicateLink(a, b));
        }
        self.nodes[ia].neighbors.push((ib, rel_of_b));
        self.nodes[ib].neighbors.push((ia, rel_of_b.reverse()));
        self.invalidate_caches();
        Ok(())
    }

    /// [`add_link`](Self::add_link) without the O(degree) duplicate scan,
    /// for bulk generators that prove pair uniqueness structurally (e.g.
    /// disjoint ASN blocks per construction phase). A duplicate inserted
    /// here corrupts the adjacency lists, hence crate-private.
    ///
    /// # Panics
    ///
    /// Panics on a self-loop in debug builds.
    pub(crate) fn add_link_unchecked(&mut self, a: Asn, b: Asn, rel_of_b: Relationship) {
        debug_assert_ne!(a, b, "self-loop");
        let ia = self.add_as(a);
        let ib = self.add_as(b);
        debug_assert!(
            !self.nodes[ia].neighbors.iter().any(|&(n, _)| n == ib),
            "duplicate link AS{a}-AS{b}"
        );
        self.nodes[ia].neighbors.push((ib, rel_of_b));
        self.nodes[ib].neighbors.push((ia, rel_of_b.reverse()));
        self.invalidate_caches();
    }

    /// Records that `provider` sells transit to `customer`.
    ///
    /// # Errors
    ///
    /// Same as [`add_link`](Self::add_link).
    pub fn add_provider_customer(
        &mut self,
        provider: Asn,
        customer: Asn,
    ) -> Result<(), GraphError> {
        self.add_link(provider, customer, Relationship::Customer)
    }

    /// Records a settlement-free peering between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Same as [`add_link`](Self::add_link).
    pub fn add_peering(&mut self, a: Asn, b: Asn) -> Result<(), GraphError> {
        self.add_link(a, b, Relationship::Peer)
    }

    /// Records a sibling link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Same as [`add_link`](Self::add_link).
    pub fn add_sibling(&mut self, a: Asn, b: Asn) -> Result<(), GraphError> {
        self.add_link(a, b, Relationship::Sibling)
    }

    /// Removes the link between `a` and `b`, returning the relationship of
    /// `b` as seen from `a` if the link existed. Nodes stay in the graph, so
    /// dense indices remain valid — this is the primitive behind link-failure
    /// churn simulation.
    pub fn remove_link(&mut self, a: Asn, b: Asn) -> Option<Relationship> {
        let ia = self.index_of(a)?;
        let ib = self.index_of(b)?;
        let pos_a = self.nodes[ia]
            .neighbors
            .iter()
            .position(|&(n, _)| n == ib)?;
        let (_, rel) = self.nodes[ia].neighbors.remove(pos_a);
        let pos_b = self.nodes[ib]
            .neighbors
            .iter()
            .position(|&(n, _)| n == ia)
            .expect("links are stored symmetrically");
        self.nodes[ib].neighbors.remove(pos_b);
        self.invalidate_caches();
        Some(rel)
    }

    /// The relationship of `b` as seen from `a`, or `None` if not adjacent
    /// (or either AS is absent).
    #[must_use]
    pub fn relationship(&self, a: Asn, b: Asn) -> Option<Relationship> {
        let ia = self.index_of(a)?;
        let ib = self.index_of(b)?;
        self.nodes[ia]
            .neighbors
            .iter()
            .find(|&&(n, _)| n == ib)
            .map(|&(_, rel)| rel)
    }

    /// Degree (number of links) of `asn`; zero if absent.
    #[must_use]
    pub fn degree(&self, asn: Asn) -> usize {
        self.index_of(asn)
            .map_or(0, |i| self.nodes[i].neighbors.len())
    }

    /// Iterates over `asn`'s neighbors with their relationships.
    ///
    /// Returns an empty iterator if `asn` is absent.
    #[must_use]
    pub fn neighbors(&self, asn: Asn) -> NeighborIter<'_> {
        let slice = self
            .index_of(asn)
            .map_or(&[][..], |i| self.nodes[i].neighbors.as_slice());
        NeighborIter {
            graph: self,
            inner: slice.iter(),
        }
    }

    /// Raw neighbor list by dense index: `(neighbor index, relationship)`.
    #[must_use]
    pub fn neighbors_at(&self, idx: usize) -> &[(usize, Relationship)] {
        &self.nodes[idx].neighbors
    }

    /// Iterates over the ASNs of `asn`'s neighbors with relationship `rel`.
    pub fn neighbors_with(&self, asn: Asn, rel: Relationship) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors(asn)
            .filter(move |&(_, r)| r == rel)
            .map(|(n, _)| n)
    }

    /// `asn`'s customers.
    pub fn customers(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors_with(asn, Relationship::Customer)
    }

    /// `asn`'s peers.
    pub fn peers(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors_with(asn, Relationship::Peer)
    }

    /// `asn`'s providers.
    pub fn providers(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors_with(asn, Relationship::Provider)
    }

    /// Iterates over every link once as `(a, b, relationship_of_b_from_a)`,
    /// with `index_of(a) < index_of(b)`.
    pub fn links(&self) -> impl Iterator<Item = (Asn, Asn, Relationship)> + '_ {
        self.nodes.iter().enumerate().flat_map(move |(ia, node)| {
            node.neighbors
                .iter()
                .filter(move |&&(ib, _)| ia < ib)
                .map(move |&(ib, rel)| (node.asn, self.nodes[ib].asn, rel))
        })
    }

    /// Sorts every adjacency list by neighbor ASN, making iteration order
    /// independent of insertion order. Engines call this once after
    /// construction for deterministic behaviour.
    pub fn sort_neighbors(&mut self) {
        // Collect ASNs first to appease the borrow checker.
        let asn_of: Vec<Asn> = self.nodes.iter().map(|n| n.asn).collect();
        for node in &mut self.nodes {
            node.neighbors.sort_by_key(|&(idx, _)| asn_of[idx]);
        }
        self.invalidate_caches();
    }

    /// Returns the ASes sorted by descending degree (ties by ascending ASN) —
    /// the ranking the paper uses to pick detection monitors (Section VI-C).
    #[must_use]
    pub fn asns_by_degree(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.asns().collect();
        v.sort_by(|&a, &b| self.degree(b).cmp(&self.degree(a)).then_with(|| a.cmp(&b)));
        v
    }
}

/// Iterator over a node's neighbors as `(Asn, Relationship)` pairs.
///
/// Produced by [`AsGraph::neighbors`].
#[derive(Clone, Debug)]
pub struct NeighborIter<'a> {
    graph: &'a AsGraph,
    inner: core::slice::Iter<'a, (usize, Relationship)>,
}

impl Iterator for NeighborIter<'_> {
    type Item = (Asn, Relationship);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner
            .next()
            .map(|&(idx, rel)| (self.graph.nodes[idx].asn, rel))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> AsGraph {
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(1), Asn(2)).unwrap();
        g.add_provider_customer(Asn(1), Asn(3)).unwrap();
        g.add_peering(Asn(2), Asn(3)).unwrap();
        g
    }

    #[test]
    fn empty_graph() {
        let g = AsGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.link_count(), 0);
        assert_eq!(g.degree(Asn(1)), 0);
        assert_eq!(g.neighbors(Asn(1)).count(), 0);
        assert_eq!(g.relationship(Asn(1), Asn(2)), None);
    }

    #[test]
    fn link_relationships_are_symmetric() {
        let g = triangle();
        assert_eq!(g.relationship(Asn(1), Asn(2)), Some(Relationship::Customer));
        assert_eq!(g.relationship(Asn(2), Asn(1)), Some(Relationship::Provider));
        assert_eq!(g.relationship(Asn(2), Asn(3)), Some(Relationship::Peer));
        assert_eq!(g.relationship(Asn(3), Asn(2)), Some(Relationship::Peer));
    }

    #[test]
    fn rejects_self_loops_and_duplicates() {
        let mut g = triangle();
        assert_eq!(
            g.add_peering(Asn(5), Asn(5)).unwrap_err(),
            GraphError::SelfLoop(Asn(5))
        );
        assert_eq!(
            g.add_provider_customer(Asn(2), Asn(1)).unwrap_err(),
            GraphError::DuplicateLink(Asn(2), Asn(1))
        );
        // Error display is meaningful.
        assert!(GraphError::SelfLoop(Asn(5)).to_string().contains("AS5"));
    }

    #[test]
    fn degree_and_counts() {
        let g = triangle();
        assert_eq!(g.len(), 3);
        assert_eq!(g.link_count(), 3);
        assert_eq!(g.degree(Asn(1)), 2);
        assert_eq!(g.degree(Asn(2)), 2);
    }

    #[test]
    fn relationship_filtered_iterators() {
        let g = triangle();
        let customers: Vec<Asn> = g.customers(Asn(1)).collect();
        assert_eq!(customers, vec![Asn(2), Asn(3)]);
        let providers: Vec<Asn> = g.providers(Asn(3)).collect();
        assert_eq!(providers, vec![Asn(1)]);
        let peers: Vec<Asn> = g.peers(Asn(2)).collect();
        assert_eq!(peers, vec![Asn(3)]);
    }

    #[test]
    fn csr_matches_adjacency_lists() {
        let g = triangle();
        let csr = g.csr();
        assert_eq!(csr.len(), g.len());
        assert!(!csr.is_empty());
        for idx in 0..g.len() {
            let expected: Vec<(u32, Relationship)> = g
                .neighbors_at(idx)
                .iter()
                .map(|&(n, rel)| (n as u32, rel))
                .collect();
            let got: Vec<(u32, Relationship)> = csr
                .neighbors(idx)
                .iter()
                .map(|e| (e.node(), e.rel()))
                .collect();
            assert_eq!(got, expected);
            assert_eq!(csr.asn_at(idx), g.asn_at(idx));
        }
        assert_eq!(csr.asn_table().len(), g.len());
        assert!(AsGraph::new().csr().is_empty());
    }

    #[test]
    fn csr_invalidated_by_mutations() {
        let mut g = triangle();
        let v0 = g.version();
        assert_eq!(g.csr().neighbors(0).len(), 2);

        g.add_link(Asn(2), Asn(4), Relationship::Customer).unwrap();
        assert!(g.version() != v0, "add_link must bump the version");
        assert_eq!(g.csr().len(), 4);
        let deg2 = g.csr().neighbors(g.index_of(Asn(2)).unwrap()).len();
        assert_eq!(deg2, 3);

        g.remove_link(Asn(2), Asn(4));
        assert_eq!(g.csr().neighbors(g.index_of(Asn(2)).unwrap()).len(), 2);

        let before = g.version();
        g.sort_neighbors();
        assert!(
            g.version() != before,
            "sort_neighbors must bump the version"
        );

        let before = g.version();
        g.add_as(Asn(2)); // already present: no mutation
        assert_eq!(g.version(), before);
        g.add_as(Asn(77));
        assert!(g.version() != before);
        assert_eq!(g.csr().len(), 5);
    }

    #[test]
    fn links_iterate_once_each() {
        let g = triangle();
        let links: Vec<_> = g.links().collect();
        assert_eq!(links.len(), 3);
        // Each unordered pair appears exactly once.
        let mut pairs: Vec<(Asn, Asn)> = links
            .iter()
            .map(|&(a, b, _)| if a < b { (a, b) } else { (b, a) })
            .collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn sibling_links() {
        let mut g = AsGraph::new();
        g.add_sibling(Asn(10), Asn(11)).unwrap();
        assert_eq!(
            g.relationship(Asn(10), Asn(11)),
            Some(Relationship::Sibling)
        );
        assert_eq!(
            g.relationship(Asn(11), Asn(10)),
            Some(Relationship::Sibling)
        );
    }

    #[test]
    fn degree_ranking() {
        let mut g = triangle();
        g.add_provider_customer(Asn(1), Asn(4)).unwrap();
        let ranked = g.asns_by_degree();
        assert_eq!(ranked[0], Asn(1)); // degree 3
                                       // Ties (2 and 3, both degree 2) break by ascending ASN.
        assert_eq!(&ranked[1..3], &[Asn(2), Asn(3)]);
        assert_eq!(ranked[3], Asn(4));
    }

    #[test]
    fn sort_neighbors_orders_by_asn() {
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(1), Asn(30)).unwrap();
        g.add_provider_customer(Asn(1), Asn(20)).unwrap();
        g.add_provider_customer(Asn(1), Asn(10)).unwrap();
        g.sort_neighbors();
        let order: Vec<Asn> = g.neighbors(Asn(1)).map(|(a, _)| a).collect();
        assert_eq!(order, vec![Asn(10), Asn(20), Asn(30)]);
    }

    #[test]
    fn dense_index_round_trip() {
        let g = triangle();
        for asn in g.asns() {
            let idx = g.index_of(asn).unwrap();
            assert_eq!(g.asn_at(idx), asn);
        }
        assert_eq!(g.index_of(Asn(99)), None);
    }

    #[test]
    fn remove_link_works_both_directions() {
        let mut g = triangle();
        assert_eq!(g.remove_link(Asn(2), Asn(1)), Some(Relationship::Provider));
        assert_eq!(g.relationship(Asn(1), Asn(2)), None);
        assert_eq!(g.relationship(Asn(2), Asn(1)), None);
        assert_eq!(g.link_count(), 2);
        // Removing again is a no-op returning None.
        assert_eq!(g.remove_link(Asn(1), Asn(2)), None);
        // Nodes and indices survive.
        assert!(g.contains(Asn(1)) && g.contains(Asn(2)));
    }

    #[test]
    fn add_as_is_idempotent() {
        let mut g = AsGraph::new();
        let a = g.add_as(Asn(7));
        let b = g.add_as(Asn(7));
        assert_eq!(a, b);
        assert_eq!(g.len(), 1);
    }
}
