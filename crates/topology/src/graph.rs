//! The annotated AS-level graph: assembled link by link in an
//! [`AsGraphBuilder`], then frozen by [`AsGraphBuilder::finish`] into an
//! immutable [`AsGraph`].

use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use aspp_types::{Asn, Relationship};

use crate::order::PropagationOrder;

/// Source of [`AsGraph::id`]. Starts at 1: 0 is the empty
/// `AsGraph::default()`.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// An immutable AS-level topology: an undirected graph whose edges are
/// annotated with business relationships (customer-provider, peer-peer,
/// sibling). Built through an [`AsGraphBuilder`].
///
/// Nodes are addressed either by [`Asn`] (public API) or by dense `usize`
/// indices (hot paths in the routing engine). [`AsGraphBuilder::finish`]
/// assigns the indices in ascending ASN, whatever order the ASes were added
/// in, so comparing two nodes' indices compares their ASNs; they are stable
/// for the life of the graph.
///
/// The adjacency is one compressed-sparse-row layout: per-node offsets into
/// a single array of packed [`CsrEntry`] words, each node's entries sorted
/// by neighbor index (that is, by neighbor ASN), plus a flat `Asn`-by-index
/// table. Route computation
/// iterates millions of neighbor lists per experiment; this keeps them in
/// one cache-friendly allocation that hot loops scan without touching the
/// `Asn → index` hash map.
///
/// # Example
///
/// ```
/// use aspp_topology::AsGraphBuilder;
/// use aspp_types::{Asn, Relationship};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = AsGraphBuilder::new();
/// b.add_provider_customer(Asn(3356), Asn(32934))?; // Level3 provides Facebook
/// b.add_peering(Asn(3356), Asn(7018))?;            // Level3 peers with AT&T
/// let g = b.finish();
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
    /// `offsets[i]..offsets[i + 1]` brackets node `i`'s entries.
    offsets: Vec<u32>,
    /// Packed `(neighbor index, relationship)` entries.
    entries: Vec<CsrEntry>,
    /// ASN of every dense index — the boundary-free reverse mapping.
    asn_of: Vec<Asn>,
    id: u64,
    /// The customer-cone rank full route propagation sweeps, built on first
    /// use so freezing a graph that never routes pays nothing for it.
    order: OnceLock<PropagationOrder>,
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

    fn pack(node: usize, rel: Relationship) -> Self {
        assert!(node < (1 << 30), "node index must fit 30 bits");
        CsrEntry(((node as u32) << 2) | rel as u32)
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

/// Errors produced while building an [`AsGraph`].
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

/// An [`AsGraph`] under construction: ASes and links are added (or a link
/// removed) in any order, then [`finish`](Self::finish) freezes the result.
#[derive(Debug, Default)]
pub struct AsGraphBuilder {
    index: HashMap<Asn, usize>,
    asn_of: Vec<Asn>,
    /// Each node's entries in insertion order; `finish` orders them.
    adj: Vec<Vec<CsrEntry>>,
}

impl AsGraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        AsGraphBuilder::default()
    }

    /// Creates an empty builder with room for `n` ASes.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        AsGraphBuilder {
            index: HashMap::with_capacity(n),
            asn_of: Vec::with_capacity(n),
            adj: Vec::with_capacity(n),
        }
    }

    /// Inserts `asn` as an isolated node if absent; returns its index in
    /// this builder. A builder index is not a graph index: [`finish`]
    /// renumbers the nodes in ascending ASN.
    ///
    /// [`finish`]: Self::finish
    pub fn add_as(&mut self, asn: Asn) -> usize {
        if let Some(&idx) = self.index.get(&asn) {
            return idx;
        }
        let idx = self.asn_of.len();
        self.asn_of.push(asn);
        self.adj.push(Vec::new());
        self.index.insert(asn, idx);
        idx
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
        self.link(ia, ib, rel_of_b)
    }

    /// [`add_link`](Self::add_link) between the nodes at dense indices `a`
    /// and `b`, for generators that hold indices already. The duplicate scan
    /// runs over the shorter list, so linking a fresh AS is O(its degree).
    pub(crate) fn link(&mut self, a: usize, b: usize, rel: Relationship) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop(self.asn_of[a]));
        }
        let (short, other) = std::cmp::min_by_key((a, b), (b, a), |&(x, _)| self.adj[x].len());
        if self.adj[short].iter().any(|e| e.node() as usize == other) {
            return Err(GraphError::DuplicateLink(self.asn_of[a], self.asn_of[b]));
        }
        self.adj[a].push(CsrEntry::pack(b, rel));
        self.adj[b].push(CsrEntry::pack(a, rel.reverse()));
        Ok(())
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
    /// `b` as seen from `a` if the link existed. Nodes stay, so dense
    /// indices remain valid — this is the primitive behind link-failure
    /// churn simulation.
    pub fn remove_link(&mut self, a: Asn, b: Asn) -> Option<Relationship> {
        let ia = *self.index.get(&a)?;
        let ib = *self.index.get(&b)?;
        let pos = self.adj[ia].iter().position(|e| e.node() as usize == ib)?;
        let rel = self.adj[ia].remove(pos).rel();
        self.adj[ib].retain(|e| e.node() as usize != ia);
        Some(rel)
    }

    /// The relationship of `b` as seen from `a`, or `None` if not adjacent
    /// (or either AS is absent).
    #[must_use]
    pub fn relationship(&self, a: Asn, b: Asn) -> Option<Relationship> {
        let ia = *self.index.get(&a)?;
        let ib = *self.index.get(&b)?;
        self.adj[ia]
            .iter()
            .find(|e| e.node() as usize == ib)
            .map(|e| e.rel())
    }

    /// Degree (number of links so far) of `asn`; zero if absent.
    #[must_use]
    pub fn degree(&self, asn: Asn) -> usize {
        self.index.get(&asn).map_or(0, |&i| self.adj[i].len())
    }

    /// Degree (number of links so far) of the node at dense index `idx`.
    pub(crate) fn degree_at(&self, idx: usize) -> usize {
        self.adj[idx].len()
    }

    /// Freezes the graph: numbers the nodes in ascending ASN (a builder
    /// index is not a graph index), lays the adjacency lists out once as one
    /// CSR array, each in ascending neighbor index, and draws the graph a
    /// fresh [`AsGraph::id`].
    ///
    /// The lists need no sort: every link sits in both endpoints' lists, so
    /// visiting the nodes in index order and appending each one to its
    /// neighbors' slots fills every slot in ascending neighbor index.
    #[must_use]
    pub fn finish(mut self) -> AsGraph {
        // `order[new] = old`, `renumber[old] = new`.
        let mut order: Vec<usize> = (0..self.asn_of.len()).collect();
        order.sort_unstable_by_key(|&i| self.asn_of[i]);
        let mut renumber = vec![0; order.len()];
        for (new, &old) in order.iter().enumerate() {
            renumber[old] = new;
        }
        for idx in self.index.values_mut() {
            *idx = renumber[*idx];
        }
        let AsGraphBuilder { index, asn_of, adj } = self;
        let mut offsets = vec![0];
        let mut end = 0;
        for &old in &order {
            end += adj[old].len();
            offsets.push(u32::try_from(end).expect("entry count fits u32"));
        }
        let mut cursor = offsets.clone();
        let mut entries = vec![CsrEntry(0); end];
        for (src, &old) in order.iter().enumerate() {
            for e in &adj[old] {
                let slot = &mut cursor[renumber[e.node() as usize]];
                entries[*slot as usize] = CsrEntry::pack(src, e.rel().reverse());
                *slot += 1;
            }
        }
        AsGraph {
            index,
            offsets,
            entries,
            asn_of: order.iter().map(|&old| asn_of[old]).collect(),
            // Relaxed: the counter only hands out distinct values; it
            // publishes no other data.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            order: OnceLock::new(),
        }
    }
}

impl AsGraph {
    /// The graph's identity: every [`AsGraphBuilder::finish`] draws a new
    /// one, and clones share it — safe, since their content is identical and
    /// immutable. Caches over a graph's routes key on it: an address can be
    /// reused by another graph, an id cannot.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// A builder holding this graph's ASes (at the same dense indices) and
    /// links, from which an edited copy is
    /// [`finish`](AsGraphBuilder::finish)ed, which numbers every AS by ASN
    /// again: an AS added with a smaller ASN shifts the indices above it.
    #[must_use]
    pub fn to_builder(&self) -> AsGraphBuilder {
        AsGraphBuilder {
            index: self.index.clone(),
            asn_of: self.asn_of.clone(),
            adj: (0..self.len())
                .map(|i| self.neighbors_at(i).to_vec())
                .collect(),
        }
    }

    /// Number of ASes in the graph.
    #[must_use]
    pub fn len(&self) -> usize {
        self.asn_of.len()
    }

    /// Returns `true` if the graph has no ASes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.asn_of.is_empty()
    }

    /// Total number of links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.entries.len() / 2
    }

    /// A content fingerprint of the topology: an FNV-1a hash over the AS
    /// count followed by the sorted `(asn, asn, relationship)` link list —
    /// each link keyed from its lower-ASN endpoint, with the relationship as
    /// that endpoint sees it. Two graphs with as many ASes and the same links
    /// hash identically regardless of insertion order; the ASNs of isolated
    /// ASes are not covered. Run manifests record it so results can be
    /// matched to the exact topology that produced them.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.len() as u64);
        // Nodes in index (ASN) order over lists sorted by neighbor index:
        // the links come out in sorted order.
        for ia in 0..self.len() {
            let a = self.asn_of[ia];
            for e in self.neighbors_at(ia) {
                let b = self.asn_of[e.node() as usize];
                if a < b {
                    mix(u64::from(a.value()));
                    mix(u64::from(b.value()));
                    mix(e.rel() as u64);
                }
            }
        }
        h
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
    #[inline]
    #[must_use]
    pub fn asn_at(&self, idx: usize) -> Asn {
        self.asn_of[idx]
    }

    /// The whole dense-index → ASN table.
    #[must_use]
    pub fn asn_table(&self) -> &[Asn] {
        &self.asn_of
    }

    /// Iterates over all ASNs in index order, which is ascending ASN.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.asn_of.iter().copied()
    }

    /// Neighbor entries of the node at dense index `idx`, sorted by
    /// neighbor index (and so by neighbor ASN).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[inline]
    #[must_use]
    pub fn neighbors_at(&self, idx: usize) -> &[CsrEntry] {
        &self.entries[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }

    /// The relationship of `b` as seen from `a`, or `None` if not adjacent
    /// (or either AS is absent).
    #[must_use]
    pub fn relationship(&self, a: Asn, b: Asn) -> Option<Relationship> {
        let list = self.neighbors_at(self.index_of(a)?);
        list.binary_search_by_key(&b, |e| self.asn_at(e.node() as usize))
            .ok()
            .map(|pos| list[pos].rel())
    }

    /// Degree (number of links) of `asn`; zero if absent.
    #[must_use]
    pub fn degree(&self, asn: Asn) -> usize {
        self.index_of(asn).map_or(0, |i| self.neighbors_at(i).len())
    }

    /// Iterates over `asn`'s neighbors with their relationships, in
    /// ascending neighbor ASN.
    ///
    /// Returns an empty iterator if `asn` is absent.
    pub fn neighbors(&self, asn: Asn) -> impl ExactSizeIterator<Item = (Asn, Relationship)> + '_ {
        let list = self.index_of(asn).map_or(&[][..], |i| self.neighbors_at(i));
        list.iter()
            .map(move |e| (self.asn_at(e.node() as usize), e.rel()))
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
    /// with `index_of(a) < index_of(b)` — so `a < b` — in ascending `(a, b)`.
    pub fn links(&self) -> impl Iterator<Item = (Asn, Asn, Relationship)> + '_ {
        (0..self.len()).flat_map(move |ia| {
            self.neighbors_at(ia)
                .iter()
                .filter(move |e| ia < e.node() as usize)
                .map(move |e| (self.asn_at(ia), self.asn_at(e.node() as usize), e.rel()))
        })
    }

    /// The graph's [`PropagationOrder`]: its nodes with every customer
    /// before its providers, and each node's customers in that order. Built
    /// on the first call (a linear pass over the adjacency) and kept for the
    /// life of the graph; a clone made after the first call carries a copy.
    #[must_use]
    pub fn propagation_order(&self) -> &PropagationOrder {
        self.order.get_or_init(|| PropagationOrder::build(self))
    }

    /// Returns the ASes sorted by descending degree (ties by ascending ASN) —
    /// the ranking the paper uses to pick detection monitors (Section VI-C).
    #[must_use]
    pub fn asns_by_degree(&self) -> Vec<Asn> {
        let mut keyed: Vec<(Reverse<u32>, Asn)> = self
            .offsets
            .windows(2)
            .zip(&self.asn_of)
            .map(|(w, &asn)| (Reverse(w[1] - w[0]), asn))
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, asn)| asn).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn triangle() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        b.add_provider_customer(Asn(1), Asn(2)).unwrap();
        b.add_provider_customer(Asn(1), Asn(3)).unwrap();
        b.add_peering(Asn(2), Asn(3)).unwrap();
        b.finish()
    }

    #[test]
    fn empty_graph() {
        for g in [AsGraph::default(), AsGraphBuilder::new().finish()] {
            assert!(g.is_empty());
            assert_eq!(g.len(), 0);
            assert_eq!(g.link_count(), 0);
            assert_eq!(g.degree(Asn(1)), 0);
            assert_eq!(g.neighbors(Asn(1)).count(), 0);
            assert_eq!(g.relationship(Asn(1), Asn(2)), None);
            assert_eq!(g.fingerprint(), fingerprint_by_sorting(&g));
            assert!(g.asns_by_degree().is_empty());
        }
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
        let mut b = triangle().to_builder();
        assert_eq!(
            b.add_peering(Asn(5), Asn(5)).unwrap_err(),
            GraphError::SelfLoop(Asn(5))
        );
        assert_eq!(
            b.add_provider_customer(Asn(2), Asn(1)).unwrap_err(),
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
        for idx in 0..g.len() {
            let by_index: Vec<(Asn, Relationship)> = g
                .neighbors_at(idx)
                .iter()
                .map(|e| (g.asn_at(e.node() as usize), e.rel()))
                .collect();
            let by_asn: Vec<(Asn, Relationship)> = g.neighbors(g.asn_at(idx)).collect();
            assert_eq!(by_index, by_asn);
            assert_eq!(g.asn_table()[idx], g.asn_at(idx));
        }
        assert_eq!(g.asn_table().len(), g.len());
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
        let mut b = AsGraphBuilder::new();
        b.add_sibling(Asn(10), Asn(11)).unwrap();
        let g = b.finish();
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
        let mut b = triangle().to_builder();
        b.add_provider_customer(Asn(1), Asn(4)).unwrap();
        let ranked = b.finish().asns_by_degree();
        assert_eq!(ranked[0], Asn(1)); // degree 3
                                       // Ties (2 and 3, both degree 2) break by ascending ASN.
        assert_eq!(&ranked[1..3], &[Asn(2), Asn(3)]);
        assert_eq!(ranked[3], Asn(4));
    }

    #[test]
    fn finish_orders_neighbors_by_asn() {
        let mut b = AsGraphBuilder::new();
        b.add_provider_customer(Asn(1), Asn(30)).unwrap();
        b.add_provider_customer(Asn(1), Asn(20)).unwrap();
        b.add_provider_customer(Asn(1), Asn(10)).unwrap();
        let g = b.finish();
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
        let mut b = triangle().to_builder();
        assert_eq!(b.remove_link(Asn(2), Asn(1)), Some(Relationship::Provider));
        assert_eq!(b.relationship(Asn(1), Asn(2)), None);
        assert_eq!(b.relationship(Asn(2), Asn(1)), None);
        // Removing again is a no-op returning None.
        assert_eq!(b.remove_link(Asn(1), Asn(2)), None);
        let g = b.finish();
        assert_eq!(g.link_count(), 2);
        // Nodes and indices survive.
        assert!(g.contains(Asn(1)) && g.contains(Asn(2)));
    }

    #[test]
    fn add_as_is_idempotent() {
        let mut b = AsGraphBuilder::new();
        let first = b.add_as(Asn(7));
        let second = b.add_as(Asn(7));
        assert_eq!(first, second);
        assert_eq!(b.finish().len(), 1);
    }

    #[test]
    fn every_finish_draws_a_fresh_id_and_clones_share_it() {
        let (a, b) = (triangle(), triangle());
        assert_ne!(a.id(), b.id());
        assert_eq!(a.clone().id(), a.id());
        assert_ne!(a.to_builder().finish().id(), a.id());
        assert_ne!(a.id(), AsGraph::default().id());
    }

    /// The sort-based freeze `finish` replaced, on `finish`'s numbering:
    /// the ASNs sorted, each node's list renumbered and sorted by neighbor
    /// ASN in place, then concatenated. Returns `(asn_of, offsets,
    /// entries)`.
    fn finish_by_sorting(b: &AsGraphBuilder) -> (Vec<Asn>, Vec<u32>, Vec<CsrEntry>) {
        let mut asn_of = b.asn_of.clone();
        asn_of.sort_unstable();
        let renumber = |old: u32| asn_of.binary_search(&b.asn_of[old as usize]).unwrap();
        let mut offsets = vec![0];
        let mut entries = Vec::new();
        for asn in &asn_of {
            let mut list: Vec<CsrEntry> = b.adj[b.index[asn]]
                .iter()
                .map(|e| CsrEntry::pack(renumber(e.node()), e.rel()))
                .collect();
            list.sort_unstable_by_key(|e| asn_of[e.node() as usize]);
            entries.extend_from_slice(&list);
            offsets.push(u32::try_from(entries.len()).unwrap());
        }
        (asn_of, offsets, entries)
    }

    /// The fingerprint as first written: collect every link keyed from its
    /// lower-ASN end, sort, hash.
    fn fingerprint_by_sorting(g: &AsGraph) -> u64 {
        let mut links: Vec<(u32, u32, u8)> = g
            .links()
            .map(|(a, b, rel)| {
                if a.value() <= b.value() {
                    (a.value(), b.value(), rel as u8)
                } else {
                    (b.value(), a.value(), rel.reverse() as u8)
                }
            })
            .collect();
        links.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(g.len() as u64);
        for (a, b, rel) in links {
            mix(u64::from(a));
            mix(u64::from(b));
            mix(u64::from(rel));
        }
        h
    }

    /// The degree ranking by a comparator that looks both degrees up.
    fn asns_by_degree_by_lookup(g: &AsGraph) -> Vec<Asn> {
        let mut v: Vec<Asn> = g.asns().collect();
        v.sort_by(|&a, &b| g.degree(b).cmp(&g.degree(a)).then_with(|| a.cmp(&b)));
        v
    }

    fn clone_builder(b: &AsGraphBuilder) -> AsGraphBuilder {
        AsGraphBuilder {
            index: b.index.clone(),
            asn_of: b.asn_of.clone(),
            adj: b.adj.clone(),
        }
    }

    /// An arbitrary builder: isolated ASes and link endpoints inserted in
    /// no particular ASN order, all four relationships (siblings included),
    /// then a freeze, some links removed and some (re-)added. Small ASN
    /// ranges make duplicates, self-loops and repeated ASes common; both
    /// vectors may be empty.
    fn arbitrary_builder() -> impl Strategy<Value = AsGraphBuilder> {
        let rels = [
            Relationship::Customer,
            Relationship::Peer,
            Relationship::Provider,
            Relationship::Sibling,
        ];
        let link = (1u32..40, 1u32..40, 0usize..4);
        (
            proptest::collection::vec(1u32..60, 0..12),
            proptest::collection::vec(link.clone(), 0..60),
            proptest::collection::vec((1u32..40, 1u32..40), 0..12),
            proptest::collection::vec(link, 0..12),
        )
            .prop_map(move |(isolated, links, removed, added)| {
                let mut b = AsGraphBuilder::new();
                let mut isolated = isolated.into_iter();
                for (x, y, rel) in links {
                    if let Some(asn) = isolated.next() {
                        b.add_as(Asn(asn));
                    }
                    let _ = b.add_link(Asn(x), Asn(y), rels[rel]);
                }
                for asn in isolated {
                    b.add_as(Asn(asn));
                }
                let mut b = b.finish().to_builder();
                for (x, y) in removed {
                    b.remove_link(Asn(x), Asn(y));
                }
                for (x, y, rel) in added {
                    let _ = b.add_link(Asn(x), Asn(y), rels[rel]);
                }
                b
            })
    }

    /// Each link as `(lower ASN, higher ASN, relationship of the higher)`.
    fn link_set(g: &AsGraph) -> Vec<(Asn, Asn, Relationship)> {
        let mut links: Vec<_> = g
            .links()
            .map(|(a, b, rel)| {
                if a < b {
                    (a, b, rel)
                } else {
                    (b, a, rel.reverse())
                }
            })
            .collect();
        links.sort_by_key(|&(a, b, _)| (a, b));
        links
    }

    proptest! {
        /// Arbitrary link soup over a few ASNs, inserted in two orders: the
        /// frozen graphs differ in their dense indices only.
        #[test]
        fn construction_order_does_not_matter(
            soup in proptest::collection::vec((1u32..12, 1u32..12, 0usize..4), 0..30),
            seed in any::<u64>(),
        ) {
            let rels = [
                Relationship::Customer,
                Relationship::Peer,
                Relationship::Provider,
                Relationship::Sibling,
            ];
            // One relationship per unordered pair, so both orders insert
            // the same links.
            let mut links: Vec<(Asn, Asn, Relationship)> = Vec::new();
            for (a, b, rel) in soup {
                let (a, b) = (Asn(a), Asn(b));
                if a != b && !links.iter().any(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a)) {
                    links.push((a, b, rels[rel]));
                }
            }
            let freeze = |links: &[(Asn, Asn, Relationship)]| {
                let mut builder = AsGraphBuilder::new();
                for &(a, b, rel) in links {
                    builder.add_link(a, b, rel).unwrap();
                }
                builder.finish()
            };
            let first = freeze(&links);
            links.shuffle(&mut StdRng::seed_from_u64(seed));
            let second = freeze(&links);

            prop_assert_eq!(first.fingerprint(), second.fingerprint());
            prop_assert_eq!(link_set(&first), link_set(&second));
            for asn in first.asns() {
                prop_assert_eq!(
                    first.neighbors(asn).collect::<Vec<_>>(),
                    second.neighbors(asn).collect::<Vec<_>>()
                );
            }
            for g in [&first, &second] {
                let rebuilt = g.to_builder().finish();
                prop_assert_eq!(rebuilt.fingerprint(), g.fingerprint());
                prop_assert_eq!(rebuilt.asn_table(), g.asn_table());
                for (idx, asn) in g.asns().enumerate() {
                    prop_assert_eq!(rebuilt.index_of(asn), Some(idx));
                    prop_assert_eq!(rebuilt.neighbors_at(idx), g.neighbors_at(idx));
                }
            }
        }

        /// The counting freeze numbers the nodes and lays out the CSR as
        /// the per-list sort over sorted ASNs does, and the O(E)
        /// fingerprint and the keyed degree ranking agree with their
        /// sort-based references.
        #[test]
        fn freeze_fingerprint_and_ranking_match_their_references(b in arbitrary_builder()) {
            let (asn_of, offsets, entries) = finish_by_sorting(&b);
            let g = clone_builder(&b).finish();
            prop_assert_eq!(&g.asn_of, &asn_of);
            prop_assert_eq!(&g.offsets, &offsets);
            prop_assert_eq!(&g.entries, &entries);
            prop_assert_eq!(g.fingerprint(), fingerprint_by_sorting(&g));
            prop_assert_eq!(g.asns_by_degree(), asns_by_degree_by_lookup(&g));
        }

        /// Whatever order ASes and links arrive in — a shuffled link soup
        /// with isolated ASes between the links, then a frozen graph's
        /// builder extended by links to ASes with smaller ASNs than any it
        /// holds — `finish` numbers the nodes in ascending ASN and lays out
        /// the graph the ascending-ASN insertion does.
        #[test]
        fn indices_follow_asn_order_whatever_the_insertion_order(
            soup in proptest::collection::vec((1u32..30, 1u32..30, 0usize..4, any::<bool>()), 0..40),
            isolated in proptest::collection::vec(1u32..40, 0..8),
            late in proptest::collection::vec((1u32..30, 1u32..30, 0usize..4), 0..10),
            seed in any::<u64>(),
        ) {
            let rels = [
                Relationship::Customer,
                Relationship::Peer,
                Relationship::Provider,
                Relationship::Sibling,
            ];
            // One relationship per unordered pair; the soup's ASNs start at
            // 101, the late ones are below 30.
            let mut links: Vec<(Asn, Asn, Relationship)> = Vec::new();
            let push = |links: &mut Vec<(Asn, Asn, Relationship)>, a, b, rel| {
                if a != b && !links.iter().any(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a)) {
                    links.push((a, b, rel));
                }
            };
            for (a, b, rel, swap) in soup {
                let (a, b, rel) = (Asn(100 + a), Asn(100 + b), rels[rel]);
                if swap {
                    push(&mut links, b, a, rel.reverse());
                } else {
                    push(&mut links, a, b, rel);
                }
            }
            let early = links.len();
            for (a, b, rel) in late {
                push(&mut links, Asn(a), Asn(100 + b), rels[rel]);
            }
            let isolated: Vec<Asn> = isolated.into_iter().map(|a| Asn(100 + a)).collect();

            let sorted = {
                let mut asns: Vec<Asn> = links.iter().flat_map(|&(a, b, _)| [a, b]).collect();
                asns.extend(&isolated);
                asns.sort_unstable();
                let mut builder = AsGraphBuilder::new();
                for asn in asns {
                    builder.add_as(asn);
                }
                for &(a, b, rel) in &links {
                    builder.add_link(a, b, rel).unwrap();
                }
                builder.finish()
            };
            let shuffled = {
                let (soup, late) = links.split_at_mut(early);
                let mut rng = StdRng::seed_from_u64(seed);
                soup.shuffle(&mut rng);
                late.shuffle(&mut rng);
                let mut builder = AsGraphBuilder::new();
                let mut isolated = isolated.iter();
                for &(a, b, rel) in &*soup {
                    if let Some(&asn) = isolated.next() {
                        builder.add_as(asn);
                    }
                    builder.add_link(a, b, rel).unwrap();
                }
                for &asn in isolated {
                    builder.add_as(asn);
                }
                let mut builder = builder.finish().to_builder();
                for &(a, b, rel) in &*late {
                    builder.add_link(a, b, rel).unwrap();
                }
                builder.finish()
            };

            for g in [&sorted, &shuffled] {
                prop_assert!(g.asn_table().windows(2).all(|w| w[0] < w[1]));
                for i in 0..g.len() {
                    prop_assert_eq!(g.index_of(g.asn_at(i)), Some(i));
                }
            }
            prop_assert_eq!(shuffled.fingerprint(), sorted.fingerprint());
            prop_assert_eq!(shuffled.asn_table(), sorted.asn_table());
            prop_assert_eq!(&shuffled.offsets, &sorted.offsets);
            prop_assert_eq!(&shuffled.entries, &sorted.entries);
        }
    }
}
