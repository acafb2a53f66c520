//! AS relationship inference from observed AS paths.
//!
//! Section IV-A of the paper builds its topology by (1) running Gao's
//! algorithm seeded with tier-1 peering links, (2) running CAIDA's algorithm,
//! (3) taking the relationship pairs on which both agree, and (4) re-running
//! Gao's algorithm with that agreement set as the new seed. This module
//! implements all four steps:
//!
//! * [`gao_infer`] — Gao's degree-based uphill/downhill vote algorithm;
//! * [`degree_infer`] — a degree-ratio + top-clique algorithm standing in
//!   for CAIDA's method;
//! * [`consensus_infer`] — the paper's combination pipeline;
//! * [`InferenceAccuracy`] — validation against a ground-truth graph
//!   (available here because our topologies are generated).

use std::collections::{HashMap, HashSet};

use aspp_types::{AsPath, Asn, Relationship};

use crate::{AsGraph, AsGraphBuilder};

/// Tuning parameters for the inference algorithms.
#[derive(Clone, Copy, Debug)]
pub struct InferParams {
    /// Degree-ratio band within which two adjacent ASes are considered
    /// peering candidates (Gao's `R`).
    pub peer_degree_ratio: f64,
    /// Minimum conflicting votes in both directions before an edge is
    /// classified as sibling (Gao's `L`).
    pub sibling_vote_threshold: usize,
}

impl Default for InferParams {
    fn default() -> Self {
        InferParams {
            peer_degree_ratio: 2.5,
            sibling_vote_threshold: 2,
        }
    }
}

/// An edge key with canonical (ascending) orientation.
fn key(a: Asn, b: Asn) -> (Asn, Asn) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Collapses an observed [`AsPath`] into travel order (origin first) with
/// prepends removed; returns `None` for paths too short to carry edges or
/// containing loops (which real inference pipelines discard).
fn travel_order(path: &AsPath) -> Option<Vec<Asn>> {
    if path.has_loop() {
        return None;
    }
    let mut collapsed = path.collapsed();
    if collapsed.len() < 2 {
        return None;
    }
    collapsed.reverse();
    Some(collapsed)
}

/// Degree of each AS as seen in the path corpus (number of distinct
/// neighbors over all collapsed paths).
fn observed_degrees(paths: &[AsPath]) -> HashMap<Asn, usize> {
    let mut neighbors: HashMap<Asn, HashSet<Asn>> = HashMap::new();
    for path in paths {
        if let Some(tp) = travel_order(path) {
            for w in tp.windows(2) {
                neighbors.entry(w[0]).or_default().insert(w[1]);
                neighbors.entry(w[1]).or_default().insert(w[0]);
            }
        }
    }
    neighbors.into_iter().map(|(a, s)| (a, s.len())).collect()
}

/// Gao's relationship-inference algorithm.
///
/// For every loop-free path the highest-degree AS is taken as the *top
/// provider*; edges on the origin side of the top vote "uphill"
/// (customer→provider) and edges past it vote "downhill". Majority voting
/// classifies each edge; heavy conflict marks siblings; finally, edges
/// adjacent to the top whose endpoint degrees are within
/// [`InferParams::peer_degree_ratio`] and whose votes do not clearly favor
/// one direction are classified as peering. Links in `seed_peers` are fixed
/// as peering a priori (the paper seeds with tier-1 links).
///
/// # Example
///
/// ```
/// use aspp_topology::infer::{gao_infer, InferParams};
/// use aspp_types::{AsPath, Asn, Relationship};
///
/// // Monitors observe stubs 11-14 reaching each other through hub AS1.
/// let mut paths: Vec<AsPath> = Vec::new();
/// for a in 11u32..15 {
///     for b in 11u32..15 {
///         if a != b {
///             paths.push(format!("{a} 1 {b}").parse().unwrap());
///         }
///     }
/// }
///
/// let inferred = gao_infer(&paths, &[], InferParams::default());
/// assert_eq!(inferred.relationship(Asn(1), Asn(11)), Some(Relationship::Customer));
/// assert_eq!(inferred.relationship(Asn(12), Asn(1)), Some(Relationship::Provider));
/// ```
#[must_use]
pub fn gao_infer(paths: &[AsPath], seed_peers: &[(Asn, Asn)], params: InferParams) -> AsGraph {
    let degrees = observed_degrees(paths);
    let seed: HashSet<(Asn, Asn)> = seed_peers.iter().map(|&(a, b)| key(a, b)).collect();

    // votes[(a,b)] with a < b: (votes that b provides a, votes that a provides b)
    let mut votes: HashMap<(Asn, Asn), (usize, usize)> = HashMap::new();
    // Per edge: (appearances adjacent to the path's top provider, total
    // appearances). A valley-free path crosses a peering link only at its
    // top, so an edge that *ever* appears away from a top is transited —
    // customer-provider, not peering.
    let mut top_stats: HashMap<(Asn, Asn), (usize, usize)> = HashMap::new();

    for path in paths {
        let Some(tp) = travel_order(path) else {
            continue;
        };
        let top = (0..tp.len())
            .max_by_key(|&i| (degrees.get(&tp[i]).copied().unwrap_or(0), usize::MAX - i))
            .unwrap_or(0);
        for i in 0..tp.len() - 1 {
            let (u, v) = (tp[i], tp[i + 1]);
            let k = key(u, v);
            let entry = votes.entry(k).or_insert((0, 0));
            // i < top: traveling uphill, v provides u. i >= top: downhill, u provides v.
            let provider_is_v = i < top;
            let provider = if provider_is_v { v } else { u };
            if provider == k.1 {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
            let stats = top_stats.entry(k).or_insert((0, 0));
            stats.1 += 1;
            if i + 1 == top || i == top {
                stats.0 += 1;
            }
        }
    }

    let mut out = AsGraphBuilder::new();
    for (&(a, b), &(b_provides, a_provides)) in &votes {
        let (top_hits, appearances) = top_stats.get(&(a, b)).copied().unwrap_or((0, 0));
        let rel = if seed.contains(&(a, b)) {
            Relationship::Peer
        } else if b_provides >= params.sibling_vote_threshold
            && a_provides >= params.sibling_vote_threshold
            && b_provides.max(a_provides) <= 3 * b_provides.min(a_provides)
        {
            // Sibling: sustained, *balanced* conflict — routes genuinely flow
            // both ways across the link. One-sided noise from occasional
            // top-provider misidentification must not count.
            Relationship::Sibling
        } else {
            let da = degrees.get(&a).copied().unwrap_or(1).max(1) as f64;
            let db = degrees.get(&b).copied().unwrap_or(1).max(1) as f64;
            let ratio = if da > db { da / db } else { db / da };
            // Peering: similar degrees and never observed away from a top.
            if appearances > 0 && top_hits == appearances && ratio <= params.peer_degree_ratio {
                Relationship::Peer
            } else if b_provides >= a_provides {
                // b provides a: from a's perspective b is its provider.
                Relationship::Provider
            } else {
                Relationship::Customer
            }
        };
        let _ = out.add_link(a, b, rel);
    }
    out.finish()
}

/// Degree-ratio inference (CAIDA-style stand-in).
///
/// The ASes whose observed degree is within a factor of
/// [`InferParams::peer_degree_ratio`] of the maximum form a *top clique* and
/// peer with each other; any other edge is classified by degree ratio: near
/// parity ⇒ peer, otherwise the higher-degree side is the provider.
#[must_use]
pub fn degree_infer(paths: &[AsPath], params: InferParams) -> AsGraph {
    let degrees = observed_degrees(paths);
    let max_degree = degrees.values().copied().max().unwrap_or(0) as f64;
    let clique: HashSet<Asn> = degrees
        .iter()
        .filter(|&(_, &d)| d as f64 * params.peer_degree_ratio >= max_degree)
        .map(|(&a, _)| a)
        .collect();

    let mut edges: HashSet<(Asn, Asn)> = HashSet::new();
    for path in paths {
        if let Some(tp) = travel_order(path) {
            for w in tp.windows(2) {
                edges.insert(key(w[0], w[1]));
            }
        }
    }

    let mut out = AsGraphBuilder::new();
    for (a, b) in edges {
        let da = degrees.get(&a).copied().unwrap_or(1).max(1) as f64;
        let db = degrees.get(&b).copied().unwrap_or(1).max(1) as f64;
        let ratio = if da > db { da / db } else { db / da };
        let rel_of_b =
            if (clique.contains(&a) && clique.contains(&b)) || ratio <= params.peer_degree_ratio {
                Relationship::Peer
            } else if da > db {
                // a is the bigger AS: b is a's customer.
                Relationship::Customer
            } else {
                Relationship::Provider
            };
        let _ = out.add_link(a, b, rel_of_b);
    }
    out.finish()
}

/// The paper's consensus pipeline (Section IV-A): run [`gao_infer`] seeded
/// with tier-1 peers, run [`degree_infer`], take the links on which both
/// agree, and re-run Gao with the agreed peer set as seed.
#[must_use]
pub fn consensus_infer(
    paths: &[AsPath],
    tier1_seed: &[(Asn, Asn)],
    params: InferParams,
) -> AsGraph {
    let gao = gao_infer(paths, tier1_seed, params);
    let deg = degree_infer(paths, params);

    let mut agreed_peers: Vec<(Asn, Asn)> = tier1_seed.to_vec();
    for (a, b, rel) in gao.links() {
        if deg.relationship(a, b) == Some(rel) && rel == Relationship::Peer {
            agreed_peers.push((a, b));
        }
    }
    gao_infer(paths, &agreed_peers, params)
}

/// Agreement between an inferred graph and ground truth.
///
/// # Example
///
/// ```
/// use aspp_topology::{AsGraphBuilder, infer::InferenceAccuracy};
/// use aspp_types::Asn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut truth = AsGraphBuilder::new();
/// truth.add_provider_customer(Asn(1), Asn(2))?;
/// let truth = truth.finish();
/// let acc = InferenceAccuracy::compare(&truth, &truth);
/// assert_eq!(acc.accuracy(), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InferenceAccuracy {
    /// Links present in both graphs with identical relationship.
    pub agreeing: usize,
    /// Links present in both graphs with differing relationship.
    pub conflicting: usize,
    /// Ground-truth links absent from the inferred graph.
    pub missing: usize,
    /// Inferred links absent from ground truth.
    pub spurious: usize,
}

impl InferenceAccuracy {
    /// Compares `inferred` against `truth` link by link.
    #[must_use]
    pub fn compare(truth: &AsGraph, inferred: &AsGraph) -> Self {
        let mut acc = InferenceAccuracy::default();
        for (a, b, rel) in truth.links() {
            match inferred.relationship(a, b) {
                Some(r) if r == rel => acc.agreeing += 1,
                Some(_) => acc.conflicting += 1,
                None => acc.missing += 1,
            }
        }
        for (a, b, _) in inferred.links() {
            if truth.relationship(a, b).is_none() {
                acc.spurious += 1;
            }
        }
        acc
    }

    /// Fraction of commonly-observed links whose relationship matches.
    /// Returns 1.0 when no links are common (vacuous agreement).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let common = self.agreeing + self.conflicting;
        if common == 0 {
            1.0
        } else {
            self.agreeing as f64 / common as f64
        }
    }

    /// Fraction of ground-truth links observed at all.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let total = self.agreeing + self.conflicting + self.missing;
        if total == 0 {
            1.0
        } else {
            (self.agreeing + self.conflicting) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paths(specs: &[&str]) -> Vec<AsPath> {
        specs.iter().map(|s| s.parse().unwrap()).collect()
    }

    /// Star topology: AS1 provides for stubs 10..14; plenty of paths
    /// between stubs traverse AS1 as the top provider.
    fn star_paths() -> Vec<AsPath> {
        let mut out = Vec::new();
        for a in 10..15u32 {
            for b in 10..15u32 {
                if a != b {
                    out.push(format!("{a} 1 {b}").parse().unwrap());
                }
            }
        }
        out
    }

    #[test]
    fn gao_infers_star_provider() {
        let inferred = gao_infer(&star_paths(), &[], InferParams::default());
        for stub in 10..15u32 {
            assert_eq!(
                inferred.relationship(Asn(1), Asn(stub)),
                Some(Relationship::Customer),
                "AS1 should provide AS{stub}"
            );
        }
    }

    #[test]
    fn gao_respects_seed_peers() {
        // Two cores 1,2 with stubs; seeding forces 1-2 to peer.
        let corpus = paths(&[
            "10 1 2 20",
            "20 2 1 10",
            "11 1 2 20",
            "20 2 1 11",
            "10 1 11",
            "11 1 10",
            "20 2 21",
            "21 2 20",
        ]);
        let inferred = gao_infer(&corpus, &[(Asn(1), Asn(2))], InferParams::default());
        assert_eq!(
            inferred.relationship(Asn(1), Asn(2)),
            Some(Relationship::Peer)
        );
    }

    #[test]
    fn gao_discards_looped_and_trivial_paths() {
        let corpus = paths(&["1", "1 2 1", ""]);
        let inferred = gao_infer(&corpus, &[], InferParams::default());
        assert!(inferred.is_empty());
    }

    #[test]
    fn gao_collapses_prepending_before_voting() {
        // Prepends must not distort edges or degrees.
        let corpus = paths(&[
            "10 1 20 20 20",
            "20 1 10 10",
            "11 1 20",
            "20 1 11",
            "10 1 11",
            "11 1 10",
        ]);
        let inferred = gao_infer(&corpus, &[], InferParams::default());
        assert_eq!(
            inferred.relationship(Asn(1), Asn(20)),
            Some(Relationship::Customer)
        );
    }

    #[test]
    fn sibling_detected_on_conflicting_votes() {
        // Edge 5-6 is traversed both uphill and downhill repeatedly
        // relative to top provider 1.
        let corpus = paths(&[
            "5 6 1 10", "5 6 1 11", "6 5 1 10", "6 5 1 11", "10 1 6 5", "11 1 6 5", "10 1 5 6",
            "11 1 5 6",
        ]);
        let params = InferParams {
            sibling_vote_threshold: 2,
            peer_degree_ratio: 1.1, // keep the peer heuristic out of the way
        };
        let inferred = gao_infer(&corpus, &[], params);
        assert_eq!(
            inferred.relationship(Asn(5), Asn(6)),
            Some(Relationship::Sibling)
        );
    }

    #[test]
    fn degree_infer_builds_top_clique() {
        let corpus = paths(&[
            "10 1 2 20",
            "20 2 1 10",
            "11 1 2 21",
            "21 2 1 11",
            "10 1 11",
            "11 1 10",
            "20 2 21",
            "21 2 20",
            "10 1 2 21",
            "11 1 2 20",
            "21 2 1 10",
            "20 2 1 11",
        ]);
        let inferred = degree_infer(&corpus, InferParams::default());
        assert_eq!(
            inferred.relationship(Asn(1), Asn(2)),
            Some(Relationship::Peer)
        );
        // Stubs hang off the cores as customers.
        assert_eq!(
            inferred.relationship(Asn(1), Asn(10)),
            Some(Relationship::Customer)
        );
    }

    #[test]
    fn consensus_runs_end_to_end() {
        let corpus = star_paths();
        let inferred = consensus_infer(&corpus, &[], InferParams::default());
        assert_eq!(
            inferred.relationship(Asn(1), Asn(10)),
            Some(Relationship::Customer)
        );
    }

    #[test]
    fn accuracy_comparison_counts() {
        let mut truth = AsGraphBuilder::new();
        truth.add_provider_customer(Asn(1), Asn(2)).unwrap();
        truth.add_peering(Asn(2), Asn(3)).unwrap();
        truth.add_provider_customer(Asn(1), Asn(4)).unwrap();
        let truth = truth.finish();

        let mut inferred = AsGraphBuilder::new();
        inferred.add_provider_customer(Asn(1), Asn(2)).unwrap(); // agree
        inferred.add_provider_customer(Asn(2), Asn(3)).unwrap(); // conflict
        inferred.add_peering(Asn(9), Asn(8)).unwrap(); // spurious
        let inferred = inferred.finish(); // 1-4 missing

        let acc = InferenceAccuracy::compare(&truth, &inferred);
        assert_eq!(acc.agreeing, 1);
        assert_eq!(acc.conflicting, 1);
        assert_eq!(acc.missing, 1);
        assert_eq!(acc.spurious, 1);
        assert!((acc.accuracy() - 0.5).abs() < 1e-9);
        assert!((acc.coverage() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn accuracy_vacuous_cases() {
        let empty = AsGraph::default();
        let acc = InferenceAccuracy::compare(&empty, &empty);
        assert_eq!(acc.accuracy(), 1.0);
        assert_eq!(acc.coverage(), 1.0);
    }
}
