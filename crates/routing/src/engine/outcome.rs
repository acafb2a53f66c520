//! What a computation returns: the clean and attacked route tables with
//! their path reconstruction and pollution metrics.

use std::sync::Arc;

use aspp_topology::AsGraph;
use aspp_types::{AsPath, Asn};

use super::route::{NodeRoute, Pass, RouteInfo};
use super::spec::DestinationSpec;

/// Walks the parent chain of `idx` (inclusive) back to the source.
pub(crate) fn chain_of(pass: &Pass, idx: usize) -> Vec<usize> {
    let mut chain = vec![idx];
    let mut current = idx;
    while let Some(p) = pass.get(current).and_then(|r| r.parent) {
        chain.push(p);
        current = p;
    }
    chain
}

/// Reconstructs the path stored in `idx`'s RIB (not including `idx` itself)
/// for the given pass into `hops` (cleared first), in wire order
/// (most-recent-first), and returns them; `None` when `idx` holds no route.
/// `attack_base` supplies the attacker's stripped base path when
/// reconstructing attacked routes.
///
/// Walking the parent chain from `idx` toward the source visits export
/// steps `u -> w` from the receiver outward — exactly wire order when each
/// step's `1 + extra(u, w)` copies of `u` are pushed at the back, with the
/// attacker's base path (the hops "behind" the attacker) appended last. One
/// O(len) pass, no chain buffer, no front insertion.
fn reconstruct_into<'h>(
    graph: &AsGraph,
    spec: &DestinationSpec,
    pass: &Pass,
    attack_base: Option<(usize, &AsPath)>,
    idx: usize,
    hops: &'h mut Vec<Asn>,
) -> Option<&'h [Asn]> {
    pass.get(idx)?;
    hops.clear();
    // Follow parents, stopping at the attacker: its pinned parent chain
    // belongs to the *clean* route, while everything it exported in the
    // attacked pass carries the stripped base path instead.
    let mut w = idx;
    loop {
        if attack_base.is_some_and(|(m, _)| w == m) {
            break;
        }
        let Some(u) = pass.get(w).and_then(|r| r.parent) else {
            break;
        };
        let u_asn = graph.asn_at(u);
        let copies = if attack_base.is_some_and(|(m, _)| u == m) {
            // The attacker prepends itself exactly once.
            1
        } else {
            1 + spec.prepending().extra_for(u_asn, graph.asn_at(w))
        };
        hops.resize(hops.len() + copies, u_asn);
        w = u;
    }
    if let Some((m_idx, m_base)) = attack_base {
        if w == m_idx {
            hops.extend_from_slice(m_base.hops());
        }
    }
    Some(hops)
}

/// [`reconstruct_into`] materialized as an owned [`AsPath`] — the one-shot
/// boundary form used by per-AS accessors.
pub(super) fn reconstruct_received(
    graph: &AsGraph,
    spec: &DestinationSpec,
    pass: &Pass,
    attack_base: Option<(usize, &AsPath)>,
    idx: usize,
) -> Option<AsPath> {
    let mut hops = Vec::new();
    reconstruct_into(graph, spec, pass, attack_base, idx, &mut hops)?;
    Some(AsPath::from_hops(hops))
}

/// The result of [`compute`](crate::RoutingEngine::compute): the clean
/// equilibrium and, when an attacker was configured and connected, the
/// attacked equilibrium.
#[derive(Clone, Debug)]
pub struct RoutingOutcome<'g> {
    pub(super) spec: DestinationSpec,
    pub(super) v_idx: usize,
    pub(super) m_idx: Option<usize>,
    /// Shared with the workspace's clean-pass cache: a cache hit bumps the
    /// refcount instead of cloning the route table.
    pub(super) clean: Arc<Pass>,
    pub(super) attacked: Option<Pass>,
    /// The base path the attacker claimed (without the attacker itself), as
    /// built beside the attacked pass; `Some` exactly when `attacked` is.
    pub(super) base_path: Option<AsPath>,
    pub(super) graph: &'g AsGraph,
}

impl RoutingOutcome<'_> {
    /// The destination spec this outcome was computed for.
    #[must_use]
    pub fn spec(&self) -> &DestinationSpec {
        &self.spec
    }

    /// The victim AS.
    #[must_use]
    pub fn victim(&self) -> Asn {
        self.spec.victim()
    }

    /// The attacker AS, when an attack was simulated.
    #[must_use]
    pub fn attacker(&self) -> Option<Asn> {
        self.attacked.as_ref()?;
        self.m_idx.map(|i| self.graph.asn_at(i))
    }

    /// Returns `true` if the attacked equilibrium was computed.
    #[must_use]
    pub fn has_attack(&self) -> bool {
        self.attacked.is_some()
    }

    fn pass(&self) -> &Pass {
        self.attacked.as_ref().map_or(&self.clean, |p| p)
    }

    /// The topology this outcome was computed over.
    #[must_use]
    pub fn graph(&self) -> &AsGraph {
        self.graph
    }

    pub(crate) fn clean_pass_ref(&self) -> &Pass {
        &self.clean
    }

    pub(crate) fn attacked_pass_ref(&self) -> Option<&Pass> {
        self.attacked.as_ref()
    }

    pub(crate) fn victim_index(&self) -> usize {
        self.v_idx
    }

    pub(crate) fn attacker_index(&self) -> Option<usize> {
        self.m_idx
    }

    /// Overwrites `asn`'s route in the *final* pass (attacked if an attack
    /// ran, clean otherwise) without any consistency checking.
    ///
    /// This deliberately breaks the outcome: it exists so tests — the
    /// auditor's own negative tests and the dataplane's loop-guard test —
    /// can build corrupted equilibria that a correct engine never produces.
    /// Hidden from docs; never call it outside a test.
    ///
    /// # Panics
    ///
    /// Panics if `asn` (or the route's next hop) is not in the graph.
    #[doc(hidden)]
    pub fn override_route_unchecked(&mut self, asn: Asn, route: Option<RouteInfo>) {
        let idx = self
            .graph
            .index_of(asn)
            .unwrap_or_else(|| panic!("AS{asn} not in graph"));
        let node = route.map(|r| NodeRoute {
            class: r.class,
            len: r.effective_len,
            parent: r.next_hop.map(|hop| {
                self.graph
                    .index_of(hop)
                    .unwrap_or_else(|| panic!("next hop AS{hop} not in graph"))
            }),
            via_attacker: r.via_attacker,
        });
        match &mut self.attacked {
            Some(pass) => pass.set(idx, node),
            None => Arc::make_mut(&mut self.clean).set(idx, node),
        }
    }

    pub(crate) fn info_from(&self, pass: &Pass, asn: Asn) -> Option<RouteInfo> {
        let idx = self.graph.index_of(asn)?;
        let r = pass.get(idx)?;
        Some(RouteInfo {
            class: r.class,
            effective_len: r.len,
            next_hop: r.parent.map(|p| self.graph.asn_at(p)),
            via_attacker: r.via_attacker,
        })
    }

    /// `asn`'s best route in the final equilibrium (attacked if an attack
    /// ran, clean otherwise).
    #[must_use]
    pub fn route(&self, asn: Asn) -> Option<RouteInfo> {
        self.info_from(self.pass(), asn)
    }

    /// `asn`'s best route in the clean (pre-attack) equilibrium.
    #[must_use]
    pub fn clean_route(&self, asn: Asn) -> Option<RouteInfo> {
        self.info_from(&self.clean, asn)
    }

    /// Returns `true` if `asn` adopted the attacker's modified route.
    #[must_use]
    pub fn is_polluted(&self, asn: Asn) -> bool {
        self.route(asn).is_some_and(|r| r.via_attacker)
    }

    /// Number of ASes (excluding victim and attacker) in the evaluation.
    #[must_use]
    pub fn population(&self) -> usize {
        let mut n = self.graph.len() - 1; // minus victim
        if self.m_idx.is_some() {
            n -= 1;
        }
        n
    }

    /// Fraction of ASes (victim and attacker excluded) whose best route
    /// traverses the attacker in the attacked equilibrium — the paper's
    /// "% of paths traversing attacker, after hijack". Zero if no attack.
    #[must_use]
    pub fn polluted_fraction(&self) -> f64 {
        self.polluted_count() as f64 / self.population().max(1) as f64
    }

    /// Fraction of ASes (victim and attacker excluded) whose **clean** best
    /// path already traverses the attacker — the paper's "before hijack"
    /// baseline.
    #[must_use]
    pub fn baseline_fraction(&self) -> f64 {
        let Some(m_idx) = self.m_idx else {
            return 0.0;
        };
        // Whether i's chain passes through the attacker is its parent's
        // answer, so memoizing turns per-node chain walks into one amortized
        // O(n) sweep: walk up only until a resolved node, then unwind.
        // 0 = unresolved, 1 = misses the attacker, 2 = passes through it.
        const MISS: u8 = 1;
        const THROUGH: u8 = 2;
        let mut state = vec![0u8; self.graph.len()];
        state[m_idx] = THROUGH;
        let mut through = 0usize;
        let mut trail = Vec::new();
        for i in 0..self.graph.len() {
            if self.clean.get(i).is_none() {
                continue;
            }
            let mut cur = i;
            while state[cur] == 0 {
                trail.push(cur);
                match self.clean.get(cur).and_then(|r| r.parent) {
                    Some(p) => cur = p,
                    None => break, // hit the source without meeting the attacker
                }
            }
            let verdict = if state[cur] == 0 { MISS } else { state[cur] };
            for &n in &trail {
                state[n] = verdict;
            }
            trail.clear();
            if verdict == THROUGH && i != self.v_idx && i != m_idx {
                through += 1;
            }
        }
        through as f64 / self.population().max(1) as f64
    }

    /// The number of ASes polluted in the attacked equilibrium.
    #[must_use]
    pub fn polluted_count(&self) -> usize {
        self.polluted_nodes().count()
    }

    /// Every node that counts as polluted: it adopted the attacker's route in
    /// the attacked pass and is neither endpoint.
    fn polluted_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        let routes = self.attacked.iter().flat_map(Pass::iter).enumerate();
        routes
            .filter(|&(i, r)| {
                Some(i) != self.m_idx && i != self.v_idx && r.is_some_and(|r| r.via_attacker)
            })
            .map(|(i, _)| i)
    }

    /// Hop distance from the attacker along the polluted route's propagation
    /// tree; `Some(0)` for the attacker itself, `None` for unpolluted ASes.
    /// Models update-propagation timing for the detection-latency metric.
    #[must_use]
    pub fn pollution_distance(&self, asn: Asn) -> Option<u32> {
        let attacked = self.attacked.as_ref()?;
        let m_idx = self.m_idx?;
        let idx = self.graph.index_of(asn)?;
        if idx == m_idx {
            return Some(0);
        }
        if !attacked.get(idx).is_some_and(|r| r.via_attacker) {
            return None;
        }
        let chain = chain_of(attacked, idx);
        chain.iter().position(|&c| c == m_idx).map(|p| p as u32)
    }

    /// The attacker's claimed base path (without the attacker itself), when
    /// an attack ran: `[ASn … AS1 V^keep]` for the ASPP strip, `[V]` for the
    /// forged-adjacency baseline, and the empty path for the origin hijack
    /// (the attacker claims to *be* the origin).
    #[must_use]
    pub fn attacker_base_path(&self) -> Option<AsPath> {
        self.base_path.clone()
    }

    /// The attacker's node index with its claimed base path — the
    /// `attack_base` of [`reconstruct_into`] for the attacked pass.
    fn attack_base(&self) -> Option<(usize, &AsPath)> {
        self.m_idx.zip(self.base_path.as_ref())
    }

    /// The AS path `asn` would announce to a route collector in the final
    /// equilibrium: its own ASN prepended once to its RIB path. This is what
    /// the paper's monitors (RouteViews/RIPE peers) observe.
    #[must_use]
    pub fn observed_path(&self, asn: Asn) -> Option<AsPath> {
        self.observed_in(self.attacked.is_some(), asn)
    }

    /// Like [`observed_path`](Self::observed_path) but for the clean
    /// equilibrium — the monitors' view *before* the attack.
    #[must_use]
    pub fn clean_observed_path(&self, asn: Asn) -> Option<AsPath> {
        self.observed_in(false, asn)
    }

    fn observed_in(&self, attacked: bool, asn: Asn) -> Option<AsPath> {
        let idx = self.graph.index_of(asn)?;
        let (pass, base) = if attacked {
            (self.attacked.as_ref()?, self.attack_base())
        } else {
            (&*self.clean, None)
        };
        let received = reconstruct_received(self.graph, &self.spec, pass, base, idx)?;
        Some(received.prepended(asn))
    }

    /// Returns `true` if `asn`'s announced path differs between the clean
    /// and attacked equilibria — the observable event a route monitor can
    /// react to. Always `false` without an attack.
    #[must_use]
    pub fn route_changed(&self, asn: Asn) -> bool {
        self.attacked.is_some() && self.observed_path(asn) != self.clean_observed_path(asn)
    }

    /// Number of ASes whose announced path visibly changed under the attack.
    ///
    /// Every observed path is its received path with the AS's own ASN
    /// prepended, so comparing received paths suffices; each is built into
    /// its own reused buffer and compared as slices — the whole sweep
    /// allocates two buffers total instead of two `AsPath`s per AS.
    #[must_use]
    pub fn changed_count(&self) -> usize {
        let Some(attacked) = &self.attacked else {
            return 0;
        };
        let base = self.attack_base();
        let (mut att_hops, mut cln_hops) = (Vec::new(), Vec::new());
        let mut changed = 0usize;
        for i in 0..self.graph.len() {
            let att = reconstruct_into(self.graph, &self.spec, attacked, base, i, &mut att_hops);
            let cln = reconstruct_into(self.graph, &self.spec, &self.clean, None, i, &mut cln_hops);
            if att != cln {
                changed += 1;
            }
        }
        changed
    }

    /// Iterates over every AS in the underlying topology.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.graph.asns()
    }

    /// Iterates over all polluted ASNs.
    pub fn polluted_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.polluted_nodes().map(|i| self.graph.asn_at(i))
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::tests_support::facebook_graph;
    use crate::engine::{AttackerModel, DestinationSpec, RoutingEngine};
    use aspp_topology::gen::InternetConfig;
    use aspp_types::{well_known, Asn};

    #[test]
    fn observed_len_matches_effective_len() {
        let g = InternetConfig::small().seed(21).build();
        let engine = RoutingEngine::new(&g);
        let spec = DestinationSpec::new(Asn(20_005)).origin_padding(4);
        let outcome = engine.compute(&spec);
        for asn in g.asns() {
            if asn == Asn(20_005) {
                continue;
            }
            let info = outcome.route(asn).unwrap();
            let path = outcome.observed_path(asn).unwrap();
            assert_eq!(
                path.len() as u32,
                info.effective_len + 1,
                "AS{asn}: observed {path} vs len {}",
                info.effective_len
            );
            assert_eq!(path.origin(), Some(Asn(20_005)));
            assert!(!path.has_loop(), "AS{asn} path {path} has a loop");
        }
    }

    #[test]
    fn pollution_distance_counts_hops_from_attacker() {
        use well_known::*;
        let g = facebook_graph();
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(KOREA_TELECOM));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        assert_eq!(outcome.pollution_distance(KOREA_TELECOM), Some(0));
        assert_eq!(outcome.pollution_distance(CHINA_TELECOM), Some(1));
        assert_eq!(outcome.pollution_distance(ATT), Some(2));
        assert_eq!(outcome.pollution_distance(FACEBOOK), None);
    }
}
