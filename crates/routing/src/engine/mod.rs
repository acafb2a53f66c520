//! Per-destination route computation under Gao–Rexford policy, with an
//! optional ASPP interception attacker (the paper's Figure 2 simulator).
//!
//! # Decision order
//!
//! "BGP first selects the route based on local routing policy, which has a
//! higher priority in the decision process than the AS path length"
//! (Section II-A). Every AS ranks the routes it hears by one fixed order;
//! nothing configures it:
//!
//! 1. route class (origin > customer > peer > provider) — the local
//!    preference induced by business relationships;
//! 2. effective AS-path length, **prepends included**;
//! 3. the lowest neighbor ASN — the analogue of BGP's lowest-router-id rule.
//!
//! Rule 3 costs nothing: [`finish`](aspp_topology::AsGraphBuilder::finish)
//! numbers nodes in ascending ASN, so the lowest neighbor ASN is the lowest
//! neighbor index, and a route's packed word ranks it by all three rules.
//!
//! # Algorithm
//!
//! Every export step weakly worsens class and strictly grows length, so the
//! policy-routing equilibrium is unique: each AS holds the best offer it
//! takes among those its neighbors make from their own routes. One loop
//! computes it ([`sweep`]): it visits the graph's
//! [`PropagationOrder`](aspp_topology::PropagationOrder) — customers before
//! providers, built once per graph. Origin and customer routes climb it
//! (making their one peer hop on the way), then every route descends it in
//! reverse; the strongly connected components that provider loops and
//! sibling links make settle by a local fixpoint. The loop visits only the
//! positions marked dirty:
//!
//! * **the full pass** marks every node and starts from an absent table —
//!   every clean pass is one;
//! * **the delta pass** starts from a copy of the clean table and marks
//!   only the attacker's neighbors, then each node whose route changes, or
//!   whose route came from a node whose route changed — every attacked pass
//!   is one.
//!
//! Either way a node re-exports its route subject to the valley-free rule
//! ([`RouteClass::may_export_to`]), and the victim `V` exports its `Origin`
//! route to every neighbor with its configured padding.
//!
//! # The attacked pass
//!
//! With an attacker `M`, the engine first runs a clean pass to learn `M`'s
//! received route `r1 = [ASn … AS1 V^λ]`, then computes a second equilibrium
//! in which `M`'s best route is pinned to `r1` (it must keep a working route
//! to forward intercepted traffic) while `M` exports the *stripped* route
//! `r2 = [M ASn … AS1 V]`. ASes on `M`'s clean chain reject attacker-derived
//! labels — their own ASN is on the claimed path, so real BGP loop
//! prevention would discard the announcement. The second equilibrium is the
//! delta pass, which [`sweep`] argues is exact. Under `debug-audit` every
//! delta pass is replayed by the full pass — the sparse run checked against
//! the all-dirty one — and every outcome by the auditor.
//!
//! The rest of the tree: [`spec`] says what to compute, [`mod@propagate`]
//! the rules an offer obeys, [`route`] the packed route word (a route and
//! its rank in one `u64`) and table, [`workspace`] the delta pass's marks
//! and the clean-pass cache, [`outcome`] what comes back; this file holds
//! the entry points.

mod outcome;
mod propagate;
mod route;
mod spec;
mod sweep;
mod workspace;

use std::sync::Arc;

use aspp_topology::AsGraph;
use aspp_types::{AsPath, RouteClass};

use crate::policy::{AttackFacts, DeployedPolicy};
use outcome::reconstruct_received;
use propagate::AttackSeed;
use sweep::full_pass;

pub use outcome::RoutingOutcome;
pub use route::RouteInfo;
pub use spec::{AttackStrategy, AttackerModel, DestinationSpec, ExportMode};
pub use workspace::RouteWorkspace;

pub(crate) use outcome::chain_of;
pub(crate) use propagate::{class_at_receiver, export_row};
pub(crate) use route::Pass;

/// The policy-routing engine bound to one topology.
#[derive(Clone, Copy, Debug)]
pub struct RoutingEngine<'g> {
    graph: &'g AsGraph,
}

impl<'g> RoutingEngine<'g> {
    /// Creates an engine over `graph`.
    #[must_use]
    pub fn new(graph: &'g AsGraph) -> Self {
        RoutingEngine { graph }
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &'g AsGraph {
        self.graph
    }

    /// Computes the routing equilibrium for `spec`.
    ///
    /// Always computes the clean (no-attack) equilibrium; if `spec` carries
    /// an attacker that has a route to the victim, additionally computes the
    /// attacked equilibrium.
    ///
    /// # Panics
    ///
    /// Panics if the victim (or configured attacker) is not in the graph, or
    /// if attacker == victim.
    #[must_use]
    pub fn compute(&self, spec: &DestinationSpec) -> RoutingOutcome<'g> {
        // A throwaway workspace with caching disabled.
        self.compute_with(spec, &mut RouteWorkspace::with_cache_capacity(0))
    }

    /// Computes the routing equilibrium for `spec`, reusing `ws` for scratch
    /// allocations and the clean-pass cache.
    ///
    /// Returns exactly what [`compute`](Self::compute) returns — see
    /// [`RouteWorkspace`] for the equivalence guarantee.
    ///
    /// # Example
    ///
    /// Sweeping the victim's padding against a fixed attacker reuses the
    /// cached clean pass and the delta pass's marks across iterations:
    ///
    /// ```
    /// use aspp_routing::{AttackerModel, DestinationSpec, ExportMode, RouteWorkspace, RoutingEngine};
    /// use aspp_topology::AsGraphBuilder;
    /// use aspp_types::Asn;
    ///
    /// let mut graph = AsGraphBuilder::new();
    /// graph.add_provider_customer(Asn(1), Asn(2)).unwrap(); // victim's provider
    /// graph.add_provider_customer(Asn(1), Asn(3)).unwrap(); // attacker's 1st provider
    /// graph.add_provider_customer(Asn(5), Asn(3)).unwrap(); // attacker's 2nd provider
    /// graph.add_peering(Asn(1), Asn(5)).unwrap();
    /// let graph = graph.finish();
    /// let engine = RoutingEngine::new(&graph);
    /// let mut ws = RouteWorkspace::new();
    ///
    /// let spec = DestinationSpec::new(Asn(2))
    ///     .origin_padding(4)
    ///     .attacker(AttackerModel::new(Asn(3)).mode(ExportMode::ViolateValleyFree));
    /// let outcome = engine.compute_with(&spec, &mut ws);
    /// // AS1 sits on the attacker's clean chain, so it rejects the stripped
    /// // announcement (loop prevention) — but off-chain AS5 prefers the
    /// // shorter customer route and is intercepted.
    /// assert!(!outcome.route(Asn(1)).unwrap().via_attacker);
    /// assert!(outcome.route(Asn(5)).unwrap().via_attacker);
    /// assert!(!outcome.clean_route(Asn(5)).unwrap().via_attacker);
    /// ```
    ///
    /// # Defense
    ///
    /// A spec that carries a [`defense`](DestinationSpec::defense) has its
    /// deployers filter attacker-derived announcements at import (see
    /// [`crate::policy`]). The clean equilibrium is untouched — policies
    /// only filter attacker-derived offers — so the workspace's clean-pass
    /// cache serves a defended spec and the undefended one alike. A node
    /// that does not take its own clean parent's new offer — its import
    /// filter or loop prevention refuses it, or it ranks below the node's
    /// clean route — re-selects among its other neighbors' offers.
    /// [`audit::full_pass_divergence`](crate::audit::full_pass_divergence)
    /// replays the full pass for any outcome — the reference of
    /// `tests/{delta,flat,defense}_equivalence.rs` and of the `debug-audit`
    /// check on every delta pass.
    ///
    /// ```
    /// use std::sync::Arc;
    ///
    /// use aspp_routing::policy::{DeployedPolicy, DeploymentMap, PolicyKind};
    /// use aspp_routing::{AttackerModel, DestinationSpec, RouteWorkspace, RoutingEngine};
    /// use aspp_topology::gen::InternetConfig;
    /// use aspp_types::Asn;
    ///
    /// let graph = InternetConfig::small().seed(7).build();
    /// let engine = RoutingEngine::new(&graph);
    /// let mut ws = RouteWorkspace::new();
    /// let spec = DestinationSpec::new(Asn(20_000))
    ///     .origin_padding(4)
    ///     .attacker(AttackerModel::new(Asn(20_001)));
    /// // ROV everywhere: blind to prepend-stripping, so nothing changes.
    /// let rov = DeployedPolicy::new(
    ///     PolicyKind::Rov,
    ///     DeploymentMap::from_indices(graph.len(), 0..graph.len()),
    /// );
    /// let defended = engine.compute_with(&spec.clone().defense(Arc::new(rov)), &mut ws);
    /// let undefended = engine.compute_with(&spec, &mut ws);
    /// assert_eq!(defended.polluted_count(), undefended.polluted_count());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the victim (or configured attacker) is not in the graph, or
    /// if attacker == victim — and, when auditing is
    /// [`enabled`](crate::audit::enabled), with the audit report if the
    /// outcome violates an equilibrium invariant.
    #[must_use]
    pub fn compute_with(
        &self,
        spec: &DestinationSpec,
        ws: &mut RouteWorkspace,
    ) -> RoutingOutcome<'g> {
        let _span = aspp_obs::trace::span("engine.compute");
        let victim = spec.victim();
        let v_idx = self
            .graph
            .index_of(victim)
            .unwrap_or_else(|| panic!("victim AS{victim} not in graph"));
        let attacker = spec.attacker_model().map(|att| {
            assert_ne!(att.asn(), victim, "attacker and victim must differ");
            let m_idx = self.graph.index_of(att.asn());
            let m_idx = m_idx.unwrap_or_else(|| panic!("attacker AS{} not in graph", att.asn()));
            (att, m_idx)
        });

        let clean = ws.clean_pass(self.graph, spec, v_idx);

        let attacked = attacker.and_then(|(att, m_idx)| {
            let (seed, base_path) = self.attack_seed(spec, v_idx, &clean, att, m_idx)?;
            let pass = ws.delta_pass(self.graph, spec, v_idx, &seed, &clean);
            Some((pass, base_path))
        });
        let (attacked, base_path) = attacked.unzip();

        let outcome = RoutingOutcome {
            spec: spec.clone(),
            v_idx,
            m_idx: attacker.map(|(_, m_idx)| m_idx),
            clean,
            attacked,
            base_path,
            graph: self.graph,
        };
        if crate::audit::enabled() {
            // debug-audit oracles: every equilibrium leaves the engine
            // checked against its spec, defense included, so no caller has
            // to remember to, and every delta pass is replayed by the full
            // pass.
            crate::audit::assert_audit_clean(&outcome);
            crate::audit::assert_matches_full_pass(&outcome);
        }
        outcome
    }

    /// [`compute_with`](Self::compute_with) on `spec` defended by `policy`.
    /// Kept only until the benchmark's engine adapter (ROADMAP benchmark
    /// item (a)) calls `compute_with`.
    #[must_use]
    pub fn compute_with_policy(
        &self,
        spec: &DestinationSpec,
        ws: &mut RouteWorkspace,
        policy: &DeployedPolicy,
    ) -> RoutingOutcome<'g> {
        self.compute_with(&spec.clone().defense(Arc::new(policy.clone())), ws)
    }

    /// What attacker `att` (at node `m_idx`) announces against the clean
    /// equilibrium `clean`: the seed of its attacked pass and the base path
    /// it claims, or `None` when it has no clean route to announce from.
    fn attack_seed(
        &self,
        spec: &DestinationSpec,
        v_idx: usize,
        clean: &Pass,
        att: &AttackerModel,
        m_idx: usize,
    ) -> Option<(AttackSeed, AsPath)> {
        let m_route = clean.get(m_idx)?;
        let strategy = att.attack_strategy();
        // The one place that knows what each strategy claims: the base
        // path M announces (without M itself) and who rejects it.
        let (base_path, mut chain) = match strategy {
            AttackStrategy::StripPadding { keep } => {
                // Claimed path = M's real received route, with the
                // origin padding stripped down to `keep` copies.
                let mut m_path = reconstruct_received(self.graph, spec, clean, None, m_idx)?;
                m_path.strip_origin_padding(keep);
                (m_path, chain_of(clean, m_idx))
            }
            AttackStrategy::StripAllPadding => {
                let mut m_path = reconstruct_received(self.graph, spec, clean, None, m_idx)?;
                m_path.strip_all_padding();
                (m_path, chain_of(clean, m_idx))
            }
            // Claimed path [M V]: length 1 before M's own prepend. The
            // interceptor must not displace its own forwarding route, so
            // its clean chain still rejects the announcement ("M should
            // carefully select whom to announce to", Section II-B).
            AttackStrategy::ForgeDirect => (
                AsPath::origin_with_padding(spec.victim(), 1),
                chain_of(clean, m_idx),
            ),
            // Claimed path [M]: the attacker owns the prefix outright
            // and does not care about a forwarding route.
            AttackStrategy::OriginHijack => (AsPath::new(), vec![m_idx]),
            // Claimed path [M P ASn … V]: the stripped route plus the
            // poisoned splice. Loop prevention at P joins the rejection
            // chain alongside M's own forwarding chain.
            AttackStrategy::PoisonPath { poisoned } => {
                let mut m_path = reconstruct_received(self.graph, spec, clean, None, m_idx)?;
                m_path.strip_all_padding();
                m_path.prepend(poisoned);
                let mut chain = chain_of(clean, m_idx);
                chain.extend(self.graph.index_of(poisoned));
                (m_path, chain)
            }
        };
        chain.sort_unstable();
        let seed = AttackSeed {
            m_idx,
            base_len: base_path.len() as u32,
            clean_class: match strategy {
                // An origin hijacker poses as the prefix owner.
                AttackStrategy::OriginHijack => RouteClass::Origin,
                _ => m_route.class,
            },
            mode: att.export_mode(),
            pinned: m_route,
            chain,
            // Read only by a defense.
            facts: if spec.defense_policy().is_some() {
                let class = m_route.class;
                crate::policy::facts_for(self.graph, strategy, clean, m_idx, v_idx, class)
            } else {
                AttackFacts::default()
            },
        };
        Some((seed, base_path))
    }
}

/// `outcome`'s attacked pass recomputed from scratch by the full pass: the
/// reference of [`crate::audit::full_pass_divergence`]. `None` when the
/// outcome has no attacked pass.
pub(crate) fn full_attacked_pass(outcome: &RoutingOutcome<'_>) -> Option<Pass> {
    outcome.attacked_pass_ref()?;
    let engine = RoutingEngine::new(outcome.graph);
    let (spec, v_idx) = (&outcome.spec, outcome.v_idx);
    let att = spec.attacker_model()?;
    let (seed, _) = engine.attack_seed(spec, v_idx, &outcome.clean, att, outcome.m_idx?)?;
    Some(full_pass(outcome.graph, spec, v_idx, Some(&seed)))
}

/// Shared fixtures for this crate's tests (the Figure 1 topology).
#[cfg(test)]
pub(crate) mod tests_support {
    use aspp_topology::{AsGraph, AsGraphBuilder};
    use aspp_types::well_known;

    /// The paper's Figure 1 topology, simplified:
    ///
    /// ```text
    ///   7018(AT&T) -peer- 3356(Level3) -provider-> 32934(Facebook)
    ///   7018 -peer- 4134(ChinaTel) -provider-> 9318(KoreaTel) -provider-> 32934
    ///   2914(NTT) -peer- 7018, 2914 -peer- 4134, 2914 -peer- 3356
    /// ```
    pub(crate) fn facebook_graph() -> AsGraph {
        use well_known::*;
        let mut g = AsGraphBuilder::new();
        g.add_peering(ATT, LEVEL3).unwrap();
        g.add_peering(ATT, CHINA_TELECOM).unwrap();
        g.add_peering(NTT, ATT).unwrap();
        g.add_peering(NTT, CHINA_TELECOM).unwrap();
        g.add_peering(NTT, LEVEL3).unwrap();
        g.add_provider_customer(CHINA_TELECOM, KOREA_TELECOM)
            .unwrap();
        g.add_provider_customer(LEVEL3, FACEBOOK).unwrap();
        g.add_provider_customer(KOREA_TELECOM, FACEBOOK).unwrap();
        g.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::facebook_graph;
    use super::*;
    use crate::prepend::{PrependConfig, PrependingPolicy};
    use aspp_topology::gen::InternetConfig;
    use aspp_topology::AsGraphBuilder;
    use aspp_types::{well_known, Asn, Relationship};

    #[test]
    fn clean_routes_reach_everyone() {
        use well_known::*;
        let g = facebook_graph();
        let engine = RoutingEngine::new(&g);
        let outcome = engine.compute(&DestinationSpec::new(FACEBOOK).origin_padding(5));
        for asn in g.asns() {
            assert!(outcome.route(asn).is_some(), "AS{asn} has no route");
        }
        // AT&T reaches Facebook via Level3 (peer), with 5 origin copies:
        // observed path "7018 3356 32934 x5" = 7 hops.
        let att_path = outcome.observed_path(ATT).unwrap();
        assert_eq!(
            att_path.to_string(),
            "7018 3356 32934 32934 32934 32934 32934"
        );
        assert_eq!(att_path.origin_padding(), 5);
    }

    #[test]
    fn facebook_anomaly_reproduced() {
        use well_known::*;
        let g = facebook_graph();
        let engine = RoutingEngine::new(&g);
        // Korea Telecom strips Facebook's padding down to 3 copies.
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(KOREA_TELECOM).keep(3));
        let outcome = engine.compute(&spec);
        assert!(outcome.has_attack());

        // China Telecom is polluted: [4134 9318 32934 32934 32934].
        let ct = outcome.observed_path(CHINA_TELECOM).unwrap();
        assert_eq!(ct.to_string(), "4134 9318 32934 32934 32934");

        // AT&T switches to the anomalous route via China:
        // [7018 4134 9318 32934 32934 32934] — exactly the paper's Table.
        let att = outcome.observed_path(ATT).unwrap();
        assert_eq!(att.to_string(), "7018 4134 9318 32934 32934 32934");
        assert!(outcome.is_polluted(ATT));

        // NTT too: [2914 4134 9318 32934 32934 32934].
        let ntt = outcome.observed_path(NTT).unwrap();
        assert_eq!(ntt.to_string(), "2914 4134 9318 32934 32934 32934");
    }

    #[test]
    fn valley_free_blocks_peer_reexport() {
        // V - p1(provider), p1 -peer- p2, p2 -peer- p3. p3 must NOT learn a
        // route (peer routes don't propagate to peers) unless via providers.
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_peering(Asn(10), Asn(20)).unwrap();
        g.add_peering(Asn(20), Asn(30)).unwrap();
        let g = g.finish();
        let engine = RoutingEngine::new(&g);
        let outcome = engine.compute(&DestinationSpec::new(Asn(1)));
        assert!(outcome.route(Asn(10)).is_some());
        assert!(outcome.route(Asn(20)).is_some());
        assert_eq!(
            outcome.route(Asn(30)),
            None,
            "peer-learned route must not flow to another peer"
        );
    }

    #[test]
    fn customer_route_preferred_over_shorter_peer_route() {
        // X has a long customer path and a short peer path to V; policy wins.
        let mut g = AsGraphBuilder::new();
        let (v, x) = (Asn(1), Asn(100));
        // Customer chain: x -> c1 -> c2 -> v (x provides c1, etc.)
        g.add_provider_customer(x, Asn(11)).unwrap();
        g.add_provider_customer(Asn(11), Asn(12)).unwrap();
        g.add_provider_customer(Asn(12), v).unwrap();
        // Short peer path: x -peer- p, p provides v.
        g.add_peering(x, Asn(50)).unwrap();
        g.add_provider_customer(Asn(50), v).unwrap();
        let g = g.finish();
        let outcome = RoutingEngine::new(&g).compute(&DestinationSpec::new(v));
        let route = outcome.route(x).unwrap();
        assert_eq!(route.class, RouteClass::FromCustomer);
        assert_eq!(route.next_hop, Some(Asn(11)));
        assert_eq!(route.effective_len, 3);
    }

    #[test]
    fn prepending_diverts_route_selection() {
        // V multi-homed to providers 10 and 20; X above both. Padding toward
        // 10 pushes X's route through 20.
        let mut g = AsGraphBuilder::new();
        let (v, x) = (Asn(1), Asn(99));
        g.add_provider_customer(Asn(10), v).unwrap();
        g.add_provider_customer(Asn(20), v).unwrap();
        g.add_provider_customer(x, Asn(10)).unwrap();
        g.add_provider_customer(x, Asn(20)).unwrap();
        let g = g.finish();
        let engine = RoutingEngine::new(&g);

        // No padding: tie broken by lowest neighbor ASN -> via 10.
        let outcome = engine.compute(&DestinationSpec::new(v));
        assert_eq!(outcome.route(x).unwrap().next_hop, Some(Asn(10)));

        // Pad the announcement toward 10 only.
        let mut config = PrependConfig::new();
        config.set(v, PrependingPolicy::per_neighbor(0, [(Asn(10), 3)]));
        let outcome = engine.compute(&DestinationSpec::new(v).prepend_config(config));
        assert_eq!(outcome.route(x).unwrap().next_hop, Some(Asn(20)));
        // And the observed path shows the padding on the loser side only.
        assert_eq!(outcome.observed_path(x).unwrap().to_string(), "99 20 1");
    }

    #[test]
    fn paths_are_valley_free() {
        let g = InternetConfig::small().seed(22).build();
        let engine = RoutingEngine::new(&g);
        let outcome = engine.compute(&DestinationSpec::new(Asn(20_000)).origin_padding(2));
        for asn in g.asns() {
            let Some(path) = outcome.observed_path(asn) else {
                continue;
            };
            assert_valley_free(&g, &path);
        }
    }

    /// Checks the Customer-Provider* Peer-Peer? Provider-Customer* shape in
    /// travel order (origin first).
    fn assert_valley_free(g: &AsGraph, path: &AsPath) {
        let mut travel = path.collapsed();
        travel.reverse();
        // Phases: 0 = climbing (c2p), 1 = after peer, 2 = descending.
        let mut phase = 0;
        for w in travel.windows(2) {
            let rel = g
                .relationship(w[0], w[1])
                .unwrap_or_else(|| panic!("no link {} {} in path {path}", w[0], w[1]));
            match rel {
                Relationship::Provider | Relationship::Sibling => {
                    assert_eq!(phase, 0, "uphill after peak in {path}");
                }
                Relationship::Peer => {
                    assert!(phase == 0, "second peer edge in {path}");
                    phase = 1;
                }
                Relationship::Customer => {
                    phase = 2;
                }
            }
        }
    }

    #[test]
    fn attack_strips_padding_and_pollutes() {
        use well_known::*;
        let g = facebook_graph();
        let engine = RoutingEngine::new(&g);
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(KOREA_TELECOM));
        let outcome = engine.compute(&spec);
        let base = outcome.attacker_base_path().unwrap();
        assert_eq!(
            base.to_string(),
            "32934",
            "stripped to a single origin copy"
        );
        assert!(outcome.polluted_fraction() > 0.0);
        assert!(outcome.baseline_fraction() < outcome.polluted_fraction());
        // The victim itself is never polluted.
        assert!(!outcome.is_polluted(FACEBOOK));
        // The attacker keeps its clean route.
        assert!(!outcome.route(KOREA_TELECOM).unwrap().via_attacker);
    }

    #[test]
    fn no_padding_means_nothing_to_strip() {
        use well_known::*;
        let g = facebook_graph();
        let engine = RoutingEngine::new(&g);
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(1)
            .attacker(AttackerModel::new(KOREA_TELECOM));
        let outcome = engine.compute(&spec);
        // The "modified" route is no shorter than the real one; pollution can
        // only come from ties, and AT&T's real route via Level3 (peer, len 2)
        // beats the attacker route (peer, len 3).
        assert!(!outcome.is_polluted(ATT));
    }

    #[test]
    fn compliant_attacker_cannot_export_provider_route_uphill() {
        // V(1) and M(30) both customers of shared provider chains; M learns
        // the route from its provider and must not re-export to its other
        // provider when compliant — but may when violating.
        let mut g = AsGraphBuilder::new();
        let (v, m) = (Asn(1), Asn(30));
        g.add_provider_customer(Asn(10), v).unwrap();
        g.add_provider_customer(Asn(10), m).unwrap();
        g.add_provider_customer(Asn(20), m).unwrap();
        g.add_provider_customer(Asn(11), Asn(20)).unwrap(); // 20's provider 11
        g.add_peering(Asn(11), Asn(10)).unwrap();
        let g = g.finish();
        let engine = RoutingEngine::new(&g);

        let spec = DestinationSpec::new(v)
            .origin_padding(4)
            .attacker(AttackerModel::new(m));
        let outcome = engine.compute(&spec);
        assert!(
            !outcome.is_polluted(Asn(20)),
            "compliant attacker must not announce provider-learned route to provider 20"
        );

        let spec = DestinationSpec::new(v)
            .origin_padding(4)
            .attacker(AttackerModel::new(m).mode(ExportMode::ViolateValleyFree));
        let outcome = engine.compute(&spec);
        assert!(
            outcome.is_polluted(Asn(20)),
            "violating attacker reaches its provider"
        );
        // And it spreads: 20's provider 11 prefers the customer route via 20.
        assert!(outcome.is_polluted(Asn(11)));
    }

    #[test]
    fn chain_nodes_reject_looped_attack_routes() {
        // Line: V(1) <- A(2) <- B(3) <- M(4), victim pads heavily. The
        // stripped route through M claims [M B A V]; A and B must ignore it.
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(2), Asn(1)).unwrap();
        g.add_provider_customer(Asn(3), Asn(2)).unwrap();
        g.add_provider_customer(Asn(4), Asn(3)).unwrap();
        let g = g.finish();
        let spec = DestinationSpec::new(Asn(1))
            .origin_padding(8)
            .attacker(AttackerModel::new(Asn(4)));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        assert!(!outcome.is_polluted(Asn(2)));
        assert!(!outcome.is_polluted(Asn(3)));
        assert_eq!(outcome.polluted_count(), 0);
    }

    #[test]
    fn more_padding_more_pollution() {
        let g = InternetConfig::small().seed(23).build();
        let engine = RoutingEngine::new(&g);
        let victim = Asn(1_000);
        let attacker = Asn(1_001);
        let mut last = 0.0;
        for padding in 1..=6 {
            let spec = DestinationSpec::new(victim)
                .origin_padding(padding)
                .attacker(AttackerModel::new(attacker));
            let outcome = engine.compute(&spec);
            let f = outcome.polluted_fraction();
            assert!(
                f >= last - 1e-9,
                "pollution should not decrease with padding: {f} < {last} at λ={padding}"
            );
            last = f;
        }
        assert!(last > 0.0, "some pollution with heavy padding");
    }

    #[test]
    #[should_panic(expected = "victim AS999999 not in graph")]
    fn unknown_victim_panics() {
        let g = facebook_graph();
        let _ = RoutingEngine::new(&g).compute(&DestinationSpec::new(Asn(999_999)));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn attacker_equals_victim_panics() {
        let g = facebook_graph();
        let spec = DestinationSpec::new(well_known::FACEBOOK)
            .attacker(AttackerModel::new(well_known::FACEBOOK));
        let _ = RoutingEngine::new(&g).compute(&spec);
    }

    #[test]
    fn disconnected_attacker_yields_clean_outcome() {
        let mut g = facebook_graph().to_builder();
        g.add_as(Asn(77_777)); // isolated AS
        let g = g.finish();
        let spec = DestinationSpec::new(well_known::FACEBOOK)
            .origin_padding(4)
            .attacker(AttackerModel::new(Asn(77_777)));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        assert!(!outcome.has_attack());
        assert_eq!(outcome.polluted_fraction(), 0.0);
        assert_eq!(outcome.attacker(), None);
    }

    #[test]
    fn forge_direct_baseline_claims_adjacency() {
        use well_known::*;
        let g = facebook_graph();
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(ATT).strategy(AttackStrategy::ForgeDirect));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        assert_eq!(outcome.attacker_base_path().unwrap().to_string(), "32934");
        // NTT adopts the forged 2-hop route over its legit 7-hop one.
        assert!(outcome.is_polluted(NTT));
        let ntt = outcome.observed_path(NTT).unwrap();
        assert_eq!(ntt.to_string(), "2914 7018 32934");
        // The claimed adjacency 7018-32934 does not exist in the topology.
        assert_eq!(g.relationship(ATT, FACEBOOK), None);
    }

    #[test]
    fn origin_hijack_baseline_steals_the_prefix() {
        use well_known::*;
        let g = facebook_graph();
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(CHINA_TELECOM).strategy(AttackStrategy::OriginHijack));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        assert!(outcome.attacker_base_path().unwrap().is_empty());
        // Polluted ASes now see CHINA_TELECOM as the origin: a MOAS conflict.
        let mut saw_moas = false;
        for asn in g.asns() {
            let path = outcome.observed_path(asn).unwrap();
            if outcome.is_polluted(asn) {
                assert_eq!(path.origin(), Some(CHINA_TELECOM), "blackholed: {path}");
                saw_moas = true;
            } else if asn != CHINA_TELECOM {
                assert_eq!(path.origin(), Some(FACEBOOK));
            }
        }
        assert!(saw_moas, "a 1-hop bogus origin must displace 7-hop routes");
    }

    #[test]
    fn strip_all_padding_collapses_intermediary_runs() {
        // Intermediary padder P between V and M: the generalized strip
        // shortens more than the origin-only strip.
        let mut g = AsGraphBuilder::new();
        let (v, p, m, x) = (Asn(1), Asn(10), Asn(20), Asn(30));
        g.add_provider_customer(p, v).unwrap();
        g.add_provider_customer(m, p).unwrap();
        g.add_provider_customer(x, m).unwrap();
        // An alternative clean route for x so there is competition.
        g.add_provider_customer(Asn(40), v).unwrap();
        g.add_provider_customer(x, Asn(40)).unwrap();
        let g = g.finish();

        let mut config = PrependConfig::new();
        config.set(v, PrependingPolicy::Uniform(2)); // λ = 3
        config.set(p, PrependingPolicy::Uniform(3)); // intermediary ×4

        let engine = RoutingEngine::new(&g);
        let origin_only = engine.compute(
            &DestinationSpec::new(v)
                .prepend_config(config.clone())
                .attacker(AttackerModel::new(m)),
        );
        let all = engine.compute(
            &DestinationSpec::new(v)
                .prepend_config(config)
                .attacker(AttackerModel::new(m).strategy(AttackStrategy::StripAllPadding)),
        );
        let base_origin = origin_only.attacker_base_path().unwrap();
        let base_all = all.attacker_base_path().unwrap();
        assert_eq!(base_origin.to_string(), "10 10 10 10 1");
        assert_eq!(base_all.to_string(), "10 1");
        assert!(base_all.len() < base_origin.len());
        assert!(all.polluted_fraction() >= origin_only.polluted_fraction());
    }

    #[test]
    fn aspp_strategy_keeps_real_links_and_origin() {
        use well_known::*;
        let g = facebook_graph();
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(KOREA_TELECOM));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        for asn in g.asns() {
            let path = outcome.observed_path(asn).unwrap();
            // Origin unchanged everywhere…
            assert_eq!(path.origin(), Some(FACEBOOK));
            // …and every collapsed adjacency is a real link.
            for w in path.collapsed().windows(2) {
                assert!(
                    g.relationship(w[0], w[1]).is_some(),
                    "bogus link {} {} in {path}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn sibling_links_propagate_routes() {
        // V's provider P has a sibling S; S must reach V through the sibling
        // link with customer-class preference.
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_sibling(Asn(10), Asn(11)).unwrap();
        g.add_provider_customer(Asn(11), Asn(2)).unwrap(); // S has a customer 2
        let g = g.finish();
        let outcome = RoutingEngine::new(&g).compute(&DestinationSpec::new(Asn(1)));
        let s = outcome.route(Asn(11)).unwrap();
        assert_eq!(s.class, RouteClass::FromCustomer);
        // And S re-exports to its own customer.
        assert!(outcome.route(Asn(2)).is_some());
    }
}
