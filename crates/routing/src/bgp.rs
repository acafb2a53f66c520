//! An event-driven, message-level BGP simulator.
//!
//! Where [`RoutingEngine`](crate::RoutingEngine) computes the policy-routing
//! equilibrium directly (the paper's Figure 2 algorithm), this module
//! simulates the protocol itself: per-AS Adj-RIB-In tables, announcement
//! and withdrawal messages on a FIFO queue, receiver-side loop detection,
//! the full decision process on every RIB change, and valley-free
//! re-advertisement — until the network converges.
//!
//! Gao–Rexford policies guarantee convergence, and at convergence the two
//! implementations must agree on every AS's best route; the test suite (and
//! `tests/engine_equivalence.rs`) checks exactly that, making each engine a
//! correctness oracle for the other.
//!
//! The attacker is modelled behaviourally: whenever its best route changes
//! it advertises the *modified* announcement (stripped padding, forged
//! adjacency, or stolen origin) within its export scope, instead of its
//! genuine best route.
//!
//! # Example
//!
//! ```
//! use aspp_routing::bgp::BgpSimulation;
//! use aspp_routing::{DestinationSpec, RoutingEngine};
//! use aspp_topology::gen::InternetConfig;
//! use aspp_types::Asn;
//!
//! let graph = InternetConfig::small().seed(3).build();
//! let spec = DestinationSpec::new(Asn(20_000)).origin_padding(3);
//! let message_level = BgpSimulation::new(&graph).run(&spec);
//! let equilibrium = RoutingEngine::new(&graph).compute(&spec);
//! for asn in graph.asns() {
//!     assert_eq!(
//!         message_level.route(asn).map(|r| r.effective_len),
//!         equilibrium.route(asn).map(|r| r.effective_len),
//!     );
//! }
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use aspp_topology::AsGraph;
use aspp_types::{AsPath, Asn, Relationship, RouteClass};

use crate::engine::{AttackStrategy, DestinationSpec, ExportMode, RouteInfo};

/// One route held in an Adj-RIB-In slot.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RibRoute {
    /// The received path (not including the local AS).
    path: AsPath,
    /// Local preference class, fixed by the neighbor relationship.
    class: RouteClass,
    /// Whether the route descends from the attacker's modified announcement.
    tainted: bool,
    /// ASes that must never adopt this route: the attacker's own forwarding
    /// chain. Models the paper's careful interceptor ("M should carefully
    /// select whom to announce to, to ensure its own valid route to the
    /// origin AS V is not affected") — for the ASPP strip the claimed path
    /// itself reveals the chain and ordinary loop detection suffices, but
    /// the forged-adjacency and origin-hijack baselines hide it.
    poison: Option<Arc<Vec<Asn>>>,
}

/// A BGP message in flight.
#[derive(Clone, Debug)]
struct Message {
    from: usize,
    to: usize,
    /// `Some(route)` announces, `None` withdraws.
    route: Option<RibRoute>,
}

/// Per-AS protocol state.
#[derive(Clone, Debug, Default)]
struct NodeState {
    /// Adj-RIB-In: best announcement currently held from each neighbor.
    adj_rib_in: BTreeMap<usize, RibRoute>,
    /// The selected best route (`None` at the origin, which self-originates).
    best: Option<(usize, RibRoute)>,
    /// What we last advertised to each neighbor, path and class (`None`
    /// entries mean we advertised and then withdrew; absent means never
    /// advertised). The class matters across sibling links, which inherit
    /// it: a best route that changes class but not path is news there.
    advertised: BTreeMap<usize, Option<(AsPath, RouteClass)>>,
}

/// The converged result of a message-level simulation.
#[derive(Clone, Debug)]
pub struct BgpOutcome {
    asn_of: Vec<Asn>,
    index: std::collections::HashMap<Asn, usize>,
    victim: Asn,
    best: Vec<Option<(Asn, RibRoute)>>,
    /// The attacker's modified announcement (without its own prepend), if an
    /// attacker converged with a route: what collectors hear from it.
    attacker_announcement: Option<(Asn, AsPath)>,
    messages_processed: usize,
}

impl BgpOutcome {
    /// The best route of `asn`, in the engine's [`RouteInfo`] terms.
    #[must_use]
    pub fn route(&self, asn: Asn) -> Option<RouteInfo> {
        if asn == self.victim {
            return Some(RouteInfo {
                class: RouteClass::Origin,
                effective_len: 0,
                next_hop: None,
                via_attacker: false,
            });
        }
        let idx = *self.index.get(&asn)?;
        let (next_hop, route) = self.best[idx].as_ref()?;
        Some(RouteInfo {
            class: route.class,
            effective_len: route.path.len() as u32,
            next_hop: Some(*next_hop),
            via_attacker: route.tainted,
        })
    }

    /// The path stored in `asn`'s Loc-RIB (not including `asn` itself).
    #[must_use]
    pub fn received_path(&self, asn: Asn) -> Option<AsPath> {
        if asn == self.victim {
            return Some(AsPath::new());
        }
        let idx = *self.index.get(&asn)?;
        self.best[idx].as_ref().map(|(_, r)| r.path.clone())
    }

    /// The path `asn` would announce to a route collector. For the attacker
    /// that is its *modified* announcement, not its genuine best route.
    #[must_use]
    pub fn observed_path(&self, asn: Asn) -> Option<AsPath> {
        if let Some((m, base)) = &self.attacker_announcement {
            if *m == asn {
                return Some(base.prepended(asn));
            }
        }
        Some(self.received_path(asn)?.prepended(asn))
    }

    /// Total messages processed before convergence — the protocol-level
    /// cost the equilibrium engine abstracts away.
    #[must_use]
    pub fn messages_processed(&self) -> usize {
        self.messages_processed
    }

    /// Number of ASes holding a route (the origin included).
    #[must_use]
    pub fn reachable_count(&self) -> usize {
        1 + self.best.iter().filter(|b| b.is_some()).count()
    }

    fn all_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.asn_of.iter().copied()
    }

    /// Fraction of ASes (excluding victim and attacker) whose best route is
    /// tainted by the attacker's announcement.
    #[must_use]
    pub fn polluted_fraction(&self, attacker: Option<Asn>) -> f64 {
        let mut polluted = 0usize;
        let mut population = 0usize;
        for asn in self.all_asns() {
            if asn == self.victim || Some(asn) == attacker {
                continue;
            }
            population += 1;
            if self.route(asn).is_some_and(|r| r.via_attacker) {
                polluted += 1;
            }
        }
        polluted as f64 / population.max(1) as f64
    }
}

/// The message-level simulator, bound to one topology.
#[derive(Clone, Copy, Debug)]
pub struct BgpSimulation<'g> {
    graph: &'g AsGraph,
    max_messages: usize,
}

impl<'g> BgpSimulation<'g> {
    /// Creates a simulator over `graph` with a generous message budget.
    #[must_use]
    pub fn new(graph: &'g AsGraph) -> Self {
        BgpSimulation {
            graph,
            // Gao-Rexford policies converge; the cap is a safety net sized
            // far above any observed run (≈ E * diameter messages).
            max_messages: graph.len().saturating_mul(graph.len()).saturating_mul(20) + 10_000,
        }
    }

    /// Overrides the message budget (mostly for tests).
    #[must_use]
    pub fn max_messages(mut self, max: usize) -> Self {
        self.max_messages = max;
        self
    }

    /// Runs the protocol to convergence for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the victim (or attacker) is not in the graph, if attacker
    /// equals victim, if the spec carries a
    /// [`defense`](DestinationSpec::defense) (the simulator models no import
    /// filter yet), or if the message budget is exhausted (which would
    /// indicate a policy-dispute bug, impossible under Gao–Rexford).
    #[must_use]
    pub fn run(&self, spec: &DestinationSpec) -> BgpOutcome {
        assert!(
            spec.defense_policy().is_none(),
            "BgpSimulation models no import filter: a defended spec waits for \
             the ROADMAP item \"An independent oracle for policied passes\""
        );
        let n = self.graph.len();
        let v_idx = self
            .graph
            .index_of(spec.victim())
            .unwrap_or_else(|| panic!("victim AS{} not in graph", spec.victim()));
        let m_idx = spec.attacker_model().map(|a| {
            assert_ne!(a.asn(), spec.victim(), "attacker and victim must differ");
            self.graph
                .index_of(a.asn())
                .unwrap_or_else(|| panic!("attacker AS{} not in graph", a.asn()))
        });

        // The attacker's clean forwarding chain, used as the poison set for
        // strategies whose claimed path hides it (computed by a preliminary
        // clean simulation, exactly as the equilibrium engine derives it
        // from its clean pass).
        let attacker_poison: Option<Arc<Vec<Asn>>> = m_idx.map(|m| {
            let clean_spec =
                DestinationSpec::new(spec.victim()).prepend_config(spec.prepending().clone());
            let clean = self.run(&clean_spec);
            let mut chain = vec![self.graph.asn_at(m)];
            let mut current = self.graph.asn_at(m);
            while let Some(info) = clean.route(current) {
                match info.next_hop {
                    Some(next) => {
                        chain.push(next);
                        current = next;
                    }
                    None => break,
                }
            }
            Arc::new(chain)
        });

        let mut nodes: Vec<NodeState> = vec![NodeState::default(); n];
        let mut queue: VecDeque<Message> = VecDeque::new();

        // The origin self-originates and advertises to every neighbor.
        let victim_asn = spec.victim();
        for nbr in self
            .graph
            .neighbors_at(v_idx)
            .iter()
            .map(|e| e.node() as usize)
        {
            let copies = 1 + spec
                .prepending()
                .extra_for(victim_asn, self.graph.asn_at(nbr));
            queue.push_back(Message {
                from: v_idx,
                to: nbr,
                route: Some(RibRoute {
                    path: AsPath::origin_with_padding(victim_asn, copies),
                    class: RouteClass::Origin, // re-classified at the receiver
                    tainted: false,
                    poison: None,
                }),
            });
        }

        // An origin hijacker originates the prefix outright: its bogus
        // announcement goes out once, unconditionally, exactly like the real
        // origin's — it needs no route of its own to blackhole traffic.
        if let (Some(m), Some(attacker)) = (m_idx, spec.attacker_model()) {
            if matches!(attacker.attack_strategy(), AttackStrategy::OriginHijack) {
                let m_asn = self.graph.asn_at(m);
                for nbr in self.graph.neighbors_at(m).iter().map(|e| e.node() as usize) {
                    queue.push_back(Message {
                        from: m,
                        to: nbr,
                        route: Some(RibRoute {
                            path: AsPath::origin_with_padding(m_asn, 1),
                            class: RouteClass::Origin,
                            tainted: true,
                            poison: None,
                        }),
                    });
                }
            }
        }

        let mut processed = 0usize;
        while let Some(msg) = queue.pop_front() {
            processed += 1;
            assert!(
                processed <= self.max_messages,
                "message budget exhausted: policy dispute or budget too small"
            );
            let to = msg.to;
            if to == v_idx {
                continue; // the origin's route never changes
            }
            let to_asn = self.graph.asn_at(to);
            let rel_of_from = self
                .graph
                .neighbors_at(to)
                .iter()
                .find(|e| e.node() as usize == msg.from)
                .map(|e| e.rel())
                .expect("messages travel only over links");

            // Receiver-side import: loop detection, then classification.
            let imported = msg.route.and_then(|r| {
                if r.path.contains(to_asn) || r.poison.as_ref().is_some_and(|p| p.contains(&to_asn))
                {
                    None // AS path loop (or poisoned chain): discard
                } else {
                    let class = class_at_receiver(r.class, rel_of_from);
                    Some(RibRoute {
                        path: r.path,
                        class,
                        tainted: r.tainted,
                        poison: r.poison,
                    })
                }
            });
            match imported {
                Some(route) => {
                    nodes[to].adj_rib_in.insert(msg.from, route);
                }
                None => {
                    nodes[to].adj_rib_in.remove(&msg.from);
                }
            }

            // Decision process.
            let new_best = select_best(self.graph, &nodes[to]);
            if new_best == nodes[to].best {
                continue;
            }
            nodes[to].best = new_best;

            // (Re-)advertise. The attacker advertises its modified route.
            let exports = if Some(to) == m_idx {
                attacker_exports(self.graph, spec, to, &nodes[to], &attacker_poison)
            } else {
                normal_exports(self.graph, spec, to, &nodes[to])
            };
            for (nbr, payload) in exports {
                let already = nodes[to].advertised.get(&nbr);
                let new_path = payload.as_ref().map(|r| (r.path.clone(), r.class));
                let old_path = already.and_then(|p| p.clone());
                if already.is_some() && old_path == new_path {
                    continue; // nothing new for this neighbor
                }
                if already.is_none() && new_path.is_none() {
                    continue; // never advertised, nothing to withdraw
                }
                nodes[to].advertised.insert(nbr, new_path);
                queue.push_back(Message {
                    from: to,
                    to: nbr,
                    route: payload,
                });
            }
        }

        // Capture the attacker's final announcement for collector views.
        let attacker_announcement = m_idx.and_then(|m| {
            let attacker = spec.attacker_model().expect("m_idx implies attacker");
            let (_, best) = nodes[m].best.as_ref()?;
            let base = match attacker.attack_strategy() {
                AttackStrategy::StripPadding { keep } => {
                    let mut p = best.path.clone();
                    p.strip_origin_padding(keep);
                    p
                }
                AttackStrategy::StripAllPadding => {
                    let mut p = best.path.clone();
                    p.strip_all_padding();
                    p
                }
                AttackStrategy::ForgeDirect => AsPath::origin_with_padding(spec.victim(), 1),
                AttackStrategy::OriginHijack => AsPath::new(),
                AttackStrategy::PoisonPath { poisoned } => {
                    let mut p = best.path.clone();
                    p.strip_all_padding();
                    p.prepend(poisoned);
                    p
                }
            };
            Some((self.graph.asn_at(m), base))
        });

        BgpOutcome {
            asn_of: (0..n).map(|i| self.graph.asn_at(i)).collect(),
            index: (0..n).map(|i| (self.graph.asn_at(i), i)).collect(),
            victim: victim_asn,
            best: nodes
                .into_iter()
                .map(|s| s.best.map(|(nbr, r)| (self.graph.asn_at(nbr), r)))
                .collect(),
            attacker_announcement,
            messages_processed: processed,
        }
    }
}

/// The decision process over an Adj-RIB-In: class, then effective length,
/// then the lowest neighbor ASN.
fn select_best(graph: &AsGraph, node: &NodeState) -> Option<(usize, RibRoute)> {
    node.adj_rib_in
        .iter()
        .min_by_key(|&(&nbr, r)| (r.class, r.path.len(), graph.asn_at(nbr)))
        .map(|(&nbr, r)| (nbr, r.clone()))
}

/// Class a route acquires at the receiver (mirrors the engine's rule,
/// sibling links inherit the sender's class).
fn class_at_receiver(sender_class: RouteClass, rel_of_sender: Relationship) -> RouteClass {
    match rel_of_sender {
        Relationship::Sibling => match sender_class {
            RouteClass::Origin => RouteClass::FromCustomer,
            other => other,
        },
        other => RouteClass::from_neighbor(other),
    }
}

/// Normal valley-free exports of the node's best route.
fn normal_exports(
    graph: &AsGraph,
    spec: &DestinationSpec,
    node: usize,
    state: &NodeState,
) -> Vec<(usize, Option<RibRoute>)> {
    let node_asn = graph.asn_at(node);
    graph
        .neighbors_at(node)
        .iter()
        .map(|e| {
            let (nbr, rel_of_nbr) = (e.node() as usize, e.rel());
            let payload = state.best.as_ref().and_then(|(_, best)| {
                if !best.class.may_export_to(rel_of_nbr) {
                    return None;
                }
                let copies = 1 + spec.prepending().extra_for(node_asn, graph.asn_at(nbr));
                let mut path = best.path.clone();
                path.prepend_n(node_asn, copies);
                Some(RibRoute {
                    path,
                    class: best.class,
                    tainted: best.tainted,
                    poison: best.poison.clone(),
                })
            });
            (nbr, payload)
        })
        .collect()
}

/// The attacker's exports: the modified announcement within its export
/// scope (it never advertises its genuine best route). `poison` is the
/// attacker's clean forwarding chain, embedded so chain ASes never adopt
/// the modified route.
fn attacker_exports(
    graph: &AsGraph,
    spec: &DestinationSpec,
    node: usize,
    state: &NodeState,
    poison: &Option<Arc<Vec<Asn>>>,
) -> Vec<(usize, Option<RibRoute>)> {
    let attacker = spec.attacker_model().expect("node is the attacker");
    let node_asn = graph.asn_at(node);
    let Some((_, best)) = state.best.as_ref() else {
        // No route to modify (and an origin hijack of an unreachable prefix
        // is still possible, but we mirror the engine: no route, no attack).
        return graph
            .neighbors_at(node)
            .iter()
            .map(|e| (e.node() as usize, None))
            .collect();
    };

    let modified = match attacker.attack_strategy() {
        AttackStrategy::StripPadding { keep } => {
            let mut p = best.path.clone();
            p.strip_origin_padding(keep);
            p
        }
        AttackStrategy::StripAllPadding => {
            let mut p = best.path.clone();
            p.strip_all_padding();
            p
        }
        AttackStrategy::ForgeDirect => AsPath::origin_with_padding(spec.victim(), 1),
        // Origin hijacks were announced unconditionally at start-up; the
        // attacker's own best route never changes what it lies about.
        AttackStrategy::OriginHijack => return Vec::new(),
        // The claimed path carries the poisoned ASN, so ordinary loop
        // prevention rejects it there — no extra poison-set machinery.
        AttackStrategy::PoisonPath { poisoned } => {
            let mut p = best.path.clone();
            p.strip_all_padding();
            p.prepend(poisoned);
            p
        }
    };
    let export_class = best.class;

    graph
        .neighbors_at(node)
        .iter()
        .map(|e| {
            let (nbr, rel_of_nbr) = (e.node() as usize, e.rel());
            let allowed = match attacker.export_mode() {
                ExportMode::ViolateValleyFree => true,
                ExportMode::Compliant => match attacker.attack_strategy() {
                    AttackStrategy::OriginHijack => true,
                    _ => match rel_of_nbr {
                        Relationship::Customer | Relationship::Sibling | Relationship::Peer => true,
                        Relationship::Provider => export_class.may_export_to(rel_of_nbr),
                    },
                },
            };
            let payload = allowed.then(|| RibRoute {
                path: modified.prepended(node_asn),
                class: export_class,
                tainted: true,
                poison: poison.clone(),
            });
            (nbr, payload)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AttackerModel, RoutingEngine};
    use aspp_topology::gen::InternetConfig;
    use aspp_types::well_known;

    fn check_equivalence(graph: &AsGraph, spec: &DestinationSpec) {
        let sim = BgpSimulation::new(graph).run(spec);
        let engine = RoutingEngine::new(graph).compute(spec);
        for asn in graph.asns() {
            let a = sim.route(asn);
            let b = engine.route(asn);
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.class, b.class, "class mismatch at AS{asn}");
                    assert_eq!(
                        a.effective_len, b.effective_len,
                        "length mismatch at AS{asn}"
                    );
                    assert_eq!(a.next_hop, b.next_hop, "next hop mismatch at AS{asn}");
                    assert_eq!(a.via_attacker, b.via_attacker, "taint mismatch at AS{asn}");
                }
                (a, b) => assert_eq!(a.is_some(), b.is_some(), "reachability mismatch at AS{asn}"),
            }
        }
    }

    #[test]
    fn clean_simulation_matches_engine_on_facebook_topology() {
        let g = crate::engine::tests_support::facebook_graph();
        check_equivalence(
            &g,
            &DestinationSpec::new(well_known::FACEBOOK).origin_padding(5),
        );
    }

    #[test]
    fn clean_simulation_matches_engine_on_generated_internet() {
        let g = InternetConfig::small().seed(61).build();
        for victim in [Asn(100), Asn(1_000), Asn(10_000), Asn(20_000), Asn(90_000)] {
            for pad in [1, 3] {
                check_equivalence(&g, &DestinationSpec::new(victim).origin_padding(pad));
            }
        }
    }

    #[test]
    fn attacked_simulation_matches_engine() {
        let g = InternetConfig::small().seed(62).build();
        for (victim, attacker) in [
            (Asn(20_000), Asn(100)),   // tier-1 attacker
            (Asn(100), Asn(90_000)),   // content attacker vs tier-1
            (Asn(20_001), Asn(1_002)), // tier-2 attacker
        ] {
            for mode in [ExportMode::Compliant, ExportMode::ViolateValleyFree] {
                let spec = DestinationSpec::new(victim)
                    .origin_padding(4)
                    .attacker(AttackerModel::new(attacker).mode(mode));
                check_equivalence(&g, &spec);
            }
        }
    }

    #[test]
    fn baseline_strategies_match_engine() {
        let g = crate::engine::tests_support::facebook_graph();
        use well_known::*;
        for strategy in [
            AttackStrategy::StripPadding { keep: 2 },
            AttackStrategy::ForgeDirect,
            AttackStrategy::OriginHijack,
        ] {
            let spec = DestinationSpec::new(FACEBOOK)
                .origin_padding(5)
                .attacker(AttackerModel::new(CHINA_TELECOM).strategy(strategy));
            check_equivalence(&g, &spec);
        }
    }

    #[test]
    fn per_neighbor_padding_matches_engine() {
        use crate::prepend::{PrependConfig, PrependingPolicy};
        let g = InternetConfig::small().seed(63).build();
        let victim = Asn(20_003);
        let mut config = PrependConfig::new();
        let providers: Vec<Asn> = g.providers(victim).collect();
        if let Some(&first) = providers.first() {
            config.set(victim, PrependingPolicy::per_neighbor(3, [(first, 0)]));
        }
        // An intermediary padder too.
        config.set(Asn(1_001), PrependingPolicy::Uniform(2));
        let spec = DestinationSpec::new(victim).prepend_config(config);
        check_equivalence(&g, &spec);
    }

    #[test]
    fn convergence_message_counts_are_sane() {
        let g = InternetConfig::small().seed(64).build();
        let outcome = BgpSimulation::new(&g).run(&DestinationSpec::new(Asn(20_000)));
        assert_eq!(outcome.reachable_count(), g.len());
        // Convergence takes O(E·diameter)-ish messages, far below the cap;
        // and reaching everyone requires at least a spanning set of them.
        assert!(outcome.messages_processed() < g.link_count() * 60);
        assert!(outcome.messages_processed() >= g.len() - 1);
    }

    #[test]
    fn withdrawals_propagate() {
        // Line topology: victim at the end; cutting is simulated by a run on
        // the reduced graph (the sim is static), but loop-rejection produces
        // genuine withdrawal traffic in attacked runs — exercised here by
        // checking an attacked run converges and the attacker's modified
        // route displaces the real one where expected.
        let g = crate::engine::tests_support::facebook_graph();
        use well_known::*;
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(KOREA_TELECOM).keep(3));
        let sim = BgpSimulation::new(&g).run(&spec);
        assert_eq!(
            sim.observed_path(ATT).unwrap().to_string(),
            "7018 4134 9318 32934 32934 32934"
        );
        assert!(sim.polluted_fraction(Some(KOREA_TELECOM)) > 0.0);
    }

    #[test]
    #[should_panic(expected = "An independent oracle for policied passes")]
    fn defended_spec_panics() {
        use crate::policy::{DeployedPolicy, DeploymentMap, PolicyKind};
        let g = crate::engine::tests_support::facebook_graph();
        let rov = DeployedPolicy::new(PolicyKind::Rov, DeploymentMap::empty(g.len()));
        let spec = DestinationSpec::new(well_known::FACEBOOK).defense(Arc::new(rov));
        let _ = BgpSimulation::new(&g).run(&spec);
    }

    #[test]
    #[should_panic(expected = "message budget exhausted")]
    fn budget_guard_fires() {
        let g = InternetConfig::small().seed(65).build();
        let _ = BgpSimulation::new(&g)
            .max_messages(3)
            .run(&DestinationSpec::new(Asn(20_000)));
    }
}
