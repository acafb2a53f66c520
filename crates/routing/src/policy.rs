//! Per-AS defense policies over the route-adoption decision.
//!
//! The engine's decision core is Gao–Rexford: class, then effective length,
//! then the lowest neighbor ASN. A [`DeployedPolicy`] — one [`PolicyKind`]
//! deployed at a set of ASes, carried by the experiment cell itself
//! ([`DestinationSpec::defense`](crate::DestinationSpec::defense)) — layers
//! *import filtering* on top: each deploying AS may additionally reject an
//! **attacker-derived** announcement before it enters the decision process,
//! exactly where real-world ASes apply ROV, ASPA, or peerlock filters.
//! Policies never touch clean (genuine) routes: every modeled filter
//! validates properties that hold by construction on honest announcements
//! in a valley-free equilibrium, so the clean pass — and the workspace's
//! clean-pass cache — is policy-independent.
//!
//! # The undefended default
//!
//! A spec without a defense runs plain Gao–Rexford. The engine consults the
//! policy only on an attacker-derived offer the claimed chain has not
//! already refused, and there the check is one `Option` test; the per-attack
//! [`AttackFacts`] are computed only for a defended spec. An empty
//! deployment computes the same equilibrium as no defense (pinned by
//! `tests/defense_equivalence.rs`).
//!
//! # The modeled filters
//!
//! [`PolicyKind`] provides the catalog relevant to ASPP interception; each
//! is evaluated against per-attack [`AttackFacts`] plus the class the
//! announcement arrives with at the receiving AS:
//!
//! | Policy | Rejects when | Against ASPP stripping |
//! |---|---|---|
//! | [`Rov`](PolicyKind::Rov) | the origin is forged | **blind** — the origin stays valid |
//! | [`Aspa`](PolicyKind::Aspa) | a customer/peer-learned path ascends behind the sender | catches upward/lateral leaks of the stripped route |
//! | [`PeerlockLite`](PolicyKind::PeerlockLite) | a customer-learned path transits a Tier-1 | catches leaked routes that claim a T1 transit |
//! | [`EnforceFirstAs`](PolicyKind::EnforceFirstAs) | the first AS is not the sending neighbor | **blind** — the attacker prepends itself |
//!
//! ROV and enforce-first-as are deliberately included as documented
//! negative results: the ASPP interception forges neither the origin nor
//! the first hop, so their deployment curves stay flat (property-tested in
//! `tests/defense_equivalence.rs`).

use aspp_topology::AsGraph;
use aspp_types::{Asn, Relationship, RouteClass};

use crate::engine::{AttackStrategy, Pass, RoutingOutcome};

/// Path-validity facts about one attack announcement, precomputed once per
/// attacked pass so the per-offer policy check is branch-and-mask only.
///
/// Every fact is a property of the attacker's *claimed* announcement (the
/// forged segment of the path), constant across all receivers; what varies
/// per receiver is the arrival class, which
/// [`DeployedPolicy::accepts_attacker_route`] receives separately.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttackFacts {
    /// The announcement claims an origin that does not own the prefix
    /// (origin hijack). ROV's RPKI check catches exactly this — and only
    /// this, which is why ROV is blind to prepend-stripping.
    pub forged_origin: bool,
    /// The claimed path ascends behind the attacker: validated hop pairs
    /// are not customer→provider attestations, so ASPA upstream validation
    /// fails wherever the announcement arrives customer- or peer-learned.
    /// For the ASPP strip this is the attacker re-announcing a provider- or
    /// peer-learned route as if it originated below it; for the forged
    /// direct adjacency it is the fabricated victim→attacker hop.
    pub aspa_invalid: bool,
    /// The claimed path contains a provider-free (Tier-1) AS. Honest
    /// customer-learned routes never do — a T1 has no provider to announce
    /// upward to — so peerlock-lite drops customer-learned paths carrying
    /// this mark.
    pub t1_in_path: bool,
    /// The first AS on the claimed path is not the sending neighbor.
    /// Always `false` for every modeled [`AttackStrategy`]: the attacker
    /// prepends its own ASN, so enforce-first-as is a documented blind
    /// spot.
    pub forged_first_hop: bool,
}

impl AttackFacts {
    /// Facts for a computed outcome's attack, or `None` when the outcome
    /// has no attacked equilibrium. This is the constructor the audit and
    /// the tests share with the engine, so a policy verdict re-derived
    /// after the fact agrees bit-for-bit with the one applied during
    /// propagation.
    #[must_use]
    pub fn for_outcome(outcome: &RoutingOutcome<'_>) -> Option<AttackFacts> {
        if !outcome.has_attack() {
            return None;
        }
        let m_idx = outcome.attacker_index()?;
        let strategy = outcome.spec().attacker_model()?.attack_strategy();
        let clean = outcome.clean_pass_ref();
        let clean_class = clean.get(m_idx)?.class;
        Some(facts_for(
            outcome.graph(),
            strategy,
            clean,
            m_idx,
            outcome.victim_index(),
            clean_class,
        ))
    }
}

/// Whether node `i` is provider-free (a Tier-1 in the defense-policy
/// sense): no neighbor is its provider.
fn is_t1(graph: &AsGraph, i: usize) -> bool {
    graph
        .neighbors_at(i)
        .iter()
        .all(|e| e.rel() != Relationship::Provider)
}

/// Computes the [`AttackFacts`] for one attack seed. `clean_class` is the
/// attacker's clean-route class (how it genuinely learned its route to the
/// victim).
pub(crate) fn facts_for(
    graph: &AsGraph,
    strategy: AttackStrategy,
    clean: &Pass,
    m_idx: usize,
    v_idx: usize,
    clean_class: RouteClass,
) -> AttackFacts {
    match strategy {
        AttackStrategy::StripPadding { .. } | AttackStrategy::StripAllPadding => {
            // The claimed path is the attacker's genuine received route,
            // shortened: [M ASn … AS1 V]. Its hop pairs are all real links,
            // so the only ASPA violation is positional — the route ascends
            // behind M (provider- or peer-learned) while a customer/peer
            // reception requires a pure up-ramp.
            let chain = crate::engine::chain_of(clean, m_idx);
            AttackFacts {
                forged_origin: false,
                aspa_invalid: clean_class != RouteClass::FromCustomer,
                t1_in_path: chain.iter().any(|&i| is_t1(graph, i)),
                forged_first_hop: false,
            }
        }
        AttackStrategy::ForgeDirect => AttackFacts {
            forged_origin: false,
            // The claimed path is [M V]: the single validated pair is
            // V→M, authorized only if M really is V's provider-side
            // neighbor (V is M's customer, or a sibling — same
            // administration).
            aspa_invalid: !matches!(
                graph.relationship(graph.asn_at(m_idx), graph.asn_at(v_idx)),
                Some(Relationship::Customer | Relationship::Sibling)
            ),
            t1_in_path: is_t1(graph, m_idx) || is_t1(graph, v_idx),
            forged_first_hop: false,
        },
        AttackStrategy::OriginHijack => AttackFacts {
            // The claimed path is [M]: no hop pairs to validate, nothing
            // transited — but the origin itself is stolen.
            forged_origin: true,
            aspa_invalid: false,
            t1_in_path: is_t1(graph, m_idx),
            forged_first_hop: false,
        },
        AttackStrategy::PoisonPath { poisoned } => {
            // The claimed path is [M P ASn … V]: the origin is genuine, but
            // the spliced M→P hop is a fabricated adjacency, so attestation
            // of the pair behind M always fails.
            let chain = crate::engine::chain_of(clean, m_idx);
            AttackFacts {
                forged_origin: false,
                aspa_invalid: true,
                t1_in_path: chain.iter().any(|&i| is_t1(graph, i))
                    || graph.index_of(poisoned).is_some_and(|i| is_t1(graph, i)),
                forged_first_hop: false,
            }
        }
    }
}

/// The catalog of modeled per-AS defense filters (see the module docs for
/// the rejection rule and ASPP relevance of each).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// RPKI route-origin validation: reject announcements whose origin does
    /// not own the prefix. Deliberately blind to ASPP stripping.
    Rov,
    /// ASPA upstream path validation: reject customer- or peer-learned
    /// announcements whose claimed path ascends behind the sender.
    Aspa,
    /// Peerlock-lite: reject customer-learned announcements whose claimed
    /// path transits a provider-free (Tier-1) AS.
    PeerlockLite,
    /// First-AS enforcement: reject announcements whose first hop is not
    /// the sending neighbor. Deliberately blind to every modeled strategy
    /// (the attacker always prepends itself).
    EnforceFirstAs,
}

impl PolicyKind {
    /// All modeled policy kinds, in display order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Rov,
        PolicyKind::Aspa,
        PolicyKind::PeerlockLite,
        PolicyKind::EnforceFirstAs,
    ];

    /// Stable lower-case name used in CLI flags, reports and metrics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Rov => "rov",
            PolicyKind::Aspa => "aspa",
            PolicyKind::PeerlockLite => "peerlock",
            PolicyKind::EnforceFirstAs => "first-as",
        }
    }

    /// Parses a [`name`](Self::name) back into a kind.
    #[must_use]
    pub fn parse(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The pure rejection rule: whether a deploying AS accepts an
    /// attacker-derived announcement arriving with `class`, given the
    /// attack's facts. Shared by the engine hook, the audit invariant and
    /// the tests so all three agree by construction.
    #[must_use]
    pub fn accepts(self, class: RouteClass, facts: &AttackFacts) -> bool {
        match self {
            PolicyKind::Rov => !facts.forged_origin,
            PolicyKind::Aspa => {
                !(facts.aspa_invalid
                    && matches!(class, RouteClass::FromCustomer | RouteClass::FromPeer))
            }
            PolicyKind::PeerlockLite => !(facts.t1_in_path && class == RouteClass::FromCustomer),
            PolicyKind::EnforceFirstAs => !facts.forged_first_hop,
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which ASes deploy a policy, as a bitset over the graph's dense node
/// indices.
///
/// Deployment maps are built from an adoption *order* (see
/// `aspp_attack::defense::deployment_order`) so that maps at increasing
/// fractions are nested — the property that makes deployment curves
/// monotone by construction rather than by sampling luck.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeploymentMap {
    bits: Vec<u64>,
    nodes: usize,
    deployed: usize,
}

impl DeploymentMap {
    /// A map over `nodes` ASes in which nobody deploys.
    #[must_use]
    pub fn empty(nodes: usize) -> Self {
        DeploymentMap {
            bits: vec![0; nodes.div_ceil(64)],
            nodes,
            deployed: 0,
        }
    }

    /// A map over `nodes` ASes in which the given dense node indices
    /// deploy. Out-of-range and duplicate indices are ignored.
    #[must_use]
    pub fn from_indices(nodes: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut map = Self::empty(nodes);
        for i in indices {
            if i < nodes && !map.deploys(i) {
                map.bits[i / 64] |= 1 << (i % 64);
                map.deployed += 1;
            }
        }
        map
    }

    /// A map in which the given ASNs deploy; ASNs absent from `graph` are
    /// ignored.
    #[must_use]
    pub fn from_asns(graph: &AsGraph, asns: impl IntoIterator<Item = Asn>) -> Self {
        Self::from_indices(
            graph.len(),
            asns.into_iter().filter_map(|a| graph.index_of(a)),
        )
    }

    /// Whether the AS at dense index `node` deploys.
    #[inline]
    #[must_use]
    pub fn deploys(&self, node: usize) -> bool {
        self.bits
            .get(node / 64)
            .is_some_and(|w| w & (1 << (node % 64)) != 0)
    }

    /// Number of deploying ASes.
    #[must_use]
    pub fn deployed_count(&self) -> usize {
        self.deployed
    }

    /// Deployed fraction of the AS population (0 when the map is empty).
    #[must_use]
    pub fn fraction(&self) -> f64 {
        self.deployed as f64 / self.nodes.max(1) as f64
    }
}

/// One [`PolicyKind`] deployed at a subset of ASes — the defense a
/// [`DestinationSpec`](crate::DestinationSpec) carries. Non-deploying ASes
/// accept everything (plain Gao–Rexford); deploying ASes apply
/// [`PolicyKind::accepts`].
///
/// # Example: a hand-rolled deployment sweep
///
/// Growing an ASPA deployment over the highest-degree ASes can only shrink
/// the set of ASes the interception pollutes — the maps are nested, and
/// rejection only ever prunes the attacker's frontier:
///
/// ```
/// use std::sync::Arc;
///
/// use aspp_routing::policy::{DeploymentMap, DeployedPolicy, PolicyKind};
/// use aspp_routing::{AttackerModel, DestinationSpec, ExportMode, RouteWorkspace, RoutingEngine};
/// use aspp_topology::gen::InternetConfig;
/// use aspp_types::Asn;
///
/// let graph = InternetConfig::small().seed(7).build();
/// let engine = RoutingEngine::new(&graph);
/// let mut ws = RouteWorkspace::new();
/// let spec = DestinationSpec::new(Asn(20_000)).origin_padding(4).attacker(
///     AttackerModel::new(Asn(20_001)).mode(ExportMode::ViolateValleyFree),
/// );
/// let by_degree = graph.asns_by_degree();
///
/// let mut last = usize::MAX;
/// for fraction in [0.0, 0.25, 0.5, 1.0] {
///     let adopters = (fraction * by_degree.len() as f64).ceil() as usize;
///     let map = DeploymentMap::from_asns(&graph, by_degree[..adopters].iter().copied());
///     let policy = Arc::new(DeployedPolicy::new(PolicyKind::Aspa, map));
///     let polluted = engine
///         .compute_with(&spec.clone().defense(policy), &mut ws)
///         .polluted_count();
///     assert!(polluted <= last, "wider deployment must not widen pollution");
///     last = polluted;
/// }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeployedPolicy {
    kind: PolicyKind,
    map: DeploymentMap,
}

impl DeployedPolicy {
    /// Deploys `kind` at exactly the ASes marked in `map`.
    #[must_use]
    pub fn new(kind: PolicyKind, map: DeploymentMap) -> Self {
        DeployedPolicy { kind, map }
    }

    /// The deployed policy kind.
    #[must_use]
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// The deployment map.
    #[must_use]
    pub fn map(&self) -> &DeploymentMap {
        &self.map
    }

    /// Whether `node` accepts an attacker-derived announcement arriving
    /// with receiving class `class`, given the per-attack [`AttackFacts`]:
    /// the engine's per-offer check and the audit's re-derivation of it.
    #[inline]
    #[must_use]
    pub fn accepts_attacker_route(
        &self,
        node: usize,
        class: RouteClass,
        facts: &AttackFacts,
    ) -> bool {
        !self.map.deploys(node) || self.kind.accepts(class, facts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests_support::facebook_graph;
    use crate::engine::{AttackerModel, DestinationSpec, ExportMode, RoutingEngine};
    use crate::RouteWorkspace;
    use aspp_types::well_known;
    use std::sync::Arc;

    #[test]
    fn deployment_map_basics() {
        let map = DeploymentMap::from_indices(130, [0, 64, 129, 129, 500]);
        assert!(map.deploys(0) && map.deploys(64) && map.deploys(129));
        assert!(!map.deploys(1) && !map.deploys(128));
        assert_eq!(map.deployed_count(), 3);
        assert!((map.fraction() - 3.0 / 130.0).abs() < 1e-12);
        assert_eq!(DeploymentMap::empty(10).deployed_count(), 0);
    }

    #[test]
    fn policy_kind_names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("bgpsec"), None);
    }

    /// Facts for a Figure-1 strip attack by AT&T: its clean route to
    /// Facebook is peer-learned (via Level3), so re-announcing it is an
    /// ASPA violation, and the claimed chain transits Tier-1s.
    #[test]
    fn strip_facts_on_figure_one() {
        let graph = facebook_graph();
        let engine = RoutingEngine::new(&graph);
        let spec = DestinationSpec::new(well_known::FACEBOOK)
            .origin_padding(4)
            .attacker(AttackerModel::new(well_known::ATT).mode(ExportMode::ViolateValleyFree));
        let outcome = engine.compute(&spec);
        let facts = AttackFacts::for_outcome(&outcome).expect("attack ran");
        assert!(!facts.forged_origin);
        assert!(facts.aspa_invalid, "7018's clean route is peer-learned");
        assert!(facts.t1_in_path, "the clean chain transits Tier-1s");
        assert!(!facts.forged_first_hop);
    }

    /// The paper's own Figure-1 attacker, AS9318, is the victim's
    /// *provider*: its clean route is customer-learned, so even ASPA
    /// validates the stripped announcement — the attack forges nothing but
    /// the length, which none of the modeled filters see.
    #[test]
    fn provider_attacker_is_aspa_valid() {
        let graph = facebook_graph();
        let engine = RoutingEngine::new(&graph);
        let spec = DestinationSpec::new(well_known::FACEBOOK)
            .origin_padding(4)
            .attacker(
                AttackerModel::new(well_known::KOREA_TELECOM).mode(ExportMode::ViolateValleyFree),
            );
        let outcome = engine.compute(&spec);
        let facts = AttackFacts::for_outcome(&outcome).expect("attack ran");
        assert!(
            !facts.aspa_invalid,
            "a customer-learned route may be announced anywhere"
        );
    }

    #[test]
    fn origin_hijack_facts() {
        let graph = facebook_graph();
        let engine = RoutingEngine::new(&graph);
        let spec = DestinationSpec::new(well_known::FACEBOOK)
            .origin_padding(4)
            .attacker(
                AttackerModel::new(well_known::KOREA_TELECOM)
                    .strategy(crate::AttackStrategy::OriginHijack),
            );
        let outcome = engine.compute(&spec);
        let facts = AttackFacts::for_outcome(&outcome).expect("attack ran");
        assert!(facts.forged_origin);
        assert!(!facts.aspa_invalid, "a one-hop path has no pairs to check");
    }

    #[test]
    fn rejection_rules() {
        let strip = AttackFacts {
            forged_origin: false,
            aspa_invalid: true,
            t1_in_path: true,
            forged_first_hop: false,
        };
        // ROV and first-AS are blind to the strip.
        for class in [
            RouteClass::FromCustomer,
            RouteClass::FromPeer,
            RouteClass::FromProvider,
        ] {
            assert!(PolicyKind::Rov.accepts(class, &strip));
            assert!(PolicyKind::EnforceFirstAs.accepts(class, &strip));
        }
        // ASPA validates customer/peer receptions only.
        assert!(!PolicyKind::Aspa.accepts(RouteClass::FromCustomer, &strip));
        assert!(!PolicyKind::Aspa.accepts(RouteClass::FromPeer, &strip));
        assert!(PolicyKind::Aspa.accepts(RouteClass::FromProvider, &strip));
        // Peerlock validates customer receptions only.
        assert!(!PolicyKind::PeerlockLite.accepts(RouteClass::FromCustomer, &strip));
        assert!(PolicyKind::PeerlockLite.accepts(RouteClass::FromPeer, &strip));

        let hijack = AttackFacts {
            forged_origin: true,
            ..AttackFacts::default()
        };
        assert!(!PolicyKind::Rov.accepts(RouteClass::FromProvider, &hijack));
        assert!(PolicyKind::Aspa.accepts(RouteClass::FromCustomer, &hijack));
    }

    /// Non-deploying ASes never consult the rule; deploying ASes do.
    #[test]
    fn deployment_gates_the_rule() {
        let facts = AttackFacts {
            forged_origin: true,
            ..AttackFacts::default()
        };
        let map = DeploymentMap::from_indices(4, [2]);
        let policy = DeployedPolicy::new(PolicyKind::Rov, map);
        assert!(policy.accepts_attacker_route(0, RouteClass::FromPeer, &facts));
        assert!(!policy.accepts_attacker_route(2, RouteClass::FromPeer, &facts));
        assert_eq!(policy.kind(), PolicyKind::Rov);
        assert_eq!(policy.map().deployed_count(), 1);
    }

    /// Deploying everyone with every strip-blind policy leaves the attacked
    /// equilibrium bit-identical; a full ASPA deployment prunes every
    /// off-chain adoption that arrives customer- or peer-learned.
    #[test]
    fn full_deployment_semantics_on_figure_one() {
        let graph = facebook_graph();
        let engine = RoutingEngine::new(&graph);
        let mut ws = RouteWorkspace::new();
        let spec = DestinationSpec::new(well_known::FACEBOOK)
            .origin_padding(4)
            .attacker(AttackerModel::new(well_known::ATT).mode(ExportMode::ViolateValleyFree));
        let undefended = engine.compute_with(&spec, &mut ws);
        assert!(
            undefended.polluted_count() > 0,
            "the attack works undefended"
        );

        let full = DeploymentMap::from_indices(graph.len(), 0..graph.len());
        for kind in [PolicyKind::Rov, PolicyKind::EnforceFirstAs] {
            let policy = Arc::new(DeployedPolicy::new(kind, full.clone()));
            let defended = engine.compute_with(&spec.clone().defense(policy), &mut ws);
            assert_eq!(
                defended.polluted_count(),
                undefended.polluted_count(),
                "{kind} must be blind to the strip"
            );
        }
        let aspa = Arc::new(DeployedPolicy::new(PolicyKind::Aspa, full));
        let defended = engine.compute_with(&spec.defense(aspa), &mut ws);
        assert!(
            defended.polluted_count() < undefended.polluted_count(),
            "full ASPA must prune leak-labeled adoptions"
        );
    }
}
