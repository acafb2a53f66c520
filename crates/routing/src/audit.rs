//! Equilibrium invariant auditor: checks a converged [`RoutingOutcome`]
//! against the Gao–Rexford properties the paper's claims rest on.
//!
//! The ASPP interception attack is dangerous precisely because every path it
//! produces stays *policy-valid* (paper Section II): nothing a monitor sees
//! violates valley-freeness, so the attack hides in plain sight. That makes
//! policy validity the one property this simulator must never get wrong —
//! and after PR 2 made the attacked pass an incremental delta
//! re-convergence, correctness rests on subtle monotonicity arguments. This
//! module re-derives the equilibrium conditions from the adopted routes
//! alone and checks them independently of the propagation machinery:
//!
//! 1. **Origin**: the victim holds the `Origin` route of length 0 and
//!    nothing else; in an attacked pass, the interceptor holds its pinned
//!    clean forwarding route.
//! 2. **Export compliance / valley-freeness**: every adopted route was
//!    legally exportable by its parent under the valley-free matrix (or, for
//!    routes learned from the attacker, under the attacker's
//!    [`ExportMode`]), and its class, effective length and attacker taint
//!    are exactly what that export produces. Per-edge compliance along every
//!    parent chain is valley-freeness, inductively.
//! 3. **Termination**: next-hop chains reach the victim without loops.
//! 4. **Local optimality**: no AS strictly prefers a route some neighbor is
//!    exporting in this equilibrium over the route it adopted — and no
//!    routeless AS has a legal offer it ignored. Because every export step
//!    weakly worsens the class and strictly grows the effective length, a
//!    node's own route can never come back to it looking strictly better,
//!    so the comparison needs no loop-prevention carve-out.
//!
//! Violations carry the offending AS so a failure reads like a diagnostic,
//! not a boolean. When auditing is [`enabled`] — compiled in via the
//! `debug-audit` cargo feature — [`compute_with`] audits every outcome it
//! returns against its spec, defense included, and panics with the report
//! on a violation, so no caller can run un-audited; it also replays every
//! delta attacked pass through the full propagation
//! ([`full_pass_divergence`], public for the equivalence tests) and asserts
//! bit identity. Without the feature both checks compile out.
//!
//! [`compute_with`]: crate::RoutingEngine::compute_with

use std::fmt;

use aspp_types::{Asn, Relationship, RouteClass};

use crate::engine::{
    chain_of, class_at_receiver, export_row, full_attacked_pass, AttackStrategy, ExportMode, Pass,
    RouteInfo, RoutingOutcome,
};
use crate::policy::AttackFacts;

/// Returns `true` when outcome auditing (and the delta-vs-full oracle) is
/// compiled in, i.e. under the `debug-audit` cargo feature.
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "debug-audit")
}

/// Which equilibrium of an outcome a report describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassKind {
    /// The clean (no-attack) equilibrium.
    Clean,
    /// The attacked equilibrium.
    Attacked,
}

impl fmt::Display for PassKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassKind::Clean => f.write_str("clean"),
            PassKind::Attacked => f.write_str("attacked"),
        }
    }
}

/// One invariant violation, attributed to the AS where it was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditViolation {
    /// The victim does not hold the `Origin` route of length 0.
    BadOrigin {
        /// The victim AS.
        victim: Asn,
    },
    /// The interceptor's route differs from its pinned clean route.
    UnpinnedAttacker {
        /// The attacker AS.
        attacker: Asn,
    },
    /// A non-origin route with no next hop.
    DanglingRoute {
        /// The AS holding the dangling route.
        asn: Asn,
    },
    /// A route whose next hop is not an adjacent AS, or whose next hop
    /// holds no route to derive it from.
    BrokenNextHop {
        /// The AS holding the broken route.
        asn: Asn,
        /// Its claimed next hop.
        next_hop: Asn,
    },
    /// The parent could not have legally exported its route over this edge
    /// (valley-free violation).
    IllegalExport {
        /// The exporting AS (the adopted next hop).
        exporter: Asn,
        /// The AS that adopted the illegally exported route.
        receiver: Asn,
        /// The receiver's relationship as the exporter sees it.
        rel: Relationship,
    },
    /// The adopted route class is not what the parent's export produces.
    ClassMismatch {
        /// The AS holding the inconsistent route.
        asn: Asn,
        /// The class the parent's export would produce.
        expected: RouteClass,
        /// The class actually adopted.
        actual: RouteClass,
    },
    /// The adopted effective length is not what the parent's export
    /// produces (hop + configured prepending).
    LengthMismatch {
        /// The AS holding the inconsistent route.
        asn: Asn,
        /// The length the parent's export would produce.
        expected: u32,
        /// The length actually adopted.
        actual: u32,
    },
    /// The via-attacker taint differs from the parent's exported route.
    TaintMismatch {
        /// The AS holding the inconsistent route.
        asn: Asn,
    },
    /// An AS on the attacker's claimed chain adopted an attacker-derived
    /// route (it would have detected its own ASN in the announced path).
    ChainAdoption {
        /// The on-chain AS.
        asn: Asn,
    },
    /// The next-hop chain starting at this AS revisits a node.
    ForwardingLoop {
        /// The AS whose chain loops.
        asn: Asn,
    },
    /// The next-hop chain starting at this AS ends somewhere other than
    /// the victim.
    NotTerminating {
        /// The AS whose chain is broken.
        asn: Asn,
        /// Where the chain got stuck.
        stuck_at: Asn,
    },
    /// The AS adopted a route although a neighbor exports a strictly
    /// preferred one in this same equilibrium.
    NotLocallyOptimal {
        /// The sub-optimal AS.
        asn: Asn,
        /// The neighbor whose export it should have preferred.
        better_via: Asn,
    },
    /// The AS has no route although a neighbor legally exports one to it.
    HiddenRoute {
        /// The routeless AS.
        asn: Asn,
        /// The neighbor whose export it ignored.
        offered_by: Asn,
    },
    /// A policy-deploying AS adopted an attacker-derived route its own
    /// [`DeployedPolicy`](crate::DeployedPolicy) rejects — e.g. an ASPA
    /// adopter holding a route that violates its authorization set.
    PolicyViolation {
        /// The deploying AS holding the forbidden route.
        asn: Asn,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::BadOrigin { victim } => {
                write!(f, "victim AS{victim} does not hold the Origin route")
            }
            AuditViolation::UnpinnedAttacker { attacker } => write!(
                f,
                "attacker AS{attacker} abandoned its pinned clean forwarding route"
            ),
            AuditViolation::DanglingRoute { asn } => {
                write!(f, "AS{asn} holds a non-origin route with no next hop")
            }
            AuditViolation::BrokenNextHop { asn, next_hop } => write!(
                f,
                "AS{asn} routes via AS{next_hop}, which is not adjacent or has no route"
            ),
            AuditViolation::IllegalExport {
                exporter,
                receiver,
                rel,
            } => write!(
                f,
                "AS{exporter} may not export its route to its {rel:?} AS{receiver} (valley-free violation)"
            ),
            AuditViolation::ClassMismatch {
                asn,
                expected,
                actual,
            } => write!(
                f,
                "AS{asn} adopted class {actual:?} where its next hop's export produces {expected:?}"
            ),
            AuditViolation::LengthMismatch {
                asn,
                expected,
                actual,
            } => write!(
                f,
                "AS{asn} adopted effective length {actual} where its next hop's export produces {expected}"
            ),
            AuditViolation::TaintMismatch { asn } => write!(
                f,
                "AS{asn}'s via-attacker taint disagrees with its next hop's exported route"
            ),
            AuditViolation::ChainAdoption { asn } => write!(
                f,
                "AS{asn} is on the attacker's claimed path yet adopted the attacker's route"
            ),
            AuditViolation::ForwardingLoop { asn } => {
                write!(f, "AS{asn}'s next-hop chain loops")
            }
            AuditViolation::NotTerminating { asn, stuck_at } => write!(
                f,
                "AS{asn}'s next-hop chain ends at AS{stuck_at}, not the victim"
            ),
            AuditViolation::NotLocallyOptimal { asn, better_via } => write!(
                f,
                "AS{asn} ignores a strictly preferred route exported by its neighbor AS{better_via}"
            ),
            AuditViolation::HiddenRoute { asn, offered_by } => write!(
                f,
                "AS{asn} has no route although its neighbor AS{offered_by} legally exports one"
            ),
            AuditViolation::PolicyViolation { asn } => write!(
                f,
                "AS{asn} adopted an attacker-derived route its own defense policy rejects"
            ),
        }
    }
}

/// The audit result for one equilibrium of an outcome.
#[derive(Clone, Debug)]
pub struct AuditReport {
    kind: PassKind,
    routes_checked: usize,
    violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Which equilibrium this report describes.
    #[must_use]
    pub fn kind(&self) -> PassKind {
        self.kind
    }

    /// Number of adopted routes the audit examined.
    #[must_use]
    pub fn routes_checked(&self) -> usize {
        self.routes_checked
    }

    /// Every violation found, in node order.
    #[must_use]
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// `true` when no invariant was violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pass: {} routes checked, {} violation(s)",
            self.kind,
            self.routes_checked,
            self.violations.len()
        )?;
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

/// The combined audit of both equilibria of a [`RoutingOutcome`].
#[derive(Clone, Debug)]
pub struct OutcomeAudit {
    /// The clean-pass report.
    pub clean: AuditReport,
    /// The attacked-pass report, when an attack ran.
    pub attacked: Option<AuditReport>,
}

impl OutcomeAudit {
    /// `true` when neither pass violated any invariant.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.clean.is_clean() && self.attacked.as_ref().is_none_or(AuditReport::is_clean)
    }

    /// Total number of violations across both passes.
    #[must_use]
    pub fn violation_count(&self) -> usize {
        self.clean.violations().len() + self.attacked.as_ref().map_or(0, |r| r.violations().len())
    }

    /// Iterates over every violation, clean pass first.
    pub fn violations(&self) -> impl Iterator<Item = &AuditViolation> {
        self.clean
            .violations()
            .iter()
            .chain(self.attacked.iter().flat_map(|r| r.violations().iter()))
    }
}

impl fmt::Display for OutcomeAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.clean)?;
        if let Some(attacked) = &self.attacked {
            write!(f, "\n{attacked}")?;
        }
        Ok(())
    }
}

/// Audits both equilibria of `outcome` and returns the full report.
///
/// When the outcome's spec carries a
/// [`defense`](crate::DestinationSpec::defense), the attacked pass is also
/// checked against the per-policy invariant: a deploying AS never holds an
/// attacker-derived route its own policy rejects, and local optimality
/// treats policy-rejected offers as nonexistent (a deployer that filtered
/// the attacker's shorter route is *not* sub-optimal for keeping its clean
/// one) — the policy is part of the equilibrium's definition.
#[must_use]
pub fn audit_outcome(outcome: &RoutingOutcome<'_>) -> OutcomeAudit {
    let _span = aspp_obs::trace::span("audit.outcome");
    aspp_obs::counters::incr(aspp_obs::counters::Counter::AuditCheck);
    let audit = OutcomeAudit {
        clean: audit_pass(outcome, PassKind::Clean),
        attacked: outcome
            .attacked_pass_ref()
            .is_some()
            .then(|| audit_pass(outcome, PassKind::Attacked)),
    };
    aspp_obs::counters::add(
        aspp_obs::counters::Counter::AuditViolation,
        audit.violation_count() as u64,
    );
    audit
}

/// The engine's own exit check (`compute_with`, when auditing is
/// [`enabled`]): panics with the full report if `outcome` violates any
/// invariant.
pub(crate) fn assert_audit_clean(outcome: &RoutingOutcome<'_>) {
    let audit = audit_outcome(outcome);
    assert!(
        audit.is_clean(),
        "routing invariant audit failed for victim AS{}:\n{audit}",
        outcome.victim(),
    );
}

/// The first AS at which an outcome's attacked pass differs from the full
/// from-scratch propagation (see [`full_pass_divergence`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassDivergence {
    /// The first divergent AS, in node order.
    pub asn: Asn,
    /// Its route in the outcome.
    pub adopted: Option<RouteInfo>,
    /// Its route in the full pass.
    pub full: Option<RouteInfo>,
}

impl fmt::Display for PassDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AS{}: the outcome adopted {:?}, the full pass adopted {:?}",
            self.asn, self.adopted, self.full
        )
    }
}

/// The full-pass oracle: recomputes `outcome`'s attacked pass from scratch
/// with the full propagation under its spec's defense and names the first
/// AS whose route differs, or `None` when the two tables are bit-identical
/// or no attack ran.
///
/// An outcome whose attacked pass the engine re-converged by a delta pass
/// must match; one it computed by the full pass matches trivially. The
/// `debug-audit` build runs this on every delta pass, and the equivalence
/// tests run it on every cell they compute.
#[must_use]
pub fn full_pass_divergence(outcome: &RoutingOutcome<'_>) -> Option<PassDivergence> {
    let attacked = outcome.attacked_pass_ref()?;
    let full = full_attacked_pass(outcome)?;
    let i = (0..full.len()).find(|&i| attacked.get(i) != full.get(i))?;
    let asn = outcome.graph().asn_at(i);
    Some(PassDivergence {
        asn,
        adopted: outcome.info_from(attacked, asn),
        full: outcome.info_from(&full, asn),
    })
}

/// The engine's delta exit check (`compute_with`, when auditing is
/// [`enabled`]): panics naming the first divergent AS if `outcome`'s delta
/// pass is not bit-identical to the full propagation.
pub(crate) fn assert_matches_full_pass(outcome: &RoutingOutcome<'_>) {
    if let Some(d) = full_pass_divergence(outcome) {
        panic!(
            "debug-audit: delta re-convergence diverged from the full pass at {d} (victim AS{})",
            outcome.victim(),
        );
    }
}

/// The attacked-pass audit context: everything about the attacker's seeded
/// announcement, re-derived from the outcome (not from engine internals).
struct AttackCtx {
    m_idx: usize,
    /// Effective length of the attacker's claimed base path.
    base_len: u32,
    /// The class the attacker's announcement exports as (its clean route's
    /// class, or `Origin` for the origin hijack).
    export_class: RouteClass,
    mode: ExportMode,
    /// ASes on the attacker's claimed path, which reject its announcement.
    on_chain: Vec<bool>,
    /// Path-validity facts of the claimed announcement, re-derived through
    /// the same constructor the engine's policy hook uses.
    facts: AttackFacts,
}

fn attack_ctx(outcome: &RoutingOutcome<'_>) -> AttackCtx {
    let m_idx = outcome
        .attacker_index()
        .expect("attacked pass implies attacker");
    let strategy = outcome
        .spec()
        .attacker_model()
        .expect("attacked pass implies attacker model")
        .attack_strategy();
    let mode = outcome
        .spec()
        .attacker_model()
        .expect("checked")
        .export_mode();
    let clean = outcome.clean_pass_ref();
    let base_len = outcome
        .attacker_base_path()
        .expect("attacked pass implies base path")
        .len() as u32;
    let export_class = match strategy {
        AttackStrategy::OriginHijack => RouteClass::Origin,
        _ => {
            clean
                .get(m_idx)
                .expect("attacked pass implies clean route")
                .class
        }
    };
    let mut on_chain = vec![false; clean.len()];
    match strategy {
        AttackStrategy::OriginHijack => on_chain[m_idx] = true,
        AttackStrategy::PoisonPath { poisoned } => {
            for i in chain_of(clean, m_idx) {
                on_chain[i] = true;
            }
            // Loop prevention also fires at the spliced-in poisoned AS.
            if let Some(p_idx) = outcome.graph().index_of(poisoned) {
                on_chain[p_idx] = true;
            }
        }
        _ => {
            for i in chain_of(clean, m_idx) {
                on_chain[i] = true;
            }
        }
    }
    AttackCtx {
        m_idx,
        base_len,
        export_class,
        mode,
        on_chain,
        facts: AttackFacts::for_outcome(outcome).expect("attacked pass implies facts"),
    }
}

fn audit_pass(outcome: &RoutingOutcome<'_>, kind: PassKind) -> AuditReport {
    let graph = outcome.graph();
    let spec = outcome.spec();
    let prepend = spec.prepending();
    let policy = spec.defense_policy();
    let v_idx = outcome.victim_index();
    let pass: &Pass = match kind {
        PassKind::Clean => outcome.clean_pass_ref(),
        PassKind::Attacked => outcome.attacked_pass_ref().expect("attacked pass present"),
    };
    let attack = match kind {
        PassKind::Attacked => Some(attack_ctx(outcome)),
        PassKind::Clean => None,
    };
    let attack = attack.as_ref();
    let mut violations = Vec::new();

    for (i, route) in pass.iter().enumerate() {
        let asn = graph.asn_at(i);

        if i == v_idx {
            let ok = route.is_some_and(|r| {
                r.class == RouteClass::Origin && r.len == 0 && r.parent.is_none() && !r.via_attacker
            });
            if !ok {
                violations.push(AuditViolation::BadOrigin { victim: asn });
            }
            continue;
        }
        if let Some(ctx) = attack {
            if i == ctx.m_idx {
                if route != outcome.clean_pass_ref().get(i) {
                    violations.push(AuditViolation::UnpinnedAttacker { attacker: asn });
                }
                continue;
            }
            if route.is_some_and(|r| r.via_attacker) && ctx.on_chain[i] {
                violations.push(AuditViolation::ChainAdoption { asn });
            }
            // Per-policy invariant: a deployer never holds an
            // attacker-derived route its own policy rejects.
            if let (Some(policy), Some(r)) = (policy, route.filter(|r| r.via_attacker)) {
                if !policy.accepts_attacker_route(i, r.class, &ctx.facts) {
                    violations.push(AuditViolation::PolicyViolation { asn });
                }
            }
        }
        if let Some(r) = route {
            if r.parent.is_none() {
                violations.push(AuditViolation::DanglingRoute { asn });
                continue;
            }
        }

        // One sweep over i's neighbors covers both remaining invariants:
        // the adopted route must equal what its parent exports (validity),
        // and no neighbor may export anything strictly preferred (local
        // optimality). Optimality needs no loop-prevention carve-out:
        // exports weakly worsen the class and strictly grow the length, so
        // nothing derived from i's own route can beat it at i. Offers rank
        // by the decision order (class, length, neighbor ASN) as a plain
        // tuple: sharing the engine's packed key would hide a packing bug.
        let parent = route.and_then(|r| r.parent);
        let adopted_pref = route.map(|r| {
            let p_asn = graph.asn_at(r.parent.expect("dangling handled above"));
            (r.class, r.len, p_asn)
        });
        let mut parent_seen = false;
        let mut best_offer: Option<(RouteClass, u32, Asn)> = None;
        for &entry in graph.neighbors_at(i) {
            let n = entry.node() as usize;
            let n_asn = graph.asn_at(n);
            // How n sees i — the relationship the export rules key on.
            let rel_of_i = entry.rel().reverse();
            // What n exports to i in this equilibrium: (class, len, taint).
            let offer = match attack {
                Some(ctx) if n == ctx.m_idx => {
                    // The attacker's pinned route is never re-exported;
                    // only the seeded announcement is, gated by its mode.
                    let allowed = match ctx.mode {
                        ExportMode::ViolateValleyFree => true,
                        ExportMode::Compliant => match rel_of_i {
                            Relationship::Customer | Relationship::Sibling | Relationship::Peer => {
                                true
                            }
                            Relationship::Provider => ctx.export_class.may_export_to(rel_of_i),
                        },
                    };
                    allowed.then(|| {
                        (
                            class_at_receiver(ctx.export_class, rel_of_i),
                            ctx.base_len + 1 + prepend.extra_for(n_asn, asn) as u32,
                            true,
                        )
                    })
                }
                _ => pass.get(n).and_then(|rn| {
                    export_row(rn.class)[rel_of_i as usize].map(|class| {
                        (
                            class,
                            rn.len + 1 + prepend.extra_for(n_asn, asn) as u32,
                            rn.via_attacker,
                        )
                    })
                }),
            };

            if Some(n) == parent {
                parent_seen = true;
                let r = route.expect("parent implies route");
                match offer {
                    None => {
                        let parent_routeless =
                            pass.get(n).is_none() && attack.is_none_or(|c| c.m_idx != n);
                        violations.push(if parent_routeless {
                            AuditViolation::BrokenNextHop {
                                asn,
                                next_hop: n_asn,
                            }
                        } else {
                            AuditViolation::IllegalExport {
                                exporter: n_asn,
                                receiver: asn,
                                rel: rel_of_i,
                            }
                        });
                    }
                    Some((class, len, via)) => {
                        if r.class != class {
                            violations.push(AuditViolation::ClassMismatch {
                                asn,
                                expected: class,
                                actual: r.class,
                            });
                        }
                        if r.len != len {
                            violations.push(AuditViolation::LengthMismatch {
                                asn,
                                expected: len,
                                actual: r.len,
                            });
                        }
                        if r.via_attacker != via {
                            violations.push(AuditViolation::TaintMismatch { asn });
                        }
                    }
                }
            }

            let Some((class, len, via)) = offer else {
                continue;
            };
            // Offers i refuses: attacker-tainted while on the claimed path,
            // or filtered by i's own deployed defense policy — the latter
            // mirrors the engine's import hook, so a deployer keeping its
            // clean route over a filtered shorter one is not sub-optimal.
            if via && attack.is_some_and(|c| c.on_chain[i]) {
                continue;
            }
            if let Some(policy) = policy.filter(|_| via) {
                let ctx = attack.expect("via offers imply an attacked pass");
                if !policy.accepts_attacker_route(i, class, &ctx.facts) {
                    continue;
                }
            }
            let pref = (class, len, n_asn);
            if adopted_pref.is_none_or(|a| pref < a) && best_offer.is_none_or(|b| pref < b) {
                best_offer = Some(pref);
            }
        }

        if let Some(p) = parent {
            if !parent_seen {
                violations.push(AuditViolation::BrokenNextHop {
                    asn,
                    next_hop: graph.asn_at(p),
                });
            }
        }
        if let Some((_, _, via_asn)) = best_offer {
            violations.push(match route {
                Some(_) => AuditViolation::NotLocallyOptimal {
                    asn,
                    better_via: via_asn,
                },
                None => AuditViolation::HiddenRoute {
                    asn,
                    offered_by: via_asn,
                },
            });
        }
    }

    // Termination: every next-hop chain must reach the victim without
    // revisiting a node. A chain longer than the node count has looped
    // (pigeonhole) — no visited set needed. One carve-out: an origin
    // hijacker claims to originate the prefix itself, so a tainted chain
    // legitimately ends at the attacker (whose pinned clean route is its
    // own table entry, not part of the announced path — so it is not walked
    // either: an ROV deployer above the hijacker can lose its clean route
    // to a parent that adopted the hijack and refuse the replacement).
    let hijack_m = attack
        .filter(|c| c.export_class == RouteClass::Origin)
        .map(|c| c.m_idx);
    for (i, route) in pass.iter().enumerate() {
        if route.is_none() || i == v_idx || Some(i) == hijack_m {
            continue;
        }
        let asn = graph.asn_at(i);
        let mut cur = i;
        let mut steps = 0usize;
        loop {
            let Some(r) = pass.get(cur) else {
                violations.push(AuditViolation::NotTerminating {
                    asn,
                    stuck_at: graph.asn_at(cur),
                });
                break;
            };
            let Some(p) = r.parent else {
                if cur != v_idx {
                    violations.push(AuditViolation::NotTerminating {
                        asn,
                        stuck_at: graph.asn_at(cur),
                    });
                }
                break;
            };
            if r.via_attacker && Some(p) == hijack_m {
                break;
            }
            steps += 1;
            if steps > pass.len() {
                violations.push(AuditViolation::ForwardingLoop { asn });
                break;
            }
            cur = p;
        }
    }

    AuditReport {
        kind,
        routes_checked: pass.iter().flatten().count(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests_support::facebook_graph;
    use crate::policy::{DeployedPolicy, DeploymentMap, PolicyKind};
    use crate::{
        AttackStrategy, AttackerModel, DestinationSpec, ExportMode, RouteInfo, RoutingEngine,
    };
    use aspp_topology::AsGraph;
    use aspp_types::well_known::*;
    use std::sync::Arc;

    fn all_specs() -> Vec<DestinationSpec> {
        let mut specs = vec![DestinationSpec::new(FACEBOOK).origin_padding(3)];
        for strategy in [
            AttackStrategy::StripPadding { keep: 1 },
            AttackStrategy::StripAllPadding,
            AttackStrategy::ForgeDirect,
            AttackStrategy::OriginHijack,
        ] {
            for mode in [ExportMode::Compliant, ExportMode::ViolateValleyFree] {
                specs.push(
                    DestinationSpec::new(FACEBOOK)
                        .origin_padding(3)
                        .attacker(AttackerModel::new(ATT).strategy(strategy).mode(mode)),
                );
            }
        }
        specs
    }

    #[test]
    fn engine_outcomes_audit_clean_across_strategy_matrix() {
        let graph = facebook_graph();
        let engine = RoutingEngine::new(&graph);
        for spec in all_specs() {
            let outcome = engine.compute(&spec);
            let audit = audit_outcome(&outcome);
            assert!(audit.is_clean(), "spec {spec:?} failed audit:\n{audit}",);
            assert!(audit.clean.routes_checked() > 0);
        }
    }

    #[test]
    fn corrupted_next_hop_is_flagged_with_node_attribution() {
        let graph = facebook_graph();
        let engine = RoutingEngine::new(&graph);
        let mut outcome = engine.compute(&DestinationSpec::new(FACEBOOK));
        // NTT is not adjacent to Korea Telecom: routing via it is bogus.
        let mut r = outcome.route(KOREA_TELECOM).unwrap();
        r.next_hop = Some(NTT);
        outcome.override_route_unchecked(KOREA_TELECOM, Some(r));
        let audit = audit_outcome(&outcome);
        assert!(audit.violations().any(|v| matches!(
            v,
            AuditViolation::BrokenNextHop { asn, next_hop } if *asn == KOREA_TELECOM && *next_hop == NTT
        )));
        assert!(audit.to_string().contains(&format!("AS{KOREA_TELECOM}")));
    }

    #[test]
    fn forwarding_loop_is_flagged() {
        let graph = facebook_graph();
        let engine = RoutingEngine::new(&graph);
        let mut outcome = engine.compute(&DestinationSpec::new(FACEBOOK));
        // Point AT&T and NTT at each other: a two-node forwarding cycle.
        for (asn, hop) in [(ATT, NTT), (NTT, ATT)] {
            let mut r = outcome.route(asn).unwrap();
            r.next_hop = Some(hop);
            outcome.override_route_unchecked(asn, Some(r));
        }
        let audit = audit_outcome(&outcome);
        assert!(audit
            .violations()
            .any(|v| matches!(v, AuditViolation::ForwardingLoop { asn } if *asn == ATT)));
    }

    #[test]
    fn shortened_route_is_flagged_as_length_mismatch() {
        let graph = facebook_graph();
        let engine = RoutingEngine::new(&graph);
        let mut outcome = engine.compute(&DestinationSpec::new(FACEBOOK).origin_padding(3));
        let mut r = outcome.route(ATT).unwrap();
        r.effective_len -= 1;
        outcome.override_route_unchecked(ATT, Some(r));
        let audit = audit_outcome(&outcome);
        assert!(audit
            .violations()
            .any(|v| matches!(v, AuditViolation::LengthMismatch { asn, .. } if *asn == ATT)));
    }

    #[test]
    fn upgraded_route_class_is_flagged_and_breaks_optimality() {
        let graph = facebook_graph();
        let engine = RoutingEngine::new(&graph);
        let mut outcome = engine.compute(&DestinationSpec::new(FACEBOOK));
        // AT&T learns Facebook over a peer (Level3); claiming a customer
        // route both mismatches the export and upsets neighbors' choices.
        let mut r = outcome.route(ATT).unwrap();
        r.class = RouteClass::FromCustomer;
        outcome.override_route_unchecked(ATT, Some(r));
        let audit = audit_outcome(&outcome);
        assert!(audit
            .violations()
            .any(|v| matches!(v, AuditViolation::ClassMismatch { asn, .. } if *asn == ATT)));
    }

    #[test]
    fn dropped_route_is_flagged_as_hidden() {
        let graph = facebook_graph();
        let engine = RoutingEngine::new(&graph);
        let mut outcome = engine.compute(&DestinationSpec::new(FACEBOOK));
        outcome.override_route_unchecked(ATT, None);
        let audit = audit_outcome(&outcome);
        assert!(audit
            .violations()
            .any(|v| matches!(v, AuditViolation::HiddenRoute { asn, .. } if *asn == ATT)));
    }

    #[test]
    fn corrupted_attacked_pass_is_flagged() {
        let graph = facebook_graph();
        let engine = RoutingEngine::new(&graph);
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(3)
            .attacker(AttackerModel::new(ATT));
        let mut outcome = engine.compute(&spec);
        assert!(outcome.has_attack());
        // Claim a via-attacker route at a node the attacker never polluted,
        // with an impossible length.
        outcome.override_route_unchecked(
            NTT,
            Some(RouteInfo {
                class: RouteClass::FromPeer,
                effective_len: 1,
                next_hop: Some(ATT),
                via_attacker: false,
            }),
        );
        let audit = audit_outcome(&outcome);
        assert!(!audit.is_clean());
        assert!(audit.attacked.as_ref().is_some_and(|r| !r.is_clean()));
    }

    #[test]
    fn policied_outcomes_audit_clean_with_their_policy() {
        let graph = facebook_graph();
        let engine = RoutingEngine::new(&graph);
        let mut ws = crate::RouteWorkspace::new();
        let full = DeploymentMap::from_indices(graph.len(), 0..graph.len());
        for spec in all_specs() {
            for kind in PolicyKind::ALL {
                let policy = Arc::new(DeployedPolicy::new(kind, full.clone()));
                let outcome = engine.compute_with(&spec.clone().defense(policy), &mut ws);
                let audit = audit_outcome(&outcome);
                assert!(
                    audit.is_clean(),
                    "spec {spec:?} with {kind} failed audit:\n{audit}"
                );
            }
        }
    }

    #[test]
    fn origin_hijackers_pinned_route_may_dangle_under_partial_rov() {
        use aspp_topology::AsGraphBuilder;
        use aspp_types::Asn;
        // AS5 -> {victim AS1, AS4}; AS4 -> {AS2, AS3}; AS2, AS3 -> hijacker
        // AS9. AS3 and AS4 adopt the hijack (customer beats provider), so
        // ROV deployer AS2 — AS9's clean next hop — loses its clean route
        // to AS4 and refuses the replacement: it holds no route at all.
        let mut graph = AsGraphBuilder::new();
        for (provider, customer) in [(5, 1), (5, 4), (4, 2), (4, 3), (2, 9), (3, 9)] {
            graph
                .add_provider_customer(Asn(provider), Asn(customer))
                .unwrap();
        }
        let graph = graph.finish();
        let policy =
            DeployedPolicy::new(PolicyKind::Rov, DeploymentMap::from_asns(&graph, [Asn(2)]));
        let spec = DestinationSpec::new(Asn(1))
            .attacker(AttackerModel::new(Asn(9)).strategy(AttackStrategy::OriginHijack))
            .defense(Arc::new(policy));
        let outcome = RoutingEngine::new(&graph).compute(&spec);
        assert!(outcome.is_polluted(Asn(4)) && outcome.route(Asn(2)).is_none());
        assert_eq!(outcome.route(Asn(9)).unwrap().next_hop, Some(Asn(2)));
        let audit = audit_outcome(&outcome);
        assert!(audit.is_clean(), "{audit}");
    }

    /// AT&T's clean route is peer-learned, so its stripped announcement is
    /// ASPA-invalid: NTT (an off-chain peer) adopts it undefended and
    /// filters it with ASPA deployed.
    fn ntt_under_aspa(graph: &AsGraph) -> (RoutingOutcome<'_>, RouteInfo) {
        let engine = RoutingEngine::new(graph);
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(4)
            .attacker(AttackerModel::new(ATT).mode(ExportMode::ViolateValleyFree));
        let undefended = engine.compute(&spec);
        assert!(undefended.is_polluted(NTT), "NTT adopts when undefended");
        let aspa = DeployedPolicy::new(PolicyKind::Aspa, DeploymentMap::from_asns(graph, [NTT]));
        let defended = engine.compute(&spec.defense(Arc::new(aspa)));
        assert!(!defended.is_polluted(NTT), "NTT's ASPA filters the route");
        (defended, undefended.route(NTT).expect("NTT has a route"))
    }

    #[test]
    fn policy_forbidden_adoption_is_flagged() {
        // Plant the undefended adoption in the defended outcome: NTT now
        // holds a peer-learned attacker route its own ASPA rejects.
        let graph = facebook_graph();
        let (mut outcome, adopted) = ntt_under_aspa(&graph);
        outcome.override_route_unchecked(NTT, Some(adopted));
        let audit = audit_outcome(&outcome);
        assert!(audit
            .violations()
            .any(|v| matches!(v, AuditViolation::PolicyViolation { asn } if *asn == NTT)));
        assert!(audit.to_string().contains("defense policy rejects"));
    }

    /// The engine's exit check panics with the report on an outcome that
    /// violates its own defense; under `debug-audit` every compute runs it.
    #[test]
    #[should_panic(expected = "adopted an attacker-derived route its own defense policy rejects")]
    fn exit_check_panics_on_an_unclean_outcome() {
        let graph = facebook_graph();
        let (mut outcome, adopted) = ntt_under_aspa(&graph);
        outcome.override_route_unchecked(NTT, Some(adopted));
        assert_audit_clean(&outcome);
    }

    #[test]
    fn audit_report_display_summarizes() {
        let graph = facebook_graph();
        let engine = RoutingEngine::new(&graph);
        let outcome = engine.compute(&DestinationSpec::new(FACEBOOK));
        let audit = audit_outcome(&outcome);
        let text = audit.to_string();
        assert!(text.contains("clean pass"));
        assert!(text.contains("0 violation(s)"));
        assert_eq!(audit.violation_count(), 0);
    }
}
