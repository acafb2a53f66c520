//! Data-plane forwarding walks: does a packet actually arrive?
//!
//! The paper's central distinction: with the ASPP interception "the traffic
//! will eventually reach the destination V, which makes this attack
//! different from the blackholing based prefix hijacking attacks"
//! (Section II-B). This module checks that property mechanically by walking
//! hop-by-hop forwarding decisions: each AS hands the packet to its best
//! route's next hop; the attacker forwards intercepted traffic over its own
//! (clean) route; an origin hijacker has nowhere to send it. The hop loop
//! itself is [`lpm_walk`]'s — a single destination is a forwarding table
//! with one entry.

use aspp_routing::RoutingOutcome;
use aspp_types::{Asn, Ipv4Prefix};

use crate::lpm::{lpm_walk, LpmDelivery, PrefixTable};

/// The fate of a packet sent from one AS toward the victim prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// The packet reached the victim; the flag says whether it crossed the
    /// attacker on the way (interception), and the path lists every AS hop.
    Delivered {
        /// Whether the forwarding path crossed the attacker.
        intercepted: bool,
        /// AS-level forwarding path, source first, victim last.
        path: Vec<Asn>,
    },
    /// The packet was dropped at the given AS (no route, or a blackholing
    /// attacker).
    Blackholed {
        /// The AS where forwarding stopped.
        at: Asn,
        /// Hops traversed before the drop.
        path: Vec<Asn>,
    },
    /// Forwarding looped (control/data plane mismatch).
    Looped {
        /// Hops traversed until the repeat.
        path: Vec<Asn>,
    },
}

impl Delivery {
    /// `true` if the packet reached the victim.
    #[must_use]
    pub fn is_delivered(&self) -> bool {
        matches!(self, Delivery::Delivered { .. })
    }

    /// `true` if the packet reached the victim *through* the attacker.
    #[must_use]
    pub fn is_intercepted(&self) -> bool {
        matches!(
            self,
            Delivery::Delivered {
                intercepted: true,
                ..
            }
        )
    }
}

/// Walks the data plane from `src` toward the victim of `outcome`.
///
/// Every AS forwards to its best route's next hop. The attacker is special:
/// whatever it announced, it *forwards* along its clean (pre-attack) route —
/// that is what makes the interception transparent. An origin hijacker
/// (`AttackStrategy::OriginHijack`) instead drops the traffic it attracts.
///
/// # Example
///
/// ```
/// use aspp_dataplane::forwarding::walk;
/// use aspp_routing::{AttackerModel, DestinationSpec, RoutingEngine};
/// use aspp_topology::AsGraphBuilder;
/// use aspp_types::Asn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = AsGraphBuilder::new();
/// g.add_provider_customer(Asn(10), Asn(1))?;
/// g.add_provider_customer(Asn(10), Asn(66))?;
/// g.add_provider_customer(Asn(66), Asn(77))?;
/// let g = g.finish();
/// let engine = RoutingEngine::new(&g);
/// let spec = DestinationSpec::new(Asn(1))
///     .origin_padding(4)
///     .attacker(AttackerModel::new(Asn(66)));
/// let outcome = engine.compute(&spec);
///
/// // 77's traffic is intercepted by 66 but still delivered to 1.
/// let fate = walk(&outcome, Asn(77));
/// assert!(fate.is_delivered());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn walk(outcome: &RoutingOutcome<'_>, src: Asn) -> Delivery {
    // The default route covers every address, so longest-prefix match has
    // exactly one candidate at every hop.
    let mut table = PrefixTable::new();
    table.announce(Ipv4Prefix::containing(0, 0), outcome);
    match lpm_walk(&table, src, 0) {
        LpmDelivery::Delivered {
            intercepted, path, ..
        } => Delivery::Delivered { intercepted, path },
        LpmDelivery::Blackholed { at, path } => Delivery::Blackholed { at, path },
        LpmDelivery::Looped { path } => Delivery::Looped { path },
    }
}

/// Fraction of ASes whose traffic is delivered / intercepted / blackholed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeliveryStats {
    /// Fraction delivered to the victim (intercepted or not).
    pub delivered: f64,
    /// Fraction delivered *through* the attacker.
    pub intercepted: f64,
    /// Fraction blackholed.
    pub blackholed: f64,
    /// Fraction caught in forwarding loops.
    pub looped: f64,
}

/// Walks the data plane from every AS and aggregates the fates.
#[must_use]
pub fn delivery_stats(outcome: &RoutingOutcome<'_>) -> DeliveryStats {
    let mut stats = DeliveryStats::default();
    let mut total = 0usize;
    for asn in outcome.asns() {
        if asn == outcome.victim() {
            continue;
        }
        total += 1;
        match walk(outcome, asn) {
            Delivery::Delivered { intercepted, .. } => {
                stats.delivered += 1.0;
                if intercepted {
                    stats.intercepted += 1.0;
                }
            }
            Delivery::Blackholed { .. } => stats.blackholed += 1.0,
            Delivery::Looped { .. } => stats.looped += 1.0,
        }
    }
    if total > 0 {
        let n = total as f64;
        stats.delivered /= n;
        stats.intercepted /= n;
        stats.blackholed /= n;
        stats.looped /= n;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_routing::{AttackerModel, DestinationSpec, ExportMode, RoutingEngine};
    use aspp_topology::gen::InternetConfig;
    use aspp_topology::{AsGraph, AsGraphBuilder};

    fn line_graph() -> AsGraph {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        g.finish()
    }

    #[test]
    fn clean_traffic_is_delivered_directly() {
        let g = line_graph();
        let outcome = RoutingEngine::new(&g).compute(&DestinationSpec::new(Asn(1)));
        let fate = walk(&outcome, Asn(77));
        assert_eq!(
            fate,
            Delivery::Delivered {
                intercepted: false,
                path: vec![Asn(77), Asn(66), Asn(10), Asn(1)],
            }
        );
    }

    #[test]
    fn aspp_interception_still_delivers() {
        let g = line_graph();
        let spec = DestinationSpec::new(Asn(1))
            .origin_padding(4)
            .attacker(AttackerModel::new(Asn(66)));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        let fate = walk(&outcome, Asn(77));
        assert!(fate.is_delivered(), "{fate:?}");
        assert!(fate.is_intercepted(), "{fate:?}");
    }

    #[test]
    fn origin_hijack_blackholes() {
        let g = line_graph();
        let spec = DestinationSpec::new(Asn(1)).origin_padding(4).attacker(
            AttackerModel::new(Asn(66)).strategy(aspp_routing::AttackStrategy::OriginHijack),
        );
        let outcome = RoutingEngine::new(&g).compute(&spec);
        // 77 is polluted (1-hop bogus origin beats the padded real route).
        assert!(outcome.is_polluted(Asn(77)));
        let fate = walk(&outcome, Asn(77));
        assert!(
            matches!(fate, Delivery::Blackholed { at: Asn(66), .. }),
            "{fate:?}"
        );
    }

    #[test]
    fn forwarding_cycle_is_reported_as_looped_not_spun_forever() {
        // A correct control plane never produces a cycle, so build one by
        // hand: 66 and 10 point at each other. The walk must terminate with
        // Delivery::Looped (and the audit subsystem flags the same outcome
        // as inconsistent) instead of walking forever.
        let g = line_graph();
        let mut outcome = RoutingEngine::new(&g).compute(&DestinationSpec::new(Asn(1)));
        let mut r66 = outcome.route(Asn(66)).unwrap();
        r66.next_hop = Some(Asn(77));
        outcome.override_route_unchecked(Asn(66), Some(r66));
        let mut r77 = outcome.route(Asn(77)).unwrap();
        r77.next_hop = Some(Asn(66));
        outcome.override_route_unchecked(Asn(77), Some(r77));

        let fate = walk(&outcome, Asn(77));
        assert_eq!(
            fate,
            Delivery::Looped {
                path: vec![Asn(77), Asn(66), Asn(77)],
            }
        );
        let stats = delivery_stats(&outcome);
        assert!(stats.looped > 0.0, "{stats:?}");
        // The same corruption is what `aspp audit` exists to catch.
        assert!(!aspp_routing::audit::audit_outcome(&outcome).is_clean());
    }

    #[test]
    fn interception_preserves_global_delivery() {
        // The paper's headline property at scale: under an ASPP attack,
        // every AS's traffic still reaches the victim.
        let g = InternetConfig::small().seed(71).build();
        let spec = DestinationSpec::new(Asn(20_000))
            .origin_padding(5)
            .attacker(AttackerModel::new(Asn(100)).mode(ExportMode::Compliant));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        let stats = delivery_stats(&outcome);
        assert!(
            (stats.delivered - 1.0).abs() < 1e-9,
            "everything delivered: {stats:?}"
        );
        assert!(stats.intercepted > 0.0, "some traffic crosses the attacker");
        assert_eq!(stats.blackholed, 0.0);
        assert_eq!(stats.looped, 0.0);
    }

    #[test]
    fn origin_hijack_blackholes_polluted_share() {
        let g = InternetConfig::small().seed(72).build();
        let spec = DestinationSpec::new(Asn(20_000))
            .origin_padding(5)
            .attacker(
                AttackerModel::new(Asn(100)).strategy(aspp_routing::AttackStrategy::OriginHijack),
            );
        let outcome = RoutingEngine::new(&g).compute(&spec);
        let stats = delivery_stats(&outcome);
        assert!(
            stats.blackholed > 0.1,
            "hijack blackholes traffic: {stats:?}"
        );
        assert!(
            (stats.blackholed - outcome.polluted_fraction()).abs() < 0.1,
            "blackholed ≈ polluted: {stats:?} vs {}",
            outcome.polluted_fraction()
        );
    }
}
