//! Longest-prefix-match forwarding across concurrently announced prefixes.
//!
//! The control-plane engine computes one equilibrium per *destination*, but
//! real routers pick among destinations per packet: the forwarding table
//! holds every announced prefix, and a packet follows the most specific
//! entry covering its address — re-evaluated at every hop. That is what
//! makes the subprefix hijack strictly stronger than any same-prefix game:
//! a more-specific announcement wins at every AS that carries it, no matter
//! how short the victim's (or a competing attacker's) path is, while ASes
//! that never learned the more-specific fall back to the covering prefix.
//!
//! [`PrefixTable`] collects `(prefix, equilibrium)` entries — the victim's
//! covering prefix under one [`RoutingOutcome`], an attacker's subprefix
//! under another — and [`lpm_walk`] traces a probe address hop by hop,
//! doing the longest-match selection at each AS among the entries that AS
//! actually holds a route for.

use aspp_routing::{AttackStrategy, RoutingOutcome};
use aspp_types::{Asn, Ipv4Prefix};

/// The fate of a probe packet under longest-prefix-match forwarding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpmDelivery {
    /// The packet reached the origin of the most specific entry it ended up
    /// following. For a subprefix hijack that origin is the attacker — the
    /// capture the exact-prefix strategies cannot force.
    Delivered {
        /// The AS that finally received the packet.
        origin: Asn,
        /// Whether the path crossed an interception attacker's forwarding
        /// segment on the way.
        intercepted: bool,
        /// AS-level forwarding path, source first, receiving origin last.
        path: Vec<Asn>,
    },
    /// The packet was dropped: no entry covered the address at some AS, or
    /// a blackholing attacker attracted it.
    Blackholed {
        /// The AS where forwarding stopped.
        at: Asn,
        /// Hops traversed before the drop.
        path: Vec<Asn>,
    },
    /// Forwarding looped across entries (control/data plane mismatch).
    Looped {
        /// Hops traversed until the repeat.
        path: Vec<Asn>,
    },
}

impl LpmDelivery {
    /// `true` if the packet reached any origin.
    #[must_use]
    pub fn is_delivered(&self) -> bool {
        matches!(self, LpmDelivery::Delivered { .. })
    }

    /// `true` if the packet was delivered to `asn` specifically — the
    /// capture test for a hijacked subprefix.
    #[must_use]
    pub fn is_captured_by(&self, asn: Asn) -> bool {
        matches!(self, LpmDelivery::Delivered { origin, .. } if *origin == asn)
    }
}

/// One announced prefix and the control-plane equilibrium that routes it.
struct PrefixEntry<'o, 'g> {
    prefix: Ipv4Prefix,
    outcome: &'o RoutingOutcome<'g>,
}

/// A forwarding table over several concurrently announced prefixes, each
/// backed by its own control-plane equilibrium.
///
/// All entries must be computed over the same topology; the walk panics on
/// mismatched graphs rather than silently mixing node spaces.
#[derive(Default)]
pub struct PrefixTable<'o, 'g> {
    entries: Vec<PrefixEntry<'o, 'g>>,
}

impl<'o, 'g> PrefixTable<'o, 'g> {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        PrefixTable {
            entries: Vec::new(),
        }
    }

    /// Adds an announced prefix routed by `outcome` (whose victim is the
    /// prefix's origin).
    pub fn announce(&mut self, prefix: Ipv4Prefix, outcome: &'o RoutingOutcome<'g>) {
        self.entries.push(PrefixEntry { prefix, outcome });
    }

    /// Number of announced entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been announced.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The most specific entry covering `addr` for which `asn` holds a
    /// route (or is the entry's origin). Ties on length break toward the
    /// earlier announcement, which keeps the walk deterministic.
    fn best_entry(&self, asn: Asn, addr: u32) -> Option<&PrefixEntry<'o, 'g>> {
        self.entries
            .iter()
            .filter(|e| e.prefix.contains_addr(addr))
            .filter(|e| asn == e.outcome.victim() || e.outcome.route(asn).is_some())
            .max_by_key(|e| e.prefix.len())
    }
}

/// Walks the data plane from `src` toward the probe address `addr`,
/// longest-prefix-matching across every entry of `table` at each hop.
///
/// This is the crate's one hop loop ([`walk`](crate::forwarding::walk) is
/// its one-entry case). Within the chosen entry an interception attacker
/// forwards over its clean route (the packet is then committed to that
/// entry's clean segment — the tunnel toward the origin), an origin
/// hijacker blackholes, everyone else follows their best route's next hop.
/// The longest-match selection re-runs at every ordinary
/// hop, so an AS that never learned the more-specific entry hands the
/// packet over on the covering prefix and a downstream AS that did learn it
/// pulls the packet back onto the more-specific — exactly the partial-
/// visibility dynamics that make subprefix hijacks potent.
///
/// # Example
///
/// ```
/// use aspp_dataplane::lpm::{lpm_walk, PrefixTable};
/// use aspp_routing::{DestinationSpec, RoutingEngine};
/// use aspp_topology::AsGraphBuilder;
/// use aspp_types::{Asn, Ipv4Prefix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = AsGraphBuilder::new();
/// g.add_provider_customer(Asn(10), Asn(1))?;
/// g.add_provider_customer(Asn(10), Asn(66))?;
/// let g = g.finish();
/// let engine = RoutingEngine::new(&g);
/// let victim_eq = engine.compute(&DestinationSpec::new(Asn(1)));
/// let hijack_eq = engine.compute(&DestinationSpec::new(Asn(66)));
///
/// let covering: Ipv4Prefix = "10.0.0.0/8".parse()?;
/// let (sub, _) = covering.split().unwrap();
/// let mut table = PrefixTable::new();
/// table.announce(covering, &victim_eq);
/// table.announce(sub, &hijack_eq);
///
/// // An address in the hijacked lower half lands on AS 66, not AS 1.
/// let fate = lpm_walk(&table, Asn(10), sub.first_addr());
/// assert!(fate.is_captured_by(Asn(66)));
/// // The upper half still reaches the real origin.
/// let fate = lpm_walk(&table, Asn(10), covering.last_addr());
/// assert!(fate.is_captured_by(Asn(1)));
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if the table's entries were computed over differently sized
/// graphs (mixed node spaces).
#[must_use]
pub fn lpm_walk(table: &PrefixTable<'_, '_>, src: Asn, addr: u32) -> LpmDelivery {
    if let Some(first) = table.entries.first() {
        let n = first.outcome.graph().len();
        assert!(
            table.entries.iter().all(|e| e.outcome.graph().len() == n),
            "all PrefixTable entries must share one topology"
        );
    }

    let mut path = vec![src];
    let mut current = src;
    let mut intercepted = false;
    // Once an interception attacker grabs the packet, it is committed to
    // that entry's clean forwarding segment (the attacker's tunnel); LPM
    // re-selection stops.
    let mut committed: Option<&PrefixEntry<'_, '_>> = None;

    loop {
        if let Some(entry) = committed {
            if current == entry.outcome.victim() {
                return LpmDelivery::Delivered {
                    origin: current,
                    intercepted,
                    path,
                };
            }
            let Some(next) = entry.outcome.clean_route(current).and_then(|r| r.next_hop) else {
                return LpmDelivery::Blackholed { at: current, path };
            };
            if path.contains(&next) {
                path.push(next);
                return LpmDelivery::Looped { path };
            }
            path.push(next);
            current = next;
            continue;
        }

        let Some(entry) = table.best_entry(current, addr) else {
            return LpmDelivery::Blackholed { at: current, path };
        };
        if current == entry.outcome.victim() {
            return LpmDelivery::Delivered {
                origin: current,
                intercepted,
                path,
            };
        }
        if Some(current) == entry.outcome.attacker() {
            let strategy = entry
                .outcome
                .spec()
                .attacker_model()
                .map(aspp_routing::AttackerModel::attack_strategy);
            if matches!(strategy, Some(AttackStrategy::OriginHijack)) {
                return LpmDelivery::Blackholed { at: current, path };
            }
            intercepted = true;
            committed = Some(entry);
            continue;
        }
        let Some(next) = entry.outcome.route(current).and_then(|r| r.next_hop) else {
            return LpmDelivery::Blackholed { at: current, path };
        };
        if path.contains(&next) {
            path.push(next);
            return LpmDelivery::Looped { path };
        }
        path.push(next);
        current = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_routing::{AttackerModel, DestinationSpec, RoutingEngine};
    use aspp_topology::{AsGraph, AsGraphBuilder};

    fn line_graph() -> AsGraph {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        g.finish()
    }

    #[test]
    fn subprefix_wins_over_any_exact_prefix_route() {
        // On the exact prefix the ASPP strip can only *transit* traffic —
        // 77's packets still terminate at AS 1. The subprefix announcement
        // terminates 77's lower-half traffic at the attacker itself.
        let g = line_graph();
        let engine = RoutingEngine::new(&g);
        let strip = DestinationSpec::new(Asn(1)).attacker(AttackerModel::new(Asn(66)));
        let strip_eq = engine.compute(&strip);
        let strip_fate = crate::forwarding::walk(&strip_eq, Asn(77));
        assert!(
            strip_fate.is_delivered(),
            "strip never captures: {strip_fate:?}"
        );
        let hijack_eq = engine.compute(&DestinationSpec::new(Asn(66)));

        let covering: Ipv4Prefix = "203.0.0.0/16".parse().unwrap();
        let (sub, _) = covering.split().unwrap();
        let mut table = PrefixTable::new();
        table.announce(covering, &strip_eq);
        table.announce(sub, &hijack_eq);

        let lower = lpm_walk(&table, Asn(77), sub.first_addr());
        assert!(lower.is_captured_by(Asn(66)), "{lower:?}");
        let upper = lpm_walk(&table, Asn(77), covering.last_addr());
        assert!(upper.is_captured_by(Asn(1)), "{upper:?}");
    }

    #[test]
    fn covering_prefix_alone_behaves_like_plain_forwarding() {
        let g = line_graph();
        let engine = RoutingEngine::new(&g);
        let eq = engine.compute(&DestinationSpec::new(Asn(1)));
        let covering: Ipv4Prefix = "203.0.0.0/16".parse().unwrap();
        let mut table = PrefixTable::new();
        table.announce(covering, &eq);
        let fate = lpm_walk(&table, Asn(77), covering.first_addr());
        assert_eq!(
            fate,
            LpmDelivery::Delivered {
                origin: Asn(1),
                intercepted: false,
                path: vec![Asn(77), Asn(66), Asn(10), Asn(1)],
            }
        );
    }

    #[test]
    fn unmatched_address_is_blackholed_at_the_source() {
        let g = line_graph();
        let engine = RoutingEngine::new(&g);
        let eq = engine.compute(&DestinationSpec::new(Asn(1)));
        let covering: Ipv4Prefix = "203.0.0.0/16".parse().unwrap();
        let mut table = PrefixTable::new();
        table.announce(covering, &eq);
        let fate = lpm_walk(&table, Asn(77), 0x0808_0808);
        assert!(
            matches!(fate, LpmDelivery::Blackholed { at: Asn(77), .. }),
            "{fate:?}"
        );
    }

    #[test]
    fn moas_origin_hijack_blackholes_on_the_shared_prefix() {
        let g = line_graph();
        let engine = RoutingEngine::new(&g);
        let spec = DestinationSpec::new(Asn(1)).origin_padding(4).attacker(
            AttackerModel::new(Asn(66)).strategy(aspp_routing::AttackStrategy::OriginHijack),
        );
        let eq = engine.compute(&spec);
        let covering: Ipv4Prefix = "203.0.0.0/16".parse().unwrap();
        let mut table = PrefixTable::new();
        table.announce(covering, &eq);
        let fate = lpm_walk(&table, Asn(77), covering.first_addr());
        assert!(
            matches!(fate, LpmDelivery::Blackholed { at: Asn(66), .. }),
            "{fate:?}"
        );
    }

    #[test]
    fn interception_commits_to_the_attacker_tunnel() {
        let g = line_graph();
        let engine = RoutingEngine::new(&g);
        let spec = DestinationSpec::new(Asn(1))
            .origin_padding(4)
            .attacker(AttackerModel::new(Asn(66)));
        let eq = engine.compute(&spec);
        let covering: Ipv4Prefix = "203.0.0.0/16".parse().unwrap();
        let mut table = PrefixTable::new();
        table.announce(covering, &eq);
        let fate = lpm_walk(&table, Asn(77), covering.first_addr());
        assert!(fate.is_captured_by(Asn(1)), "{fate:?}");
        assert!(
            matches!(
                fate,
                LpmDelivery::Delivered {
                    intercepted: true,
                    ..
                }
            ),
            "{fate:?}"
        );
    }
}
