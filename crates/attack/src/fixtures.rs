//! Named topologies from the paper: the Figure 1 Facebook anomaly and the
//! Figure 3 detection example.

use aspp_routing::{AttackerModel, DestinationSpec};
use aspp_topology::{AsGraph, AsGraphBuilder};
use aspp_types::{well_known, Asn};

/// The paper's Section III / Figure 1 scenario: AT&T, NTT, Level3 and China
/// Telecom at the top, Korea Telecom buying transit from China Telecom, and
/// Facebook multi-homed to Level3 and Korea Telecom.
///
/// ```text
///   7018(AT&T) ── peer ── 3356(Level3) ──► 32934(Facebook)
///      │  peer              │ peer             ▲
///   4134(ChinaTel) ──► 9318(KoreaTel) ─────────┘   (──► = provider→customer)
///      │  peer
///   2914(NTT) ── peer ── 7018, 3356
/// ```
///
/// # Example
///
/// ```
/// use aspp_attack::fixtures;
/// use aspp_types::well_known;
///
/// let g = fixtures::facebook_topology();
/// assert!(g.contains(well_known::FACEBOOK));
/// assert_eq!(g.len(), 6);
/// ```
#[must_use]
pub fn facebook_topology() -> AsGraph {
    use well_known::*;
    let mut g = AsGraphBuilder::new();
    g.add_peering(ATT, LEVEL3).expect("fresh edge");
    g.add_peering(ATT, CHINA_TELECOM).expect("fresh edge");
    g.add_peering(NTT, ATT).expect("fresh edge");
    g.add_peering(NTT, CHINA_TELECOM).expect("fresh edge");
    g.add_peering(NTT, LEVEL3).expect("fresh edge");
    g.add_provider_customer(CHINA_TELECOM, KOREA_TELECOM)
        .expect("fresh edge");
    g.add_provider_customer(LEVEL3, FACEBOOK)
        .expect("fresh edge");
    g.add_provider_customer(KOREA_TELECOM, FACEBOOK)
        .expect("fresh edge");
    g.finish()
}

/// The destination spec reproducing the March 22nd 2011 anomaly: Facebook
/// announces with 5 copies of AS32934; Korea Telecom strips two of them,
/// leaving the 3 copies seen in the anomalous route
/// `4134 9318 32934 32934 32934`.
#[must_use]
pub fn facebook_anomaly_spec() -> DestinationSpec {
    DestinationSpec::new(well_known::FACEBOOK)
        .origin_padding(5)
        .attacker(AttackerModel::new(well_known::KOREA_TELECOM).keep(3))
}

/// A small hand-built hierarchy handy for detector tests and examples —
/// the paper's Figure 3 shape: victim `V`(1) with neighbors `A`(10) and
/// `C`(12); `A` serves `M`(66) and `E`(55); `M` serves `B`(77);
/// `C` serves `D`(13); monitors typically sit at `B`, `D`, `E`.
///
/// ```text
///         A(10)          C(12)
///        /  |  \            \
///   M(66) E(55) V(1) ◄───────┘
///     |
///   B(77)
/// ```
/// `A` and `C` are providers of `V`; `M`,`E` customers of `A`; `B` customer
/// of `M`; `D` customer of `C`; `A`—`C` peer at the top.
#[must_use]
pub fn figure3_topology() -> AsGraph {
    let mut g = AsGraphBuilder::new();
    let (v, a, c, m, e, b, d) = (Asn(1), Asn(10), Asn(12), Asn(66), Asn(55), Asn(77), Asn(13));
    g.add_provider_customer(a, v).expect("fresh edge");
    g.add_provider_customer(c, v).expect("fresh edge");
    g.add_peering(a, c).expect("fresh edge");
    g.add_provider_customer(a, m).expect("fresh edge");
    g.add_provider_customer(a, e).expect("fresh edge");
    g.add_provider_customer(m, b).expect("fresh edge");
    g.add_provider_customer(c, d).expect("fresh edge");
    g.finish()
}

/// Well-known ASNs of [`figure3_topology`], for readable tests.
pub mod figure3 {
    use aspp_types::Asn;

    /// The victim / prefix owner.
    pub const V: Asn = Asn(1);
    /// The victim's first provider, upstream of the attacker.
    pub const A: Asn = Asn(10);
    /// The victim's second provider.
    pub const C: Asn = Asn(12);
    /// The attacker, a customer of `A`.
    pub const M: Asn = Asn(66);
    /// An honest customer of `A`.
    pub const E: Asn = Asn(55);
    /// The attacker's customer.
    pub const B: Asn = Asn(77);
    /// `C`'s customer.
    pub const D: Asn = Asn(13);
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_routing::RoutingEngine;

    #[test]
    fn facebook_topology_is_consistent() {
        use well_known::*;
        let g = facebook_topology();
        assert_eq!(g.len(), 6);
        assert_eq!(g.link_count(), 8);
        // Facebook is multihomed.
        assert_eq!(g.providers(FACEBOOK).count(), 2);
    }

    #[test]
    fn facebook_anomaly_spec_matches_paper_parameters() {
        let spec = facebook_anomaly_spec();
        assert_eq!(spec.victim(), well_known::FACEBOOK);
        let attacker = spec.attacker_model().unwrap();
        assert_eq!(attacker.asn(), well_known::KOREA_TELECOM);
        assert_eq!(attacker.kept_copies(), 3);
    }

    #[test]
    fn figure3_routes_match_figure() {
        use figure3::*;
        let g = figure3_topology();
        let engine = RoutingEngine::new(&g);
        // V announces [V V V] to A and [V V] to C in the figure; reproduce
        // with a per-neighbor policy.
        let mut config = aspp_routing::PrependConfig::new();
        config.set(V, aspp_routing::PrependingPolicy::per_neighbor(2, [(C, 1)]));
        let outcome = engine.compute(&DestinationSpec::new(V).prepend_config(config));
        // E observes [E A V V V] as in the figure.
        assert_eq!(outcome.observed_path(E).unwrap().to_string(), "55 10 1 1 1");
        // D observes [D C V V].
        assert_eq!(outcome.observed_path(D).unwrap().to_string(), "13 12 1 1");
        // M's clean route is via A with 3 copies.
        assert_eq!(outcome.observed_path(M).unwrap().to_string(), "66 10 1 1 1");
    }
}
