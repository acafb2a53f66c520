//! Public-API regression tests for `aspp-types`: behaviours a downstream
//! user relies on, exercised exactly as a downstream crate would.

use aspp_types::{well_known, AsPath, Asn, Ipv4Prefix, Relationship, RouteClass};

#[test]
fn well_known_constants_are_the_papers_asns() {
    assert_eq!(well_known::ATT, Asn(7018));
    assert_eq!(well_known::SPRINT, Asn(1239));
    assert_eq!(well_known::NTT, Asn(2914));
    assert_eq!(well_known::LEVEL3, Asn(3356));
    assert_eq!(well_known::CHINA_TELECOM, Asn(4134));
    assert_eq!(well_known::KOREA_TELECOM, Asn(9318));
    assert_eq!(well_known::FACEBOOK, Asn(32934));
    assert_eq!(well_known::SMALL_ATTACKER, Asn(30209));
    assert_eq!(well_known::SMALL_VICTIM, Asn(12734));
}

#[test]
fn prefix_ordering_is_stable_for_btreemap_use() {
    let mut prefixes: Vec<Ipv4Prefix> = ["10.0.0.0/8", "10.0.0.0/16", "9.0.0.0/8"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    prefixes.sort();
    let rendered: Vec<String> = prefixes.iter().map(ToString::to_string).collect();
    assert_eq!(rendered, vec!["9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16"]);
}

#[test]
fn default_route_contains_everything() {
    let default: Ipv4Prefix = "0.0.0.0/0".parse().unwrap();
    for s in ["1.2.3.0/24", "255.255.255.255/32", "0.0.0.0/0"] {
        assert!(default.contains(&s.parse().unwrap()));
    }
    assert!(default.contains_addr(0));
    assert!(default.contains_addr(u32::MAX));
}

#[test]
fn route_class_ordering_is_a_total_preference() {
    use RouteClass::*;
    let order = [Origin, FromCustomer, FromPeer, FromProvider];
    for (i, a) in order.iter().enumerate() {
        for (j, b) in order.iter().enumerate() {
            assert_eq!(a < b, i < j, "{a} vs {b}");
        }
    }
}

#[test]
fn relationship_round_trips_through_caida_spellings() {
    assert_eq!(
        "p2c".parse::<Relationship>().unwrap(),
        Relationship::Customer
    );
    assert_eq!(
        "c2p".parse::<Relationship>().unwrap(),
        Relationship::Provider
    );
    // Display always uses the canonical word.
    assert_eq!(Relationship::Customer.to_string(), "customer");
}

#[test]
fn strip_on_unpadded_and_single_hop_paths() {
    let mut single: AsPath = "7".parse().unwrap();
    assert_eq!(single.strip_origin_padding(1), 0);
    assert_eq!(single.to_string(), "7");

    let mut empty = AsPath::new();
    assert_eq!(empty.strip_origin_padding(3), 0);
    assert!(empty.is_empty());
}

#[test]
fn max_padding_vs_origin_padding() {
    // The deepest run is mid-path: Figure 6 measures max_padding, the
    // detector measures origin_padding; they must stay distinct.
    let path: AsPath = "1 6 6 6 6 2 2".parse().unwrap();
    assert_eq!(path.max_padding(), 4);
    assert_eq!(path.origin_padding(), 2);
}

#[test]
fn asn_hex_independence() {
    // ASNs are decimal identities; Display must never hex-format.
    assert_eq!(Asn(0xFF).to_string(), "255");
}

#[test]
fn error_types_are_std_errors() {
    fn is_error<E: std::error::Error>(_: &E) {}
    is_error(&"x".parse::<Asn>().unwrap_err());
    is_error(&"x".parse::<Ipv4Prefix>().unwrap_err());
    is_error(&"1 x".parse::<AsPath>().unwrap_err());
}
