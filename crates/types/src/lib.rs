//! Core BGP data types for the ASPP prefix-interception study.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: autonomous system numbers ([`Asn`]), IPv4 prefixes
//! ([`Ipv4Prefix`]), AS paths with explicit prepending support ([`AsPath`]),
//! and the business-relationship classification used by Gao–Rexford policy routing ([`Relationship`],
//! [`RouteClass`]).
//!
//! The types are deliberately small, `Copy` where possible, and implement the
//! full set of common traits so they compose with standard collections.
//!
//! # Example
//!
//! ```
//! use aspp_types::{Asn, AsPath, Ipv4Prefix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Facebook announces one of its prefixes with 5 copies of its ASN
//! // (4 prepends on top of the mandatory one).
//! let facebook = Asn(32934);
//! let mut path = AsPath::origin_with_padding(facebook, 5);
//! assert_eq!(path.origin_padding(), 5);
//!
//! // Level3 adds itself once while propagating.
//! path.prepend(Asn(3356));
//! assert_eq!(path.to_string(), "3356 32934 32934 32934 32934 32934");
//!
//! // An attacker strips the route down to a single origin copy.
//! let removed = path.strip_origin_padding(1);
//! assert_eq!(removed, 4);
//! assert_eq!(path.to_string(), "3356 32934");
//!
//! assert_eq!(path.origin(), Some(facebook));
//!
//! // The prefix the anomaly diverted.
//! let prefix: Ipv4Prefix = "69.171.224.0/20".parse()?;
//! assert!(prefix.contains(&"69.171.230.0/24".parse()?));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asn;
mod error;
mod path;
mod prefix;
mod relationship;

pub use asn::Asn;
pub use error::{AsppError, IngestReport, ParseAsPathError, ParseAsnError, ParsePrefixError};
pub use path::AsPath;
pub use prefix::Ipv4Prefix;
pub use relationship::{ParseRelationshipError, Relationship, RouteClass};

/// Well-known ASNs appearing in the paper's Facebook case study (Section III)
/// and in its named attack scenarios (Section VI-B).
pub mod well_known {
    use super::Asn;

    /// AT&T, the Tier-1 whose route to Facebook was diverted.
    pub const ATT: Asn = Asn(7018);
    /// Sprint, the Tier-1 attacker in the paper's Figure 9 scenario.
    pub const SPRINT: Asn = Asn(1239);
    /// NTT, the Tier-1 victim in the paper's Figure 11 scenario.
    pub const NTT: Asn = Asn(2914);
    /// Level 3, AT&T's normal next hop toward Facebook.
    pub const LEVEL3: Asn = Asn(3356);
    /// China Telecom, on the anomalous detour path.
    pub const CHINA_TELECOM: Asn = Asn(4134);
    /// SK Telecom (Korea), origin of the anomalous shorter announcement.
    pub const KOREA_TELECOM: Asn = Asn(9318);
    /// Facebook, the victim of the March 22nd 2011 anomaly.
    pub const FACEBOOK: Asn = Asn(32934);
    /// The small attacker of the paper's Figure 12 scenario.
    pub const SMALL_ATTACKER: Asn = Asn(30209);
    /// The small victim of the paper's Figure 12 scenario.
    pub const SMALL_VICTIM: Asn = Asn(12734);
}
