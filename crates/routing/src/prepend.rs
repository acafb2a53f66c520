//! AS-path prepending policies.
//!
//! "Instead of prepending its ASN once to the path, an AS adds its own AS
//! number multiple times to artificially increase the length of the AS path"
//! (paper Section II-A). Policies here express *extra* copies beyond the one
//! mandatory prepend; `extra = 0` is ordinary BGP behaviour.

use std::collections::HashMap;

use aspp_types::Asn;

/// How many extra copies of its own ASN an AS inserts when exporting a route
/// to a given neighbor.
///
/// # Example
///
/// ```
/// use aspp_routing::PrependingPolicy;
/// use aspp_types::Asn;
///
/// // Pad everyone by 2 extra copies, but give the preferred neighbor AS10 a
/// // clean (unpadded) announcement — classic inbound traffic engineering.
/// let policy = PrependingPolicy::per_neighbor(2, [(Asn(10), 0)]);
/// assert_eq!(policy.extra_for(Asn(10)), 0);
/// assert_eq!(policy.extra_for(Asn(11)), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum PrependingPolicy {
    /// No artificial prepending (the default).
    #[default]
    None,
    /// The same number of extra copies toward every neighbor — the paper's
    /// "λ copies" announcement uses `Uniform(λ - 1)`.
    Uniform(usize),
    /// Different padding per neighbor, with a default for unlisted ones.
    PerNeighbor {
        /// Extra copies for neighbors not in `overrides`.
        default: usize,
        /// Per-neighbor extra copies.
        overrides: HashMap<Asn, usize>,
    },
}

impl PrependingPolicy {
    /// Convenience constructor for [`PrependingPolicy::PerNeighbor`].
    #[must_use]
    pub fn per_neighbor<I: IntoIterator<Item = (Asn, usize)>>(
        default: usize,
        overrides: I,
    ) -> Self {
        PrependingPolicy::PerNeighbor {
            default,
            overrides: overrides.into_iter().collect(),
        }
    }

    /// Extra copies inserted when exporting to `neighbor`.
    #[must_use]
    pub fn extra_for(&self, neighbor: Asn) -> usize {
        match self {
            PrependingPolicy::None => 0,
            PrependingPolicy::Uniform(extra) => *extra,
            PrependingPolicy::PerNeighbor { default, overrides } => {
                overrides.get(&neighbor).copied().unwrap_or(*default)
            }
        }
    }

    /// The largest extra padding this policy can produce.
    #[must_use]
    pub fn max_extra(&self) -> usize {
        match self {
            PrependingPolicy::None => 0,
            PrependingPolicy::Uniform(extra) => *extra,
            PrependingPolicy::PerNeighbor { default, overrides } => {
                overrides.values().copied().max().unwrap_or(0).max(*default)
            }
        }
    }

    /// Returns `true` if the policy never pads.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.max_extra() == 0
    }
}

/// Per-AS prepending configuration for a whole topology.
///
/// Both origin prepending (by the prefix owner) and intermediary prepending
/// (by transit ASes along the path) are expressed the same way: every AS may
/// carry a policy; ASes without one never pad.
///
/// # Example
///
/// ```
/// use aspp_routing::{PrependConfig, PrependingPolicy};
/// use aspp_types::Asn;
///
/// let mut config = PrependConfig::new();
/// config.set(Asn(32934), PrependingPolicy::Uniform(4)); // Facebook pads ×5
/// assert_eq!(config.extra_for(Asn(32934), Asn(3356)), 4);
/// assert_eq!(config.extra_for(Asn(3356), Asn(7018)), 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrependConfig {
    policies: HashMap<Asn, PrependingPolicy>,
}

impl PrependConfig {
    /// Creates an empty configuration (nobody pads).
    #[must_use]
    pub fn new() -> Self {
        PrependConfig::default()
    }

    /// Installs `policy` for `asn`, replacing any previous policy.
    pub fn set(&mut self, asn: Asn, policy: PrependingPolicy) -> &mut Self {
        if policy == PrependingPolicy::None {
            self.policies.remove(&asn);
        } else {
            self.policies.insert(asn, policy);
        }
        self
    }

    /// Extra copies `exporter` inserts when announcing to `receiver`.
    #[must_use]
    pub fn extra_for(&self, exporter: Asn, receiver: Asn) -> usize {
        self.policies
            .get(&exporter)
            .map_or(0, |p| p.extra_for(receiver))
    }

    /// `asn`'s policy, if it has one.
    pub(crate) fn policy(&self, asn: Asn) -> Option<&PrependingPolicy> {
        self.policies.get(&asn)
    }

    /// Number of ASes with a non-trivial policy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Returns `true` if no AS pads.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// Iterates over `(asn, policy)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, &PrependingPolicy)> {
        self.policies.iter().map(|(&a, p)| (a, p))
    }
}

impl FromIterator<(Asn, PrependingPolicy)> for PrependConfig {
    fn from_iter<I: IntoIterator<Item = (Asn, PrependingPolicy)>>(iter: I) -> Self {
        let mut config = PrependConfig::new();
        for (asn, policy) in iter {
            config.set(asn, policy);
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_policy_never_pads() {
        let p = PrependingPolicy::None;
        assert_eq!(p.extra_for(Asn(1)), 0);
        assert_eq!(p.max_extra(), 0);
        assert!(p.is_none());
        assert_eq!(PrependingPolicy::default(), PrependingPolicy::None);
    }

    #[test]
    fn uniform_policy() {
        let p = PrependingPolicy::Uniform(4);
        assert_eq!(p.extra_for(Asn(1)), 4);
        assert_eq!(p.extra_for(Asn(2)), 4);
        assert_eq!(p.max_extra(), 4);
        assert!(!p.is_none());
    }

    #[test]
    fn per_neighbor_policy() {
        let p = PrependingPolicy::per_neighbor(3, [(Asn(10), 0), (Asn(11), 7)]);
        assert_eq!(p.extra_for(Asn(10)), 0);
        assert_eq!(p.extra_for(Asn(11)), 7);
        assert_eq!(p.extra_for(Asn(12)), 3);
        assert_eq!(p.max_extra(), 7);
    }

    #[test]
    fn per_neighbor_all_zero_is_none() {
        let p = PrependingPolicy::per_neighbor(0, []);
        assert!(p.is_none());
    }

    #[test]
    fn config_set_and_lookup() {
        let mut c = PrependConfig::new();
        assert!(c.is_empty());
        c.set(Asn(1), PrependingPolicy::Uniform(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.extra_for(Asn(1), Asn(9)), 2);
        assert_eq!(c.extra_for(Asn(2), Asn(9)), 0);
    }

    #[test]
    fn setting_none_removes_policy() {
        let mut c = PrependConfig::new();
        c.set(Asn(1), PrependingPolicy::Uniform(2));
        c.set(Asn(1), PrependingPolicy::None);
        assert!(c.is_empty());
    }

    #[test]
    fn from_iterator_collects() {
        let c: PrependConfig = [
            (Asn(1), PrependingPolicy::Uniform(1)),
            (Asn(2), PrependingPolicy::Uniform(5)),
        ]
        .into_iter()
        .collect();
        assert_eq!(c.len(), 2);
        assert_eq!(c.extra_for(Asn(2), Asn(1)), 5);
        assert_eq!(c.iter().count(), 2);
    }
}
