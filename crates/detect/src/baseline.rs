//! Baseline hijack detectors the paper contrasts ASPP interception against
//! (Sections I–II): MOAS (origin-change) detection as used by PHAS-style
//! systems, and AS-level link-anomaly detection as used by topology
//! firewalls. The point of the comparison — and of the whole paper — is
//! that the ASPP attack slips past both while the Figure 4 detector
//! catches it.

use std::collections::{BTreeSet, HashSet};

use aspp_topology::AsGraph;
use aspp_types::Asn;

use crate::view::RouteView;

/// A multiple-origin-AS conflict for the monitored prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MoasAlert {
    /// All origins observed at the current instant (≥ 2, or 1 that differs
    /// from the historical origin).
    pub origins: Vec<Asn>,
    /// The origin observed before the change, when it was unique.
    pub previous_origin: Option<Asn>,
}

/// PHAS-style MOAS detection: alerts when the current view shows more than
/// one origin AS for the prefix, or a single origin that differs from the
/// previous view's.
///
/// # Example
///
/// ```
/// use aspp_detect::baseline::detect_moas;
/// use aspp_detect::RouteView;
///
/// let before = RouteView::from_paths(["7 3 1".parse().unwrap()]);
/// let after = RouteView::from_paths(["7 3 1".parse().unwrap(), "8 2".parse().unwrap()]);
/// let alert = detect_moas(&before, &after).expect("two origins now visible");
/// assert_eq!(alert.origins.len(), 2);
/// ```
#[must_use]
pub fn detect_moas(before: &RouteView, after: &RouteView) -> Option<MoasAlert> {
    let origins_of = |view: &RouteView| -> BTreeSet<Asn> {
        view.iter().filter_map(|(_, p)| p.origin()).collect()
    };
    let now = origins_of(after);
    let past = origins_of(before);
    if now.len() > 1 {
        return Some(MoasAlert {
            origins: now.into_iter().collect(),
            previous_origin: if past.len() == 1 {
                past.into_iter().next()
            } else {
                None
            },
        });
    }
    if past.len() == 1 && now.len() == 1 && past != now {
        return Some(MoasAlert {
            origins: now.into_iter().collect(),
            previous_origin: past.into_iter().next(),
        });
    }
    None
}

/// A previously-unseen AS-level adjacency appearing on an observed path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkAnomaly {
    /// The two ASes of the suspicious adjacency, upstream first.
    pub from: Asn,
    /// Downstream endpoint.
    pub to: Asn,
}

/// Topology-firewall detection: flags every adjacent AS pair on an observed
/// path that is absent from the known topology — the signature of the
/// classic interception attack which drops ASes from the path.
///
/// # Example
///
/// ```
/// use aspp_detect::baseline::detect_link_anomalies;
/// use aspp_detect::RouteView;
/// use aspp_topology::AsGraphBuilder;
/// use aspp_types::Asn;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut known = AsGraphBuilder::new();
/// known.add_provider_customer(Asn(3), Asn(1))?;
/// known.add_peering(Asn(7), Asn(3))?;
/// let known = known.finish();
/// // Path "7 1" uses a 7-1 adjacency that does not exist.
/// let view = RouteView::from_paths(["7 1".parse().unwrap()]);
/// let anomalies = detect_link_anomalies(&known, &view);
/// assert_eq!(anomalies.len(), 1);
/// assert_eq!(anomalies[0].from, Asn(7));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn detect_link_anomalies(known: &AsGraph, view: &RouteView) -> Vec<LinkAnomaly> {
    let mut seen: HashSet<LinkAnomaly> = HashSet::new();
    let mut out = Vec::new();
    for (_, path) in view.iter() {
        for w in path.collapsed().windows(2) {
            if known.relationship(w[0], w[1]).is_none() {
                let anomaly = LinkAnomaly {
                    from: w[0],
                    to: w[1],
                };
                if seen.insert(anomaly) {
                    out.push(anomaly);
                }
            }
        }
    }
    out
}

/// Which detectors fire for one simulated attack — the paper's stealth
/// argument in table form.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VisibilityReport {
    /// PHAS-style MOAS detection fired.
    pub moas: bool,
    /// Topology link-anomaly detection fired.
    pub link_anomaly: bool,
    /// The paper's Figure 4 ASPP detector fired.
    pub aspp: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_topology::AsGraphBuilder;
    use aspp_types::AsPath;

    fn view(paths: &[&str]) -> RouteView {
        RouteView::from_paths(paths.iter().map(|s| s.parse::<AsPath>().unwrap()))
    }

    #[test]
    fn moas_quiet_on_consistent_origin() {
        let v = view(&["7 3 1 1 1", "8 3 1 1"]);
        assert!(detect_moas(&v, &v).is_none());
    }

    #[test]
    fn moas_fires_on_second_origin() {
        let before = view(&["7 3 1"]);
        let after = view(&["7 3 1", "8 2"]);
        let alert = detect_moas(&before, &after).unwrap();
        assert_eq!(alert.origins, vec![Asn(1), Asn(2)]);
        assert_eq!(alert.previous_origin, Some(Asn(1)));
    }

    #[test]
    fn moas_fires_on_full_origin_change() {
        let before = view(&["7 3 1"]);
        let after = view(&["7 3 2"]);
        let alert = detect_moas(&before, &after).unwrap();
        assert_eq!(alert.origins, vec![Asn(2)]);
        assert_eq!(alert.previous_origin, Some(Asn(1)));
    }

    #[test]
    fn moas_blind_to_padding_changes() {
        // The whole point of the ASPP attack.
        let before = view(&["7 3 1 1 1 1"]);
        let after = view(&["7 3 1"]);
        assert!(detect_moas(&before, &after).is_none());
    }

    #[test]
    fn link_anomaly_finds_forged_adjacency() {
        let mut known = AsGraphBuilder::new();
        known.add_provider_customer(Asn(3), Asn(1)).unwrap();
        known.add_peering(Asn(7), Asn(3)).unwrap();
        known.add_peering(Asn(8), Asn(7)).unwrap();
        let known = known.finish();
        // 7 announces a direct route to 1: link 7-1 is new.
        let v = view(&["8 7 1"]);
        let anomalies = detect_link_anomalies(&known, &v);
        assert_eq!(
            anomalies,
            vec![LinkAnomaly {
                from: Asn(7),
                to: Asn(1)
            }]
        );
    }

    #[test]
    fn link_anomaly_blind_to_padding_changes() {
        let mut known = AsGraphBuilder::new();
        known.add_provider_customer(Asn(3), Asn(1)).unwrap();
        known.add_peering(Asn(7), Asn(3)).unwrap();
        let known = known.finish();
        // Stripped padding, but every adjacency is real.
        let v = view(&["7 3 1"]);
        assert!(detect_link_anomalies(&known, &v).is_empty());
    }

    #[test]
    fn link_anomaly_dedups_across_paths() {
        let known = AsGraph::default();
        let v = view(&["7 1", "9 7 1"]);
        let anomalies = detect_link_anomalies(&known, &v);
        // 7-1 appears in both paths but is reported once; 9-7 also reported.
        assert_eq!(anomalies.len(), 2);
    }
}
