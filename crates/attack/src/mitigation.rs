//! Mitigation of the ASPP interception — the paper's closing agenda item
//! ("developing attack prevention schemes is also in our future agenda",
//! Section VIII), built from the defenses its related-work section surveys.
//!
//! Two reactive defenses a prefix owner can deploy the moment an alarm
//! fires:
//!
//! * [`padding_reduction`] — announce with less padding: the attacker's
//!   shortened route loses its length advantage, at the price of giving up
//!   the original traffic engineering;
//! * [`deaggregation`] — announce more-specifics of the hijacked prefix
//!   *without* padding ("intentional deaggregation"): longest-prefix-match
//!   forwarding prefers them regardless of AS-path length, pulling traffic
//!   off the polluted route even where the padded aggregate stays polluted.

use aspp_routing::DestinationSpec;
use aspp_topology::AsGraph;
use aspp_types::Ipv4Prefix;

use crate::experiment::run_experiment;

/// Outcome of applying one mitigation against one attack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MitigationReport {
    /// Pollution before any defense (fraction of ASes).
    pub polluted_before: f64,
    /// Fraction of ASes whose *traffic* still reaches the attacker after
    /// the defense.
    pub polluted_after: f64,
    /// The λ the victim fell back to (for padding reduction), if applicable.
    pub fallback_padding: Option<usize>,
}

impl MitigationReport {
    /// Fraction of the original pollution removed by the defense.
    #[must_use]
    pub fn relief(&self) -> f64 {
        if self.polluted_before <= f64::EPSILON {
            return 0.0;
        }
        ((self.polluted_before - self.polluted_after) / self.polluted_before).max(0.0)
    }
}

/// Padding reduction: the victim re-announces with `fallback` total copies
/// (typically 1). The attacker can then strip at most `fallback - keep`
/// copies, collapsing its length advantage.
///
/// # Example
///
/// ```
/// use aspp_attack::mitigation::padding_reduction;
/// use aspp_routing::{AttackerModel, DestinationSpec};
/// use aspp_topology::gen::InternetConfig;
/// use aspp_types::Asn;
///
/// let graph = InternetConfig::small().seed(9).build();
/// let spec = DestinationSpec::new(Asn(20_000))
///     .origin_padding(5)
///     .attacker(AttackerModel::new(Asn(100)));
/// let report = padding_reduction(&graph, &spec, 1);
/// assert!(report.polluted_after <= report.polluted_before);
/// ```
#[must_use]
pub fn padding_reduction(
    graph: &AsGraph,
    spec: &DestinationSpec,
    fallback: usize,
) -> MitigationReport {
    let before = run_experiment(graph, spec);
    let after = run_experiment(graph, &spec.clone().origin_padding(fallback));
    MitigationReport {
        polluted_before: before.after_fraction,
        polluted_after: after.after_fraction,
        fallback_padding: Some(fallback.max(1)),
    }
}

/// Intentional deaggregation: the victim splits the hijacked prefix and
/// announces the two more-specific halves with **no padding**. Forwarding is
/// longest-prefix-match, so every AS's traffic follows its route for the
/// more-specifics; the attacker's shortened route only ever covers the
/// aggregate.
///
/// The attacker is assumed not to chase the more-specifics (doing so would
/// require stripping padding that is not there — the ASPP attack has no
/// leverage on an unpadded announcement). Reported `polluted_after` is the
/// fraction of ASes whose traffic to an address inside `prefix` still
/// crosses the attacker: the more-specifics route as the unpadded clean
/// equilibrium, so that is the "before hijack" baseline of the λ = 1 cell.
///
/// # Errors
///
/// Returns `None` if `prefix` is a /32 (nothing to split).
#[must_use]
pub fn deaggregation(
    graph: &AsGraph,
    spec: &DestinationSpec,
    prefix: Ipv4Prefix,
) -> Option<MitigationReport> {
    prefix.split()?;
    let before = run_experiment(graph, spec);
    let unpadded = run_experiment(graph, &spec.clone().origin_padding(1));
    Some(MitigationReport {
        polluted_before: before.after_fraction,
        polluted_after: unpadded.before_fraction,
        fallback_padding: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_routing::AttackerModel;
    use aspp_topology::gen::InternetConfig;
    use aspp_topology::tier::TierMap;
    use aspp_types::Asn;

    fn setup() -> (AsGraph, DestinationSpec) {
        let graph = InternetConfig::small().seed(81).build();
        let tiers = TierMap::classify(&graph);
        let attacker = tiers.tier1().min().unwrap();
        let spec = DestinationSpec::new(Asn(20_004))
            .origin_padding(6)
            .attacker(AttackerModel::new(attacker));
        (graph, spec)
    }

    #[test]
    fn padding_reduction_removes_the_length_advantage() {
        let (graph, spec) = setup();
        let report = padding_reduction(&graph, &spec, 1);
        assert!(report.polluted_before > 0.1, "attack works: {report:?}");
        assert!(
            report.polluted_after < report.polluted_before,
            "reduction helps: {report:?}"
        );
        assert!(report.relief() > 0.3, "meaningful relief: {report:?}");
        assert_eq!(report.fallback_padding, Some(1));
    }

    #[test]
    fn padding_reduction_clamps_fallback() {
        let (graph, spec) = setup();
        let report = padding_reduction(&graph, &spec, 0);
        assert_eq!(report.fallback_padding, Some(1));
    }

    #[test]
    fn deaggregation_restores_clean_forwarding() {
        let (graph, spec) = setup();
        let prefix: Ipv4Prefix = "69.171.224.0/20".parse().unwrap();
        let report = deaggregation(&graph, &spec, prefix).unwrap();
        assert!(report.polluted_before > 0.1);
        // Traffic through the attacker falls back to the clean baseline.
        let baseline = run_experiment(&graph, &spec).before_fraction;
        assert!(
            (report.polluted_after - baseline).abs() < 0.05,
            "after deagg ≈ clean baseline: {report:?} vs {baseline}"
        );
        assert!(report.relief() > 0.5);
    }

    #[test]
    fn deaggregation_rejects_host_routes() {
        let (graph, spec) = setup();
        let host: Ipv4Prefix = "1.2.3.4/32".parse().unwrap();
        assert!(deaggregation(&graph, &spec, host).is_none());
    }

    #[test]
    fn relief_handles_zero_pollution() {
        let report = MitigationReport {
            polluted_before: 0.0,
            polluted_after: 0.0,
            fallback_padding: None,
        };
        assert_eq!(report.relief(), 0.0);
    }
}
