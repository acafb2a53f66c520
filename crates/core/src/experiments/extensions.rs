//! Extension experiments beyond the paper's evaluation section: the
//! stealth comparison against baseline hijacks (motivating Sections I–II)
//! and the reactive mitigations sketched by its future-work agenda.

use aspp_attack::mitigation::{deaggregation, padding_reduction, MitigationReport};
use aspp_detect::eval::visibility_matrix;
use aspp_detect::monitors::top_degree;
use aspp_routing::{AttackStrategy, AttackerModel, BatchRunner, DestinationSpec};
use aspp_topology::tier::TierMap;
use aspp_topology::AsGraph;
use aspp_types::{Asn, Ipv4Prefix};

use crate::report::{pct, TextTable};

/// One row of the stealth matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StealthRow {
    /// The attack that was run.
    pub strategy: AttackStrategy,
    /// PHAS-style MOAS detection fired.
    pub moas: bool,
    /// Topology link-anomaly detection fired.
    pub link_anomaly: bool,
    /// The paper's Figure 4 detector fired.
    pub aspp_detector: bool,
}

/// The stealth comparison: the same attacker runs all three hijack
/// strategies against the same victim; three detector families watch.
#[derive(Clone, Debug)]
pub struct StealthStudy {
    /// The victim AS.
    pub victim: Asn,
    /// The attacker AS.
    pub attacker: Asn,
    /// One row per strategy.
    pub rows: Vec<StealthRow>,
}

impl StealthStudy {
    /// Renders the matrix.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["attack", "MOAS", "link-anomaly", "ASPP detector"]);
        for row in &self.rows {
            let name = match row.strategy {
                AttackStrategy::StripPadding { .. } => "ASPP strip (this paper)",
                AttackStrategy::StripAllPadding => "ASPP strip-all (generalized)",
                AttackStrategy::ForgeDirect => "forged adjacency (Ballani)",
                AttackStrategy::OriginHijack => "origin hijack (MOAS)",
                AttackStrategy::PoisonPath { .. } => "path poisoning (Smith)",
            };
            let mark = |b: bool| if b { "ALARM" } else { "-" };
            table.row([
                name,
                mark(row.moas),
                mark(row.link_anomaly),
                mark(row.aspp_detector),
            ]);
        }
        format!(
            "# Stealth comparison — AS{} attacks AS{}\n{table}",
            self.attacker, self.victim
        )
    }

    /// The headline claim: only the ASPP strip evades both legacy detectors.
    #[must_use]
    pub fn aspp_is_stealthiest(&self) -> bool {
        self.rows.iter().all(|row| match row.strategy {
            AttackStrategy::StripPadding { .. } | AttackStrategy::StripAllPadding => {
                !row.moas && !row.link_anomaly
            }
            AttackStrategy::ForgeDirect => row.link_anomaly,
            AttackStrategy::OriginHijack => row.moas,
            // Poisoning forges a link, so the link monitor may or may not
            // catch it; stealth is not claimed either way.
            AttackStrategy::PoisonPath { .. } => true,
        })
    }
}

/// Runs the stealth comparison on `graph` with a transit attacker.
#[must_use]
pub fn stealth(graph: &AsGraph, seed: u64) -> StealthStudy {
    let tiers = TierMap::classify(graph);
    let victim = graph
        .asns()
        .find(|&a| tiers.is_stub(graph, a) && graph.providers(a).count() >= 2)
        .expect("graph has multi-homed stubs");
    // The attacker must not actually neighbor the victim, otherwise the
    // "forged" [M V] adjacency is a real link and the baseline comparison
    // degenerates.
    let attacker = graph
        .asns()
        .find(|&a| {
            tiers.tier_of(a) == Some(2)
                && graph.customers(a).count() >= 2
                && graph.relationship(a, victim).is_none()
        })
        .expect("graph has tier-2 transit away from the victim");
    let monitors = top_degree(graph, (graph.len() / 4).max(10));
    let _ = seed; // placement is deterministic; the seed names the topology
    let rows = visibility_matrix(graph, victim, attacker, 4, &monitors, &BatchRunner::new())
        .into_iter()
        .map(|(strategy, report)| StealthRow {
            strategy,
            moas: report.moas,
            link_anomaly: report.link_anomaly,
            aspp_detector: report.aspp,
        })
        .collect();
    StealthStudy {
        victim,
        attacker,
        rows,
    }
}

/// The reactive-mitigation study: attack, then defend two ways.
#[derive(Clone, Debug)]
pub struct MitigationStudy {
    /// The attack cell that was mitigated.
    pub spec: DestinationSpec,
    /// Falling back to λ = 1.
    pub padding_reduction: MitigationReport,
    /// Announcing unpadded more-specifics.
    pub deaggregation: MitigationReport,
}

impl MitigationStudy {
    /// Renders the before/after table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = TextTable::new([
            "defense",
            "polluted before %",
            "polluted after %",
            "relief %",
        ]);
        for (name, report) in [
            ("padding reduction (λ→1)", &self.padding_reduction),
            ("deaggregation (/x+1 specifics)", &self.deaggregation),
        ] {
            table.row([
                name.to_owned(),
                pct(report.polluted_before),
                pct(report.polluted_after),
                pct(report.relief()),
            ]);
        }
        format!(
            "# Reactive mitigation — AS{} intercepts AS{} (λ={})\n{table}",
            self.spec.attacker_model().map_or(Asn(0), |m| m.asn()),
            self.spec.victim(),
            self.spec.padding_level()
        )
    }
}

/// Runs both mitigations against a strong tier-1 interception.
#[must_use]
pub fn mitigations(graph: &AsGraph) -> MitigationStudy {
    let tiers = TierMap::classify(graph);
    let attacker = tiers.tier1().min().expect("graph has a tier-1 core");
    let victim = graph
        .asns()
        .find(|&a| tiers.is_stub(graph, a) && graph.providers(a).count() >= 2)
        .expect("graph has multi-homed stubs");
    let spec = DestinationSpec::new(victim)
        .origin_padding(6)
        .attacker(AttackerModel::new(attacker));
    let prefix: Ipv4Prefix = "69.171.224.0/20".parse().expect("literal prefix");
    MitigationStudy {
        padding_reduction: padding_reduction(graph, &spec, 1),
        deaggregation: deaggregation(graph, &spec, prefix).expect("/20 splits"),
        spec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn stealth_reproduces_the_visibility_claims() {
        let g = Scale::Smoke.internet(91);
        let study = stealth(&g, 91);
        assert_eq!(study.rows.len(), 3);
        assert!(study.aspp_is_stealthiest(), "{:#?}", study.rows);
        // And the paper's detector catches its own attack.
        let aspp_row = study
            .rows
            .iter()
            .find(|r| matches!(r.strategy, AttackStrategy::StripPadding { .. }))
            .unwrap();
        assert!(aspp_row.aspp_detector);
        assert!(study.render().contains("ASPP strip"));
    }

    #[test]
    fn mitigations_provide_relief() {
        let g = Scale::Smoke.internet(92);
        let study = mitigations(&g);
        assert!(study.padding_reduction.polluted_before > 0.1);
        assert!(study.padding_reduction.relief() > 0.2);
        assert!(study.deaggregation.relief() > 0.5);
        assert!(study.render().contains("deaggregation"));
    }
}
