//! Attack-impact experiments — the paper's Figures 7 through 12.
//!
//! Every driver here runs on the batch equilibrium engine
//! (`aspp_routing::batch`, via [`run_ranked`], [`prepend_sweep`] and
//! [`run_experiments`]): cells sharing a clean equilibrium — one victim at
//! one λ — form one steal unit, so a λ sweep is eight units spread over the
//! workers and each (victim, λ) clean pass is computed once per batch, with
//! the export-mode cells riding it. Results are bit-identical to the serial
//! per-cell path.

use aspp_attack::sweep::{
    best_connected_stub, prepend_sweep, random_pair_experiments, run_ranked, tier1_pair_experiments,
};
use aspp_attack::{run_experiments, HijackImpact};
use aspp_routing::{AttackerModel, BatchRunner, DestinationSpec, ExportMode};
use aspp_topology::tier::{customer_cone, TierMap};
use aspp_topology::AsGraph;
use aspp_types::Asn;

use super::Scale;
use crate::report::{pct, TextTable};

/// A ranked batch of hijack instances (Figures 7 and 8): instances sorted
/// by descending pollution, each with its before-hijack baseline.
#[derive(Clone, Debug)]
pub struct RankedImpacts {
    /// Figure label, e.g. `"Figure 7"`.
    pub label: &'static str,
    /// Instances, descending by after-hijack pollution.
    pub impacts: Vec<HijackImpact>,
}

impl RankedImpacts {
    /// Mean after-hijack pollution across instances.
    #[must_use]
    pub fn mean_after(&self) -> f64 {
        if self.impacts.is_empty() {
            return 0.0;
        }
        self.impacts.iter().map(|i| i.after_fraction).sum::<f64>() / self.impacts.len() as f64
    }

    /// Renders the ranked series exactly as the figures plot it.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["instance", "after %", "before %", "victim", "attacker"]);
        for (i, impact) in self.impacts.iter().enumerate() {
            let attacker = impact.spec.attacker_model().map_or(Asn(0), |m| m.asn());
            table.row([
                i.to_string(),
                pct(impact.after_fraction),
                pct(impact.before_fraction),
                impact.spec.victim().to_string(),
                attacker.to_string(),
            ]);
        }
        format!(
            "# {} — mean after-hijack pollution {:.1}%\n{table}",
            self.label,
            self.mean_after() * 100.0
        )
    }
}

/// Figure 7: tier-1 attacker vs tier-1 victim instances at λ = 3.
#[must_use]
pub fn fig7(graph: &AsGraph, scale: Scale, seed: u64) -> RankedImpacts {
    let exps = tier1_pair_experiments(graph, scale.preset().tier1_instances, 3, seed);
    RankedImpacts {
        label: "Figure 7 — polluted ASes in attacks between tier-1 ASes (λ=3)",
        impacts: run_ranked(graph, &exps),
    }
}

/// Figure 8: randomly sampled attacker/victim pairs at λ = 3.
#[must_use]
pub fn fig8(graph: &AsGraph, scale: Scale, seed: u64) -> RankedImpacts {
    let exps = random_pair_experiments(graph, scale.preset().random_instances, 3, seed);
    RankedImpacts {
        label: "Figure 8 — polluted ASes in attacks between random ASes (λ=3)",
        impacts: run_ranked(graph, &exps),
    }
}

/// A λ sweep for one victim/attacker pair, possibly under two export modes
/// (Figures 9–12).
#[derive(Clone, Debug)]
pub struct PrependSweep {
    /// Figure label.
    pub label: &'static str,
    /// The victim.
    pub victim: Asn,
    /// The attacker.
    pub attacker: Asn,
    /// λ sweep under valley-free-compliant exports.
    pub compliant: Vec<HijackImpact>,
    /// λ sweep with the attacker violating valley-free exports (only for
    /// Figures 11/12, `None` otherwise).
    pub violating: Option<Vec<HijackImpact>>,
}

impl PrependSweep {
    /// Renders the λ series (one or two curves).
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = if self.violating.is_some() {
            TextTable::new([
                "prepending ASNs (λ)",
                "follow valley-free %",
                "violate routing policy %",
                "before %",
            ])
        } else {
            TextTable::new(["prepending ASNs (λ)", "after %", "before %", ""])
        };
        for (i, c) in self.compliant.iter().enumerate() {
            let violating = self
                .violating
                .as_ref()
                .and_then(|v| v.get(i))
                .map(|v| pct(v.after_fraction));
            match violating {
                Some(v) => table.row([
                    c.spec.padding_level().to_string(),
                    pct(c.after_fraction),
                    v,
                    pct(c.before_fraction),
                ]),
                None => table.row([
                    c.spec.padding_level().to_string(),
                    pct(c.after_fraction),
                    pct(c.before_fraction),
                    String::new(),
                ]),
            };
        }
        format!(
            "# {} (AS{} hijacks AS{})\n{table}",
            self.label, self.attacker, self.victim
        )
    }
}

const LAMBDA_RANGE: std::ops::RangeInclusive<usize> = 1..=8;

/// The λ sweep of one cell: `attacker` hijacks `victim` exporting by `mode`.
fn sweep(graph: &AsGraph, victim: Asn, attacker: Asn, mode: ExportMode) -> Vec<HijackImpact> {
    let cell = DestinationSpec::new(victim).attacker(AttackerModel::new(attacker).mode(mode));
    prepend_sweep(graph, &cell, LAMBDA_RANGE)
}

/// Figure 9: a tier-1 attacker hijacks a tier-1 victim (the Sprint→AT&T
/// analogue), λ ∈ 1..=8.
#[must_use]
pub fn fig9(graph: &AsGraph) -> PrependSweep {
    let tiers = TierMap::classify(graph);
    let t1: Vec<Asn> = tiers.tier1().collect();
    let (attacker, victim) = (t1[0], t1[1]);
    PrependSweep {
        label: "Figure 9 — pollution vs prepended ASNs, tier-1 hijacks tier-1",
        victim,
        attacker,
        compliant: sweep(graph, victim, attacker, ExportMode::Compliant),
        violating: None,
    }
}

/// Figure 10: a tier-1 attacker hijacks a low-tier victim (the
/// AT&T→Facebook analogue): a multi-homed edge AS with no peering of its
/// own, chosen inside the attacker's customer cone — AT&T was (indirectly)
/// transit for Facebook, which is what lets the stripped route legally
/// propagate everywhere and pollute ">99%" in the paper.
#[must_use]
pub fn fig10(graph: &AsGraph) -> PrependSweep {
    let tiers = TierMap::classify(graph);
    let attacker = tiers.tier1().min().expect("graph has a tier-1 core");
    let cone = customer_cone(graph, attacker);
    let victim = graph
        .asns()
        .filter(|&a| {
            a != attacker
                && cone.contains(&a)
                && tiers.is_stub(graph, a)
                && graph.peers(a).next().is_none()
                && graph.providers(a).count() >= 2
        })
        .min()
        .expect("graph has multi-homed stubs in the core's cone");
    PrependSweep {
        label: "Figure 10 — pollution vs prepended ASNs, tier-1 hijacks tier-3",
        victim,
        attacker,
        compliant: sweep(graph, victim, attacker, ExportMode::Compliant),
        violating: None,
    }
}

/// Figure 11: a small but well-connected attacker (the Facebook analogue)
/// hijacks a tier-1 victim (the NTT analogue), with and without the
/// valley-free export rule.
///
/// The paper traces its surprising 38% valley-free pollution to a structural
/// accident: "AS2914 is a sibling of popular CDN Limelight, which happens to
/// be a customer of Facebook", so the attacker legitimately holds a
/// *customer-learned* route to the tier-1 victim and may export the stripped
/// route everywhere. We embed exactly that Limelight-shaped chain — a fresh
/// edge AS that is a sibling of the victim and a customer of the attacker —
/// before running the sweep.
#[must_use]
pub fn fig11(graph: &AsGraph) -> PrependSweep {
    let tiers = TierMap::classify(graph);
    let victim = tiers.tier1().min().expect("graph has a tier-1 core");
    let attacker = best_connected_stub(graph).expect("graph has stubs");

    // The Limelight analogue: sibling of the victim, customer of the attacker.
    let mut augmented = graph.to_builder();
    let limelight = Asn(99_999);
    augmented
        .add_sibling(victim, limelight)
        .expect("fresh sibling link");
    augmented
        .add_provider_customer(attacker, limelight)
        .expect("fresh customer link");
    let augmented = augmented.finish();

    // Two batches, unlike Figure 12: the curves run on different graphs,
    // so no clean pass of one serves the other.
    // "Follow valley-free rule": legal exports only — the pollution is
    // entirely enabled by the Limelight-shaped customer chain.
    let compliant = sweep(&augmented, victim, attacker, ExportMode::Compliant);
    // "Violate routing policy": the attacker pushes the stripped route to
    // its providers regardless of how it was learned — no special chain
    // needed, so this runs on the unmodified topology.
    let violating = sweep(graph, victim, attacker, ExportMode::ViolateValleyFree);
    PrependSweep {
        label: "Figure 11 — small well-peered AS hijacks a tier-1",
        victim,
        attacker,
        compliant,
        violating: Some(violating),
    }
}

/// Figure 12: a small attacker hijacks a small victim, with and without the
/// valley-free export rule (the AS30209→AS12734 analogue).
#[must_use]
pub fn fig12(graph: &AsGraph) -> PrependSweep {
    let tiers = TierMap::classify(graph);
    let stubs: Vec<Asn> = graph
        .asns()
        .filter(|&a| {
            tiers.is_stub(graph, a)
                && graph.peers(a).next().is_none()
                && graph.providers(a).count() >= 2
        })
        .collect();
    let victim = stubs[0];
    // An attacker with customers (so the compliant curve is non-trivial)
    // and at least two providers — a single-homed attacker cannot spread
    // upward at all because its only provider sees its own ASN on the
    // claimed path and discards the announcement.
    let attacker = graph
        .asns()
        .filter(|&a| a != victim && tiers.tier_of(a).unwrap_or(0) >= 3)
        .find(|&a| graph.customers(a).next().is_some() && graph.providers(a).count() >= 2)
        .unwrap_or(stubs[1]);
    // Both curves in one batch: each λ's clean pass serves its compliant
    // and its violating cell.
    let specs: Vec<DestinationSpec> = [ExportMode::Compliant, ExportMode::ViolateValleyFree]
        .into_iter()
        .flat_map(|mode| {
            let model = AttackerModel::new(attacker).mode(mode);
            LAMBDA_RANGE.map(move |p| {
                DestinationSpec::new(victim)
                    .origin_padding(p)
                    .attacker(model)
            })
        })
        .collect();
    let mut compliant = run_experiments(graph, &specs, &BatchRunner::new());
    let violating = compliant.split_off(specs.len() / 2);
    PrependSweep {
        label: "Figure 12 — small AS hijacks small AS",
        victim,
        attacker,
        compliant,
        violating: Some(violating),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> AsGraph {
        Scale::Smoke.internet(101)
    }

    #[test]
    fn fig7_shape() {
        let g = graph();
        let result = fig7(&g, Scale::Smoke, 1);
        assert_eq!(result.impacts.len(), Scale::Smoke.preset().tier1_instances);
        // Ranked descending.
        assert!(result
            .impacts
            .windows(2)
            .all(|w| w[0].after_fraction >= w[1].after_fraction));
        // Tier-1 on tier-1 attacks pollute substantially on average.
        assert!(result.mean_after() > 0.1, "mean {}", result.mean_after());
        assert!(result.render().contains("Figure 7"));
    }

    #[test]
    fn fig8_less_effective_than_fig7() {
        let g = graph();
        let f7 = fig7(&g, Scale::Smoke, 2);
        let f8 = fig8(&g, Scale::Smoke, 2);
        assert!(
            f8.mean_after() < f7.mean_after(),
            "random pairs ({}) should pollute less than tier-1 pairs ({})",
            f8.mean_after(),
            f7.mean_after()
        );
    }

    #[test]
    fn fig9_grows_then_plateaus() {
        let g = graph();
        let sweep = fig9(&g);
        let after: Vec<f64> = sweep.compliant.iter().map(|i| i.after_fraction).collect();
        assert_eq!(after.len(), 8);
        assert!(after[7] > after[0], "padding increases pollution");
        assert!((after[7] - after[6]).abs() < 0.05, "plateau at high λ");
        assert!(sweep.render().contains("Figure 9"));
    }

    #[test]
    fn fig10_high_tier_attacker_dominates() {
        let g = graph();
        let sweep = fig10(&g);
        let first = sweep.compliant.first().unwrap().after_fraction;
        let last = sweep.compliant.last().unwrap().after_fraction;
        // Paper: strong growth, most of the Internet polluted at high λ.
        // (Smoke-scale cones are proportionally larger, capping the
        // absolute number below the paper's >99%; see EXPERIMENTS.md.)
        assert!(last > 0.25, "tier-1 vs stub pollution at λ=8: {last}");
        assert!(last > first + 0.2, "growth expected: {first} -> {last}");
    }

    #[test]
    fn fig11_chain_makes_compliant_attack_devastating() {
        let g = graph();
        let sweep = fig11(&g);
        // The paper's surprise: *valley-free-compliant* pollution is large
        // thanks to the sibling/customer chain.
        let c8 = sweep.compliant.last().unwrap().after_fraction;
        assert!(c8 > 0.5, "compliant pollution at λ=8: {c8}");
        // The policy-violating attacker reaches similar scale without any
        // special structure.
        let violating = sweep.violating.as_ref().unwrap();
        let v8 = violating.last().unwrap().after_fraction;
        assert!(v8 > 0.5, "violating pollution at λ=8: {v8}");
        // And both grow with λ.
        assert!(
            violating.last().unwrap().after_fraction > violating.first().unwrap().after_fraction
        );
        assert!(sweep.render().contains("violate"));
    }

    #[test]
    fn fig12_compliant_small_attacker_is_weak() {
        let g = graph();
        let sweep = fig12(&g);
        let violating = sweep.violating.as_ref().unwrap();
        let c8 = sweep.compliant.last().unwrap().after_fraction;
        let v8 = violating.last().unwrap().after_fraction;
        assert!(
            v8 >= c8,
            "violating ({v8}) at least as strong as compliant ({c8})"
        );
        assert!(v8 > 0.3, "violating attacker gains real traction: {v8}");
        assert!(c8 < 0.2, "compliant small attacker stays confined: {c8}");
    }
}
