//! Detection-quality experiments — the paper's Figures 13 and 14.

use aspp_attack::sweep::random_pair_experiments;
use aspp_data::stats::Cdf;
use aspp_detect::eval::{
    accuracy_vs_monitors, effective_attacks, polluted_before_detection, AccuracyPoint,
};
use aspp_detect::monitors::top_degree;
use aspp_detect::selection::{compare_selections, prepare, SelectionComparison};
use aspp_routing::BatchRunner;
use aspp_topology::AsGraph;

use super::Scale;
use crate::report::{render_series, TextTable};

/// Result of the Figure 13 sweep.
#[derive(Clone, Debug)]
pub struct AccuracyCurve {
    /// One point per monitor count, ascending.
    pub points: Vec<AccuracyPoint>,
}

impl AccuracyCurve {
    /// The accuracy at the largest monitor count.
    #[must_use]
    pub fn best_accuracy(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.accuracy)
    }

    /// Renders the curve with all three accuracy flavours.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = TextTable::new([
            "# of monitors",
            "% attacks detected",
            "% attributed to attacker",
            "% high-confidence",
            "attacks",
        ]);
        for p in &self.points {
            table.row([
                p.monitor_count.to_string(),
                format!("{:.1}", p.accuracy * 100.0),
                format!("{:.1}", p.accuracy_attributed * 100.0),
                format!("{:.1}", p.accuracy_high * 100.0),
                p.attacks.to_string(),
            ]);
        }
        format!("# Figure 13 — detection accuracy with increasing monitors\n{table}")
    }
}

/// Figure 13: detection accuracy vs number of top-degree monitors over
/// random attacker/victim pairs at λ = 3 (paper: 200 pairs; ≈92% at 70
/// monitors, >99% at 150).
#[must_use]
pub fn fig13(graph: &AsGraph, scale: Scale, seed: u64) -> AccuracyCurve {
    let preset = scale.preset();
    let specs = random_pair_experiments(graph, preset.detection_pairs, 3, seed);
    AccuracyCurve {
        points: accuracy_vs_monitors(graph, &specs, preset.monitor_counts, &BatchRunner::new()),
    }
}

/// Result of the Figure 14 experiment.
#[derive(Clone, Debug)]
pub struct DetectionLatency {
    /// Fraction of all ASes polluted before detection, one per detected
    /// attack.
    pub fractions: Cdf,
    /// Attacks that were never detected (excluded from the CDF).
    pub undetected: usize,
    /// Total effective attacks evaluated.
    pub total: usize,
}

impl DetectionLatency {
    /// Renders the CDF staircase.
    #[must_use]
    pub fn render(&self) -> String {
        let series = render_series(
            "Figure 14 — fraction of ASes polluted before detection",
            "frac_polluted_before_detection",
            "CDF",
            &self.fractions.points(),
        );
        format!(
            "{series}\n({} of {} effective attacks detected; median fraction {:.2})\n",
            self.total - self.undetected,
            self.total,
            self.fractions.quantile(0.5)
        )
    }
}

/// Figure 14: with the top-degree
/// [`latency_monitors`](super::Preset::latency_monitors) monitors, how much
/// of the Internet is already polluted when the alarm fires.
#[must_use]
pub fn fig14(graph: &AsGraph, scale: Scale, seed: u64) -> DetectionLatency {
    let preset = scale.preset();
    let specs = random_pair_experiments(graph, preset.detection_pairs, 3, seed);
    let monitors = top_degree(graph, preset.latency_monitors);
    // One entry per effective attack, the same set Figure 13 evaluates.
    let detected_at = effective_attacks(graph, &specs, &BatchRunner::new(), |outcome| {
        polluted_before_detection(outcome, &monitors)
    });
    let total = detected_at.len();
    let fractions: Vec<f64> = detected_at.into_iter().flatten().collect();
    DetectionLatency {
        undetected: total - fractions.len(),
        fractions: Cdf::from_samples(fractions),
        total,
    }
}

/// The vantage-point-selection study (the paper's future work, Sections
/// V-B/VIII): train a greedy monitor set on one batch of simulated attacks
/// and compare it against same-budget top-degree and random monitor sets on
/// held-out attacks, across several budgets.
#[derive(Clone, Debug)]
pub struct SelectionStudy {
    /// One comparison per budget, ascending.
    pub comparisons: Vec<SelectionComparison>,
}

impl SelectionStudy {
    /// Renders the three strategies' accuracies per budget.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["monitor budget", "greedy %", "top-degree %", "random %"]);
        for c in &self.comparisons {
            table.row([
                c.budget.to_string(),
                format!("{:.1}", c.greedy * 100.0),
                format!("{:.1}", c.top_degree * 100.0),
                format!("{:.1}", c.random * 100.0),
            ]);
        }
        format!(
            "# Vantage-point selection (paper future work)
{table}"
        )
    }
}

/// Runs the selection study at the given scale.
#[must_use]
pub fn vantage_selection(graph: &AsGraph, scale: Scale, seed: u64) -> SelectionStudy {
    let preset = scale.preset();
    // One without-replacement draw split in half: training and held-out
    // batches share no (victim, attacker) pair, so the greedy monitor set is
    // never evaluated on an attack it was fitted to. (Two independent draws
    // — the old scheme — overlap with high probability on small graphs.)
    let mut pool = random_pair_experiments(graph, 2 * preset.selection_pairs, 3, seed);
    let held_out = pool.split_off(pool.len() / 2);
    // Each half's equilibria are computed once and shared by every budget
    // and strategy below.
    let runner = BatchRunner::new();
    let training = prepare(graph, &pool, &runner);
    let held_out = prepare(graph, &held_out, &runner);
    SelectionStudy {
        comparisons: preset
            .selection_budgets
            .iter()
            .map(|&b| compare_selections(graph, &training, &held_out, b, seed))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_monotone_in_monitors() {
        let g = Scale::Smoke.internet(55);
        let curve = fig13(&g, Scale::Smoke, 5);
        assert_eq!(
            curve.points.len(),
            Scale::Smoke.preset().monitor_counts.len()
        );
        assert!(curve
            .points
            .windows(2)
            .all(|w| w[1].accuracy >= w[0].accuracy - 1e-9));
        assert!(
            curve.best_accuracy() > 0.5,
            "best {}",
            curve.best_accuracy()
        );
        assert!(curve.render().contains("Figure 13"));
    }

    #[test]
    fn vantage_selection_study_runs() {
        let g = Scale::Smoke.internet(57);
        let study = vantage_selection(&g, Scale::Smoke, 7);
        assert_eq!(study.comparisons.len(), 2);
        for c in &study.comparisons {
            assert!((0.0..=1.0).contains(&c.greedy));
            assert_eq!(c.greedy_monitors.len(), c.budget.min(g.len()));
        }
        assert!(study.render().contains("greedy"));
    }

    #[test]
    fn fig14_fractions_in_unit_interval() {
        let g = Scale::Smoke.internet(56);
        let latency = fig14(&g, Scale::Smoke, 6);
        assert!(latency.total > 0);
        if let Some((lo, hi)) = latency.fractions.range() {
            assert!(lo >= 0.0 && hi <= 1.0);
        }
        assert!(latency.render().contains("Figure 14"));
    }
}
