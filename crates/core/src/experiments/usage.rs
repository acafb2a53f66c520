//! ASPP usage characterization — the paper's Figures 5 and 6 and the
//! Section VI-A headline numbers.

use std::collections::BTreeMap;

use aspp_data::measure::{
    self, fraction_cdf, table_depth_distribution, update_depth_distribution, UsageSummary,
};
use aspp_data::stats::Cdf;
use aspp_data::tier1_monitors;
use aspp_data::{Corpus, CorpusConfig};

use super::Scale;
use crate::report::{render_series, TextTable};

/// Result of the usage characterization.
#[derive(Clone, Debug)]
pub struct UsageResult {
    /// The generated corpus (so callers can persist or re-measure it).
    pub corpus: Corpus,
    /// Figure 5, "all (table)": CDF across monitors of the fraction of
    /// prefixes with prepending in the table view.
    pub all_table_cdf: Cdf,
    /// Figure 5, "tier 1 (table)": same, tier-1 monitors only.
    pub tier1_table_cdf: Cdf,
    /// Figure 5, "all (updates)": same, over announced updates.
    pub updates_cdf: Cdf,
    /// Figure 6, "table": padding depth -> fraction (log-scale in paper).
    pub table_depth: BTreeMap<usize, f64>,
    /// Figure 6, "updates".
    pub update_depth: BTreeMap<usize, f64>,
    /// Section VI-A headline numbers.
    pub summary: UsageSummary,
}

/// Generates the corpus at `scale` and measures it.
#[must_use]
pub fn run(scale: Scale, seed: u64) -> UsageResult {
    let graph = scale.internet(seed);
    let corpus = CorpusConfig::new(scale.preset().corpus_prefixes)
        .monitors_top_degree(scale.preset().corpus_monitors)
        .seed(seed)
        .generate(&graph);

    let table_fractions = measure::table_prepending_fractions(&corpus);
    let t1 = tier1_monitors(&graph, &corpus);
    let tier1_fractions = measure::table_prepending_fractions_for(&corpus, &t1);
    let update_fractions = measure::update_prepending_fractions(&corpus);

    UsageResult {
        all_table_cdf: fraction_cdf(&table_fractions),
        tier1_table_cdf: fraction_cdf(&tier1_fractions),
        updates_cdf: fraction_cdf(&update_fractions),
        table_depth: table_depth_distribution(&corpus),
        update_depth: update_depth_distribution(&corpus),
        summary: measure::usage_summary(&corpus),
        corpus,
    }
}

impl UsageResult {
    /// Renders the Figure 5 curves and the Figure 6 histogram.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&render_series(
            "Figure 5 — all (table)",
            "fraction_with_prepending",
            "CDF",
            &self.all_table_cdf.points(),
        ));
        out.push('\n');
        out.push_str(&render_series(
            "Figure 5 — tier 1 (table)",
            "fraction_with_prepending",
            "CDF",
            &self.tier1_table_cdf.points(),
        ));
        out.push('\n');
        out.push_str(&render_series(
            "Figure 5 — all (updates)",
            "fraction_with_prepending",
            "CDF",
            &self.updates_cdf.points(),
        ));
        out.push('\n');

        let mut depth = TextTable::new(["prepended ASNs", "table fraction", "updates fraction"]);
        let depths: std::collections::BTreeSet<usize> = self
            .table_depth
            .keys()
            .chain(self.update_depth.keys())
            .copied()
            .collect();
        for d in depths {
            depth.row([
                d.to_string(),
                format!("{:.6}", self.table_depth.get(&d).copied().unwrap_or(0.0)),
                format!("{:.6}", self.update_depth.get(&d).copied().unwrap_or(0.0)),
            ]);
        }
        out.push_str(&format!("# Figure 6 — number of duplicate ASNs\n{depth}\n"));
        out.push_str(&format!(
            "headline: mean table fraction {:.1}% (paper: ~13%), max {:.1}% (paper: up to 30%), \
             depth-2 share {:.0}% (paper: 34%), depth-3 share {:.0}% (paper: 22%), \
             >10 share {:.1}% (paper: ~1%)\n",
            self.summary.mean_table_fraction * 100.0,
            self.summary.max_table_fraction * 100.0,
            self.summary.depth2_share * 100.0,
            self.summary.depth3_share * 100.0,
            self.summary.deep_share * 100.0 + 0.0,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_shape() {
        let result = run(Scale::Smoke, 11);
        // Some prepending is visible in tables.
        assert!(result.summary.mean_table_fraction > 0.0);
        // Depth distribution is dominated by shallow pads.
        let d2 = result.table_depth.get(&2).copied().unwrap_or(0.0);
        let d6 = result.table_depth.get(&6).copied().unwrap_or(0.0);
        assert!(d2 > d6);
        // All three Figure 5 curves have data.
        assert!(!result.all_table_cdf.is_empty());
        assert!(!result.tier1_table_cdf.is_empty());
        assert!(!result.updates_cdf.is_empty());
    }

    #[test]
    fn updates_show_more_prepending_than_tables() {
        // Paper: "in the update files, we also observe more routes with
        // prepending ASes".
        let result = run(Scale::Smoke, 12);
        assert!(
            result.updates_cdf.mean() >= result.all_table_cdf.mean(),
            "updates {:.3} vs tables {:.3}",
            result.updates_cdf.mean(),
            result.all_table_cdf.mean()
        );
    }

    #[test]
    fn render_mentions_both_figures() {
        let result = run(Scale::Smoke, 13);
        let text = result.render();
        assert!(text.contains("Figure 5"));
        assert!(text.contains("Figure 6"));
        assert!(text.contains("headline"));
    }
}
