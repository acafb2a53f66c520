//! ASPP usage measurement over a corpus — the paper's Section VI-A.
//!
//! Two quantities drive Figures 5 and 6:
//!
//! * the **fraction of prefixes with prepending paths**, computed per
//!   monitor and plotted as a CDF across monitors (table view, tier-1-only
//!   table view, and update view);
//! * the **padding-depth distribution** — how many consecutive copies the
//!   most-repeated ASN has — for table routes vs update routes.

use std::collections::BTreeMap;

use aspp_types::{AsPath, Asn};

use crate::format::Corpus;
use crate::stats::{normalized_histogram, Cdf};

/// Per-monitor fraction of table prefixes whose best path shows prepending
/// (Figure 5, "all (table)").
///
/// # Example
///
/// ```
/// use aspp_data::{measure, Corpus};
/// use aspp_types::Asn;
///
/// let text = "TABLE|9|10.0.0.0/24|9 1 1\nTABLE|9|10.0.1.0/24|9 2\n";
/// let corpus = Corpus::parse_strict(text).unwrap();
/// let fractions = measure::table_prepending_fractions(&corpus);
/// assert!((fractions[&Asn(9)] - 0.5).abs() < 1e-9);
/// ```
#[must_use]
pub fn table_prepending_fractions(corpus: &Corpus) -> BTreeMap<Asn, f64> {
    corpus
        .tables()
        .map(|(monitor, table)| (monitor, table.prepending_fraction()))
        .collect()
}

/// Like [`table_prepending_fractions`] but restricted to the given monitor
/// subset (Figure 5, "tier 1 (table)").
#[must_use]
pub fn table_prepending_fractions_for(corpus: &Corpus, monitors: &[Asn]) -> BTreeMap<Asn, f64> {
    table_prepending_fractions(corpus)
        .into_iter()
        .filter(|(m, _)| monitors.contains(m))
        .collect()
}

/// Per-monitor fraction of announced *updates* whose path shows prepending
/// (Figure 5, "all (updates)"); withdrawals are ignored.
#[must_use]
pub fn update_prepending_fractions(corpus: &Corpus) -> BTreeMap<Asn, f64> {
    let mut seen: BTreeMap<Asn, (usize, usize)> = BTreeMap::new();
    for u in corpus.updates() {
        if let Some(path) = u.path() {
            let entry = seen.entry(u.monitor).or_insert((0, 0));
            entry.0 += 1;
            if path.has_prepending() {
                entry.1 += 1;
            }
        }
    }
    seen.into_iter()
        .map(|(m, (total, padded))| (m, padded as f64 / total.max(1) as f64))
        .collect()
}

/// The CDF across monitors of any per-monitor fraction map — the curves of
/// Figure 5.
#[must_use]
pub fn fraction_cdf(fractions: &BTreeMap<Asn, f64>) -> Cdf {
    Cdf::from_samples(fractions.values().copied())
}

/// Padding-depth histogram over all *table* routes that show prepending:
/// `max consecutive copies -> fraction` (Figure 6, "table").
#[must_use]
pub fn table_depth_distribution(corpus: &Corpus) -> BTreeMap<usize, f64> {
    normalized_histogram(
        corpus
            .tables()
            .flat_map(|(_, t)| t.iter().map(|(_, p)| p.max_padding()))
            .filter(|&d| d >= 2),
    )
}

/// Padding-depth histogram over announced update routes (Figure 6,
/// "updates").
#[must_use]
pub fn update_depth_distribution(corpus: &Corpus) -> BTreeMap<usize, f64> {
    normalized_histogram(
        corpus
            .updates()
            .iter()
            .filter_map(|u| u.path())
            .map(AsPath::max_padding)
            .filter(|&d| d >= 2),
    )
}

/// Summary row for the Section VI-A headline numbers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UsageSummary {
    /// Mean per-monitor table fraction with prepending.
    pub mean_table_fraction: f64,
    /// Maximum per-monitor table fraction ("up to X% of routes").
    pub max_table_fraction: f64,
    /// Mean per-monitor update fraction with prepending.
    pub mean_update_fraction: f64,
    /// Fraction of padded routes with depth exactly 2 (paper: 34%).
    pub depth2_share: f64,
    /// Fraction of padded routes with depth exactly 3 (paper: 22%).
    pub depth3_share: f64,
    /// Fraction of padded routes with depth above 10 (paper: ~1%).
    pub deep_share: f64,
}

/// Computes the headline usage numbers for a corpus.
#[must_use]
pub fn usage_summary(corpus: &Corpus) -> UsageSummary {
    let table = fraction_cdf(&table_prepending_fractions(corpus));
    let update = fraction_cdf(&update_prepending_fractions(corpus));
    let depth = table_depth_distribution(corpus);
    let share = |d: usize| depth.get(&d).copied().unwrap_or(0.0);
    let deep: f64 = depth
        .iter()
        .filter(|&(&d, _)| d > 10)
        .map(|(_, &f)| f)
        .sum();
    UsageSummary {
        mean_table_fraction: table.mean(),
        max_table_fraction: table.range().map_or(0.0, |(_, max)| max),
        mean_update_fraction: update.mean(),
        depth2_share: share(2),
        depth3_share: share(3),
        deep_share: deep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{tier1_monitors, CorpusConfig};
    use aspp_topology::gen::InternetConfig;

    fn corpus_text() -> &'static str {
        "TABLE|9|10.0.0.0/24|9 1 1 1\n\
         TABLE|9|10.0.1.0/24|9 2\n\
         TABLE|9|10.0.2.0/24|9 3 3\n\
         TABLE|8|10.0.0.0/24|8 1\n\
         UPDATE|1|9|A|10.0.0.0/24|9 5 1 1 1 1\n\
         UPDATE|2|9|W|10.0.1.0/24\n\
         UPDATE|3|8|A|10.0.0.0/24|8 1\n"
    }

    #[test]
    fn table_fractions() {
        let corpus = Corpus::parse_strict(corpus_text()).unwrap();
        let f = table_prepending_fractions(&corpus);
        assert!((f[&Asn(9)] - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(f[&Asn(8)], 0.0);
    }

    #[test]
    fn filtered_fractions() {
        let corpus = Corpus::parse_strict(corpus_text()).unwrap();
        let f = table_prepending_fractions_for(&corpus, &[Asn(9)]);
        assert_eq!(f.len(), 1);
        assert!(f.contains_key(&Asn(9)));
    }

    #[test]
    fn update_fractions_skip_withdrawals() {
        let corpus = Corpus::parse_strict(corpus_text()).unwrap();
        let f = update_prepending_fractions(&corpus);
        assert_eq!(f[&Asn(9)], 1.0); // one announce, padded
        assert_eq!(f[&Asn(8)], 0.0);
    }

    #[test]
    fn depth_distributions() {
        let corpus = Corpus::parse_strict(corpus_text()).unwrap();
        let table = table_depth_distribution(&corpus);
        // Depths: 3 (route "9 1 1 1") and 2 (route "9 3 3").
        assert!((table[&3] - 0.5).abs() < 1e-9);
        assert!((table[&2] - 0.5).abs() < 1e-9);
        let update = update_depth_distribution(&corpus);
        assert!((update[&4] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn summary_headline_numbers() {
        let corpus = Corpus::parse_strict(corpus_text()).unwrap();
        let s = usage_summary(&corpus);
        assert!(s.mean_table_fraction > 0.0);
        assert!(s.max_table_fraction >= s.mean_table_fraction);
        assert!((s.depth2_share - 0.5).abs() < 1e-9);
        assert!((s.depth3_share - 0.5).abs() < 1e-9);
        assert_eq!(s.deep_share, 0.0);
    }

    /// End-to-end shape test on a generated corpus: the paper's qualitative
    /// findings hold in our synthetic substitute.
    #[test]
    fn generated_corpus_matches_paper_shape() {
        let g = InternetConfig::medium().seed(42).build();
        let corpus = CorpusConfig::new(150)
            .monitors_top_degree(40)
            .seed(42)
            .generate(&g);
        let summary = usage_summary(&corpus);

        // Finding 1: a non-trivial share of table routes carry prepending.
        assert!(
            summary.mean_table_fraction > 0.03,
            "mean table fraction too low: {}",
            summary.mean_table_fraction
        );
        assert!(
            summary.mean_table_fraction < 0.45,
            "mean table fraction too high: {}",
            summary.mean_table_fraction
        );

        // Finding 2: shallow pads dominate the depth distribution.
        let depth = table_depth_distribution(&corpus);
        if let (Some(&d2), Some(&d4)) = (depth.get(&2), depth.get(&4)) {
            assert!(d2 > d4, "depth 2 should outweigh depth 4: {d2} vs {d4}");
        }

        // Finding 3: tier-1 monitors exist in the selection.
        let t1 = tier1_monitors(&g, &corpus);
        assert!(!t1.is_empty());
    }
}
