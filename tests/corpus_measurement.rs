//! Integration of the measurement pipeline (paper Section VI-A): generate
//! the MRT-like corpus, persist it, re-parse it, and verify the Figure 5/6
//! measurements agree — i.e. the measurement code path is provenance-
//! agnostic, exactly as it would be over real RouteViews/RIPE data.

use aspp_core::data::measure;
use aspp_core::prelude::*;

fn corpus_pair() -> (Corpus, Corpus) {
    let graph = InternetConfig::small().seed(31337).build();
    let corpus = CorpusConfig::new(40)
        .monitors_top_degree(15)
        .seed(31337)
        .generate(&graph);
    let reparsed = Corpus::parse_strict(&corpus.to_text()).expect("own format parses");
    (corpus, reparsed)
}

#[test]
fn measurements_survive_serialization() {
    let (original, reparsed) = corpus_pair();
    assert_eq!(
        measure::table_prepending_fractions(&original),
        measure::table_prepending_fractions(&reparsed)
    );
    assert_eq!(
        measure::update_prepending_fractions(&original),
        measure::update_prepending_fractions(&reparsed)
    );
    assert_eq!(
        measure::table_depth_distribution(&original),
        measure::table_depth_distribution(&reparsed)
    );
    assert_eq!(
        measure::usage_summary(&original),
        measure::usage_summary(&reparsed)
    );
}

#[test]
fn monitor_tables_hold_valid_routes() {
    let (corpus, _) = corpus_pair();
    let graph = InternetConfig::small().seed(31337).build();
    for (monitor, table) in corpus.tables() {
        assert!(graph.contains(monitor));
        for (_, path) in table.iter() {
            assert_eq!(path.first(), Some(monitor), "table path starts at monitor");
            assert!(!path.has_loop());
            // Every consecutive collapsed pair is a real link.
            let collapsed = path.collapsed();
            for w in collapsed.windows(2) {
                assert!(
                    graph.relationship(w[0], w[1]).is_some(),
                    "path {path} uses non-existent link {} {}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}

#[test]
fn updates_reference_known_prefixes() {
    let (corpus, _) = corpus_pair();
    // Every update's prefix appears in at least one monitor table (same
    // announcement universe).
    for update in corpus.updates() {
        let known = corpus
            .tables()
            .any(|(_, t)| t.get(&update.prefix).is_some());
        assert!(known, "update for unknown prefix {}", update.prefix);
    }
}

#[test]
fn depth_distribution_is_normalized_and_shallow_heavy() {
    let (corpus, _) = corpus_pair();
    let depth = measure::table_depth_distribution(&corpus);
    if depth.is_empty() {
        return; // tiny corpus may have no padded routes; nothing to assert.
    }
    let total: f64 = depth.values().sum();
    assert!((total - 1.0).abs() < 1e-9, "normalized: {total}");
    assert!(depth.keys().all(|&d| d >= 2), "only real padding counted");
}
