//! Public-API regression tests for `aspp-data`.

use aspp_data::measure::{
    fraction_cdf, table_depth_distribution, table_prepending_fractions,
    update_prepending_fractions, usage_summary,
};
use aspp_data::stats::{normalized_histogram, Cdf};
use aspp_data::{tier1_monitors, Corpus, CorpusConfig, UpdateAction, UpdateRecord};
use aspp_topology::gen::InternetConfig;
use aspp_types::Asn;

#[test]
fn zero_prefix_corpus_is_empty_but_valid() {
    let g = InternetConfig::small().seed(401).build();
    let corpus = CorpusConfig::new(0).seed(1).generate(&g);
    assert_eq!(corpus.table_entry_count(), 0);
    assert!(corpus.updates().is_empty());
    let parsed = Corpus::parse_strict(&corpus.to_text()).unwrap();
    assert_eq!(parsed, corpus);
    let summary = usage_summary(&corpus);
    assert_eq!(summary.mean_table_fraction, 0.0);
}

#[test]
fn corpus_seeds_change_everything_but_structure() {
    let g = InternetConfig::small().seed(402).build();
    let a = CorpusConfig::new(20)
        .monitors_top_degree(10)
        .seed(1)
        .generate(&g);
    let b = CorpusConfig::new(20)
        .monitors_top_degree(10)
        .seed(2)
        .generate(&g);
    assert_eq!(a.monitors().count(), b.monitors().count());
    assert_ne!(a, b, "different seeds, different routes/padding");
}

#[test]
fn update_stream_repeats_prefixes_not_sequence_numbers() {
    let g = InternetConfig::small().seed(404).build();
    let corpus = CorpusConfig::new(60).seed(6).generate(&g);
    let mut seqs: Vec<u64> = corpus.updates().iter().map(|u| u.seq).collect();
    let before = seqs.len();
    seqs.dedup();
    assert_eq!(seqs.len(), before, "sequence numbers unique");
}

#[test]
fn measurement_functions_agree_on_manual_corpus() {
    let mut corpus = Corpus::new();
    for (i, path) in ["9 1 1 1", "9 2", "9 3 3", "9 4"].iter().enumerate() {
        corpus.add_table_entry(
            Asn(9),
            format!("10.0.{i}.0/24").parse().unwrap(),
            path.parse().unwrap(),
        );
    }
    corpus.add_update(UpdateRecord {
        seq: 1,
        monitor: Asn(9),
        prefix: "10.0.0.0/24".parse().unwrap(),
        action: UpdateAction::Announce("9 5 1 1 1 1 1".parse().unwrap()),
    });

    let fractions = table_prepending_fractions(&corpus);
    assert!((fractions[&Asn(9)] - 0.5).abs() < 1e-9);
    let updates = update_prepending_fractions(&corpus);
    assert_eq!(updates[&Asn(9)], 1.0);

    let depth = table_depth_distribution(&corpus);
    assert!((depth[&3] - 0.5).abs() < 1e-9); // "9 1 1 1"
    assert!((depth[&2] - 0.5).abs() < 1e-9); // "9 3 3"

    let cdf = fraction_cdf(&fractions);
    assert_eq!(cdf.len(), 1);
}

#[test]
fn tier1_monitor_subset_is_consistent_with_classification() {
    let g = InternetConfig::small().seed(405).build();
    let corpus = CorpusConfig::new(10)
        .monitors_top_degree(20)
        .seed(7)
        .generate(&g);
    let t1 = tier1_monitors(&g, &corpus);
    let all: Vec<Asn> = corpus.monitors().collect();
    for m in &t1 {
        assert!(all.contains(m));
    }
}

#[test]
fn cdf_quantiles_bound_the_samples() {
    let cdf = Cdf::from_samples((1..=100).map(f64::from));
    let (lo, hi) = cdf.range().unwrap();
    assert_eq!(cdf.quantile(0.0), lo);
    assert_eq!(cdf.quantile(1.0), hi);
    assert!((cdf.fraction_at_most(50.0) - 0.5).abs() < 1e-9);
    assert_eq!(cdf.points().len(), 100);
}

#[test]
fn histogram_totals_one_for_any_input() {
    for values in [vec![1usize], vec![2, 2, 2], (0..50).collect::<Vec<_>>()] {
        let hist = normalized_histogram(values);
        let total: f64 = hist.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}

#[test]
fn corpus_text_is_stable_across_serializations() {
    let g = InternetConfig::small().seed(406).build();
    let corpus = CorpusConfig::new(12).seed(9).generate(&g);
    let once = corpus.to_text();
    let twice = Corpus::parse_strict(&once).unwrap().to_text();
    assert_eq!(once, twice, "canonical form is a fixed point");
}
