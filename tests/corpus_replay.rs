//! End-to-end PHAS pipeline: generate a public-monitor corpus with an
//! *injected* ASPP interception, persist it in the MRT-like format, then
//! replay the update stream into the streaming detector — the full workflow
//! a prefix owner would run against RouteViews/RIPE feeds.

use std::sync::Arc;

use aspp_core::detect::realtime::StreamingDetector;
use aspp_core::prelude::*;
use aspp_core::types::Ipv4Prefix;

fn victim_prefix() -> Ipv4Prefix {
    // The generator assigns the first prefix 10.0.0.0/24.
    "10.0.0.0/24".parse().unwrap()
}

#[test]
fn injected_attack_is_caught_from_the_replayed_stream() {
    let graph = InternetConfig::small().seed(7_007).build();
    let attacker = Asn(1_000); // tier-2: wide enough spread, witnesses survive
    let corpus = CorpusConfig::new(25)
        .monitors_top_degree(45)
        .inject_attack(attacker)
        .churn_events(5)
        .seed(7_007)
        .generate(&graph);

    // The attack updates exist and arrive after the organic churn.
    let attack_updates: Vec<_> = corpus.updates_for(victim_prefix()).collect();
    assert!(
        !attack_updates.is_empty(),
        "injection must produce visible updates"
    );

    // Round-trip through the on-disk format first: the detector consumes
    // exactly what a collector archive would contain.
    let reloaded = Corpus::parse_strict(&corpus.to_text()).unwrap();

    let mut detector = StreamingDetector::shared(Arc::new(graph));
    detector.seed_from_corpus(&reloaded);
    let alarms = detector.process_all(reloaded.updates());

    assert!(
        alarms.iter().any(|a| a.prefix == victim_prefix()),
        "the hijacked prefix must raise an alarm: {alarms:?}"
    );
    // The alarm fires on an attack update, not on organic churn: compare
    // trigger sequence numbers against the first attack-update sequence.
    let first_attack_seq = attack_updates.iter().map(|u| u.seq).min().unwrap();
    for alarm in alarms.iter().filter(|a| a.prefix == victim_prefix()) {
        assert!(
            alarm.triggered_by_seq >= first_attack_seq,
            "premature alarm at seq {} (attack starts at {first_attack_seq})",
            alarm.triggered_by_seq
        );
    }
}

#[test]
fn clean_corpora_raise_no_alarms_on_replay() {
    let graph = InternetConfig::small().seed(7_008).build();
    let corpus = CorpusConfig::new(20)
        .monitors_top_degree(25)
        .churn_events(8)
        .origin_pad_rate(0.4)
        .seed(7_008)
        .generate(&graph);

    let mut detector = StreamingDetector::shared(Arc::new(graph));
    detector.seed_from_corpus(&corpus);
    let alarms = detector.process_all(corpus.updates());
    // Organic churn (failovers revealing padded backups) shows *increased*
    // padding, never decreased-with-witness, so high-confidence alarms are
    // false positives. The stream may produce low-confidence hints at most.
    let high: Vec<_> = alarms
        .iter()
        .filter(|a| a.alarm.confidence == Confidence::High)
        .collect();
    assert!(
        high.is_empty(),
        "clean churn must not produce high-confidence alarms: {high:?}"
    );
}

#[test]
fn injection_skips_self_attacks() {
    // If the sampled first origin happens to be the attacker, the generator
    // must not panic and simply omits the injection.
    let graph = InternetConfig::small().seed(7_009).build();
    for candidate in graph.asns().take(5) {
        let corpus = CorpusConfig::new(3)
            .inject_attack(candidate)
            .seed(7_009)
            .generate(&graph);
        // Always parseable regardless.
        assert!(Corpus::parse_strict(&corpus.to_text()).is_ok());
    }
}
