//! End-to-end PHAS pipeline: generate a live update stream with injected
//! ASPP interceptions, persist it in the MRT-like format, then replay it
//! into the streaming detector — the full workflow a prefix owner would run
//! against RouteViews/RIPE feeds. Clean archival corpora replay silently.

use std::sync::Arc;

use aspp_core::detect::realtime::StreamingDetector;
use aspp_core::prelude::*;

#[test]
fn injected_attack_is_caught_from_the_replayed_stream() {
    let graph = InternetConfig::small().seed(7_007).build();
    let feed = ReplayConfig::new(25)
        .monitors_top_degree(45)
        .seed(7_007)
        .generate(&graph);
    assert!(
        !feed.attacks.is_empty(),
        "injection must produce visible updates"
    );

    // Round-trip through the on-disk format first: the detector consumes
    // exactly what a collector archive would contain.
    let reloaded = Corpus::parse_strict(&feed.corpus.to_text()).unwrap();
    assert_eq!(reloaded, feed.corpus);

    let mut detector = StreamingDetector::shared(Arc::new(graph));
    detector.seed_from_corpus(&reloaded);
    let alarms = detector.process_all(reloaded.updates());

    let mut caught = 0;
    for attack in &feed.attacks {
        // The interception's first trace in the stream: an announcement of
        // a path other than the monitor's RIB seed. Benign flaps and
        // withdraw/re-announce episodes only ever repeat the seed.
        let first_change = reloaded
            .updates()
            .iter()
            .filter(|u| u.prefix == attack.prefix)
            .find(|u| {
                let seed = reloaded
                    .table_of(u.monitor)
                    .and_then(|t| t.get(&attack.prefix));
                u.path().is_some_and(|p| Some(p) != seed)
            })
            .map(|u| u.seq)
            .expect("a ground-truth attack changed some monitor's route");
        let raised: Vec<_> = alarms
            .iter()
            .filter(|a| a.prefix == attack.prefix)
            .collect();
        for alarm in &raised {
            assert!(
                alarm.triggered_by_seq >= first_change,
                "premature alarm on {} at seq {} (attack starts at {first_change})",
                attack.prefix,
                alarm.triggered_by_seq
            );
        }
        caught += usize::from(!raised.is_empty());
    }
    assert!(
        caught > 0,
        "a hijacked prefix must raise an alarm: {:?} vs {alarms:?}",
        feed.attacks
    );
}

#[test]
fn clean_corpora_raise_no_alarms_on_replay() {
    let graph = InternetConfig::small().seed(7_008).build();
    let corpus = CorpusConfig::new(40)
        .monitors_top_degree(25)
        .seed(7_008)
        .generate(&graph);
    assert!(!corpus.updates().is_empty(), "churn must generate updates");

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
    // The attacker is drawn from the monitors' clean paths to the origin,
    // which always carry the origin: it must be filtered out.
    let graph = InternetConfig::small().seed(7_009).build();
    let mut injected = 0;
    for seed in 0..6 {
        let feed = ReplayConfig::new(20)
            .attack_ratio(1.0)
            .seed(seed)
            .generate(&graph);
        for attack in &feed.attacks {
            assert_ne!(attack.attacker, attack.victim, "seed {seed}: {attack:?}");
        }
        injected += feed.attacks.len();
        assert!(Corpus::parse_strict(&feed.corpus.to_text()).is_ok());
    }
    assert!(injected > 0, "the seeds must inject something to check");
}

/// FNV-1a 64 over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn generator_output_bytes_are_pinned() {
    // Both generators' text, byte for byte: an edit that moves a single RNG
    // draw changes these. The second is the text `aspp feed --scale smoke
    // --seed 2024 --corpus-out FILE` writes.
    let graph = InternetConfig::small().seed(2024).build();
    let archive = CorpusConfig::new(40).seed(2024).generate(&graph).to_text();
    assert_eq!(
        (archive.len(), fnv1a64(archive.as_bytes())),
        (73_258, 0x00db_0280_3cbf_763c)
    );
    let live = ReplayConfig::new(40)
        .seed(2024)
        .generate(&graph)
        .corpus
        .to_text();
    assert_eq!(
        (live.len(), fnv1a64(live.as_bytes())),
        (105_418, 0xa39c_b32b_bc3e_8782)
    );
}
