//! Pipeline determinism: the same seeded stream replayed through 1, 2, and
//! 8 shards must produce the identical merged alarm sequence (order and
//! content) — and that sequence must equal what a single serial
//! `StreamingDetector::process_all` pass emits, the strongest form of the
//! guarantee since it pins the parallel pipeline to the tier-1-tested
//! serial semantics.

use std::sync::Arc;

use aspp_core::detect::realtime::StreamingDetector;
use aspp_core::experiments::Scale;
use aspp_core::feed::{decode_records, encode_records, run_feed, FeedConfig, ReplayConfig};

#[test]
fn shard_count_does_not_change_the_alarm_sequence() {
    let graph = Scale::Smoke.internet(11);
    let feed = ReplayConfig::new(30)
        .attack_ratio(0.5)
        .seed(11)
        .generate(&graph);
    assert!(!feed.attacks.is_empty(), "stream must carry interceptions");

    let graph = Arc::new(graph);
    let mut serial = StreamingDetector::shared(Arc::clone(&graph));
    serial.seed_from_corpus(&feed.corpus);
    let expected = serial.process_all(feed.updates());
    assert!(!expected.is_empty(), "interceptions must raise alarms");

    for shards in [1usize, 2, 8] {
        let report = run_feed(
            &graph,
            &feed.corpus,
            feed.updates(),
            &FeedConfig::new(shards),
        );
        assert_eq!(
            report.alarms, expected,
            "merged alarms diverge from the serial oracle at {shards} shards"
        );
        assert_eq!(report.records_in as usize, feed.updates().len());
    }
}

#[test]
fn duplicate_seq_wire_replay_is_shard_count_independent() {
    // An externally recorded stream is free to carry duplicate seq values
    // (e.g. per-monitor counters). Rewrite the synthetic stream's seqs that
    // way, round-trip it through the wire codec, and demand the replay
    // merges to the serial oracle at every shard count — the merge must key
    // on dispatch order, never on the caller-supplied seq.
    let graph = Scale::Smoke.internet(17);
    let feed = ReplayConfig::new(30)
        .attack_ratio(0.5)
        .seed(17)
        .generate(&graph);
    let mut updates = feed.updates().to_vec();
    let mut per_monitor = std::collections::HashMap::new();
    for u in &mut updates {
        let counter = per_monitor.entry(u.monitor).or_insert(0u64);
        *counter += 1;
        u.seq = *counter;
    }
    let mut seqs: Vec<u64> = updates.iter().map(|u| u.seq).collect();
    let total = seqs.len();
    seqs.sort_unstable();
    seqs.dedup();
    assert!(
        seqs.len() < total,
        "the rewritten stream must actually carry duplicate seqs"
    );

    let decoded = decode_records(&encode_records(&updates)).unwrap();
    assert_eq!(decoded, updates, "wire round-trip must preserve the stream");

    let graph = Arc::new(graph);
    let mut serial = StreamingDetector::shared(Arc::clone(&graph));
    serial.seed_from_corpus(&feed.corpus);
    let expected = serial.process_all(&decoded);
    assert!(!expected.is_empty(), "interceptions must raise alarms");

    for shards in [1usize, 2, 8] {
        let report = run_feed(&graph, &feed.corpus, &decoded, &FeedConfig::new(shards));
        assert_eq!(
            report.alarms, expected,
            "duplicate-seq replay diverges from the serial oracle at {shards} shards"
        );
    }
}

#[test]
fn wire_roundtrip_preserves_the_alarm_sequence() {
    // Encode the stream to the wire format and replay the decoded copy:
    // alarms must match the in-memory stream bit for bit.
    let graph = Scale::Smoke.internet(13);
    let feed = ReplayConfig::new(20)
        .attack_ratio(0.6)
        .seed(13)
        .generate(&graph);
    let decoded = decode_records(&encode_records(feed.updates())).unwrap();
    assert_eq!(decoded, feed.updates());

    let graph = Arc::new(graph);
    let direct = run_feed(&graph, &feed.corpus, feed.updates(), &FeedConfig::new(4));
    let replayed = run_feed(&graph, &feed.corpus, &decoded, &FeedConfig::new(4));
    assert_eq!(direct.alarms, replayed.alarms);
    assert!(!direct.alarms.is_empty());
}

#[test]
fn repeated_runs_are_reproducible() {
    // Thread interleaving varies between runs; the merged output must not.
    let graph = Scale::Smoke.internet(17);
    let feed = ReplayConfig::new(25)
        .attack_ratio(0.4)
        .seed(17)
        .generate(&graph);
    let graph = Arc::new(graph);
    let config = FeedConfig::new(8);
    let first = run_feed(&graph, &feed.corpus, feed.updates(), &config);
    for _ in 0..3 {
        let again = run_feed(&graph, &feed.corpus, feed.updates(), &config);
        assert_eq!(again.alarms, first.alarms);
    }
}
