//! Crash-recovery equivalence for the resident detection service.
//!
//! The contract the checkpoint layer sells: kill the service at any frame
//! boundary, restore the last checkpoint into a fresh engine — at ANY
//! shard count — replay the stream tail, and the full alarm sequence is
//! bit-identical to an uninterrupted run, which is itself pinned to the
//! serial `StreamingDetector` oracle. And a corrupted checkpoint must be
//! rejected by checksum, never half-restored.

use std::sync::Arc;

use aspp_core::detect::realtime::StreamingDetector;
use aspp_core::experiments::Scale;
use aspp_core::feed::{
    encode_records, Checkpoint, DetectionService, FeedConfig, FeedEngine, ReplayConfig,
};

/// Builds the shared fixture: a smoke-scale world, an attack-heavy stream
/// split into head/tail wire files, and the serial oracle's alarms.
struct Fixture {
    graph: Arc<aspp_core::topology::AsGraph>,
    corpus: aspp_core::data::Corpus,
    head: Vec<u8>,
    tail: Vec<u8>,
    oracle: Vec<aspp_core::detect::realtime::StreamAlarm>,
}

fn fixture(seed: u64) -> Fixture {
    let graph = Scale::Smoke.internet(seed);
    let feed = ReplayConfig::new(30)
        .attack_ratio(0.5)
        .seed(seed)
        .generate(&graph);
    assert!(!feed.attacks.is_empty(), "stream must carry interceptions");

    let graph = Arc::new(graph);
    let mut serial = StreamingDetector::shared(Arc::clone(&graph));
    serial.seed_from_corpus(&feed.corpus);
    let oracle = serial.process_all(feed.updates());
    assert!(!oracle.is_empty(), "interceptions must raise alarms");

    let updates = feed.updates().to_vec();
    let mid = updates.len() / 2;
    // Alarms must span the cut, or the tail replay proves nothing.
    assert!(oracle.iter().any(|a| a.triggered_by_seq >= mid as u64));

    Fixture {
        graph,
        corpus: feed.corpus,
        head: encode_records(&updates[..mid]),
        tail: encode_records(&updates[mid..]),
        oracle,
    }
}

#[test]
fn kill_and_resume_is_bit_identical_at_every_shard_count() {
    let fx = fixture(29);

    // The "victim" process: seed, ingest the head, checkpoint, die.
    let mut victim = FeedEngine::new(Arc::clone(&fx.graph), &FeedConfig::new(8));
    victim.seed_from_corpus(&fx.corpus);
    let head_report = victim.ingest_wire(&fx.head).unwrap();
    let checkpoint_bytes = Checkpoint::capture(&victim).encode();
    let cursor = victim.cursor();
    drop(victim);

    for shards in [1usize, 2, 8] {
        // The replacement process: fresh engine, NO corpus seeding — all
        // live state must come from the checkpoint alone.
        let mut resumed = FeedEngine::new(Arc::clone(&fx.graph), &FeedConfig::new(shards));
        let checkpoint = Checkpoint::decode(&checkpoint_bytes).unwrap();
        assert_eq!(checkpoint.cursor, cursor);
        checkpoint.restore_into(&mut resumed);
        assert_eq!(resumed.cursor(), cursor, "cursor must survive restore");

        let tail_report = resumed.ingest_wire(&fx.tail).unwrap();
        let mut combined = head_report.alarms.clone();
        combined.extend(tail_report.alarms);
        assert_eq!(
            combined, fx.oracle,
            "kill-and-resume at {shards} shards diverges from the serial oracle"
        );
    }
}

#[test]
fn resumed_engine_matches_the_uninterrupted_run() {
    // Same stream, two lives: (a) one engine ingesting head then tail with
    // no interruption; (b) checkpoint/restore between the two ingests.
    let fx = fixture(31);

    let mut uninterrupted = FeedEngine::new(Arc::clone(&fx.graph), &FeedConfig::new(4));
    uninterrupted.seed_from_corpus(&fx.corpus);
    let mut expected = uninterrupted.ingest_wire(&fx.head).unwrap().alarms;
    expected.extend(uninterrupted.ingest_wire(&fx.tail).unwrap().alarms);
    assert_eq!(
        expected, fx.oracle,
        "uninterrupted run must match the oracle"
    );

    let mut first_life = FeedEngine::new(Arc::clone(&fx.graph), &FeedConfig::new(4));
    first_life.seed_from_corpus(&fx.corpus);
    let mut observed = first_life.ingest_wire(&fx.head).unwrap().alarms;
    let bytes = Checkpoint::capture(&first_life).encode();
    drop(first_life);

    let mut second_life = FeedEngine::new(Arc::clone(&fx.graph), &FeedConfig::new(4));
    Checkpoint::decode(&bytes)
        .unwrap()
        .restore_into(&mut second_life);
    observed.extend(second_life.ingest_wire(&fx.tail).unwrap().alarms);

    assert_eq!(observed, expected);

    // And the resumed engine's full state re-exports identically to the
    // uninterrupted one — not just the alarms, the path maps too.
    assert_eq!(
        Checkpoint::capture(&second_life),
        Checkpoint::capture(&uninterrupted),
    );
}

/// The service writes its checkpoints from the live engine's borrowed rows,
/// not through a `Checkpoint` snapshot. After every chunk of a churny
/// stream, at 1, 2 and 8 shards, the file it writes must be the snapshot's
/// encoding, the same bytes at every shard count, and a checkpoint that
/// restores the engine's exact state.
#[test]
fn service_checkpoints_are_the_snapshot_bytes_at_every_shard_count() {
    let seed = 43;
    let graph = Arc::new(Scale::Smoke.internet(seed));
    let feed = ReplayConfig::new(40)
        .attack_ratio(0.6)
        .withdraw_ratio(0.4)
        .seed(seed)
        .generate(&graph);
    let dir = std::env::temp_dir().join(format!("aspp_service_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let shard_counts = [1usize, 2, 8];
    let mut services: Vec<DetectionService> = shard_counts
        .iter()
        .map(|&shards| {
            let mut engine = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(shards));
            engine.seed_from_corpus(&feed.corpus);
            DetectionService::new(engine)
        })
        .collect();
    let chunks: Vec<_> = feed
        .updates()
        .chunks(feed.updates().len() / 6 + 1)
        .collect();
    let mut raised = 0;
    for (i, chunk) in chunks.iter().enumerate() {
        let stream = dir.join(format!("chunk-{i}.bin"));
        std::fs::write(&stream, encode_records(chunk)).unwrap();
        let mut written = Vec::new();
        for (service, shards) in services.iter_mut().zip(shard_counts) {
            let file = dir.join(format!("state-{shards}.ckpt"));
            let requests = format!(
                "{{\"cmd\":\"ingest\",\"file\":\"{}\"}}\n{{\"cmd\":\"checkpoint\",\"file\":\"{}\"}}\n",
                stream.display(),
                file.display()
            );
            let mut replies = Vec::new();
            service.run(requests.as_bytes(), &mut replies).unwrap();
            let replies = String::from_utf8(replies).unwrap();
            assert!(!replies.contains("\"ok\":false"), "{replies}");
            let bytes = std::fs::read(&file).unwrap();
            let engine = service.engine();
            assert_eq!(
                bytes,
                Checkpoint::capture(engine).encode(),
                "chunk {i}, {shards} shards: the service wrote other bytes"
            );
            let mut restored = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(shards));
            Checkpoint::decode(&bytes)
                .unwrap()
                .restore_into(&mut restored);
            assert_eq!(restored.export_state(), engine.export_state(), "chunk {i}");
            assert_eq!(restored.cursor(), engine.cursor(), "chunk {i}");
            written.push(bytes);
        }
        assert!(
            written.iter().all(|bytes| *bytes == written[0]),
            "chunk {i}: checkpoint bytes depend on the shard count"
        );
        raised += Checkpoint::decode(&written[0]).unwrap().state.raised.len();
    }
    assert!(raised > 0, "the stream never raised an alarm to checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_corrupted_checkpoint_byte_is_rejected() {
    let fx = fixture(37);
    let mut engine = FeedEngine::new(Arc::clone(&fx.graph), &FeedConfig::new(2));
    engine.seed_from_corpus(&fx.corpus);
    engine.ingest_wire(&fx.head).unwrap();
    let bytes = Checkpoint::capture(&engine).encode();

    // Flip one bit in every 97th byte (covering header, counts, and rows)
    // and demand a clean error each time.
    for i in (0..bytes.len()).step_by(97) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x10;
        assert!(
            Checkpoint::decode(&corrupt).is_err(),
            "corruption at byte {i} went undetected"
        );
    }
    // Truncation at any prefix length is an error, never a panic.
    for len in [0, 7, 15, bytes.len() / 2, bytes.len() - 1] {
        assert!(Checkpoint::decode(&bytes[..len]).is_err());
    }
}

/// A kill while a checkpoint is being written leaves some prefix of its
/// bytes. Every strict prefix of a mid-stream engine's checkpoint — all of
/// them, not a sample — must decode to an error: never `Ok`, never a panic.
#[test]
fn a_checkpoint_cut_at_any_byte_is_rejected() {
    // A small world: decoding every cut re-checksums it, so the test's
    // cost is quadratic in the checkpoint's size.
    let seed = 41;
    let graph = Arc::new(Scale::Smoke.internet(seed));
    let feed = ReplayConfig::new(4)
        .monitors_top_degree(8)
        .attack_ratio(1.0)
        .withdraw_ratio(0.5)
        .seed(seed)
        .generate(&graph);
    let updates = feed.updates();
    let mut engine = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(2));
    engine.seed_from_corpus(&feed.corpus);
    let _ = engine.ingest(&updates[..updates.len() / 2]);
    let bytes = Checkpoint::capture(&engine).encode();
    let whole = Checkpoint::decode(&bytes).unwrap();
    assert!(
        !whole.state.previous.is_empty() && !whole.state.raised.is_empty(),
        "the cut must cross every section"
    );
    for k in 0..bytes.len() {
        assert!(
            Checkpoint::decode(&bytes[..k]).is_err(),
            "a checkpoint cut to {k} of {} bytes decoded",
            bytes.len()
        );
    }
}
