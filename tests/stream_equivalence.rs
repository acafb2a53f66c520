//! Streaming-detector equivalence: the incremental `StreamingDetector`
//! (standing candidates, per-prefix raised keys) must emit, record by
//! record, exactly what `ReferenceDetector` emits — the oracle that
//! rebuilds both views and the index from the path maps on every record,
//! scans every observed AS and keeps one global raised set.
//!
//! The streams have the benchmark's shape: attack- and withdraw-heavy, and
//! replayed three times over the same state, so later passes run against
//! raised keys the earlier ones left (or re-armed) and against prefixes
//! whose episodes recovered. In every pass the optimized detector is also
//! handed over once — `export_state` into a fresh detector's
//! `import_state` — at a random record, as a checkpoint restore would.

use aspp_repro::detect::realtime::{ReferenceDetector, StreamingDetector};
use aspp_repro::feed::ReplayConfig;
use aspp_repro::topology::gen::InternetConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn incremental_detector_matches_the_rebuild_oracle_record_by_record() {
    for seed in [3u64, 19, 41] {
        let graph = InternetConfig::small().seed(seed).build();
        let feed = ReplayConfig::new(24)
            .monitors_top_degree(16)
            .attack_ratio(0.7)
            .withdraw_ratio(0.6)
            .seed(seed)
            .generate(&graph);
        assert!(!feed.attacks.is_empty(), "stream must carry interceptions");

        let mut optimized = StreamingDetector::new(&graph);
        optimized.seed_from_corpus(&feed.corpus);
        let mut oracle = ReferenceDetector::new(&graph);
        for (monitor, table) in feed.corpus.tables() {
            for (prefix, path) in table.iter() {
                oracle.seed(monitor, prefix, path.clone());
            }
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut per_pass = Vec::new();
        for pass in 0..3 {
            let hand_over = rng.gen_range(0..feed.updates().len());
            let mut alarms = 0usize;
            for (i, update) in feed.updates().iter().enumerate() {
                if i == hand_over {
                    let state = optimized.export_state();
                    optimized = StreamingDetector::new(&graph);
                    optimized.import_state(&state);
                    assert_eq!(optimized.export_state(), state);
                }
                let got = optimized.process(update);
                let want = oracle.process(update);
                assert_eq!(
                    got, want,
                    "seed {seed}, pass {pass}: diverged at seq {} on {update:?}",
                    update.seq
                );
                alarms += got.len();
            }
            per_pass.push(alarms);
        }
        assert!(per_pass[0] > 0, "seed {seed}: the first pass never alarmed");
        assert!(
            per_pass[1] > 0 && per_pass[1] < per_pass[0],
            "seed {seed}: a replay must re-raise the re-armed keys and only those: {per_pass:?}"
        );
    }
}
