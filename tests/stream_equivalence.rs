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

use std::sync::Arc;

use aspp_core::data::{UpdateAction, UpdateRecord};
use aspp_core::detect::realtime::{ReferenceDetector, StreamingDetector};
use aspp_core::feed::ReplayConfig;
use aspp_core::topology::gen::InternetConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn incremental_detector_matches_the_rebuild_oracle_record_by_record() {
    for seed in [3u64, 19, 41] {
        let graph = Arc::new(InternetConfig::small().seed(seed).build());
        let feed = ReplayConfig::new(24)
            .monitors_top_degree(16)
            .attack_ratio(0.7)
            .withdraw_ratio(0.6)
            .seed(seed)
            .generate(&graph);
        assert!(!feed.attacks.is_empty(), "stream must carry interceptions");

        let mut optimized = StreamingDetector::shared(Arc::clone(&graph));
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
                    optimized = StreamingDetector::shared(Arc::clone(&graph));
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

/// The regime an announcement's skip of settled candidates lives on: every
/// interception is re-announced three more times after the stream, so its
/// candidates stand with their keys raised. In the middle round each
/// intercepted monitor first withdraws and returns to its clean route,
/// re-arming its keys, so the round after it skips candidates whose keys
/// the round before re-raised.
#[test]
fn repeated_interceptions_match_the_rebuild_oracle_record_by_record() {
    for seed in [5u64, 23] {
        let graph = Arc::new(InternetConfig::small().seed(seed).build());
        let feed = ReplayConfig::new(24)
            .monitors_top_degree(16)
            .attack_ratio(0.7)
            .withdraw_ratio(0.3)
            .seed(seed)
            .generate(&graph);
        let corpus = &feed.corpus;
        let clean = |u: &UpdateRecord| corpus.table_of(u.monitor)?.get(&u.prefix).cloned();
        // Interception announcements: the only ones off the seeded route.
        let hostile: Vec<&UpdateRecord> = feed
            .updates()
            .iter()
            .filter(|u| match &u.action {
                UpdateAction::Announce(path) => clean(u).is_some_and(|seeded| seeded != *path),
                UpdateAction::Withdraw => false,
            })
            .collect();
        assert!(
            !hostile.is_empty(),
            "seed {seed}: no interception to repeat"
        );

        let mut updates = feed.updates().to_vec();
        let mut rounds = Vec::new();
        for round in 0..3 {
            let start = updates.len();
            for &u in &hostile {
                let mut push = |action| {
                    let seq = updates.len() as u64 + 1;
                    updates.push(UpdateRecord { seq, action, ..*u });
                };
                if round == 1 {
                    push(UpdateAction::Withdraw);
                    push(UpdateAction::Announce(clean(u).expect("seeded")));
                }
                push(u.action.clone());
            }
            rounds.push(start..updates.len());
        }

        let mut optimized = StreamingDetector::shared(Arc::clone(&graph));
        optimized.seed_from_corpus(corpus);
        let mut oracle = ReferenceDetector::new(&graph);
        for (monitor, table) in corpus.tables() {
            for (prefix, path) in table.iter() {
                oracle.seed(monitor, prefix, path.clone());
            }
        }
        let mut alarms = vec![0usize; updates.len()];
        for (i, update) in updates.iter().enumerate() {
            let got = optimized.process(update);
            assert_eq!(
                got,
                oracle.process(update),
                "seed {seed}: diverged at seq {} on {update:?}",
                update.seq
            );
            alarms[i] = got.len();
        }
        let per_round: Vec<usize> = rounds
            .iter()
            .map(|r| alarms[r.clone()].iter().sum())
            .collect();
        assert!(
            per_round[1] > 0,
            "seed {seed}: re-armed keys must alarm again: {per_round:?}"
        );
    }
}
