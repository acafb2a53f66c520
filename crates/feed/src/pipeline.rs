//! Sharded streaming-detection worker pool and the resident feed engine.
//!
//! Updates are partitioned **by prefix** across N shards, each owned by a
//! [`StreamingDetector`] seeded with that shard's slice of the RIB snapshot.
//! Prefix-sharding (rather than the coarser `(monitor, prefix)`) is what
//! makes the merged output independent of the shard count: the detector's
//! state and its alarm scan are per-prefix — every monitor's view of a
//! prefix must sit in one shard, or the cross-monitor witness comparison at
//! the heart of the paper's Section V check would be split across workers
//! and the alarm sequence would depend on thread interleaving.
//!
//! An ingest is partition, scope, merge — the shape of
//! [`FeedEngine::seed_from_corpus`]: one pass over the decoded slice builds
//! each shard's part in dispatch order, one scoped thread per detector runs
//! its part, and the tagged alarms are stable-sorted by dispatch index —
//! bit-identical to what a single serial
//! [`StreamingDetector::process_all`] pass emits. The whole slice is in
//! memory before the first record reaches a detector (the wire path,
//! [`FeedEngine::ingest_wire`], decodes a stream whole first, so a stream
//! that fails to decode changes nothing), so there is nothing to queue: no
//! channel, no batching, no backpressure.
//!
//! The dispatch index (the record's position in the engine's lifetime
//! stream) rather than the record's `seq` field keys the merge: `seq` is
//! caller-supplied wire data with no uniqueness guarantee, and an
//! externally recorded stream with duplicate seqs (per-monitor counters,
//! say) would otherwise merge in shard-count-dependent order.
//!
//! [`run_feed`] is the one-shot form (seed, ingest once, report);
//! [`FeedEngine`] is the resident form the detection service builds on —
//! per-shard detectors persist across [`ingest`](FeedEngine::ingest) calls,
//! a lifetime cursor numbers every record ever dispatched, and the whole
//! mutable state exports/imports through
//! [`aspp_detect::realtime::DetectorState`] for checkpointing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aspp_data::stats::Cdf;
use aspp_data::{Corpus, UpdateRecord};
use aspp_detect::realtime::{DetectorState, StateRows, StreamAlarm, StreamingDetector};
use aspp_obs::counters::{self, Counter};
use aspp_obs::trace;
use aspp_topology::AsGraph;
use aspp_types::{AsPath, Asn, AsppError, Ipv4Prefix};

use crate::codec::decode_records;

/// The shard a prefix is pinned to — FNV-1a over its address and length.
///
/// Deterministic across runs and shard counts; every update and every RIB
/// seed for one prefix lands on the same worker.
#[must_use]
pub fn shard_of(prefix: Ipv4Prefix, shards: usize) -> usize {
    let mut hash: u32 = 0x811c_9dc5;
    for b in prefix
        .addr()
        .to_le_bytes()
        .into_iter()
        .chain([prefix.len()])
    {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash as usize % shards.max(1)
}

/// Worker-pool sizing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeedConfig {
    /// Number of shard workers (≥ 1).
    pub shards: usize,
}

impl FeedConfig {
    /// A pool of `shards` workers.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        FeedConfig { shards }
    }
}

/// What one shard worker saw.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Records routed to this shard.
    pub records: u64,
    /// Alarms this shard emitted.
    pub alarms: u64,
}

/// The merged result of one pipeline run.
#[derive(Clone, Debug)]
pub struct FeedReport {
    /// Records dispatched into the pool.
    pub records_in: u64,
    /// All alarms, merged across shards into dispatch order.
    pub alarms: Vec<StreamAlarm>,
    /// Ingest-start-to-alarm latency of each alarm, sorted ascending.
    pub alarm_latencies_ns: Vec<u64>,
    /// Per-shard accounting, indexed by shard id.
    pub shards: Vec<ShardStats>,
    /// Wall-clock time from the start of the ingest to merged output.
    pub wall: Duration,
}

impl FeedReport {
    /// Records per second of wall-clock time, or `None` when the wall
    /// clock registered zero — a run so fast (or so empty) that the timer
    /// resolution cannot support a rate. `None` rather than `0.0` so a
    /// sub-resolution run can never be mistaken for an idle one, and
    /// rather than `f64::INFINITY` so the value stays safe to format and
    /// aggregate.
    #[must_use]
    pub fn records_per_sec(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        (secs > 0.0).then(|| self.records_in as f64 / secs)
    }

    /// Shards that were handed records: each receives its whole part at
    /// once, so this is the number of parts the ingest fanned out.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.shards.iter().filter(|s| s.records > 0).count() as u64
    }

    /// The `pct`-th percentile (0–100) of ingest-start-to-alarm latency, in
    /// microseconds. `None` when no alarms fired.
    ///
    /// Computed through [`Cdf::quantile`]'s nearest-rank (ceil) convention,
    /// the same convention as every paper-figure CDF, so `aspp feed`
    /// latency percentiles and figure percentiles agree on identical data.
    #[must_use]
    pub fn latency_us(&self, pct: f64) -> Option<f64> {
        if self.alarm_latencies_ns.is_empty() {
            return None;
        }
        let cdf = Cdf::from_samples(
            self.alarm_latencies_ns
                .iter()
                .map(|&ns| ns as f64 / 1_000.0),
        );
        Some(cdf.quantile(pct.clamp(0.0, 100.0) / 100.0))
    }

    /// Shard balance as max-over-mean of per-shard record counts: `1.0` is
    /// a perfectly even split, `shards as f64` is everything on one worker.
    #[must_use]
    pub fn shard_balance(&self) -> f64 {
        let max = self.depth_high_water();
        if self.records_in == 0 || self.shards.is_empty() {
            return 1.0;
        }
        let mean = self.records_in as f64 / self.shards.len() as f64;
        if mean > 0.0 {
            max as f64 / mean
        } else {
            1.0
        }
    }

    /// Always `0`: an ingest hands each shard its part whole and never
    /// waits on a worker. Kept only until the benchmark drops the row that
    /// reads it.
    #[must_use]
    pub fn backpressure_waits(&self) -> u64 {
        0
    }

    /// The largest part any shard was handed, in records.
    #[must_use]
    pub fn depth_high_water(&self) -> u64 {
        self.shards.iter().map(|s| s.records).max().unwrap_or(0)
    }
}

/// An alarm tagged with its merge key, the triggering record's dispatch
/// index.
struct TaggedAlarm {
    dispatch: u64,
    latency_ns: u64,
    alarm: StreamAlarm,
}

/// A resident sharded detection engine: the long-lived form of the pool.
///
/// Per-shard [`StreamingDetector`]s persist across
/// [`ingest`](Self::ingest) calls (worker threads are ephemeral, state is
/// not), a lifetime **cursor** numbers every record dispatched since the
/// engine was built, and the whole mutable state round-trips through
/// [`DetectorState`] — the unit the checkpoint layer serializes. One-shot
/// replays use [`run_feed`]; the `aspp serve` service wraps an engine.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use aspp_data::Corpus;
/// use aspp_feed::pipeline::{FeedConfig, FeedEngine};
/// use aspp_topology::AsGraph;
///
/// let mut engine = FeedEngine::new(Arc::new(AsGraph::new()), &FeedConfig::new(2));
/// engine.seed_from_corpus(&Corpus::new());
/// let report = engine.ingest(&[]);
/// assert_eq!(report.records_in, 0);
/// assert_eq!(engine.cursor(), 0);
/// ```
#[derive(Debug)]
pub struct FeedEngine {
    graph: Arc<AsGraph>,
    detectors: Vec<StreamingDetector<Arc<AsGraph>>>,
    cursor: u64,
}

impl FeedEngine {
    /// Creates an unseeded engine with `config.shards` resident detectors.
    #[must_use]
    pub fn new(graph: Arc<AsGraph>, config: &FeedConfig) -> Self {
        let detectors = (0..config.shards.max(1))
            .map(|_| StreamingDetector::shared(Arc::clone(&graph)))
            .collect();
        FeedEngine {
            graph,
            detectors,
            cursor: 0,
        }
    }

    /// The number of shard workers.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.detectors.len()
    }

    /// Records dispatched over the engine's lifetime — the replay cursor a
    /// checkpoint stores: restoring and re-ingesting the stream from this
    /// offset reproduces the uninterrupted run.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The relationship graph the detectors consult.
    #[must_use]
    pub fn graph(&self) -> &Arc<AsGraph> {
        &self.graph
    }

    /// Prefixes with live state, summed across shards.
    #[must_use]
    pub fn tracked_prefixes(&self) -> usize {
        self.detectors.iter().map(|d| d.tracked_prefixes()).sum()
    }

    /// Monitors currently announcing `prefix` (resolved on its one shard).
    #[must_use]
    pub fn monitors_of(&self, prefix: Ipv4Prefix) -> usize {
        self.detectors[shard_of(prefix, self.detectors.len())].monitors_of(prefix)
    }

    /// Seeds every monitor table of a RIB corpus.
    ///
    /// The corpus is partitioned **once** on the caller's side — one pass
    /// building per-shard seed lists — and each detector receives only its
    /// slice. (The pool's first version had every worker rescan the whole
    /// corpus and filter, an O(shards × seeds) startup that dominated at
    /// millions of prefixes.)
    ///
    /// Each slice is seeded prefix by prefix rather than in the corpus's
    /// monitor-major order, so consecutive seeds land in one prefix's state
    /// instead of a different one each time. The sort is stable: a prefix's
    /// monitors arrive in corpus order either way, hence so does every
    /// entry of its views.
    pub fn seed_from_corpus(&mut self, seeds: &Corpus) {
        let shards = self.detectors.len();
        let mut parts: Vec<Vec<(Asn, Ipv4Prefix, &AsPath)>> = vec![Vec::new(); shards];
        for (monitor, table) in seeds.tables() {
            for (prefix, path) in table.iter() {
                parts[shard_of(prefix, shards)].push((monitor, prefix, path));
            }
        }
        std::thread::scope(|scope| {
            for (detector, mut part) in self.detectors.iter_mut().zip(parts) {
                scope.spawn(move || {
                    part.sort_by_key(|&(_, prefix, _)| prefix);
                    for (monitor, prefix, path) in part {
                        detector.seed(monitor, prefix, path.clone());
                    }
                });
            }
        });
    }

    /// Ingests an encoded wire stream, all or nothing: the stream is decoded
    /// and validated whole ([`decode_records`]) before its first record
    /// reaches a detector.
    ///
    /// # Errors
    ///
    /// The earliest corrupt frame — header, checksum, truncation or a
    /// malformed field alike — fails the call with its frame-indexed error,
    /// and `Err` means nothing happened: detector state and the cursor are
    /// exactly what they were, so the corrected stream can simply be sent
    /// again.
    pub fn ingest_wire(&mut self, bytes: &[u8]) -> Result<FeedReport, AsppError> {
        Ok(self.ingest(&decode_records(bytes)?))
    }

    /// The engine's whole mutable state as borrowed rows, merged across
    /// shards and sorted once. Prefixes live on exactly one shard, so the
    /// merge is a disjoint union; together with [`cursor`](Self::cursor)
    /// this is everything a checkpoint needs.
    #[must_use]
    pub(crate) fn state_rows(&self) -> StateRows<'_> {
        StateRows::of(&self.detectors)
    }

    /// Exports the engine's whole mutable state as one canonical (sorted)
    /// snapshot: the owned form of the rows a checkpoint is encoded from.
    #[must_use]
    pub fn export_state(&self) -> DetectorState {
        self.state_rows().to_state()
    }

    /// Replaces the engine's state with a snapshot, repartitioning rows by
    /// prefix hash, and sets the cursor. The snapshot's shard count does
    /// not matter: a checkpoint taken at 8 shards restores into a 2-shard
    /// engine (and vice versa) with identical subsequent behavior, because
    /// the state is keyed purely by prefix.
    pub fn import_state(&mut self, state: &DetectorState, cursor: u64) {
        let shards = self.detectors.len();
        let mut parts: Vec<DetectorState> = vec![DetectorState::default(); shards];
        for (prefix, monitor, path) in &state.current {
            parts[shard_of(*prefix, shards)]
                .current
                .push((*prefix, *monitor, path.clone()));
        }
        for (prefix, monitor, path) in &state.previous {
            parts[shard_of(*prefix, shards)]
                .previous
                .push((*prefix, *monitor, path.clone()));
        }
        for &(prefix, suspect, observed_at) in &state.raised {
            parts[shard_of(prefix, shards)]
                .raised
                .push((prefix, suspect, observed_at));
        }
        for (detector, part) in self.detectors.iter_mut().zip(&parts) {
            detector.import_state(part);
        }
        self.cursor = cursor;
    }

    /// Ingests a slice of decoded records through the pool and returns the
    /// merged report: partitions the records by [`shard_of`] in one pass,
    /// runs one scoped worker per resident detector over its part, merges
    /// the tagged alarms and advances the cursor. Detector state persists; a
    /// later call continues where this one left off. Infallible: decoded
    /// records have no failure mode.
    #[must_use]
    pub fn ingest(&mut self, updates: &[UpdateRecord]) -> FeedReport {
        let _span = trace::span("feed");
        let start = Instant::now();
        let shards = self.detectors.len();
        let mut parts: Vec<Vec<(u64, &UpdateRecord)>> = vec![Vec::new(); shards];
        for (dispatch, record) in (self.cursor..).zip(updates) {
            parts[shard_of(record.prefix, shards)].push((dispatch, record));
        }
        counters::add(Counter::FeedRecordIn, updates.len() as u64);

        let per_shard: Vec<(ShardStats, Vec<TaggedAlarm>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .detectors
                .iter_mut()
                .zip(parts)
                .map(|(detector, part)| {
                    scope.spawn(move || {
                        let records = part.len() as u64;
                        let mut alarms = Vec::new();
                        for (dispatch, record) in part {
                            for alarm in detector.process(record) {
                                alarms.push(TaggedAlarm {
                                    dispatch,
                                    latency_ns: start.elapsed().as_nanos() as u64,
                                    alarm,
                                });
                            }
                        }
                        let stats = ShardStats {
                            records,
                            alarms: alarms.len() as u64,
                        };
                        (stats, alarms)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().expect("shard worker must not panic"))
                .collect()
        });

        let mut shard_stats = Vec::with_capacity(shards);
        let mut tagged: Vec<TaggedAlarm> = Vec::new();
        for (stats, alarms) in per_shard {
            shard_stats.push(stats);
            tagged.extend(alarms);
        }
        // A prefix lives on exactly one shard and each part keeps dispatch
        // order, so one record's alarms sit together in emission order and
        // a stable sort by dispatch index alone is the serial order — even
        // when the stream carries duplicate `seq` values, which
        // caller-supplied wire data is free to do.
        tagged.sort_by_key(|t| t.dispatch);
        counters::add(Counter::FeedAlarm, tagged.len() as u64);

        let mut alarm_latencies_ns: Vec<u64> = tagged.iter().map(|t| t.latency_ns).collect();
        alarm_latencies_ns.sort_unstable();
        let alarms = tagged.into_iter().map(|t| t.alarm).collect();

        let records_in = updates.len() as u64;
        self.cursor += records_in;
        FeedReport {
            records_in,
            alarms,
            alarm_latencies_ns,
            shards: shard_stats,
            wall: start.elapsed(),
        }
    }
}

/// Runs `updates` through a pool of shard workers and merges the alarms —
/// the one-shot wrapper over [`FeedEngine`] (seed, single ingest, report).
///
/// Each worker owns a [`StreamingDetector`] over a clone of the `Arc`'d
/// graph, seeded with its partition of `seeds`' RIB entries. The merged
/// alarm sequence is identical for every shard count — including streams
/// with duplicate or non-monotone `seq` values, since the merge keys on
/// dispatch order, not `seq` — see the module docs.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use aspp_data::Corpus;
/// use aspp_feed::pipeline::{run_feed, FeedConfig};
/// use aspp_topology::AsGraph;
///
/// let graph = Arc::new(AsGraph::new());
/// let report = run_feed(&graph, &Corpus::new(), &[], &FeedConfig::new(2));
/// assert_eq!(report.records_in, 0);
/// assert!(report.alarms.is_empty());
/// ```
#[must_use]
pub fn run_feed(
    graph: &Arc<AsGraph>,
    seeds: &Corpus,
    updates: &[UpdateRecord],
    config: &FeedConfig,
) -> FeedReport {
    let mut engine = FeedEngine::new(Arc::clone(graph), config);
    engine.seed_from_corpus(seeds);
    engine.ingest(updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_records, tamper_frame};
    use aspp_data::UpdateAction;
    use aspp_types::Asn;

    fn attack_world() -> (Arc<AsGraph>, Corpus, Vec<UpdateRecord>) {
        // Two prefixes over the doc-comment topology: monitor 77 routes via
        // the soon-to-be attacker 66, honest monitor 55 is the witness.
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        let p1: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let p2: Ipv4Prefix = "10.0.1.0/24".parse().unwrap();
        let mut seeds = Corpus::new();
        for &p in &[p1, p2] {
            seeds.add_table_entry(Asn(77), p, "77 66 10 1 1 1".parse().unwrap());
            seeds.add_table_entry(Asn(55), p, "55 10 1 1 1".parse().unwrap());
        }
        let updates = vec![
            UpdateRecord {
                seq: 1,
                monitor: Asn(77),
                prefix: p1,
                action: UpdateAction::Announce("77 66 10 1".parse().unwrap()),
            },
            UpdateRecord {
                seq: 2,
                monitor: Asn(77),
                prefix: p2,
                action: UpdateAction::Withdraw,
            },
            UpdateRecord {
                seq: 3,
                monitor: Asn(77),
                prefix: p2,
                action: UpdateAction::Announce("77 66 10 1".parse().unwrap()),
            },
        ];
        (Arc::new(g), seeds, updates)
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let p: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        assert_eq!(shard_of(p, 1), 0);
        for shards in 1..9 {
            assert!(shard_of(p, shards) < shards);
            assert_eq!(shard_of(p, shards), shard_of(p, shards));
        }
    }

    #[test]
    fn pool_matches_serial_detector() {
        let (graph, seeds, updates) = attack_world();
        let mut serial = StreamingDetector::new(&graph);
        serial.seed_from_corpus(&seeds);
        let expected = serial.process_all(&updates);
        assert!(!expected.is_empty());

        for shards in [1, 2, 3, 8] {
            let report = run_feed(&graph, &seeds, &updates, &FeedConfig::new(shards));
            assert_eq!(report.alarms, expected, "shards = {shards}");
            assert_eq!(report.records_in, 3);
            assert_eq!(
                report.shards.iter().map(|s| s.records).sum::<u64>(),
                3,
                "every record reaches exactly one shard"
            );
            assert_eq!(report.alarm_latencies_ns.len(), expected.len());
        }
    }

    #[test]
    fn prefix_major_seeding_leaves_the_monitor_major_state() {
        // The engine seeds each shard prefix by prefix; the serial detector
        // walks the corpus monitor by monitor. Same state either way.
        let (graph, seeds, _) = attack_world();
        let mut serial = StreamingDetector::new(&graph);
        serial.seed_from_corpus(&seeds);
        for shards in [1, 2, 8] {
            let mut engine = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(shards));
            engine.seed_from_corpus(&seeds);
            assert_eq!(engine.export_state(), serial.export_state(), "{shards}");
        }
    }

    #[test]
    fn resident_engine_continues_across_ingests() {
        // Feeding the stream in two calls must equal one call: state
        // persists and the cursor keeps dispatch indices globally ordered.
        let (graph, seeds, updates) = attack_world();
        let mut whole = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(2));
        whole.seed_from_corpus(&seeds);
        let expected = whole.ingest(&updates).alarms;

        let mut split = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(2));
        split.seed_from_corpus(&seeds);
        let mut alarms = split.ingest(&updates[..1]).alarms;
        assert_eq!(split.cursor(), 1);
        alarms.extend(split.ingest(&updates[1..]).alarms);
        assert_eq!(split.cursor(), updates.len() as u64);
        assert_eq!(alarms, expected);
    }

    #[test]
    fn wire_ingest_matches_decoded_ingest() {
        let (graph, seeds, updates) = attack_world();
        let bytes = encode_records(&updates);
        for shards in [1, 2, 8] {
            let mut decoded = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(shards));
            decoded.seed_from_corpus(&seeds);
            let expected = decoded.ingest(&updates);

            let mut wire = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(shards));
            wire.seed_from_corpus(&seeds);
            let report = wire.ingest_wire(&bytes).unwrap();
            assert_eq!(report.alarms, expected.alarms, "shards = {shards}");
            assert_eq!(report.records_in, expected.records_in);
            assert_eq!(wire.cursor(), decoded.cursor());
        }
    }

    #[test]
    fn wire_ingest_rejects_corruption_without_advancing_the_cursor() {
        let (graph, seeds, updates) = attack_world();
        // Announce, withdraw, announce — twice, so frame 4 is an announce in
        // the middle of the stream and frame 6 one at its end.
        let stream = [&updates[..], &updates[..]].concat();
        let good = encode_records(&stream);
        // (frame the error must name, its text, the corrupted stream): the
        // structural case, then bad fields under a recomputed checksum.
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 0xff;
        let mut cases = vec![(6, "checksum mismatch", flipped)];
        type Edit = fn(&mut [u8]);
        let bad_fields: [(&str, Edit); 2] = [
            ("unknown action tag 2", |payload| payload[17] = 2),
            ("empty path", |payload| payload[18..20].fill(0)),
        ];
        for frame in [4, 6] {
            for (text, edit) in bad_fields {
                let mut bad = good.clone();
                tamper_frame(&mut bad, frame, edit);
                cases.push((frame, text, bad));
            }
        }
        for shards in [1, 2, 8] {
            let fresh = run_feed(&graph, &seeds, &stream, &FeedConfig::new(shards)).alarms;
            assert!(!fresh.is_empty());
            for (frame, text, bad) in &cases {
                let mut engine = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(shards));
                engine.seed_from_corpus(&seeds);
                let before = engine.export_state();

                let err = engine.ingest_wire(bad).unwrap_err();
                let case = format!("shards = {shards}, frame {frame}, {text}: {err}");
                assert_eq!(err.component(), "feed", "{case}");
                assert_eq!(err.line(), Some(*frame), "{case}");
                assert!(err.message().contains(text), "{case}");
                // `Err` means nothing happened…
                assert_eq!(engine.cursor(), 0, "failed ingest must not advance: {case}");
                assert_eq!(engine.export_state(), before, "{case}");
                // …so the corrected stream can simply be sent again.
                assert_eq!(engine.ingest_wire(&good).unwrap().alarms, fresh, "{case}");
            }
        }
    }

    #[test]
    fn engine_state_roundtrips_through_export_import() {
        let (graph, seeds, updates) = attack_world();
        // Export mid-stream at 8 shards, import into 2 (and 1), replay the
        // tail: alarms must match the uninterrupted run bit for bit.
        let mut whole = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(2));
        whole.seed_from_corpus(&seeds);
        let expected_tail = {
            let _head = whole.ingest(&updates[..1]);
            whole.ingest(&updates[1..]).alarms
        };
        let mut donor = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(8));
        donor.seed_from_corpus(&seeds);
        let _ = donor.ingest(&updates[..1]);
        let snapshot = donor.export_state();
        for shards in [1, 2] {
            let mut restored = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(shards));
            restored.import_state(&snapshot, donor.cursor());
            assert_eq!(restored.cursor(), 1);
            assert_eq!(restored.export_state(), snapshot, "canonical re-export");
            assert_eq!(restored.ingest(&updates[1..]).alarms, expected_tail);
        }
    }

    #[test]
    fn report_statistics_are_sane() {
        let (graph, seeds, updates) = attack_world();
        let report = run_feed(&graph, &seeds, &updates, &FeedConfig::new(2));
        assert!(report.records_per_sec().expect("nonzero wall") > 0.0);
        assert!(report.latency_us(50.0).is_some());
        assert!(report.latency_us(99.0) >= report.latency_us(50.0));
        assert!(report.shard_balance() >= 1.0);
        // The first record's prefix carries one record and the second's
        // two: a part each, or one part of three — never a part per shard.
        let (p1, p2) = (updates[0].prefix, updates[1].prefix);
        for shards in [1, 2, 8] {
            let report = run_feed(&graph, &seeds, &updates, &FeedConfig::new(shards));
            let parts = if shard_of(p1, shards) == shard_of(p2, shards) {
                (1, 3)
            } else {
                (2, 2)
            };
            let seen = (report.batches(), report.depth_high_water());
            assert_eq!(seen, parts, "shards = {shards}");
            assert_eq!(report.backpressure_waits(), 0);
        }
        let empty = run_feed(&graph, &seeds, &[], &FeedConfig::new(2));
        assert_eq!((empty.batches(), empty.depth_high_water()), (0, 0));
    }

    fn report_with(latencies_ns: Vec<u64>, records_in: u64, wall: Duration) -> FeedReport {
        FeedReport {
            records_in,
            alarms: Vec::new(),
            alarm_latencies_ns: latencies_ns,
            shards: Vec::new(),
            wall,
        }
    }

    #[test]
    fn zero_wall_throughput_is_none_not_idle() {
        // A wall clock that registered nothing must not report the run as
        // idle (the old behaviour returned 0.0 records/sec).
        let report = report_with(Vec::new(), 1000, Duration::ZERO);
        assert_eq!(report.records_per_sec(), None);
        let report = report_with(Vec::new(), 1000, Duration::from_millis(500));
        assert_eq!(report.records_per_sec(), Some(2000.0));
    }

    #[test]
    fn latency_percentiles_match_the_cdf_convention() {
        // [10,20,30,40] µs: nearest-rank (ceil) p50 is the 2nd sample, 20 —
        // not 30, which the old round-to-nearest-index convention returned.
        // The feed's percentiles must agree with Cdf::quantile on the same
        // data, the convention of every paper-figure CDF.
        let ns = vec![10_000u64, 20_000, 30_000, 40_000];
        let report = report_with(ns.clone(), 4, Duration::from_millis(1));
        let cdf = Cdf::from_samples(ns.iter().map(|&n| n as f64 / 1_000.0));
        for pct in [0.0, 25.0, 26.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            assert_eq!(
                report.latency_us(pct),
                Some(cdf.quantile(pct / 100.0)),
                "feed and Cdf disagree at p{pct}"
            );
        }
        assert_eq!(report.latency_us(50.0), Some(20.0));
        assert_eq!(report.latency_us(100.0), Some(40.0));
        assert_eq!(
            report_with(Vec::new(), 0, Duration::ZERO).latency_us(50.0),
            None
        );
    }

    #[test]
    fn duplicate_seqs_merge_shard_count_independently() {
        // Every record claims seq=7 (think per-monitor counters in an
        // externally recorded stream). The merge keys on dispatch order, so
        // 1/2/8 shards must still reproduce the serial oracle exactly.
        let (graph, seeds, mut updates) = attack_world();
        for u in &mut updates {
            u.seq = 7;
        }
        let mut serial = StreamingDetector::new(&graph);
        serial.seed_from_corpus(&seeds);
        let expected = serial.process_all(&updates);
        assert!(!expected.is_empty());
        for shards in [1, 2, 8] {
            let report = run_feed(&graph, &seeds, &updates, &FeedConfig::new(shards));
            assert_eq!(report.alarms, expected, "shards = {shards}");
        }
    }
}
