//! Every call the harness makes into the crates lives in this file; the
//! pinned list of those calls is in `README.md`. It deliberately leaves out
//! `compute_full_*`, the `run_experiment*` family and the delta/memo/spill
//! counters, so the deletions ROADMAP.md plans need no edit here.
//!
//! Two kinds of function: `replay_*` run one workload's pipeline in process
//! under the tracer (a span at every call into a crate), and `*_probes`
//! time single public functions for the per-layer metrics.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aspp_core::attack::defense::{deployment_order, DeployStrategy};
use aspp_core::data::{Corpus, UpdateRecord};
use aspp_core::detect::realtime::StreamingDetector;
use aspp_core::experiments::defense::{run_with_runner as defense_grid, DefenseConfig};
use aspp_core::experiments::scenario::estimator_config;
use aspp_core::experiments::{impact, Scale};
use aspp_core::feed::{
    encode_records, scan_frames, Checkpoint, FeedConfig, FeedEngine, FeedReport, ReplayConfig,
};
use aspp_core::routing::{
    AttackerModel, BatchRunner, DeployedPolicy, DeploymentMap, DestinationSpec, PolicyKind,
    RouteWorkspace, RoutingEngine,
};
use aspp_core::scenario::estimate::{attacker_pool, estimate_with, victim_pool};
use aspp_core::topology::tier::TierMap;
use aspp_core::topology::AsGraph;
use aspp_core::types::Asn;

use crate::report::{nproc, Sink};
use crate::trace::Tracer;

fn scale_of(name: &str) -> Scale {
    match name {
        "smoke" => Scale::Smoke,
        "paper" => Scale::Paper,
        "internet" => Scale::Internet,
        other => panic!("the harness runs no workload at scale {other:?}"),
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// splitmix64: the harness's own seeded draws (vantages, queries, pairs).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Shares what is left of the traced run's time among the probes still to
/// run, so the run ends on time however slow the host is.
struct Budget {
    deadline: Instant,
    probes_left: u32,
}

impl Budget {
    fn new(deadline: Instant, probes: u32) -> Self {
        Budget {
            deadline,
            probes_left: probes,
        }
    }

    fn slice(&mut self) -> Duration {
        let left = self.deadline.saturating_duration_since(Instant::now());
        let slice = left / self.probes_left.max(1);
        self.probes_left = self.probes_left.saturating_sub(1);
        slice
    }
}

/// Samples a probe must take: three, or one once the run's time is used up
/// (a slow host must not stretch the run by the probes' minimum work).
fn floor(slice: Duration) -> usize {
    if slice.is_zero() {
        1
    } else {
        3
    }
}

/// Times `f`: a first call sizes a sample to at least 50 ms of calls (and,
/// when one call is that long already, is the first sample; otherwise it
/// only lets caches fill); then samples until `slice` is used, at least
/// `floor(slice)` and at most 25. Returns ms per call. Results are dropped
/// outside the timing.
fn sample<R>(slice: Duration, mut f: impl FnMut() -> R) -> Vec<f64> {
    let started = Instant::now();
    let first = black_box(f());
    let once = started.elapsed().as_secs_f64().max(1e-9);
    drop(first);
    let reps = ((0.05 / once).ceil() as usize).clamp(1, 10_000);
    let mut samples = Vec::new();
    if reps == 1 {
        samples.push(once * 1e3);
    }
    while samples.len() < floor(slice) || (started.elapsed() < slice && samples.len() < 25) {
        let mut kept = Vec::with_capacity(reps);
        let t = Instant::now();
        for _ in 0..reps {
            kept.push(black_box(f()));
        }
        samples.push(ms(t) / reps as f64);
        drop(kept);
    }
    samples
}

// ---------------------------------------------------------------------------
// Batch workloads: in-process replays of `aspp impact|defense|estimate|gen`.
// ---------------------------------------------------------------------------

/// What `aspp gen --scale <scale> --seed <seed>` must print.
pub fn expected_gen_line(scale: &str, seed: u64) -> String {
    let graph = scale_of(scale).internet(seed);
    format!(
        "generated {} ASes, {} links (scale {scale}, seed {seed}, fingerprint {:016x})",
        graph.len(),
        graph.link_count(),
        graph.fingerprint(),
    )
}

/// `aspp impact`: topology, Figs 7–12, rendering. Returns the text the CLI
/// prints.
pub fn replay_impact(t: &mut Tracer, scale: &str, seed: u64) -> String {
    let sc = scale_of(scale);
    let graph = t.span("topology", "generate", |_| sc.internet(seed));
    let f7 = t.span("core", "fig7", |_| impact::fig7(&graph, sc, seed));
    let f8 = t.span("core", "fig8", |_| impact::fig8(&graph, sc, seed));
    let f9 = t.span("core", "fig9", |_| impact::fig9(&graph));
    let f10 = t.span("core", "fig10", |_| impact::fig10(&graph));
    let f11 = t.span("core", "fig11", |_| impact::fig11(&graph));
    let f12 = t.span("core", "fig12", |_| impact::fig12(&graph));
    t.span("core", "render", |_| {
        [
            f7.render(),
            f8.render(),
            f9.render(),
            f10.render(),
            f11.render(),
            f12.render(),
        ]
        .join("\n")
    })
}

/// `aspp defense --deploy top-degree`: topology, the policied grid, rendering.
pub fn replay_defense(t: &mut Tracer, scale: &str, seed: u64) -> String {
    let sc = scale_of(scale);
    let graph = t.span("topology", "generate", |_| sc.internet(seed));
    let mut config = DefenseConfig::at_scale(sc, seed);
    config.strategies = vec![DeployStrategy::TopDegree];
    let study = t.span("attack", "defense_grid", |_| {
        defense_grid(&graph, &config, &BatchRunner::new())
    });
    t.span("core", "render", |_| study.render())
}

/// `aspp estimate`: topology, the Monte-Carlo estimator, rendering.
pub fn replay_estimate(t: &mut Tracer, scale: &str, seed: u64) -> String {
    let sc = scale_of(scale);
    let graph = t.span("topology", "generate", |_| sc.internet(seed));
    let estimate = t.span("scenario", "estimate", |_| {
        estimate_with(&graph, &estimator_config(sc, seed), &BatchRunner::new())
    });
    t.span("core", "render", |_| estimate.render())
}

fn strip(victim: Asn, attacker: Asn, lambda: usize) -> DestinationSpec {
    DestinationSpec::new(victim)
        .origin_padding(lambda)
        .attacker(AttackerModel::new(attacker))
}

/// Probes of the topology, routing and attack layers on the batch
/// workloads' graph; fills the `topology.*`, `routing.*` and
/// `attack.deployment_order_ms` metrics and runs the batch-equals-compute
/// check.
pub fn internet_probes(scale: &str, seed: u64, deadline: Instant, sink: &mut Sink) {
    let sc = scale_of(scale);
    // Twelve probes below draw a slice each.
    let mut budget = Budget::new(deadline, 12);

    // Topology build; each fresh graph also gives one CSR first-touch sample.
    let slice = budget.slice();
    let started = Instant::now();
    let (mut generate, mut first_touch) = (Vec::new(), Vec::new());
    let mut last = None;
    while generate.len() < floor(slice) || (started.elapsed() < slice && generate.len() < 25) {
        let t = Instant::now();
        let fresh = sc.internet(seed);
        generate.push(ms(t));
        let victim = fresh.asns().next().expect("the graph has nodes");
        let spec = DestinationSpec::new(victim).origin_padding(3);
        let engine = RoutingEngine::new(&fresh);
        let t = Instant::now();
        drop(black_box(engine.compute(&spec)));
        let first = ms(t);
        let t = Instant::now();
        drop(black_box(engine.compute(&spec)));
        first_touch.push(first - ms(t));
        last = Some(fresh);
    }
    let graph = last.expect("at least one graph was generated");
    sink.put_samples("topology.generate_ms", &generate, 1.0);
    sink.put_samples("routing.csr_first_touch_ms", &first_touch, 1.0);
    sink.put("topology.nodes", graph.len() as f64);
    sink.put("topology.links", graph.link_count() as f64);

    let classify = sample(budget.slice(), || TierMap::classify(&graph));
    sink.put_samples("topology.tier_classify_ms", &classify, 1.0);

    // Seeded picks: victims stratified by tier, a tier-1 pair, a stub.
    let tiers = TierMap::classify(&graph);
    let mut rng = SplitMix(seed);
    let mut by_tier: Vec<Vec<Asn>> = (1..=tiers.max_tier())
        .map(|t| {
            let mut members: Vec<Asn> = tiers.in_tier(t).collect();
            members.sort();
            members
        })
        .filter(|members| !members.is_empty())
        .collect();
    let mut victims = Vec::new();
    while victims.len() < 16 && !by_tier.is_empty() {
        let tier = victims.len() % by_tier.len();
        if by_tier[tier].is_empty() {
            by_tier.remove(tier);
            continue;
        }
        let pick = rng.below(by_tier[tier].len());
        victims.push(by_tier[tier].swap_remove(pick));
    }
    let mut tier1: Vec<Asn> = tiers.tier1().collect();
    tier1.sort();
    let (t1_victim, t1_attacker) = (tier1[0], tier1[1]);
    let mut stubs: Vec<Asn> = graph
        .asns()
        .filter(|&a| tiers.is_stub(&graph, a) && a != t1_victim)
        .collect();
    stubs.sort();
    let stub = stubs[rng.below(stubs.len())];

    let engine = RoutingEngine::new(&graph);
    let clean = sample(budget.slice(), || {
        let mut cold = RouteWorkspace::with_cache_capacity(0);
        for &v in &victims {
            let spec = DestinationSpec::new(v).origin_padding(3);
            black_box(engine.compute_with(&spec, &mut cold));
        }
    });
    sink.put_samples("routing.clean_pass_ms", &clean, 1.0 / victims.len() as f64);

    // Attacked passes, λ = 1..8, on a workspace that holds every clean pass.
    let lambdas = 8.0;
    let t1_specs: Vec<DestinationSpec> =
        (1..=8).map(|l| strip(t1_victim, t1_attacker, l)).collect();
    let stub_specs: Vec<DestinationSpec> = (1..=8).map(|l| strip(t1_victim, stub, l)).collect();
    let mut warm = RouteWorkspace::new();
    let mut sweep = |specs: &[DestinationSpec], slice: Duration| {
        sample(slice, || {
            for spec in specs {
                black_box(engine.compute_with(spec, &mut warm));
            }
        })
    };
    let t1 = sweep(&t1_specs, budget.slice());
    sink.put_samples("routing.attacked_pass_t1_ms", &t1, 1.0 / lambdas);
    let stub_pass = sweep(&stub_specs, budget.slice());
    sink.put_samples("routing.attacked_pass_stub_ms", &stub_pass, 1.0 / lambdas);
    let cold = sample(budget.slice(), || {
        for spec in &t1_specs {
            black_box(engine.compute(spec));
        }
    });
    sink.put_samples("routing.attacked_cold_ms", &cold, 1.0 / lambdas);

    let order = sample(budget.slice(), || {
        deployment_order(&graph, DeployStrategy::TopDegree, seed)
    });
    sink.put_samples("attack.deployment_order_ms", &order, 1.0);
    let adopters = deployment_order(&graph, DeployStrategy::TopDegree, seed);
    let aspa = DeployedPolicy::new(
        PolicyKind::Aspa,
        DeploymentMap::from_asns(&graph, adopters.iter().copied().take(graph.len() / 2)),
    );
    let policied = sample(budget.slice(), || {
        for spec in &t1_specs {
            black_box(engine.compute_with_policy(spec, &mut warm, &aspa));
        }
    });
    sink.put_samples("routing.policied_pass_ms", &policied, 1.0 / lambdas);

    let outcomes: Vec<_> = t1_specs
        .iter()
        .map(|spec| engine.compute_with(spec, &mut warm))
        .collect();
    let metrics = sample(budget.slice(), || {
        for o in &outcomes {
            black_box(o.baseline_fraction() + o.polluted_fraction());
        }
    });
    sink.put_samples("routing.impact_metrics_us", &metrics, 1e3 / lambdas);
    let population: Vec<Asn> = graph.asns().collect();
    let vantages: Vec<Asn> = (0..1000)
        .map(|_| population[rng.below(population.len())])
        .collect();
    let paths = sample(budget.slice(), || {
        for &v in &vantages {
            black_box(outcomes[2].observed_path(v));
        }
    });
    sink.put_samples(
        "routing.observed_path_us",
        &paths,
        1e3 / vantages.len() as f64,
    );

    // The batch runner over estimator-style cells (λ = 5 strip, compliant).
    let victim_pool = victim_pool(&graph, 8, seed);
    let attacker_pool = attacker_pool(&graph, 8, seed);
    let cells: Vec<DestinationSpec> = victim_pool
        .iter()
        .flat_map(|&v| attacker_pool.iter().map(move |&m| (v, m)))
        .filter(|(v, m)| v != m)
        .map(|(v, m)| strip(v, m, 5))
        .collect();
    let reduce = |_: usize, o: &aspp_core::routing::RoutingOutcome<'_>| {
        (o.polluted_count(), o.changed_count())
    };
    let mut batched = Vec::new();
    let mut run_batch = |workers: usize, slice: Duration| {
        sample(slice, || {
            batched = BatchRunner::new()
                .workers(workers)
                .run(&graph, &cells, reduce);
        })
    };
    let w1 = run_batch(1, budget.slice());
    let wn = run_batch(nproc(), budget.slice());
    let per_s = |samples: &[f64]| cells.len() as f64 / (crate::stats::median(samples) / 1e3);
    sink.put("routing.batch_cells", cells.len() as f64);
    sink.put("routing.batch_cells_per_s_w1", per_s(&w1));
    sink.put("routing.batch_cells_per_s_wn", per_s(&wn));
    sink.put("routing.batch_scaling", per_s(&wn) / per_s(&w1));
    let agree = cells
        .iter()
        .zip(&batched)
        .take(16)
        .all(|(spec, got)| reduce(0, &engine.compute(spec)) == *got);
    sink.check(
        "BatchRunner results equal per-spec compute on 16 cells",
        agree && batched.len() == cells.len(),
    );
}

// ---------------------------------------------------------------------------
// Serve workloads: the synthesised stream, the in-process engine, the probes.
// ---------------------------------------------------------------------------

/// The generated inputs of a serve session: RIB-seed corpus, the update
/// stream cut into wire chunks, and the prefixes the queries draw from.
pub struct Stream {
    scale: Scale,
    seed: u64,
    graph: Arc<AsGraph>,
    corpus: Corpus,
    pub corpus_text: String,
    pub chunks: Vec<Vec<u8>>,
    pub chunk_records: Vec<u64>,
    /// Every prefix the seeds track, as the text a `prefix` query carries.
    pub tracked: Vec<String>,
    /// A prefix no monitor announces.
    pub untracked: String,
    pub generate_ms: f64,
}

impl Stream {
    pub fn records(&self) -> u64 {
        self.chunk_records.iter().sum()
    }

    fn updates(&self) -> &[UpdateRecord] {
        self.corpus.updates()
    }
}

/// Synthesises the stream of one serve workload from the seed: every AS
/// originates one prefix, `monitors` monitors observe it, and the updates
/// are cut into wire chunks of `chunk` records.
pub fn build_stream(scale: &str, seed: u64, monitors: usize, chunk: usize) -> Stream {
    let sc = scale_of(scale);
    let graph = sc.internet(seed);
    let t = Instant::now();
    let feed = ReplayConfig::new(graph.len())
        .monitors_top_degree(monitors)
        .seed(seed)
        .generate(&graph);
    let generate_ms = ms(t);
    let corpus = feed.corpus;
    let mut tracked: Vec<_> = corpus
        .tables()
        .flat_map(|(_, table)| table.iter().map(|(prefix, _)| prefix))
        .collect();
    tracked.sort();
    tracked.dedup();
    let tracked: Vec<String> = tracked.iter().map(ToString::to_string).collect();
    let untracked = "203.0.113.0/24".to_string();
    assert!(
        !tracked.contains(&untracked),
        "the untracked prefix is tracked"
    );
    let chunks: Vec<Vec<u8>> = corpus.updates().chunks(chunk).map(encode_records).collect();
    let chunk_records = corpus
        .updates()
        .chunks(chunk)
        .map(|c| c.len() as u64)
        .collect();
    Stream {
        scale: sc,
        seed,
        graph: Arc::new(graph),
        corpus_text: corpus.to_text(),
        corpus,
        chunks,
        chunk_records,
        tracked,
        untracked,
        generate_ms,
    }
}

/// Alarms per pass when one serial shard ingests the stream `passes` times
/// — the reference a session's alarm counts are checked against.
pub fn reference_alarms(stream: &Stream, passes: usize) -> Vec<u64> {
    let mut engine = FeedEngine::new(Arc::clone(&stream.graph), &FeedConfig::new(1));
    engine.seed_from_corpus(&stream.corpus);
    (0..passes)
        .map(|_| {
            stream
                .chunks
                .iter()
                .map(|chunk| {
                    let report = engine.ingest_wire(chunk).expect("generated chunks decode");
                    report.alarms.len() as u64
                })
                .sum()
        })
        .collect()
}

/// Where a stream was written for `aspp serve` to read, and where the
/// session's checkpoints go.
pub struct StreamFiles {
    pub corpus: PathBuf,
    pub chunks: Vec<PathBuf>,
    pub checkpoint: PathBuf,
}

/// One in-process run of the serve pipeline.
pub struct EngineRun {
    pub alarms_per_pass: Vec<u64>,
    /// `ingest_wire` time per chunk in ms, timed passes only.
    pub chunk_ms: Vec<f64>,
    /// Wall per timed pass in ms (reads, ingests, checkpoint).
    pub pass_ms: Vec<f64>,
    /// The same for the passes that ran with the tracer paused.
    pub untraced_pass_ms: Vec<f64>,
    pub batches: u64,
    pub backpressure_waits: u64,
    pub depth_high_water: u64,
    pub shard_balance: f64,
    engine: FeedEngine,
}

/// What `aspp serve` does between spawn and drain, in process: build the
/// topology, read and parse the corpus, seed, then one warm-up pass and
/// `passes` timed ones, each reading every chunk file, ingesting it, and
/// writing one checkpoint. The last `untraced` passes run with the tracer
/// paused, which is what the tracing overhead is read against.
pub fn replay_serve(
    t: &mut Tracer,
    stream: &Stream,
    files: &StreamFiles,
    shards: usize,
    passes: usize,
    untraced: usize,
) -> Result<EngineRun, String> {
    let io = |e: std::io::Error| format!("serve replay I/O: {e}");
    let graph = t.span("topology", "generate", |_| {
        stream.scale.internet(stream.seed)
    });
    let text = t
        .span("cli", "read_corpus", |_| {
            std::fs::read_to_string(&files.corpus)
        })
        .map_err(io)?;
    let seeds = t
        .span("data", "corpus_parse", |_| Corpus::parse_strict(&text))
        .map_err(|e| e.to_string())?;
    let mut engine = FeedEngine::new(Arc::new(graph), &FeedConfig::new(shards));
    t.span("feed", "seed", |_| engine.seed_from_corpus(&seeds));

    let mut run = EngineRun {
        alarms_per_pass: Vec::new(),
        chunk_ms: Vec::new(),
        pass_ms: Vec::new(),
        untraced_pass_ms: Vec::new(),
        batches: 0,
        backpressure_waits: 0,
        depth_high_water: 0,
        shard_balance: 1.0,
        engine,
    };
    for pass in 0..=passes {
        let timed = pass > 0;
        let paused = pass > passes - untraced.min(passes);
        t.pause(paused);
        let started = Instant::now();
        let alarms = t.span("feed", "pass", |t| -> Result<u64, String> {
            let mut alarms = 0;
            for file in &files.chunks {
                let bytes = t
                    .span("cli", "read_chunk", |_| std::fs::read(file))
                    .map_err(io)?;
                let at = Instant::now();
                let report: FeedReport = t
                    .span("feed", "ingest_wire", |_| run.engine.ingest_wire(&bytes))
                    .map_err(|e| e.to_string())?;
                if timed {
                    run.chunk_ms.push(ms(at));
                    run.batches += report.batches();
                    run.backpressure_waits += report.backpressure_waits();
                    run.depth_high_water = run.depth_high_water.max(report.depth_high_water());
                    run.shard_balance = run.shard_balance.min(report.shard_balance());
                }
                alarms += report.alarms.len() as u64;
            }
            t.span("feed", "checkpoint", |t| {
                let snapshot = t.span("feed", "checkpoint_capture", |_| {
                    Checkpoint::capture(&run.engine)
                });
                let bytes = t.span("feed", "checkpoint_encode", |_| snapshot.encode());
                t.span("cli", "write_checkpoint", |_| {
                    std::fs::write(&files.checkpoint, &bytes)
                })
            })
            .map_err(io)?;
            Ok(alarms)
        })?;
        if paused {
            run.untraced_pass_ms.push(ms(started));
        } else if timed {
            run.pass_ms.push(ms(started));
        }
        run.alarms_per_pass.push(alarms);
    }
    t.pause(false);
    Ok(run)
}

/// Probes of the data, feed and detect layers on the session's own stream;
/// `own` and `other` are the in-process runs at the workload's shard count
/// and at the other one (`own_shards` says which is which).
pub fn serve_probes(
    stream: &Stream,
    own: &EngineRun,
    other: &EngineRun,
    own_shards: usize,
    deadline: Instant,
    sink: &mut Sink,
) {
    // Eleven probes below draw a slice each.
    let mut budget = Budget::new(deadline, 11);
    let records = stream.records() as f64;
    let (one, many) = if own_shards == 1 {
        (own, other)
    } else {
        (other, own)
    };
    let rps = |run: &EngineRun| {
        let chunk_s: f64 = run.chunk_ms.iter().sum::<f64>() / 1e3;
        records * (run.pass_ms.len() + run.untraced_pass_ms.len()) as f64 / chunk_s
    };
    sink.put("feed.ingest_rps_1shard", rps(one));
    sink.put("feed.ingest_rps_nshard", rps(many));
    sink.put("feed.shard_scaling", rps(many) / rps(one));
    let chunks = many.chunk_ms.len().max(1) as f64;
    sink.put("feed.batches_per_chunk", many.batches as f64 / chunks);
    sink.put("feed.backpressure_waits", many.backpressure_waits as f64);
    sink.put("feed.depth_high_water", many.depth_high_water as f64);
    sink.put("feed.shard_balance", many.shard_balance);
    sink.check(
        "n-shard alarm counts equal 1-shard's on every pass",
        one.alarms_per_pass == many.alarms_per_pass,
    );

    // Set-up stages of the session.
    sink.put("data.corpus_bytes", stream.corpus_text.len() as f64);
    let parse = sample(budget.slice(), || Corpus::parse_strict(&stream.corpus_text));
    sink.put_samples("data.corpus_parse_ms", &parse, 1.0);
    let parsed = Corpus::parse_strict(&stream.corpus_text);
    sink.check(
        "the corpus text parses back to the generated corpus",
        parsed.is_ok_and(|corpus| corpus == stream.corpus),
    );
    // Construction is timed too; an unseeded engine is empty, so its share
    // is negligible.
    let seeding = sample(budget.slice(), || {
        let mut engine = FeedEngine::new(Arc::clone(&stream.graph), &FeedConfig::new(own_shards));
        engine.seed_from_corpus(&stream.corpus);
        engine
    });
    sink.put_samples("feed.seed_ms", &seeding, 1.0);
    sink.put("feed.replay_generate_ms", stream.generate_ms);

    // Codec: the whole pass as one wire buffer.
    let updates = stream.updates();
    let encode = sample(budget.slice(), || encode_records(updates));
    let wire = encode_records(updates);
    let mb = wire.len() as f64 / 1e6;
    let mbps = |samples: &[f64]| mb / (crate::stats::median(samples) / 1e3);
    sink.put("feed.codec_encode_mbps", mbps(&encode));
    let scan = sample(budget.slice(), || scan_frames(&wire).map(|v| v.len()));
    sink.put("feed.codec_scan_mbps", mbps(&scan));
    let views = scan_frames(&wire).expect("the encoded stream scans");
    let mut decoded = Vec::new();
    let decode = sample(budget.slice(), || {
        decoded = views
            .iter()
            .enumerate()
            .map(|(i, view)| view.decode(i + 1))
            .collect::<Result<Vec<_>, _>>()
            .expect("the encoded stream decodes");
    });
    sink.put(
        "feed.codec_decode_rps",
        records / (crate::stats::median(&decode) / 1e3),
    );
    sink.check("decode(encode(stream)) == stream", decoded == updates);

    // Detection alone: one serial detector continuing from the state the
    // in-process run ended in (so no warm-up pass), whole passes timed.
    let mut detector = StreamingDetector::shared(Arc::clone(&stream.graph));
    detector.import_state(&own.engine.export_state());
    let mut alarms = 0usize;
    let slice = budget.slice();
    let started = Instant::now();
    let mut detect = Vec::new();
    while detect.len() < floor(slice).min(2) || (started.elapsed() < slice && detect.len() < 25) {
        let t = Instant::now();
        alarms = updates.iter().map(|u| detector.process(u).len()).sum();
        detect.push(ms(t));
    }
    let detect_ms = crate::stats::median(&detect);
    sink.put("detect.process_rps", records / (detect_ms / 1e3));
    sink.put("detect.alarms_per_pass", alarms as f64);
    sink.put("detect.alarm_ratio", alarms as f64 / records);
    let export = sample(budget.slice(), || detector.export_state());
    sink.put_samples("detect.state_export_ms", &export, 1.0);

    // What the pool adds on top of scan + decode + detect, per chunk.
    let serial_ms = crate::stats::median(&scan) + crate::stats::median(&decode) + detect_ms;
    let own_passes = (own.pass_ms.len() + own.untraced_pass_ms.len()).max(1);
    let own_pass_ms: f64 = own.chunk_ms.iter().sum::<f64>() / own_passes as f64;
    sink.put(
        "feed.pipeline_self_ms_per_chunk",
        (own_pass_ms - serial_ms) / stream.chunks.len().max(1) as f64,
    );

    // Checkpoint write side and restart side, on the run's final state.
    let capture = sample(budget.slice(), || Checkpoint::capture(&own.engine));
    sink.put_samples("feed.checkpoint_capture_ms", &capture, 1.0);
    let snapshot = Checkpoint::capture(&own.engine);
    let encode = sample(budget.slice(), || snapshot.encode());
    sink.put_samples("feed.checkpoint_encode_ms", &encode, 1.0);
    let bytes = snapshot.encode();
    sink.put("feed.checkpoint_bytes", bytes.len() as f64);
    let decode = sample(budget.slice(), || Checkpoint::decode(&bytes));
    sink.put_samples("feed.checkpoint_decode_ms", &decode, 1.0);
    let mut restored = FeedEngine::new(Arc::clone(&stream.graph), &FeedConfig::new(own_shards));
    let restore = sample(budget.slice(), || snapshot.restore_into(&mut restored));
    sink.put_samples("feed.checkpoint_restore_ms", &restore, 1.0);
    sink.check(
        "checkpoint decode + restore reproduces export_state and cursor",
        Checkpoint::decode(&bytes).is_ok_and(|decoded| decoded == snapshot)
            && restored.export_state() == own.engine.export_state()
            && restored.cursor() == own.engine.cursor(),
    );
}
