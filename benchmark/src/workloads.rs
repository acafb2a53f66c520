//! The five workloads run end to end: the `aspp` CLI is spawned the way a
//! user spawns it, tracing off, one child at a time (closed loop, one
//! client), and its outputs are checked.

use std::path::PathBuf;
use std::time::Instant;

use crate::cli::{mask_timing, Aspp, Session};
use crate::json::{self, Value};
use crate::layers::{self, SplitMix, Stream, StreamFiles};
use crate::report::{nproc, Sink};
use crate::stats;

/// The sizes a run uses. `QUICK` proves the wiring at smoke scale; its
/// numbers compare with nothing.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    pub batch_scale: &'static str,
    pub serve_scale: &'static str,
    pub monitors: usize,
    pub chunk_records: usize,
}

impl Profile {
    pub const FULL: Profile = Profile {
        batch_scale: "internet",
        serve_scale: "paper",
        monitors: 60,
        chunk_records: 4096,
    };
    pub const QUICK: Profile = Profile {
        batch_scale: "smoke",
        serve_scale: "smoke",
        monitors: 20,
        chunk_records: 512,
    };
}

/// What every run needs: the built CLI, the sizes, where files go, the seed.
pub struct Harness {
    pub aspp: Aspp,
    pub profile: Profile,
    /// `benchmark/out/`.
    pub out: PathBuf,
    pub seed: u64,
}

/// When a sampling loop ends: after `min` rounds at the earliest, and then
/// at the deadline or after `max` rounds, whichever comes first.
#[derive(Clone, Copy, Debug)]
pub struct Stop {
    pub min: usize,
    pub max: usize,
    pub deadline: Option<Instant>,
}

impl Stop {
    pub fn rounds(n: usize) -> Stop {
        Stop {
            min: n,
            max: n,
            deadline: None,
        }
    }

    pub fn at(deadline: Instant, min: usize) -> Stop {
        Stop {
            min,
            max: usize::MAX,
            deadline: Some(deadline),
        }
    }

    fn go_on(&self, done: usize) -> bool {
        done < self.min || (done < self.max && self.deadline.is_none_or(|d| Instant::now() < d))
    }
}

/// The CLI arguments of a batch workload.
pub fn batch_args(workload: &str, scale: &str, seed: u64) -> Vec<String> {
    let command: &[&str] = match workload {
        "impact-internet" => &["impact"],
        "defense-internet" => &["defense", "--deploy", "top-degree"],
        "estimate-internet" => &["estimate"],
        "gen" => &["gen"],
        other => panic!("{other} is not a batch workload"),
    };
    let mut args: Vec<String> = command.iter().map(ToString::to_string).collect();
    args.extend([
        "--scale".into(),
        scale.into(),
        "--seed".into(),
        seed.to_string(),
    ]);
    args
}

/// Samples of one batch command: wall and peak RSS per run, and the masked
/// stdout every later run must reproduce byte for byte.
#[derive(Default)]
struct BatchSamples {
    wall_s: Vec<f64>,
    rss_mb: Vec<f64>,
    masked_stdout: Option<String>,
}

impl BatchSamples {
    /// Runs the command once; one attempted operation, failed on a non-zero
    /// exit, empty output, or output that differs from the first run's.
    fn take(
        &mut self,
        aspp: &Aspp,
        args: &[String],
        what: &str,
        sink: &mut Sink,
    ) -> Option<String> {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let run = match aspp.run(&args) {
            Ok(run) => run,
            Err(e) => {
                sink.error(format!("{what}: {e}"));
                return None;
            }
        };
        let masked = mask_timing(&run.stdout);
        let same = self.masked_stdout.get_or_insert_with(|| masked.clone()) == &masked;
        sink.check(
            &format!("{what}: exit 0 and stdout identical across samples"),
            run.success && same && !run.stdout.trim().is_empty(),
        );
        self.wall_s.push(run.wall_s);
        self.rss_mb.push(run.peak_rss_mb);
        Some(run.stdout)
    }
}

/// Runs batch workloads round-robin — each round runs every workload once
/// and then `aspp gen` once, so host drift is shared — and returns one sink
/// per workload with `wall_s`, `setup_s` and `peak_rss_mb`. `setup_s` is the
/// wall of `aspp gen`: the topology build every one-shot command pays
/// inside its own wall.
pub fn run_batch(h: &Harness, workloads: &[&str], stop: &Stop) -> Vec<(String, Sink)> {
    let (aspp, scale, seed) = (&h.aspp, h.profile.batch_scale, h.seed);
    let expected_gen = layers::expected_gen_line(scale, seed);
    let mut sinks: Vec<Sink> = workloads.iter().map(|_| Sink::default()).collect();
    let mut samples: Vec<BatchSamples> =
        workloads.iter().map(|_| BatchSamples::default()).collect();
    let mut gen = BatchSamples::default();
    let mut gen_sink = Sink::default();
    let mut rounds = 0;
    while stop.go_on(rounds) {
        for ((workload, sink), taken) in workloads.iter().zip(&mut sinks).zip(&mut samples) {
            taken.take(aspp, &batch_args(workload, scale, seed), workload, sink);
        }
        if let Some(stdout) = gen.take(aspp, &batch_args("gen", scale, seed), "gen", &mut gen_sink)
        {
            gen_sink.check(
                "gen: stdout names the graph the library builds from the seed",
                stdout.trim() == expected_gen,
            );
        }
        rounds += 1;
    }
    workloads
        .iter()
        .zip(sinks)
        .zip(samples)
        .map(|((workload, mut sink), taken)| {
            sink.put_samples("wall_s", &taken.wall_s, 1.0);
            sink.put_samples("peak_rss_mb", &taken.rss_mb, 1.0);
            sink.put_samples("setup_s", &gen.wall_s, 1.0);
            sink.count(gen_sink.attempted, gen_sink.failed);
            sink.failures.extend(gen_sink.failures.iter().cloned());
            (workload.to_string(), sink)
        })
        .collect()
}

/// Shards of a serve workload: 1, or min(nproc, 4) but at least 2.
pub fn shards_of(workload: &str) -> usize {
    if workload == "serve-1shard" {
        1
    } else {
        nproc().clamp(2, 4)
    }
}

/// The files a serve session reads and writes, under `benchmark/out/`.
pub struct ServeInputs {
    pub stream: Stream,
    pub files: StreamFiles,
    dir: PathBuf,
}

impl ServeInputs {
    /// Generates the stream from the seed and writes corpus and wire chunks.
    pub fn prepare(h: &Harness) -> Result<ServeInputs, String> {
        let stream = layers::build_stream(
            h.profile.serve_scale,
            h.seed,
            h.profile.monitors,
            h.profile.chunk_records,
        );
        let dir = h
            .out
            .join(format!("work-{}-{}", h.seed, std::process::id()));
        let io = |e: std::io::Error| format!("writing serve inputs under {}: {e}", dir.display());
        std::fs::create_dir_all(&dir).map_err(io)?;
        let mut files = StreamFiles {
            corpus: dir.join("corpus.txt"),
            chunks: Vec::new(),
            checkpoint: dir.join("state.ckpt"),
        };
        std::fs::write(&files.corpus, &stream.corpus_text).map_err(io)?;
        for (i, chunk) in stream.chunks.iter().enumerate() {
            let file = dir.join(format!("chunk-{i:03}.bin"));
            std::fs::write(&file, chunk).map_err(io)?;
            files.chunks.push(file);
        }
        Ok(ServeInputs { stream, files, dir })
    }
}

impl Drop for ServeInputs {
    fn drop(&mut self) {
        // ~17 MB per run; a failure to delete only leaves files behind.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one session measured.
#[derive(Default)]
pub struct SessionStats {
    pub ready_s: f64,
    pub warmup_s: f64,
    pub pass_s: Vec<f64>,
    pub ingest_s: Vec<f64>,
    pub checkpoint_s: Vec<f64>,
    pub query_s: Vec<f64>,
    pub status_s: Vec<f64>,
    /// Alarms per pass, warm-up first.
    pub alarms_per_pass: Vec<u64>,
    pub peak_rss_mb: f64,
}

pub fn serve_args(h: &Harness, inputs: &ServeInputs, shards: usize) -> Vec<String> {
    vec![
        "serve".into(),
        "--scale".into(),
        h.profile.serve_scale.into(),
        "--seed".into(),
        h.seed.to_string(),
        "--shards".into(),
        shards.to_string(),
        "--corpus".into(),
        inputs.files.corpus.display().to_string(),
    ]
}

fn start(aspp: &Aspp, args: &[String]) -> Result<Session, String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    aspp.serve(&args)
}

fn request(kind: &str, key: &str, value: &str) -> String {
    format!(
        "{{\"cmd\":{},{}:{}}}",
        json::quote(kind),
        json::quote(key),
        json::quote(value)
    )
}

const STATUS: &str = "{\"cmd\":\"status\"}";
const DRAIN: &str = "{\"cmd\":\"drain\"}";

fn field(reply: &Result<Value, String>, key: &str) -> Option<u64> {
    reply.as_ref().ok()?.get(key)?.as_u64()
}

/// Spawn → first `status` reply, `n` times: the set-up a session pays
/// (topology, corpus parse, seeding). Each session is drained at once.
pub fn ready_samples(aspp: &Aspp, args: &[String], n: usize, sink: &mut Sink) -> Vec<f64> {
    let mut samples = Vec::new();
    for _ in 0..n {
        let mut session = match start(aspp, args) {
            Ok(session) => session,
            Err(e) => {
                sink.error(e);
                continue;
            }
        };
        let (reply, _) = session.request(STATUS);
        if reply.is_ok() {
            samples.push(session.started.elapsed().as_secs_f64());
        }
        // A failed drain is in the session's tally, counted below.
        let _ = session.request(DRAIN);
        sink.count(session.attempted, session.failed);
        sink.check("ready-time session exits 0", session.finish());
    }
    samples
}

/// One resident session: `status` (ready), one untimed warm-up pass, then
/// timed passes until `stop` says so; a pass ingests every chunk, asks four
/// seeded `prefix` queries after each (three tracked, one untracked), then
/// takes a `status` and a `checkpoint`; finally `drain`. Checks that every
/// reply is `"ok":true`, that `cursor` and `drain.records_in` equal the
/// records sent, and that untracked prefixes have no monitors.
pub fn run_session(
    h: &Harness,
    inputs: &ServeInputs,
    args: &[String],
    stop: &Stop,
    sink: &mut Sink,
) -> Result<SessionStats, String> {
    let stream = &inputs.stream;
    let mut rng = SplitMix(h.seed ^ 0x5e55_1011);
    let mut stats = SessionStats::default();
    let mut session = start(&h.aspp, args)?;
    let (reply, _) = session.request(STATUS);
    stats.ready_s = session.started.elapsed().as_secs_f64();
    reply?;

    let checkpoint = request(
        "checkpoint",
        "file",
        &inputs.files.checkpoint.display().to_string(),
    );
    let mut sent = 0u64;
    let mut pass = 0;
    // Pass 0 is the warm-up; `stop` counts the timed passes after it.
    while pass == 0 || stop.go_on(pass - 1) {
        let timed = pass > 0;
        let started = Instant::now();
        let mut alarms = 0;
        for (file, &records) in inputs.files.chunks.iter().zip(&stream.chunk_records) {
            let ingest = request("ingest", "file", &file.display().to_string());
            let (reply, rtt) = session.request(&ingest);
            sent += records;
            sink.check(
                "ingest reply carries the chunk's record count and the cursor",
                field(&reply, "records") == Some(records) && field(&reply, "cursor") == Some(sent),
            );
            alarms += field(&reply, "alarms").unwrap_or(0);
            if timed {
                stats.ingest_s.push(rtt);
            }
            for q in 0..4 {
                let tracked = q < 3;
                let prefix = if tracked {
                    &stream.tracked[rng.below(stream.tracked.len())]
                } else {
                    &stream.untracked
                };
                let (reply, rtt) = session.request(&request("prefix", "prefix", prefix));
                if !tracked {
                    sink.check(
                        "an untracked prefix has no monitors",
                        field(&reply, "monitors") == Some(0),
                    );
                }
                if timed {
                    stats.query_s.push(rtt);
                }
            }
        }
        let (reply, rtt) = session.request(STATUS);
        sink.check(
            "status cursor equals records sent",
            field(&reply, "cursor") == Some(sent),
        );
        let (_, checkpoint_rtt) = session.request(&checkpoint);
        if timed {
            stats.status_s.push(rtt);
            stats.checkpoint_s.push(checkpoint_rtt);
            stats.pass_s.push(started.elapsed().as_secs_f64());
        } else {
            stats.warmup_s = started.elapsed().as_secs_f64();
        }
        stats.alarms_per_pass.push(alarms);
        pass += 1;
    }
    stats.peak_rss_mb = session.peak_rss_mb();
    let (reply, _) = session.request(DRAIN);
    sink.check(
        "drain reports every record sent and every alarm raised",
        field(&reply, "records_in") == Some(sent)
            && field(&reply, "cursor") == Some(sent)
            && field(&reply, "alarms") == Some(stats.alarms_per_pass.iter().sum()),
    );
    sink.count(session.attempted, session.failed);
    sink.check("the session exits 0", session.finish());
    Ok(stats)
}

/// Files the session's measurements under their metric names.
pub fn record_session(stats: &SessionStats, records_per_pass: u64, sink: &mut Sink) {
    let ingest_total: f64 = stats.ingest_s.iter().sum();
    if ingest_total > 0.0 {
        let timed_records = records_per_pass * stats.pass_s.len() as u64;
        sink.put("serve.ingest_rps", timed_records as f64 / ingest_total);
        sink.put_samples("serve.ingest_chunk_p50_ms", &stats.ingest_s, 1e3);
        sink.put(
            "serve.ingest_chunk_p95_ms",
            stats::percentile(&stats.ingest_s, 95.0) * 1e3,
        );
        let n = stats.ingest_s.len();
        if stats::highest_supported_percentile(n).is_none_or(|p| p < 95.0) {
            println!(
                "note: {n} ingest samples leave fewer than ten beyond p95; read it as a maximum"
            );
        }
    }
    sink.put_samples("serve.checkpoint_p50_ms", &stats.checkpoint_s, 1e3);
    sink.put_samples("feed.service_query_p50_us", &stats.query_s, 1e6);
    if !stats.query_s.is_empty() {
        sink.put(
            "feed.service_query_p99_us",
            stats::percentile(&stats.query_s, 99.0) * 1e6,
        );
    }
    sink.put_samples("feed.service_status_p50_us", &stats.status_s, 1e6);
}

/// Passes of the serial in-process reference a session's alarm counts are
/// checked against (the warm-up and the first timed pass).
pub const REFERENCE_PASSES: usize = 2;

/// A serve workload end to end: `ready` extra ready-time sessions, then the
/// measured session. `wall_s` is the median wall of a timed pass (the
/// session itself lasts as long as `stop` lets it), `setup_s` the median
/// spawn → first `status` reply. `reference` holds the alarms per pass of
/// `layers::reference_alarms` for the first passes.
pub fn run_serve(
    h: &Harness,
    inputs: &ServeInputs,
    workload: &str,
    reference: &[u64],
    ready: usize,
    stop: &Stop,
) -> (Sink, SessionStats) {
    let mut sink = Sink::default();
    let args = serve_args(h, inputs, shards_of(workload));
    let mut ready_s = ready_samples(&h.aspp, &args, ready, &mut sink);
    let stats = match run_session(h, inputs, &args, stop, &mut sink) {
        Ok(stats) => stats,
        Err(e) => {
            sink.error(format!("{workload}: {e}"));
            return (sink, SessionStats::default());
        }
    };
    ready_s.push(stats.ready_s);
    sink.check(
        "alarm counts of the first passes equal the serial in-process reference",
        stats.alarms_per_pass.len() >= reference.len()
            && stats.alarms_per_pass[..reference.len()] == *reference,
    );
    sink.put_samples("wall_s", &stats.pass_s, 1.0);
    sink.put_samples("setup_s", &ready_s, 1.0);
    sink.put("peak_rss_mb", stats.peak_rss_mb);
    record_session(&stats, inputs.stream.records(), &mut sink);
    (sink, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stop_honours_minimum_maximum_and_deadline() {
        let fixed = Stop::rounds(3);
        assert!(fixed.go_on(2) && !fixed.go_on(3));
        let past = Stop::at(Instant::now() - Duration::from_secs(1), 2);
        assert!(past.go_on(1), "the minimum runs even after the deadline");
        assert!(!past.go_on(2));
        let future = Stop::at(Instant::now() + Duration::from_secs(60), 1);
        assert!(future.go_on(1000));
    }

    #[test]
    fn batch_arguments_carry_scale_and_seed() {
        assert_eq!(
            batch_args("defense-internet", "internet", 7),
            [
                "defense",
                "--deploy",
                "top-degree",
                "--scale",
                "internet",
                "--seed",
                "7"
            ]
        );
        assert_eq!(batch_args("gen", "smoke", 1)[0], "gen");
    }

    #[test]
    fn requests_are_flat_json_lines() {
        let line = request("ingest", "file", "/a \"b\"/c.bin");
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("cmd").and_then(Value::as_str), Some("ingest"));
        assert_eq!(
            v.get("file").and_then(Value::as_str),
            Some("/a \"b\"/c.bin")
        );
        assert!(json::parse(STATUS).is_ok() && json::parse(DRAIN).is_ok());
    }
}
