//! The traced run of one workload: a few end-to-end samples for reference,
//! the workload's pipeline replayed in process under the tracer, and the
//! per-layer probes. Its spans are written to `out/trace-<workload>.jsonl`
//! when the run ends.

use std::path::Path;
use std::time::Instant;

use crate::cli::{result_lines, Aspp};
use crate::layers;
use crate::report::Sink;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Harness, ServeInputs, Stop};

/// Wall of `aspp help`: process start, argument parsing, exit.
fn spawn_probe(aspp: &Aspp, sink: &mut Sink) {
    let mut samples = Vec::new();
    for _ in 0..7 {
        match aspp.run(&["help"]) {
            Ok(run) => {
                sink.check("aspp help exits 0", run.success);
                samples.push(run.wall_s);
            }
            Err(e) => sink.error(e),
        }
    }
    sink.put_samples("cli.spawn_ms", &samples, 1e3);
}

fn write_trace(out: &Path, workload: &str, tracer: &Tracer, sink: &mut Sink) {
    let file = out.join(format!("trace-{workload}.jsonl"));
    if let Err(e) = std::fs::write(&file, tracer.to_jsonl(workload)) {
        sink.error(format!("writing {}: {e}", file.display()));
    }
}

/// Files what the trace says about the whole run: coverage of the
/// end-to-end wall by top-level spans, what the binary adds around them,
/// and the traced ÷ untraced in-process total.
fn trace_metrics(
    tracer: &Tracer,
    top_ms: f64,
    e2e_ms: f64,
    untraced_ms: f64,
    traced_ms: f64,
    sink: &mut Sink,
) {
    sink.put("trace.coverage", top_ms / e2e_ms);
    sink.put("cli.overhead_ms", e2e_ms - top_ms);
    sink.put("trace.overhead_ratio", traced_ms / untraced_ms);
    println!("self time by layer (ms):");
    for (layer, self_ms) in tracer.self_ms_by_layer() {
        println!("  {layer:<10} {self_ms:>12.3}");
    }
}

/// Traced run of a batch workload.
pub fn batch(h: &Harness, workload: &str, deadline: Instant, sink: &mut Sink) {
    let (aspp, scale, seed) = (&h.aspp, h.profile.batch_scale, h.seed);
    spawn_probe(aspp, sink);

    let args = workloads::batch_args(workload, scale, seed);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let replay = |t: &mut Tracer| match workload {
        "impact-internet" => layers::replay_impact(t, scale, seed),
        "defense-internet" => layers::replay_defense(t, scale, seed),
        "estimate-internet" => layers::replay_estimate(t, scale, seed),
        other => panic!("{other} is not a batch workload"),
    };
    // Rounds of: the command end to end (tracing off), the replay untraced,
    // the replay traced — in turn, so that a slow stretch of the host hits
    // all three. Two rounds at least, then until ROUND_SECONDS or five; the
    // medians are reported and the last trace is written out.
    let rounds = Instant::now();
    let (mut walls, mut untraced_ms, mut traced_ms, mut top_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut stages: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let mut tracer = Tracer::new(true);
    while traced_ms.len() < 2
        || (traced_ms.len() < 5 && rounds.elapsed().as_secs_f64() < ROUND_SECONDS)
    {
        let stdout = match aspp.run(&args) {
            Ok(run) => {
                sink.check("the command exits 0", run.success);
                walls.push(run.wall_s * 1e3);
                run.stdout
            }
            Err(e) => {
                sink.error(e);
                return;
            }
        };
        let started = Instant::now();
        replay(&mut Tracer::new(false));
        untraced_ms.push(started.elapsed().as_secs_f64() * 1e3);
        tracer = Tracer::new(true);
        let started = Instant::now();
        let text = replay(&mut tracer);
        traced_ms.push(started.elapsed().as_secs_f64() * 1e3);
        top_ms.push(tracer.top_level_ms());
        for (samples, (layer, name, _)) in stages.iter_mut().zip(STAGES) {
            samples.extend(tracer.durations_ms(layer, name));
        }
        sink.check(
            "the in-process replay renders what the CLI printed",
            result_lines(&text) == result_lines(&stdout),
        );
    }
    trace_metrics(
        &tracer,
        stats::median(&top_ms),
        stats::median(&walls),
        stats::median(&untraced_ms),
        stats::median(&traced_ms),
        sink,
    );
    for (samples, (_, _, metric)) in stages.iter().zip(STAGES) {
        sink.put_samples(metric, samples, 1.0);
    }
    write_trace(&h.out, workload, &tracer, sink);

    layers::internet_probes(scale, seed, deadline, sink);
}

/// How long a batch workload's rounds may go on repeating.
const ROUND_SECONDS: f64 = 9.0;

/// The replay spans that are per-layer metrics: (layer, span, metric).
const STAGES: [(&str, &str, &str); 9] = [
    ("attack", "defense_grid", "attack.defense_grid_ms"),
    ("scenario", "estimate", "scenario.estimate_ms"),
    ("core", "fig7", "core.fig7_ms"),
    ("core", "fig8", "core.fig8_ms"),
    ("core", "fig9", "core.fig9_ms"),
    ("core", "fig10", "core.fig10_ms"),
    ("core", "fig11", "core.fig11_ms"),
    ("core", "fig12", "core.fig12_ms"),
    ("core", "render", "core.render_ms"),
];

/// Timed passes of the traced run's end-to-end session.
const SESSION_PASSES: usize = 2;
/// In-process passes after the warm-up: one under the tracer, one without.
const REPLAY_PASSES: usize = 2;

/// Traced run of a serve workload.
pub fn serve(
    h: &Harness,
    inputs: &ServeInputs,
    workload: &str,
    deadline: Instant,
    sink: &mut Sink,
) {
    spawn_probe(&h.aspp, sink);
    let own_shards = workloads::shards_of(workload);
    let other_shards = if own_shards == 1 {
        workloads::shards_of("serve-nshard")
    } else {
        1
    };

    // End-to-end reference session, tracing off: the serve.* metrics and
    // the wall the spans are compared with.
    let args = workloads::serve_args(h, inputs, own_shards);
    let stop = Stop::rounds(SESSION_PASSES);
    let session = match workloads::run_session(h, inputs, &args, &stop, sink) {
        Ok(session) => session,
        Err(e) => {
            sink.error(format!("{workload}: {e}"));
            return;
        }
    };
    workloads::record_session(&session, inputs.stream.records(), sink);

    let replay = |tracer: &mut Tracer, shards: usize| {
        layers::replay_serve(
            tracer,
            &inputs.stream,
            &inputs.files,
            shards,
            REPLAY_PASSES,
            1,
        )
    };
    let mut tracer = Tracer::new(true);
    let (own, other) = match (
        replay(&mut tracer, own_shards),
        replay(&mut Tracer::new(false), other_shards),
    ) {
        (Ok(own), Ok(other)) => (own, other),
        (Err(e), _) | (_, Err(e)) => {
            sink.error(e);
            return;
        }
    };
    sink.check(
        "the session's alarm counts equal the in-process run's",
        session.alarms_per_pass[..=REPLAY_PASSES] == own.alarms_per_pass[..],
    );
    // Spans cover set-up, the warm-up pass and the one traced pass; the
    // session's matching stretch is ready + warm-up + its first timed pass.
    let e2e_ms = (session.ready_s + session.warmup_s + session.pass_s[0]) * 1e3;
    trace_metrics(
        &tracer,
        tracer.top_level_ms(),
        e2e_ms,
        stats::median(&own.untraced_pass_ms),
        stats::median(&own.pass_ms),
        sink,
    );
    sink.put_samples(
        "topology.generate_ms",
        &tracer.durations_ms("topology", "generate"),
        1.0,
    );
    write_trace(&h.out, workload, &tracer, sink);

    layers::serve_probes(&inputs.stream, &own, &other, own_shards, deadline, sink);
}
