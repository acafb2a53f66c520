//! `aspp-perf` — the repo's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! aspp-perf [--seed N] [--quick]            every workload, end to end and traced
//! aspp-perf --workload W --seed N --seconds S --trace 0|1
//!                                           one workload, for the driver
//! aspp-perf --compare A.json B.json         the noise-aware gate
//! ```

mod catalog;
mod cli;
mod compare;
mod json;
mod layers;
mod report;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Sink;
use workloads::{Harness, Profile, ServeInputs, Stop};

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 2024,
        seconds: 20,
        trace: false,
        quick: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        let number = |flag: &str, text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {text:?}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !catalog::is_workload(&name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                options.workload = Some(name);
            }
            "--seed" => options.seed = number("--seed", value("--seed")?)?,
            "--seconds" => options.seconds = number("--seconds", value("--seconds")?)?.max(1),
            "--trace" => options.trace = number("--trace", value("--trace")?)? != 0,
            "--quick" => options.quick = true,
            "--compare" => options.compare = Some((value("--compare")?, value("--compare")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

/// The repo root: the working directory when it holds this crate (how the
/// driver and the README run it), else the parent of the crate's own
/// directory at build time.
fn repo_root() -> PathBuf {
    std::env::current_dir()
        .ok()
        .filter(|dir| {
            dir.join("benchmark/Cargo.toml").is_file() && dir.join("Cargo.toml").is_file()
        })
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .parent()
                .expect("the crate sits in a directory of the repo")
                .to_path_buf()
        })
}

/// One workload as the driver runs it: `seconds` of measurement, then one
/// JSON line with the end-to-end (`--trace 0`) or per-layer (`--trace 1`)
/// metrics.
fn run_one(h: &Harness, workload: &str, options: &Options) -> Result<Sink, String> {
    let window = Duration::from_secs(options.seconds);
    if !catalog::is_serve(workload) {
        let deadline = Instant::now() + window;
        if options.trace {
            let mut sink = Sink::default();
            traced::batch(h, workload, deadline, &mut sink);
            return Ok(sink);
        }
        let (_, sink) = workloads::run_batch(h, &[workload], &Stop::at(deadline, 3))
            .pop()
            .expect("one workload in, one sink out");
        return Ok(sink);
    }
    // Generating the inputs and their expected outputs is not measurement.
    let inputs = ServeInputs::prepare(h)?;
    if options.trace {
        let mut sink = Sink::default();
        traced::serve(h, &inputs, workload, Instant::now() + window, &mut sink);
        return Ok(sink);
    }
    let reference = layers::reference_alarms(&inputs.stream, workloads::REFERENCE_PASSES);
    let stop = Stop::at(Instant::now() + window, 3);
    let (sink, _) = workloads::run_serve(h, &inputs, workload, &reference, READY_SESSIONS, &stop);
    Ok(sink)
}

/// Extra spawn → ready sessions per serve workload, for `setup_s`.
const READY_SESSIONS: usize = 4;

/// Every workload end to end, then every workload traced; prints every
/// metric and writes the result file.
fn run_all(h: &Harness, options: &Options) -> Result<bool, String> {
    let (samples, passes, traced_seconds) = if options.quick {
        (2, 2, 1)
    } else {
        (15, 16, options.seconds)
    };
    let batch: Vec<&str> = catalog::WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !catalog::is_serve(name))
        .collect();
    let mut runs = workloads::run_batch(h, &batch, &Stop::rounds(samples));

    let inputs = ServeInputs::prepare(h)?;
    let reference = layers::reference_alarms(&inputs.stream, workloads::REFERENCE_PASSES);
    let mut sessions = Vec::new();
    for workload in ["serve-1shard", "serve-nshard"] {
        let stop = Stop::rounds(passes);
        let (sink, stats) =
            workloads::run_serve(h, &inputs, workload, &reference, READY_SESSIONS, &stop);
        sessions.push(stats.alarms_per_pass);
        runs.push((workload.to_string(), sink));
    }
    let (_, nshard) = runs.last_mut().expect("the serve runs were pushed");
    nshard.check(
        "serve-nshard per-pass alarm counts equal serve-1shard's",
        sessions[0] == sessions[1],
    );

    for (workload, sink) in &mut runs {
        println!("--- traced run: {workload}");
        let deadline = Instant::now() + Duration::from_secs(traced_seconds);
        let mut traced = Sink::default();
        if catalog::is_serve(workload) {
            traced::serve(h, &inputs, workload, deadline, &mut traced);
        } else {
            traced::batch(h, workload, deadline, &mut traced);
        }
        sink.absorb(traced);
    }

    println!("--- end-to-end metrics (tracing off)");
    for (workload, sink) in &runs {
        report::print_metrics(workload, sink, &catalog::END_TO_END);
        if catalog::is_serve(workload) {
            report::print_metrics(workload, sink, &catalog::SERVE_END_TO_END);
        }
    }
    println!("--- per-layer metrics (traced run)");
    for (workload, sink) in &runs {
        report::print_metrics(workload, sink, &catalog::PER_LAYER);
        report::print_outcome(workload, sink);
    }
    let conditions = report::conditions(&h.aspp.root, h.seed, options.quick);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let file = h.out.join(format!("result-seed{}-{stamp}.json", h.seed));
    std::fs::write(&file, report::result_document(&conditions, &runs))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    println!("--- conditions");
    for (key, value) in &conditions {
        println!("{key:<10} {value}");
    }
    println!("results: {}", file.display());
    println!("traces:  {}/trace-<workload>.jsonl", h.out.display());
    Ok(runs.iter().all(|(_, sink)| sink.correct()))
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_args(&args)?;
    if let Some((a, b)) = &options.compare {
        return compare::run(a, b).map(|worse| worse == 0);
    }
    let root = repo_root();
    let out = root.join("benchmark").join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let h = Harness {
        aspp: cli::build_aspp(&root)?,
        profile: if options.quick {
            Profile::QUICK
        } else {
            Profile::FULL
        },
        out,
        seed: options.seed,
    };
    let Some(workload) = &options.workload else {
        return run_all(&h, &options);
    };
    let sink = run_one(&h, workload, &options)?;
    let metrics: &[catalog::Metric] = if options.trace {
        &catalog::PER_LAYER
    } else {
        &catalog::END_TO_END
    };
    report::print_metrics(workload, &sink, metrics);
    if !options.trace && catalog::is_serve(workload) {
        report::print_metrics(workload, &sink, &catalog::SERVE_END_TO_END);
    }
    report::print_outcome(workload, &sink);
    println!("{}", report::result_line(&sink, metrics));
    Ok(sink.correct())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("aspp-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let o = parse_args(&args(&[
            "--workload",
            "serve-nshard",
            "--seed",
            "11",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("serve-nshard"));
        assert_eq!((o.seed, o.seconds, o.trace, o.quick), (11, 20, true, false));
        let o = parse_args(&args(&["--compare", "a.json", "b.json"])).unwrap();
        assert_eq!(o.compare, Some(("a.json".into(), "b.json".into())));
        let o = parse_args(&[]).unwrap();
        assert_eq!((o.workload, o.seed, o.trace), (None, 2024, false));
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--seed"])).is_err());
        assert!(parse_args(&args(&["--seed", "x"])).is_err());
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
    }
}
