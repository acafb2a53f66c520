//! `aspp` — command-line front end for the ASPP interception study.
//!
//! Every subcommand is one row of [`COMMANDS`]: its name, what the shared
//! prologue sets up for it, the flags it accepts and the function that runs
//! it. The parser and the `aspp help` text are both generated from that
//! table, so a flag a subcommand does not declare is rejected by name.
//!
//! Every subcommand additionally understands the observability flags
//! (see the Observability section of `README.md`):
//!
//! ```text
//! --trace-json PATH    write engine/experiment spans as JSON lines to PATH
//! --metrics table|json print an engine-counter snapshot to stderr on exit
//! --manifest PATH      write a run-provenance manifest (JSON) to PATH
//! ```

use std::process::ExitCode;
use std::time::Instant;

/// Prints a line to stdout, ignoring broken-pipe errors so that
/// `aspp … | head` exits cleanly instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

use aspp_core::attack::mitigation;
use aspp_core::data::measure;
use aspp_core::experiments::{case_study, detection, extensions, impact, usage, Scale};
use aspp_core::obs::trace;
use aspp_core::prelude::*;
use aspp_core::report::pct;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fail = |message: String| {
        eprintln!("error: {message}");
        ExitCode::FAILURE
    };
    let command = match args.first().map(String::as_str) {
        None => {
            eprintln!("{}", usage_text());
            return ExitCode::FAILURE;
        }
        Some("help" | "--help" | "-h") => {
            out!("{}", usage_text());
            return ExitCode::SUCCESS;
        }
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            Some(command) => command,
            None => return fail(format!("unknown command {name:?}\n{}", usage_text())),
        },
    };
    let mut manifest = RunManifest::new(&format!("aspp {}", command.name));
    let mut run = match Run::parse(command, &args[1..], &mut manifest) {
        Ok(run) => run,
        Err(message) => return fail(message),
    };
    let metrics = run.value("--metrics").map(String::from);
    if let Some(other) = metrics.as_deref().filter(|&f| f != "table" && f != "json") {
        return fail(format!("unknown metrics format {other:?}"));
    }
    let manifest_path = run.value("--manifest").map(String::from);
    if let Some(path) = run.value("--trace-json") {
        if let Err(e) = trace::init_json_file(path) {
            return fail(format!("opening trace file {path}: {e}"));
        }
    }

    let counters_before = MetricsSnapshot::capture();
    let started = Instant::now();
    let result = (command.run)(&mut run);

    let delta = MetricsSnapshot::capture().since(&counters_before);
    manifest.metrics = delta;
    manifest.total_wall_ms = ms(started);
    if let Some(path) = &manifest_path {
        if let Err(e) = manifest.write(path) {
            return fail(format!("writing manifest {path}: {e}"));
        }
    }
    match metrics.as_deref() {
        Some("json") => eprintln!("{}", delta.to_json()),
        Some(_) => eprintln!("{delta}"),
        None => {}
    }
    trace::flush();

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => fail(message),
    }
}

/// A flag a subcommand accepts: `(name, value placeholder)`; an empty
/// placeholder makes it a bare switch.
type Flag = (&'static str, &'static str);

/// Splits a flag table like `"--pairs N --violate --out FILE"` into its
/// flags.
fn flags_of(table: &'static str) -> impl Iterator<Item = Flag> {
    let mut words = table.split_whitespace().peekable();
    std::iter::from_fn(move || {
        let name = words.next()?;
        Some((name, words.next_if(|w| !w.starts_with("--")).unwrap_or("")))
    })
}

/// What the shared prologue reads and records before a subcommand runs.
#[derive(Clone, Copy, PartialEq)]
enum Setup {
    /// Nothing: the subcommand reads its own inputs.
    Bare,
    /// `--seed` (default 2024), recorded in the manifest.
    Seeded,
    /// `--seed` plus `--scale` / `--paper` (default smoke), both recorded;
    /// [`Run::internet`] builds the synthetic Internet they name.
    Scaled,
}

impl Setup {
    fn flags(self) -> &'static str {
        match self {
            Setup::Bare => "",
            Setup::Seeded => "--seed N",
            Setup::Scaled => "--scale S --paper --seed N",
        }
    }
}

/// One `aspp` subcommand: a row of the table the parser and `aspp help`
/// are both generated from.
struct Command {
    name: &'static str,
    setup: Setup,
    /// Flags beyond the ones `setup` implies (see [`flags_of`]).
    flags: &'static str,
    /// Placeholder of the positional argument, if the subcommand takes one.
    positional: Option<&'static str>,
    /// What `aspp help` says under the generated synopsis.
    note: &'static str,
    run: fn(&mut Run) -> Result<(), String>,
}

/// The observability flags every subcommand accepts; they stay out of the
/// manifest's argument record.
const GLOBAL: &str = "--trace-json PATH --metrics table|json --manifest PATH";

impl Command {
    fn flags(&self) -> impl Iterator<Item = Flag> {
        flags_of(self.setup.flags()).chain(flags_of(self.flags))
    }
}

const BASE: Command = Command {
    name: "",
    setup: Setup::Scaled,
    flags: "",
    positional: None,
    note: "",
    run: cmd_usage,
};

/// Every subcommand, in `aspp help` order.
const COMMANDS: &[Command] = &[
    Command {
        name: "case-study",
        setup: Setup::Seeded,
        note: "reproduce §III / Figure 1 / Table I",
        run: cmd_case_study,
        ..BASE
    },
    Command {
        name: "usage",
        note: "Figures 5–6 corpus measurement",
        run: cmd_usage,
        ..BASE
    },
    Command {
        name: "impact",
        flags: "--figure 7|8|9|10|11|12|all",
        run: cmd_impact,
        ..BASE
    },
    Command {
        name: "detection",
        note: "Figures 13–14",
        run: cmd_detection,
        ..BASE
    },
    Command {
        name: "selection",
        note: "vantage-point selection study",
        run: cmd_selection,
        ..BASE
    },
    Command {
        name: "stealth",
        setup: Setup::Seeded,
        note: "MOAS / link-anomaly / ASPP visibility",
        run: cmd_stealth,
        ..BASE
    },
    Command {
        name: "mitigate",
        note: "reactive mitigations",
        run: cmd_mitigate,
        ..BASE
    },
    Command {
        name: "simulate",
        flags: "--victim ASN --attacker ASN --padding N --keep N --violate \
                --strategy strip|strip-all|forge|origin|poison --poison ASN",
        note: "--victim and --attacker are required",
        run: cmd_simulate,
        ..BASE
    },
    Command {
        name: "corpus",
        setup: Setup::Seeded,
        flags: "--out FILE --prefixes N --monitors N",
        note: "--out is required",
        run: cmd_corpus,
        ..BASE
    },
    Command {
        name: "measure",
        setup: Setup::Bare,
        positional: Some("FILE"),
        note: "measure an existing corpus file",
        run: cmd_measure,
        ..BASE
    },
    Command {
        name: "audit",
        setup: Setup::Bare,
        flags: "--topology FILE --corpus FILE --lenient",
        note: "strictly (--lenient: leniently) ingest a CAIDA topology or a corpus file",
        run: cmd_audit,
        ..BASE
    },
    Command {
        name: "feed",
        flags: "--shards N --prefixes N --monitors N --attack-ratio F \
                --withdraw-ratio F --baseline --out FILE --corpus-out FILE --in FILE \
                --corpus FILE --lenient",
        note: "--in replays a wire file and requires --corpus (the RIB seeds)",
        run: cmd_feed,
        ..BASE
    },
    Command {
        name: "serve",
        flags: "--shards N --corpus FILE --restore FILE --checkpoint FILE \
                --checkpoint-every N",
        note: "JSONL queries on stdin/stdout",
        run: cmd_serve,
        ..BASE
    },
    Command {
        name: "sweep",
        flags: "--pairs N --lambda-max N --workers N",
        run: cmd_sweep,
        ..BASE
    },
    Command {
        name: "defense",
        flags: "--pairs N --lambda N --policy rov,aspa,peerlock,first-as|all \
                --deploy random,by-tier,top-degree|all --fractions F,F,.. --workers N \
                --out FILE",
        run: cmd_defense,
        ..BASE
    },
    Command {
        name: "scenario",
        flags: "--workers N --out FILE",
        note: "scripted multi-actor timeline (strip, λ escalation, subprefix hijack, \
               path poisoning, MOAS) with per-step equilibria, LPM capture, alarms, and churn",
        run: cmd_scenario,
        ..BASE
    },
    Command {
        name: "estimate",
        flags: "--samples N --resamples N --exact --workers N --out FILE",
        note: "seeded Monte-Carlo impact estimator with bootstrap CIs \
               (--exact cross-validates against full enumeration)",
        run: cmd_estimate,
        ..BASE
    },
    Command {
        name: "gen",
        flags: "--out FILE",
        note: "synthesize a topology (CAIDA serial-2 with --out)",
        run: cmd_gen,
        ..BASE
    },
];

/// The scale names `--scale` accepts, and the manifest's label for each.
const SCALES: [(&str, Scale); 3] = [
    ("smoke", Scale::Smoke),
    ("paper", Scale::Paper),
    ("internet", Scale::Internet),
];

/// The `aspp help` text, generated from [`COMMANDS`].
fn usage_text() -> String {
    // Appends `words` to `text` after `lead`, wrapped at 79 columns.
    fn wrap(text: &mut String, lead: String, words: impl Iterator<Item = String>) {
        let mut line = lead;
        for word in words {
            if line.chars().count() + 1 + word.chars().count() > 79 {
                text.push_str(&line);
                text.push('\n');
                line = " ".repeat(17);
            }
            line.push(' ');
            line.push_str(&word);
        }
        text.push_str(&line);
        text.push('\n');
    }
    let mut text = String::from(
        "aspp — ASPP-based BGP prefix interception: simulation, measurement, detection\n\nUSAGE:\n",
    );
    for command in COMMANDS {
        let flags = command.flags().map(|(name, meta)| match meta {
            "" => format!("[{name}]"),
            meta => format!("[{name} {meta}]"),
        });
        wrap(
            &mut text,
            format!("  aspp {:<10}", command.name),
            flags.chain(command.positional.map(String::from)),
        );
        if !command.note.is_empty() {
            let words = command.note.split_whitespace().map(String::from);
            wrap(&mut text, " ".repeat(17), words);
        }
    }
    let scaled: Vec<&str> = COMMANDS
        .iter()
        .filter(|c| c.setup == Setup::Scaled)
        .map(|c| c.name)
        .collect();
    text.push_str(&format!(
        "\nSCALES ({}):\n  --scale {}   (~150 / ~1.5k / ~80k ASes;\n  \
         --paper is shorthand for --scale paper)\n\n\
         OBSERVABILITY (every subcommand; see README.md):\n  \
         --trace-json PATH     write span timings as JSON lines to PATH\n  \
         --metrics table|json  print an engine-counter snapshot to stderr\n  \
         --manifest PATH       write a run-provenance manifest (JSON) to PATH",
        scaled.join("/"),
        SCALES.map(|(n, _)| n).join("|"),
    ));
    text
}

/// One parsed invocation: the flags given (every one declared by the
/// subcommand), the prologue's scale and seed, and the run's manifest.
struct Run<'a> {
    command: &'static Command,
    given: Vec<(&'static str, &'a str)>,
    positional: Option<&'a str>,
    scale: Scale,
    seed: u64,
    manifest: &'a mut RunManifest,
}

impl<'a> Run<'a> {
    /// Parses `args` against `command`'s flag table — an undeclared flag, a
    /// value flag without its value, or a stray argument is an error naming
    /// it — then runs the shared prologue the command's [`Setup`] asks for.
    fn parse(
        command: &'static Command,
        args: &'a [String],
        manifest: &'a mut RunManifest,
    ) -> Result<Self, String> {
        let mut run = Run {
            command,
            given: Vec::new(),
            positional: None,
            scale: Scale::Smoke,
            seed: 2024,
            manifest,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let global = flags_of(GLOBAL).find(|(name, _)| name == arg);
            let mut recorded = vec![arg.clone()];
            if let Some((name, meta)) = global.or_else(|| run.flag(arg)) {
                let value = match meta {
                    "" => "",
                    _ => {
                        let value = it.next().ok_or(format!("{name} requires a value"))?;
                        recorded.push(value.clone());
                        value
                    }
                };
                run.given.push((name, value));
            } else if !arg.starts_with("--")
                && command.positional.is_some()
                && run.positional.is_none()
            {
                run.positional = Some(arg);
            } else {
                return Err(format!(
                    "unknown argument {arg:?} for `aspp {}`",
                    command.name
                ));
            }
            if global.is_none() {
                run.manifest.args.extend(recorded);
            }
        }
        if command.setup != Setup::Bare {
            run.seed = run.parsed("--seed")?.unwrap_or(run.seed);
            run.manifest.seed = Some(run.seed);
        }
        if command.setup == Setup::Scaled {
            let name = match run.value("--scale") {
                Some(name) => name,
                None if run.has("--paper") => "paper",
                None => "smoke",
            };
            let &(label, scale) = SCALES.iter().find(|(n, _)| *n == name).ok_or(format!(
                "unknown scale {name:?} (expected {})",
                SCALES.map(|(n, _)| n).join(", ")
            ))?;
            run.scale = scale;
            run.manifest.scale = Some(label.to_string());
        }
        Ok(run)
    }

    /// The flag `name` as this run's subcommand declares it.
    fn flag(&self, name: &str) -> Option<Flag> {
        self.command.flags().find(|(n, _)| *n == name)
    }

    /// The value given for `name` (`""` for a switch), first occurrence.
    fn value(&self, name: &str) -> Option<&'a str> {
        debug_assert!(
            GLOBAL.contains(name) || self.flag(name).is_some(),
            "{name} is not in the flag table of `aspp {}`",
            self.command.name
        );
        self.given.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("invalid value for {name}: {raw:?}")),
        }
    }

    /// A λ flag (`--padding`, `--lambda`, `--lambda-max`), bounded where it
    /// enters: no BGP UPDATE carries more than 65 535 ASNs, and past the
    /// bound the run dies in an allocation (λ copies of the origin per
    /// reconstructed path) or overflows the route table's 28-bit lengths.
    fn lambda(&self, name: &str) -> Result<Option<usize>, String> {
        self.at_most(name, 65_535)
    }

    /// An estimator count (`--samples`, `--resamples`), bounded where it
    /// enters as [`lambda`](Self::lambda) bounds λ: the estimator allocates
    /// one draw per sample (with its vantage subset) and one mean per
    /// resample up front, so an unbounded count dies in the allocator
    /// instead of reporting an error. 100 000 is a hundred times every
    /// preset (at most 1 000 of either); at the bound, draws with 1 000-AS
    /// vantage subsets hold ≈400 MB.
    fn estimator_count(&self, name: &str) -> Result<Option<usize>, String> {
        self.at_most(name, 100_000)
    }

    /// A thread-count flag (`--shards`, `--workers`), bounded where it
    /// enters as [`lambda`](Self::lambda) bounds λ: every shard is a
    /// detector with its own thread on every seed and ingest, and the batch
    /// runner spawns one thread per worker (up to one per cell, 1 536 for
    /// `defense --paper`), so an unbounded count exhausts the process's
    /// threads instead of reporting an error. 256 is 64 times the default
    /// of 4 shards; a worker beyond the machine's cores only adds
    /// scheduling.
    fn threads(&self, name: &str) -> Result<Option<usize>, String> {
        self.at_most(name, 256)
    }

    /// The count flag `name`, refused above `max`.
    fn at_most(&self, name: &str, max: usize) -> Result<Option<usize>, String> {
        match self.parsed::<usize>(name)? {
            Some(n) if n > max => Err(format!("{name} must be at most {max}, got {n}")),
            n => Ok(n),
        }
    }

    /// A ratio flag (`--attack-ratio`, `--withdraw-ratio`), checked against
    /// [0, 1] where it enters, as `--fractions` is: NaN passes `clamp` and
    /// would panic the generator's Bernoulli draws.
    fn ratio(&self, name: &str) -> Result<Option<f64>, String> {
        match self.parsed::<f64>(name)? {
            Some(f) if !(0.0..=1.0).contains(&f) => Err(format!("{name} {f} outside [0, 1]")),
            ratio => Ok(ratio),
        }
    }

    /// Records `graph`'s identity (size and structural fingerprint) in the
    /// manifest.
    fn record_topology(&mut self, graph: &AsGraph) {
        self.manifest.topology = Some(TopologyInfo {
            nodes: graph.len() as u64,
            links: graph.link_count() as u64,
            fingerprint: graph.fingerprint(),
        });
    }

    /// Builds the synthetic Internet at the run's scale and seed and
    /// records it, timed as the `topology.generate` phase and trace span.
    fn internet(&mut self) -> AsGraph {
        let t0 = Instant::now();
        let graph = {
            let _span = trace::span("topology.generate");
            self.scale.internet(self.seed)
        };
        self.manifest.push_phase("topology.generate", ms(t0));
        self.record_topology(&graph);
        graph
    }

    /// The batch runner `--workers` asks for (`0`, the default: one per
    /// core; `1`: serial).
    fn runner(&self) -> Result<BatchRunner, String> {
        Ok(BatchRunner::new().workers(self.threads("--workers")?.unwrap_or(0)))
    }

    /// Writes `text` to the `--out` file, when one was given.
    fn write_out(&self, text: &str) -> Result<(), String> {
        match self.value("--out") {
            Some(path) => std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}")),
            None => Ok(()),
        }
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn cmd_case_study(run: &mut Run) -> Result<(), String> {
    out!("{}", case_study::run(run.seed).render());
    Ok(())
}

fn cmd_usage(run: &mut Run) -> Result<(), String> {
    out!("{}", usage::run(run.scale, run.seed).render());
    Ok(())
}

fn cmd_impact(run: &mut Run) -> Result<(), String> {
    let (scale, seed) = (run.scale, run.seed);
    let graph = run.internet();
    let which = run.value("--figure").unwrap_or("all");
    let mut printed = false;
    let mut figure = |name: &str, strategy: &str, text: &dyn Fn() -> String| {
        if which == "all" || which == name {
            let t0 = Instant::now();
            out!("{}", text());
            run.manifest.push_phase(&format!("fig{name}"), ms(t0));
            run.manifest.push_strategy(strategy);
            printed = true;
        }
    };
    figure("7", "fig7: tier1 pairs, StripPadding sweep", &|| {
        impact::fig7(&graph, scale, seed).render()
    });
    figure("8", "fig8: random pairs, StripPadding sweep", &|| {
        impact::fig8(&graph, scale, seed).render()
    });
    figure("9", "fig9: T1 victim vs T1 attacker", &|| {
        impact::fig9(&graph).render()
    });
    figure("10", "fig10: T3 victim vs T1 attacker", &|| {
        impact::fig10(&graph).render()
    });
    figure("11", "fig11: T1 victim vs small attacker", &|| {
        impact::fig11(&graph).render()
    });
    figure("12", "fig12: small victim vs small attacker", &|| {
        impact::fig12(&graph).render()
    });
    if printed {
        Ok(())
    } else {
        Err(format!("unknown figure {which:?} (use 7..12 or all)"))
    }
}

fn cmd_detection(run: &mut Run) -> Result<(), String> {
    let graph = run.internet();
    let t0 = Instant::now();
    out!("{}", detection::fig13(&graph, run.scale, run.seed).render());
    run.manifest.push_phase("fig13", ms(t0));
    let t1 = Instant::now();
    out!("{}", detection::fig14(&graph, run.scale, run.seed).render());
    run.manifest.push_phase("fig14", ms(t1));
    Ok(())
}

fn cmd_selection(run: &mut Run) -> Result<(), String> {
    let graph = run.internet();
    let study = detection::vantage_selection(&graph, run.scale, run.seed);
    out!("{}", study.render());
    Ok(())
}

fn cmd_stealth(run: &mut Run) -> Result<(), String> {
    // Always the smoke Internet: `run.scale` of a `Seeded` command.
    run.manifest.scale = Some("smoke".to_string());
    let graph = run.internet();
    out!("{}", extensions::stealth(&graph, run.seed).render());
    Ok(())
}

fn cmd_mitigate(run: &mut Run) -> Result<(), String> {
    let graph = run.internet();
    out!("{}", extensions::mitigations(&graph).render());
    Ok(())
}

fn cmd_simulate(run: &mut Run) -> Result<(), String> {
    let asn = |name: &str| -> Result<Asn, String> {
        let raw = run.parsed::<u32>(name)?;
        Ok(Asn(raw.ok_or(format!("{name} ASN is required"))?))
    };
    let (victim, attacker) = (asn("--victim")?, asn("--attacker")?);
    if victim == attacker {
        return Err("--victim and --attacker must differ".into());
    }
    let padding = run.lambda("--padding")?.unwrap_or(3);
    let keep = run.parsed::<usize>("--keep")?.unwrap_or(1);
    let graph = run.internet();
    for (role, asn) in [("victim", victim), ("attacker", attacker)] {
        if !graph.contains(asn) {
            return Err(format!("{role} AS{asn} not in the generated topology"));
        }
    }

    let strategy = match run.value("--strategy").unwrap_or("strip") {
        "strip" => AttackStrategy::StripPadding { keep },
        "strip-all" => AttackStrategy::StripAllPadding,
        "forge" => AttackStrategy::ForgeDirect,
        "origin" => AttackStrategy::OriginHijack,
        "poison" => AttackStrategy::PoisonPath {
            poisoned: Asn(run
                .parsed::<u32>("--poison")?
                .ok_or("--strategy poison requires --poison ASN")?),
        },
        other => return Err(format!("unknown strategy {other:?}")),
    };
    let mode = if run.has("--violate") {
        ExportMode::ViolateValleyFree
    } else {
        ExportMode::Compliant
    };

    run.manifest.push_strategy(&format!(
        "victim=AS{victim} attacker=AS{attacker} {strategy:?} {mode:?} padding={padding}"
    ));

    let spec = DestinationSpec::new(victim)
        .origin_padding(padding)
        .attacker(AttackerModel::new(attacker).mode(mode).strategy(strategy));
    let outcome = RoutingEngine::new(&graph).compute(&spec);
    out!("{}", HijackImpact::of(&outcome));

    // Data-plane fate summary.
    let stats = forwarding::delivery_stats(&outcome);
    out!(
        "data plane: delivered {}%, intercepted {}%, blackholed {}%",
        pct(stats.delivered),
        pct(stats.intercepted),
        pct(stats.blackholed),
    );

    // Mitigation preview for the ASPP strategy.
    if matches!(strategy, AttackStrategy::StripPadding { .. }) && padding > 1 {
        let relief = mitigation::padding_reduction(&graph, &spec, 1);
        out!(
            "mitigation (padding reduction to 1): pollution {}% -> {}%",
            pct(relief.polluted_before),
            pct(relief.polluted_after),
        );
    }
    Ok(())
}

fn cmd_corpus(run: &mut Run) -> Result<(), String> {
    let out = run.value("--out").ok_or("--out FILE is required")?;
    let prefixes = run.parsed::<usize>("--prefixes")?.unwrap_or(100);
    let monitor_count = run.parsed::<usize>("--monitors")?.unwrap_or(30);
    let graph = InternetConfig::medium().seed(run.seed).build();
    run.record_topology(&graph);
    let corpus = CorpusConfig::new(prefixes)
        .monitors_top_degree(monitor_count)
        .seed(run.seed)
        .generate(&graph);
    run.write_out(&corpus.to_text())?;
    out!("wrote {out}: {}", corpus_counts(&corpus));
    Ok(())
}

fn corpus_counts(corpus: &Corpus) -> String {
    format!(
        "{} table entries, {} updates, {} monitors",
        corpus.table_entry_count(),
        corpus.updates().len(),
        corpus.monitors().count(),
    )
}

fn cmd_audit(run: &mut Run) -> Result<(), String> {
    let lenient = run.has("--lenient");
    match (run.value("--topology"), run.value("--corpus")) {
        (Some(path), _) => audit_topology_file(path, lenient),
        (None, Some(path)) => audit_corpus_file(path, lenient),
        (None, None) => Err("audit needs --topology FILE or --corpus FILE".into()),
    }
}

fn audit_topology_file(path: &str, lenient: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let counts = |g: &AsGraph| format!("{} ASes, {} links", g.len(), g.link_count());
    if lenient {
        let (graph, report) = aspp_core::topology::io::from_caida_lenient(&text);
        out!("{path}: {report}");
        for note in &report.notes {
            out!("  {note}");
        }
        out!("topology: {}", counts(&graph));
    } else {
        let graph = aspp_core::topology::io::from_caida_strict(&text)
            .map_err(|e| format!("{path}: {e}"))?;
        out!("{path}: OK — {}", counts(&graph));
    }
    Ok(())
}

fn audit_corpus_file(path: &str, lenient: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if lenient {
        let (corpus, report) = Corpus::parse_lenient(&text);
        out!("{path}: {report}");
        for note in &report.notes {
            out!("  {note}");
        }
        out!("corpus: {}", corpus_counts(&corpus));
    } else {
        let corpus = Corpus::parse_strict(&text).map_err(|e| format!("{path}: {e}"))?;
        out!("{path}: OK — {}", corpus_counts(&corpus));
    }
    Ok(())
}

/// `aspp feed` — synthesize (or replay from a wire file) an update stream
/// and drive it through the sharded detection pipeline.
fn cmd_feed(run: &mut Run) -> Result<(), String> {
    use aspp_core::feed::{decode_records, decode_records_lenient, encode_records, run_feed};
    use std::sync::Arc;

    // Each mode reads only its own flags; one of the other mode's is an
    // error, not a no-op. Checked before the topology is built.
    const SYNTHESIS: [&str; 6] = [
        "--prefixes",
        "--monitors",
        "--attack-ratio",
        "--withdraw-ratio",
        "--out",
        "--corpus-out",
    ];
    if run.has("--in") {
        if let Some(flag) = SYNTHESIS.into_iter().find(|f| run.has(f)) {
            return Err(format!("{flag} cannot be combined with --in FILE"));
        }
        if !run.has("--corpus") {
            return Err("--in requires --corpus FILE (the RIB seed corpus)".into());
        }
    } else if let Some(flag) = ["--corpus", "--lenient"].into_iter().find(|f| run.has(f)) {
        return Err(format!("{flag} requires --in FILE"));
    }
    let shards = run.threads("--shards")?.unwrap_or(4).max(1);
    let graph = run.internet();

    // Acquire the stream: decode a wire file, or synthesize one.
    let t0 = Instant::now();
    let replay = run.value("--in").zip(run.value("--corpus"));
    let (seeds, updates, attacks) = if let Some((path, corpus_path)) = replay {
        let text = std::fs::read_to_string(corpus_path)
            .map_err(|e| format!("reading {corpus_path}: {e}"))?;
        let seeds = Corpus::parse_strict(&text).map_err(|e| format!("{corpus_path}: {e}"))?;
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        let updates = if run.has("--lenient") {
            let (updates, report) = decode_records_lenient(&bytes);
            out!("{path}: {report}");
            for note in &report.notes {
                out!("  {note}");
            }
            updates
        } else {
            decode_records(&bytes).map_err(|e| format!("{path}: {e}"))?
        };
        (seeds, updates, 0)
    } else {
        let prefixes = run
            .parsed::<usize>("--prefixes")?
            .unwrap_or(run.scale.feed_prefixes());
        let monitors = run.parsed::<usize>("--monitors")?.unwrap_or(30);
        let attack_ratio = run.ratio("--attack-ratio")?.unwrap_or(0.15);
        let withdraw_ratio = run.ratio("--withdraw-ratio")?.unwrap_or(0.3);
        let feed = ReplayConfig::new(prefixes)
            .monitors_top_degree(monitors)
            .attack_ratio(attack_ratio)
            .withdraw_ratio(withdraw_ratio)
            .seed(run.seed)
            .generate(&graph);
        if let Some(path) = run.value("--out") {
            let bytes = encode_records(feed.updates());
            std::fs::write(path, &bytes).map_err(|e| format!("writing {path}: {e}"))?;
            out!("wrote {path}: {} bytes (wire format)", bytes.len());
        }
        if let Some(path) = run.value("--corpus-out") {
            std::fs::write(path, feed.corpus.to_text())
                .map_err(|e| format!("writing {path}: {e}"))?;
            out!("wrote {path}: RIB seeds + updates (text corpus)");
        }
        let attacks = feed.attacks.len();
        let updates = feed.updates().to_vec();
        (feed.corpus, updates, attacks)
    };
    run.manifest.push_phase("generate", ms(t0));
    run.manifest.push_strategy(&format!("shards={shards}"));

    let graph = Arc::new(graph);
    let config = FeedConfig::new(shards);

    // Optional single-shard baseline: same stream, shards = 1, and the
    // merged alarm sequences must agree bit for bit.
    let baseline = if run.has("--baseline") && shards > 1 {
        let t = Instant::now();
        let report = run_feed(&graph, &seeds, &updates, &FeedConfig::new(1));
        run.manifest.push_phase("baseline", ms(t));
        Some(report)
    } else {
        None
    };

    let t1 = Instant::now();
    let report = run_feed(&graph, &seeds, &updates, &config);
    run.manifest.push_phase("feed", ms(t1));

    out!(
        "feed: {} records over {} prefixes, {} shards",
        report.records_in,
        seeds.tables().next().map_or(0, |(_, table)| table.len()),
        shards,
    );
    match report.records_per_sec() {
        Some(rate) => out!(
            "throughput: {rate:.0} records/sec ({:.2} ms wall)",
            report.wall.as_secs_f64() * 1e3,
        ),
        None => out!(
            "throughput: n/a — wall clock below timer resolution ({} records)",
            report.records_in,
        ),
    }
    out!(
        "alarms: {} ({} injected interceptions in the stream)",
        report.alarms.len(),
        attacks,
    );
    match (
        report.latency_us(50.0),
        report.latency_us(90.0),
        report.latency_us(99.0),
    ) {
        (Some(p50), Some(p90), Some(p99)) => {
            out!("alarm latency: p50 {p50:.1} µs, p90 {p90:.1} µs, p99 {p99:.1} µs")
        }
        _ => out!("alarm latency: n/a (no alarms)"),
    }
    let shard_records: Vec<u64> = report.shards.iter().map(|s| s.records).collect();
    out!(
        "shard balance: {:.2} (max/mean), records per shard {:?}",
        report.shard_balance(),
        shard_records,
    );
    if let Some(base) = baseline {
        let speedup = base.wall.as_secs_f64() / report.wall.as_secs_f64().max(1e-12);
        let base_rate = base
            .records_per_sec()
            .map_or_else(|| "n/a".to_string(), |r| format!("{r:.0}"));
        out!(
            "baseline (1 shard): {base_rate} records/sec ({:.2} ms wall), speedup {speedup:.2}x",
            base.wall.as_secs_f64() * 1e3,
        );
        if base.alarms == report.alarms {
            out!("determinism: merged alarm sequence identical to the 1-shard run");
        } else {
            return Err(format!(
                "alarm sequences diverge between 1 and {shards} shards ({} vs {} alarms)",
                base.alarms.len(),
                report.alarms.len(),
            ));
        }
    }
    Ok(())
}

/// `aspp serve` — run the resident detection service: a
/// `feed::FeedEngine` behind a JSONL request/response loop on
/// stdin/stdout. Commands:
/// `status`, `prefix`, `ingest` (wire file), `checkpoint`, `drain`.
/// `--restore FILE` resumes from a checkpoint; `--checkpoint FILE` sets
/// the default target (also written on graceful drain).
fn cmd_serve(run: &mut Run) -> Result<(), String> {
    use aspp_core::feed::{DetectionService, FeedEngine};
    use std::sync::Arc;

    let shards = run.threads("--shards")?.unwrap_or(4).max(1);
    let graph = run.internet();
    run.manifest
        .push_strategy(&format!("serve shards={shards}"));

    let mut engine = FeedEngine::new(Arc::new(graph), &FeedConfig::new(shards));
    if let Some(path) = run.value("--corpus") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let seeds = Corpus::parse_strict(&text).map_err(|e| format!("{path}: {e}"))?;
        engine.seed_from_corpus(&seeds);
    }

    let mut service = DetectionService::new(engine);
    if let Some(path) = run.value("--checkpoint") {
        service = service.checkpoint_file(path);
    }
    if let Some(every) = run.parsed::<u64>("--checkpoint-every")? {
        if !run.has("--checkpoint") {
            return Err("--checkpoint-every requires --checkpoint FILE".into());
        }
        service = service.checkpoint_every(every);
    }
    if let Some(path) = run.value("--restore") {
        service
            .restore_from_file(std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
    }

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    service
        .run(stdin.lock(), stdout.lock())
        .map_err(|e| format!("serve I/O: {e}"))
}

/// `aspp sweep` — the full strategy-matrix sweep (every attack strategy ×
/// export mode × λ) over sampled victim/attacker pairs, run on the batch
/// equilibrium engine (`--workers 1` is serial, with identical results).
fn cmd_sweep(run: &mut Run) -> Result<(), String> {
    use aspp_core::attack::sweep::{random_pair_experiments, strategy_matrix};

    let pairs = run
        .parsed::<usize>("--pairs")?
        .unwrap_or(run.scale.sweep_pairs());
    let lambda_max = run.lambda("--lambda-max")?.unwrap_or(8).max(1);
    let runner = run.runner()?;
    let graph = run.internet();

    // Sample distinct pairs over the whole population (λ here is a
    // placeholder; the matrix below sets the real λ grid).
    let sampled = random_pair_experiments(&graph, pairs, 1, run.seed);
    let mut specs = Vec::with_capacity(sampled.len() * 4 * 2 * lambda_max);
    for pair in &sampled {
        if let Some(m) = pair.attacker_model() {
            specs.extend(strategy_matrix(pair.victim(), m.asn(), 1..=lambda_max));
        }
    }
    run.manifest.push_strategy(&format!(
        "strategy matrix: {} pairs x 4 strategies x 2 modes x lambda 1..={lambda_max}",
        sampled.len(),
    ));

    let t0 = Instant::now();
    let impacts = run_experiments(&graph, &specs, &runner);
    let wall_ms = ms(t0);
    run.manifest.push_phase("sweep", wall_ms);

    out!(
        "sweep: {} cells ({} pairs, lambda 1..={lambda_max}) on {} ASes in {:.1} ms",
        impacts.len(),
        sampled.len(),
        graph.len(),
        wall_ms,
    );

    // Mean pollution per (strategy, mode) series at the λ extremes.
    out!(
        "{:<12} {:<10} {:>12} {:>12}",
        "strategy",
        "export",
        "pollute(l=1)",
        "pollute(l=max)",
    );
    for (strategy, strategy_label) in [
        (AttackStrategy::StripPadding { keep: 1 }, "strip"),
        (AttackStrategy::StripAllPadding, "strip-all"),
        (AttackStrategy::ForgeDirect, "forge"),
        (AttackStrategy::OriginHijack, "origin"),
    ] {
        for (mode, mode_label) in [
            (ExportMode::Compliant, "compliant"),
            (ExportMode::ViolateValleyFree, "violate"),
        ] {
            let series = |lambda: usize| {
                let cells: Vec<f64> = impacts
                    .iter()
                    .filter(|i| {
                        i.spec.padding_level() == lambda
                            && i.spec.attacker_model().is_some_and(|m| {
                                m.attack_strategy() == strategy && m.export_mode() == mode
                            })
                    })
                    .map(|i| i.after_fraction)
                    .collect();
                cells.iter().sum::<f64>() / (cells.len().max(1) as f64)
            };
            out!(
                "{strategy_label:<12} {mode_label:<10} {:>11}% {:>11}%",
                pct(series(1)),
                pct(series(lambda_max)),
            );
        }
    }
    Ok(())
}

/// Parses a comma-separated flag value item by item.
fn list_of<T>(raw: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    raw.split(',').map(|s| item(s.trim())).collect()
}

/// `aspp defense` — sweep defense policies (ROV, ASPA, peerlock-lite,
/// first-AS enforcement) over deployment strategies and adoption
/// fractions, reporting interception success at every grid cell for the
/// paper's strip attack and an origin-hijack contrast.
fn cmd_defense(run: &mut Run) -> Result<(), String> {
    use aspp_core::experiments::defense::{self, DefenseConfig};

    let mut config = DefenseConfig::at_scale(run.scale, run.seed);
    if let Some(pairs) = run.parsed::<usize>("--pairs")? {
        config.pairs = pairs.max(1);
    }
    if let Some(lambda) = run.lambda("--lambda")? {
        config.lambda = lambda.max(1);
    }
    if let Some(raw) = run.value("--policy").filter(|&raw| raw != "all") {
        config.kinds = list_of(raw, |name| {
            PolicyKind::parse(name).ok_or(format!(
                "unknown policy {name:?} (expected rov, aspa, peerlock, first-as)"
            ))
        })?;
    }
    if let Some(raw) = run.value("--deploy").filter(|&raw| raw != "all") {
        config.strategies = list_of(raw, |name| {
            DeployStrategy::parse(name).ok_or(format!(
                "unknown deployment strategy {name:?} (expected random, by-tier, top-degree)"
            ))
        })?;
    }
    if let Some(raw) = run.value("--fractions") {
        config.fractions = list_of(raw, |s| match s.parse::<f64>() {
            Ok(f) if (0.0..=1.0).contains(&f) => Ok(f),
            Ok(f) => Err(format!("fraction {f} outside [0, 1]")),
            Err(_) => Err(format!("invalid fraction {s:?}")),
        })?;
    }
    let runner = run.runner()?;
    let graph = run.internet();
    run.manifest.push_strategy(&format!(
        "defense grid: {} policies x {} strategies x {} fractions x {} pairs (lambda={})",
        config.kinds.len(),
        config.strategies.len(),
        config.fractions.len(),
        config.pairs,
        config.lambda,
    ));

    let t0 = Instant::now();
    let study = defense::run_with_runner(&graph, &config, &runner);
    let wall_ms = ms(t0);
    run.manifest.push_phase("defense_sweep", wall_ms);

    out!(
        "defense: {} grid cells x {} pairs x 2 attacks on {} ASes in {:.1} ms",
        config.kinds.len() * config.strategies.len() * config.fractions.len(),
        config.pairs,
        graph.len(),
        wall_ms,
    );
    let text = study.render();
    out!("{text}");
    run.write_out(&text)
}

/// `aspp scenario` — run the canonical multi-actor timeline: the paper's
/// ASPP strip at t0, victim λ escalation at t1, a competing subprefix
/// hijack at t2, path poisoning at t3, and a MOAS origin conflict at t4,
/// each step a full per-prefix equilibrium batch with data-plane LPM
/// capture, detector alarms, and inter-step churn.
fn cmd_scenario(run: &mut Run) -> Result<(), String> {
    use aspp_core::experiments::scenario;

    let runner = run.runner()?;
    let graph = run.internet();
    let t0 = Instant::now();
    let timeline = scenario::run_with_runner(&graph, run.scale, run.seed, &runner);
    let wall_ms = ms(t0);
    run.manifest.push_phase("scenario", wall_ms);
    run.manifest.push_strategy(&format!(
        "scenario: victim=AS{} {} steps on {} ASes",
        timeline.victim,
        timeline.steps.len(),
        graph.len(),
    ));

    out!(
        "scenario: {} timeline steps on {} ASes in {:.1} ms",
        timeline.steps.len(),
        graph.len(),
        wall_ms,
    );
    let text = timeline.render();
    out!("{text}");
    run.write_out(&text)
}

/// `aspp estimate` — the seeded Monte-Carlo impact estimator: sampled
/// (victim, attacker) pairs and optional vantage subsets, with bootstrap
/// confidence intervals. `--exact` additionally enumerates every pool
/// cell and reports whether the exact mean lies inside the 95% CI.
fn cmd_estimate(run: &mut Run) -> Result<(), String> {
    use aspp_core::experiments::scenario::{self, cross_validate};

    let mut config = scenario::estimator_config(run.scale, run.seed);
    if let Some(samples) = run.estimator_count("--samples")? {
        config.samples = samples.max(1);
    }
    if let Some(resamples) = run.estimator_count("--resamples")? {
        config.resamples = resamples.max(1);
    }
    let runner = run.runner()?;
    let graph = run.internet();
    run.manifest.push_strategy(&format!(
        "estimate: {} samples over {}x{} pools, {} resamples",
        config.samples, config.victims, config.attackers, config.resamples,
    ));

    let t0 = Instant::now();
    let mut text = if run.has("--exact") {
        let (est, exact, within) = cross_validate(&graph, &config, &runner);
        run.manifest.push_phase("estimate_cross_validate", ms(t0));
        let mut text = est.render();
        text.push_str(&format!(
            "exact enumeration: {} cells, mean pollution {}%, mean interception {}%\n\
             cross-validation: exact mean {} the 95% CI\n",
            exact.cells,
            pct(exact.mean_pollution),
            pct(exact.mean_interception),
            if within { "inside" } else { "OUTSIDE" },
        ));
        if !within {
            out!("{text}");
            return Err("exact mean fell outside the bootstrap CI".into());
        }
        text
    } else {
        let est = mc_estimate::estimate_with(&graph, &config, &runner);
        run.manifest.push_phase("estimate", ms(t0));
        est.render()
    };
    text.push_str(&format!("wall: {:.1} ms on {} ASes\n", ms(t0), graph.len()));
    out!("{text}");
    run.write_out(&text)
}

/// `aspp gen` — build the synthetic Internet at a named scale and write it
/// in CAIDA serial-2 format, for external tools and the internet-scale CI
/// job. Without `--out` it only reports the generated graph's identity.
fn cmd_gen(run: &mut Run) -> Result<(), String> {
    use aspp_core::topology::io::to_caida;

    let graph = run.internet();
    if let Some(path) = run.value("--out") {
        let t = Instant::now();
        run.write_out(&to_caida(&graph))?;
        run.manifest.push_phase("serialize", ms(t));
        out!("wrote {path} (CAIDA serial-2)");
    }
    // Printed from the manifest: `internet()` has fingerprinted the graph.
    let topology = run
        .manifest
        .topology
        .expect("internet() records the topology");
    out!(
        "generated {} ASes, {} links (scale {}, seed {}, fingerprint {:016x})",
        topology.nodes,
        topology.links,
        run.manifest.scale.as_deref().unwrap_or("?"),
        run.seed,
        topology.fingerprint,
    );
    Ok(())
}

fn cmd_measure(run: &mut Run) -> Result<(), String> {
    let path = run.positional.ok_or("a corpus FILE is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let corpus = Corpus::parse_strict(&text).map_err(|e| format!("{path}: {e}"))?;
    let summary = measure::usage_summary(&corpus);
    out!(
        "monitors: {}   table entries: {}   updates: {}",
        corpus.monitors().count(),
        corpus.table_entry_count(),
        corpus.updates().len(),
    );
    out!(
        "table prepending fraction: mean {}%, max {}%",
        pct(summary.mean_table_fraction),
        pct(summary.max_table_fraction),
    );
    out!(
        "padding depth shares: x2 {}%, x3 {}%, >10 {}%",
        pct(summary.depth2_share),
        pct(summary.depth3_share),
        pct(summary.deep_share),
    );
    out!(
        "update prepending fraction: mean {}%",
        pct(summary.mean_update_fraction)
    );
    Ok(())
}
