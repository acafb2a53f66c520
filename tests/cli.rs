//! End-to-end tests of the `aspp` command-line binary.

use std::process::{Command, Output};

fn aspp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aspp"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Every subcommand and one of its value flags.
const SUBCOMMANDS: [(&str, &str); 18] = [
    ("case-study", "--seed"),
    ("usage", "--scale"),
    ("impact", "--figure"),
    ("detection", "--seed"),
    ("selection", "--scale"),
    ("stealth", "--seed"),
    ("mitigate", "--seed"),
    ("simulate", "--victim"),
    ("corpus", "--out"),
    ("measure", "--manifest"),
    ("audit", "--topology"),
    ("feed", "--shards"),
    ("serve", "--checkpoint-every"),
    ("sweep", "--workers"),
    ("defense", "--deploy"),
    ("scenario", "--out"),
    ("estimate", "--samples"),
    ("gen", "--metrics"),
];

#[test]
fn help_lists_every_command() {
    let out = aspp(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for (cmd, _) in SUBCOMMANDS {
        assert!(text.contains(&format!("aspp {cmd}")), "help misses {cmd}");
    }
}

#[test]
fn every_subcommand_rejects_undeclared_flags_by_name() {
    for (cmd, _) in SUBCOMMANDS {
        let out = aspp(&[cmd, "--no-such-flag"]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!out.status.success(), "{cmd} accepted --no-such-flag");
        assert!(stderr.contains("--no-such-flag"), "{cmd}: {stderr}");
    }
    // The regression: a typo used to run with the default seed and exit 0.
    assert!(!aspp(&["gen", "--sede", "7"]).status.success());
    // Flags another subcommand declares are still undeclared here.
    assert!(!aspp(&["gen", "--workers", "2"]).status.success());
    assert!(!aspp(&["sweep", "--batch"]).status.success());
}

#[test]
fn every_subcommand_rejects_a_value_flag_without_its_value() {
    for (cmd, flag) in SUBCOMMANDS {
        let out = aspp(&[cmd, flag]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!out.status.success(), "{cmd} accepted a bare {flag}");
        assert!(
            stderr.contains(&format!("{flag} requires a value")),
            "{cmd} {flag}: {stderr}"
        );
    }
}

#[test]
fn estimate_exact_runs_on_the_requested_workers_with_identical_output() {
    let run = |workers: &str| {
        let out = aspp(&[
            "estimate",
            "--seed",
            "5",
            "--exact",
            "--workers",
            workers,
            "--metrics",
            "json",
        ]);
        assert!(out.status.success());
        let text = stdout(&out);
        assert!(text.contains("exact enumeration:"), "{text}");
        // All but the timing line.
        let results: Vec<String> = text
            .lines()
            .filter(|l| !l.starts_with("wall:"))
            .map(String::from)
            .collect();
        (results, String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let (serial, metrics) = run("1");
    assert_eq!(serial, run("2").0);
    // One worker claims every victim in turn and never steals, in the
    // estimate and in the exact enumeration alike.
    assert!(metrics.contains("\"batch_steals\":0"), "{metrics}");
}

#[test]
fn default_build_reports_engine_counters() {
    let out = aspp(&[
        "impact",
        "--scale",
        "smoke",
        "--figure",
        "12",
        "--seed",
        "2024",
        "--metrics",
        "json",
    ]);
    assert!(out.status.success());
    let metrics = String::from_utf8_lossy(&out.stderr);
    // Figure 12 sweeps λ per pair under both export modes: the second mode
    // of each λ is served from the clean-pass cache.
    assert!(metrics.contains("\"clean_cache_hits\":"), "{metrics}");
    assert!(!metrics.contains("\"clean_cache_hits\":0,"), "{metrics}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = aspp(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn case_study_prints_the_anomalous_route() {
    let out = aspp(&["case-study"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("7018 4134 9318 32934 32934 32934"));
    assert!(text.contains("Table I"));
}

#[test]
fn simulate_reports_impact_and_data_plane() {
    let out = aspp(&[
        "simulate",
        "--victim",
        "20000",
        "--attacker",
        "100",
        "--padding",
        "5",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("hijacks"));
    assert!(text.contains("data plane"));
    assert!(text.contains("mitigation"));
}

#[test]
fn simulate_validates_inputs() {
    let out = aspp(&["simulate", "--attacker", "100"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--victim"));

    let out = aspp(&[
        "simulate",
        "--victim",
        "20000",
        "--attacker",
        "100",
        "--strategy",
        "bogus",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));

    // The engine asserts the two differ, so the flags must be checked first.
    let out = aspp(&["simulate", "--victim", "100", "--attacker", "100"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error: --victim and --attacker must differ"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn lambda_flags_are_bounded_where_they_enter() {
    let simulate = ["simulate", "--victim", "20000", "--attacker", "100"];
    let cases: [(&[&str], &str); 3] = [
        (&simulate, "--padding"),
        (&["defense", "--scale", "smoke", "--pairs", "1"], "--lambda"),
        (
            &["sweep", "--scale", "smoke", "--pairs", "1"],
            "--lambda-max",
        ),
    ];
    for (command, flag) in cases {
        // One past the bound, and the value that used to abort the process
        // in a multi-gigabyte allocation.
        for lambda in ["65536", "4294967296"] {
            let out = aspp(&[command, &[flag, lambda]].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{flag} {lambda}: {stderr}");
            assert!(
                stderr.contains(&format!("{flag} must be at most 65535")),
                "{flag} {lambda}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{flag} {lambda}: {stderr}");
        }
    }
    // The bound itself is a legal λ.
    let out = aspp(&[&simulate[..], &["--padding", "65535"]].concat());
    assert!(out.status.success());
    assert!(stdout(&out).contains("λ=65535"));
}

#[test]
fn estimate_counts_are_bounded_where_they_enter() {
    // `--samples u64::MAX` panicked with a capacity overflow (exit 101) and
    // `--resamples 4000000000000` aborted on a 32 TB allocation (exit 134).
    for (flag, count) in [
        ("--samples", "18446744073709551615"),
        ("--resamples", "4000000000000"),
        ("--samples", "100001"),
    ] {
        let out = aspp(&["estimate", "--scale", "smoke", flag, count]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {count}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {flag} must be at most 100000")),
            "{flag} {count}: {stderr}"
        );
    }
}

#[test]
fn thread_counts_are_bounded_where_they_enter() {
    // Each shard and each worker is a thread; the count is refused before
    // the topology (and so any engine or pool) is built, which the manifest
    // shows: it records no `topology.generate` phase.
    let dir = std::env::temp_dir().join("aspp_cli_thread_bounds");
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        ("feed", "--shards"),
        ("serve", "--shards"),
        ("sweep", "--workers"),
        ("defense", "--workers"),
        ("scenario", "--workers"),
        ("estimate", "--workers"),
    ];
    for (command, flag) in cases {
        for count in ["257", "18446744073709551615"] {
            let manifest = dir.join(format!("{command}.json"));
            let manifest = manifest.to_str().unwrap();
            let out = aspp(&[
                command,
                "--scale",
                "smoke",
                flag,
                count,
                "--manifest",
                manifest,
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{command} {flag} {count}: {stderr}"
            );
            assert!(
                stderr.contains(&format!("error: {flag} must be at most 256")),
                "{command} {flag} {count}: {stderr}"
            );
            let written = std::fs::read_to_string(manifest).unwrap();
            assert!(
                !written.contains("topology.generate"),
                "{command} {flag} {count} built the topology: {written}"
            );
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn flag_values_are_checked_before_the_topology_is_built() {
    // Each of these used to fail only after the topology was built, or
    // not at all, which the manifest showed: it recorded the `topology`.
    let dir = std::env::temp_dir().join("aspp_cli_flags_first");
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("run.json");
    let manifest = manifest.to_str().unwrap();
    let cases: [(&str, &str); 13] = [
        (
            "serve --checkpoint-every 5",
            "--checkpoint-every requires --checkpoint FILE",
        ),
        (
            "serve --checkpoint-every x",
            "invalid value for --checkpoint-every: \"x\"",
        ),
        ("serve --corpus /nonexistent", "reading /nonexistent"),
        ("feed --attack-ratio 2", "--attack-ratio 2 outside [0, 1]"),
        ("feed --prefixes x", "invalid value for --prefixes: \"x\""),
        (
            "feed --in /nonexistent.bin --corpus /nonexistent.txt",
            "reading /nonexistent.txt",
        ),
        (
            "impact --figure 13",
            "unknown figure \"13\" (use 7..12 or all)",
        ),
        (
            "simulate --victim 20000 --attacker 100 --strategy poison",
            "--strategy poison requires --poison ASN",
        ),
        ("gen --seed 1 --seed 2", "--seed given twice"),
        (
            "impact --paper --figure 9",
            "--paper cannot be combined with --scale",
        ),
        ("sweep --pairs 0", "--pairs must be at least 1"),
        (
            "defense --pairs 10001",
            "--pairs must be at most 10000, got 10001",
        ),
        (
            "sweep --pairs 10000 --lambda-max 65535",
            "--pairs 10000 x --lambda-max 65535 is 5242800000 sweep cells, more than 1000000",
        ),
    ];
    for (args, error) in cases {
        // A run refused while its arguments are parsed writes no manifest.
        std::fs::remove_file(manifest).ok();
        let args: Vec<&str> = args.split(' ').collect();
        let common = ["--scale", "smoke", "--manifest", manifest];
        let out = aspp(&[&args[..], &common].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {error}")),
            "{args:?}: {stderr}"
        );
        let written = std::fs::read_to_string(manifest).unwrap_or_default();
        assert!(
            !written.contains("\"topology\""),
            "{args:?} built the topology: {written}"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn defense_list_flags_are_checked_item_by_item() {
    let defense = ["defense", "--scale", "smoke", "--pairs", "1"];
    for (flag, value, error) in [
        (
            "--policy",
            "rov,bogus",
            "unknown policy \"bogus\" (expected rov, aspa, peerlock, first-as)",
        ),
        (
            "--deploy",
            "sideways",
            "unknown deployment strategy \"sideways\" (expected random, by-tier, top-degree)",
        ),
        ("--fractions", "0,1.5", "fraction 1.5 outside [0, 1]"),
        ("--fractions", "0,x", "invalid fraction \"x\""),
    ] {
        let out = aspp(&[&defense[..], &[flag, value]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {error}")),
            "{flag} {value}: {stderr}"
        );
    }
    let dir = std::env::temp_dir().join("aspp_cli_defense_lists");
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("defense.json");
    let lists = "--policy rov --deploy top-degree --fractions 0,1 --manifest";
    let args: Vec<&str> = lists.split(' ').collect();
    let out = aspp(&[&defense[..], &args, &[manifest.to_str().unwrap()]].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&manifest).unwrap();
    std::fs::remove_dir_all(dir).ok();
    assert!(
        written.contains(
            "\"defense grid: 1 policies x 1 strategies x 2 fractions x 1 pairs (lambda=3)\""
        ),
        "{written}"
    );
}

#[test]
fn feed_ratio_flags_reject_values_outside_the_unit_interval() {
    // NaN slips through `clamp` into the generator's Bernoulli draws, which
    // panicked (exit 101) before the flags were checked where they enter.
    for flag in ["--attack-ratio", "--withdraw-ratio"] {
        for ratio in ["NaN", "nan", "-0.5", "1.5"] {
            let out = aspp(&["feed", "--scale", "smoke", flag, ratio]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{flag} {ratio}: {stderr}");
            assert!(
                stderr.contains(&format!("{flag} ")) && stderr.contains("outside [0, 1]"),
                "{flag} {ratio}: {stderr}"
            );
        }
    }
}

#[test]
fn feed_replay_flags_require_in() {
    // Without --in the stream is synthesized; a replay flag used to be
    // ignored, and the run exited 0 without reading the file it names.
    for args in [&["--lenient"][..], &["--corpus", "/nonexistent/seeds.txt"]] {
        let out = aspp(&[&["feed", "--scale", "smoke"][..], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{} requires --in FILE", args[0])),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn feed_synthesis_flags_are_refused_with_in() {
    // With --in the stream is replayed; a synthesis flag used to be
    // ignored, so `--out` wrote nothing and the run exited 0.
    let dir = std::env::temp_dir().join("aspp_cli_feed_modes");
    std::fs::create_dir_all(&dir).unwrap();
    let written = dir.join("never_written.bin");
    let written = written.to_str().unwrap();
    let replay = "feed --in /nonexistent/s.bin --corpus /nonexistent/c.txt";
    for (flag, value) in [
        ("--prefixes", "999"),
        ("--monitors", "5"),
        ("--attack-ratio", "0.9"),
        ("--withdraw-ratio", "0.1"),
        ("--out", written),
        ("--corpus-out", written),
    ] {
        let args: Vec<&str> = replay.split(' ').chain([flag, value]).collect();
        let out = aspp(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} cannot be combined with --in FILE")),
            "{flag}: {stderr}"
        );
    }
    assert!(!std::path::Path::new(written).exists());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn scales_are_named_and_unknown_ones_refused() {
    for name in ["internet-smoke", "galactic"] {
        let out = aspp(&["impact", "--scale", name]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "unknown scale {name:?} (expected smoke, paper, internet)"
            )),
            "{name}: {stderr}"
        );
    }
    let dir = std::env::temp_dir().join("aspp_cli_scales");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("gen_paper.json");
    let out = aspp(&["gen", "--paper", "--manifest", file.to_str().unwrap()]);
    assert!(out.status.success());
    let manifest = std::fs::read_to_string(&file).unwrap();
    std::fs::remove_dir_all(dir).ok();
    assert!(manifest.contains("\"scale\":\"paper\""), "{manifest}");
}

#[test]
fn corpus_then_measure_round_trips() {
    let dir = std::env::temp_dir().join("aspp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("corpus.txt");
    let path = file.to_str().unwrap();

    let out = aspp(&["corpus", "--out", path, "--prefixes", "20", "--seed", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("table entries"));

    let out = aspp(&["measure", path]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("table prepending fraction"));
    assert!(text.contains("padding depth shares"));
    std::fs::remove_file(file).ok();
}

#[test]
fn measure_rejects_missing_and_malformed_files() {
    let out = aspp(&["measure", "/nonexistent/corpus.txt"]);
    assert!(!out.status.success());

    let dir = std::env::temp_dir().join("aspp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "BOGUS|line\n").unwrap();
    let out = aspp(&["measure", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));
    std::fs::remove_file(bad).ok();
}

#[test]
fn stealth_matrix_shows_aspp_evasion() {
    let out = aspp(&["stealth"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("ASPP strip"));
    assert!(text.contains("origin hijack"));
}

/// The manifest's `strategy_matrix` must name the roles the figures
/// actually run: each entry is pinned beside the phrase of its figure's
/// printed label (`RankedImpacts::label` / `PrependSweep::label`), where
/// "A hijacks B" makes A the attacker and B the victim.
#[test]
fn impact_manifest_names_each_figures_roles() {
    const FIGURES: [(&str, &str); 6] = [
        (
            "fig7: tier1 pairs, StripPadding sweep",
            "Figure 7 — polluted ASes in attacks between tier-1 ASes",
        ),
        (
            "fig8: random pairs, StripPadding sweep",
            "Figure 8 — polluted ASes in attacks between random ASes",
        ),
        (
            "fig9: T1 victim vs T1 attacker",
            "Figure 9 — pollution vs prepended ASNs, tier-1 hijacks tier-1",
        ),
        (
            "fig10: T3 victim vs T1 attacker",
            "Figure 10 — pollution vs prepended ASNs, tier-1 hijacks tier-3",
        ),
        (
            "fig11: T1 victim vs small attacker",
            "Figure 11 — small well-peered AS hijacks a tier-1",
        ),
        (
            "fig12: small victim vs small attacker",
            "Figure 12 — small AS hijacks small AS",
        ),
    ];
    let dir = std::env::temp_dir().join("aspp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("impact_manifest.json");
    let out = aspp(&["impact", "--manifest", file.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    let manifest = std::fs::read_to_string(&file).unwrap();
    std::fs::remove_file(file).ok();

    let entries: Vec<String> = FIGURES.iter().map(|(e, _)| format!("{e:?}")).collect();
    let expected = format!("\"strategy_matrix\":[{}]", entries.join(","));
    assert!(manifest.contains(&expected), "{manifest}");
    for (entry, label) in FIGURES {
        assert!(text.contains(label), "{entry}: no {label:?} in the output");
    }
}

#[test]
fn defense_output_is_worker_count_independent_on_one_pair() {
    // One pair is one or two steal units; extra workers can only help by
    // joining them, and must not change a digit.
    let run = |workers: &str| {
        let out = aspp(&[
            "defense",
            "--scale",
            "smoke",
            "--pairs",
            "1",
            "--workers",
            workers,
        ]);
        assert!(out.status.success());
        // All but the timing line ("defense: … in 2.3 ms").
        let table: Vec<String> = stdout(&out)
            .lines()
            .filter(|l| !l.ends_with(" ms"))
            .map(String::from)
            .collect();
        assert!(table.len() > 4, "{table:?}");
        table
    };
    assert_eq!(run("1"), run("2"));
}

#[test]
fn impact_figure_selector_works() {
    let out = aspp(&["impact", "--figure", "9"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("Figure 9"));
    assert!(!text.contains("Figure 10"));

    let out = aspp(&["impact", "--figure", "99"]);
    assert!(!out.status.success());
}

#[test]
fn gen_trace_attributes_topology_generation() {
    let dir = std::env::temp_dir().join("aspp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("gen_trace.jsonl");
    let out = aspp(&[
        "gen",
        "--scale",
        "smoke",
        "--trace-json",
        file.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let trace = std::fs::read_to_string(&file).unwrap();
    assert!(trace.contains("\"span\":\"topology.generate\""), "{trace}");
}

/// The manifest's total is the command's measured wall, so it covers the
/// topology generation recorded as its own phase and every step between
/// phases.
#[test]
fn impact_manifest_total_covers_generation_and_every_phase() {
    let dir = std::env::temp_dir().join("aspp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("impact_total_manifest.json");
    let out = aspp(&[
        "impact",
        "--figure",
        "12",
        "--manifest",
        file.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let manifest = std::fs::read_to_string(&file).unwrap();
    std::fs::remove_file(file).ok();

    let after = |key: &str| manifest.split(key).nth(1).expect(key);
    let phases = after("\"wall_ms\":{").split('}').next().unwrap();
    assert!(phases.contains("\"topology.generate\":"), "{manifest}");
    let rows: Vec<f64> = phases
        .split(',')
        .map(|row| row.rsplit(':').next().unwrap().parse().unwrap())
        .collect();
    let total = after("\"total_wall_ms\":").split([',', '}']).next();
    let total: f64 = total.unwrap().parse().unwrap();
    // Each value is printed to 0.001 ms; allow that much rounding per row.
    let slack = 1e-3 * rows.len() as f64;
    assert!(
        total + slack >= rows.iter().sum::<f64>(),
        "total {total} < phases {rows:?}"
    );
}

#[test]
fn audit_requires_a_file_flag() {
    let out = aspp(&["audit"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("--topology"), "{stderr}");
    assert!(stderr.contains("--corpus"), "{stderr}");
}
