//! Why the ASPP interception matters: the same attacker runs the classic
//! origin hijack, the forged-adjacency interception (Ballani et al.), and
//! the paper's ASPP strip — and only the ASPP attack slips past MOAS and
//! topology monitoring, while the paper's Figure 4 detector still flags it.
//!
//! Run with: `cargo run --release --example stealth_comparison`

use aspp_repro::detect::eval::visibility_matrix;
use aspp_repro::detect::monitors::top_degree;
use aspp_repro::prelude::*;
use aspp_repro::routing::AttackStrategy;

fn main() {
    let graph = InternetConfig::small().seed(2024).build();
    let tiers = TierMap::classify(&graph);
    let victim = Asn(20_000);
    let attacker = graph
        .asns()
        .find(|&a| tiers.tier_of(a) == Some(2) && graph.customers(a).count() >= 2)
        .expect("transit attacker");
    let monitors = top_degree(&graph, 40);

    println!(
        "victim AS{victim} (padding ×4), attacker AS{attacker}, {} monitors\n",
        monitors.len()
    );
    println!(
        "{:<22} {:>6} {:>14} {:>16}",
        "attack", "MOAS", "link-anomaly", "ASPP detector"
    );
    println!("{}", "-".repeat(62));
    let runner = BatchRunner::new();
    for (strategy, report) in visibility_matrix(&graph, victim, attacker, 4, &monitors, &runner) {
        let name = match strategy {
            AttackStrategy::StripPadding { .. } => "ASPP strip (paper)",
            AttackStrategy::StripAllPadding => "ASPP strip-all",
            AttackStrategy::ForgeDirect => "forged adjacency",
            AttackStrategy::OriginHijack => "origin hijack",
            AttackStrategy::PoisonPath { .. } => "path poisoning",
        };
        let mark = |b: bool| if b { "ALARM" } else { "-" };
        println!(
            "{:<22} {:>6} {:>14} {:>16}",
            name,
            mark(report.moas),
            mark(report.link_anomaly),
            mark(report.aspp)
        );
    }
    println!(
        "\nThe ASPP strip changes neither the origin AS nor any AS-level link;\n\
         only collaborative padding-consistency checking (paper Section V) sees it."
    );
}
