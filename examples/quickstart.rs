//! Quickstart: build a synthetic Internet, launch one ASPP interception
//! attack, quantify its impact, and detect it from vantage points.
//!
//! Run with: `cargo run --release --example quickstart`

use aspp_core::prelude::*;

fn main() {
    // 1. A deterministic ~150-AS Internet with ground-truth relationships.
    let graph = InternetConfig::small().seed(2024).build();
    let tiers = TierMap::classify(&graph);
    println!(
        "topology: {} ASes, {} links, {} tier-1 cores",
        graph.len(),
        graph.link_count(),
        tiers.tier1().count()
    );

    // 2. A victim that pads its announcements ×4 for traffic engineering,
    //    and a tier-1 attacker that strips the padding.
    let victim = Asn(20_000);
    let attacker = tiers.tier1().min().expect("core exists");
    let spec = DestinationSpec::new(victim)
        .origin_padding(4)
        .attacker(AttackerModel::new(attacker));
    let outcome = RoutingEngine::new(&graph).compute(&spec);
    println!("\n{}", HijackImpact::of(&outcome));

    // 3. Inspect what a route monitor sees before and after.
    let monitor = Asn(1_005);
    if let (Some(before), Some(after)) = (
        outcome.clean_observed_path(monitor),
        outcome.observed_path(monitor),
    ) {
        println!("monitor AS{monitor} before: {before}");
        println!("monitor AS{monitor} after:  {after}");
    }

    // 4. Run the collaborative detector over the top-20 vantage points.
    let monitors = monitors::top_degree(&graph, 20);
    let result = detect_eval::detect_attack(&graph, &spec, &monitors);
    println!(
        "\ndetection with 20 monitors: alarm={} attributed={} high-confidence={}",
        result.any_alarm, result.detected, result.detected_high
    );
}
