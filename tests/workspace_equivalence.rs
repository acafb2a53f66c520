//! Serial-equivalence guarantee for the reusable route workspace: for any
//! random topology and experiment batch, `run_experiment` (fresh state per
//! call), `compute_with` on one shared workspace (clean-pass cache active)
//! and `run_experiments` (parallel workers, one workspace each) must produce
//! **bit-identical** impact values, field by field — f64 fractions compared
//! exactly, not approximately.

use aspp_core::prelude::*;
use proptest::prelude::*;

fn assert_bit_identical(a: &HijackImpact, b: &HijackImpact) {
    assert_eq!(a.spec, b.spec);
    assert_eq!(a.before_fraction.to_bits(), b.before_fraction.to_bits());
    assert_eq!(a.after_fraction.to_bits(), b.after_fraction.to_bits());
    assert_eq!(a.polluted_count, b.polluted_count);
    assert_eq!(a.population, b.population);
    assert_eq!(a.attack_feasible, b.attack_feasible);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn workspace_and_parallel_match_serial(
        seed in any::<u64>(),
        picks in (0usize..100, 0usize..100),
        extra_pick in 0usize..100,
    ) {
        let graph = InternetConfig::small()
            .tier2_count(10).tier3_count(15).stub_count(25).seed(seed).build();
        let asns: Vec<Asn> = graph.asns().collect();
        let victim = asns[picks.0 % asns.len()];
        let attacker = asns[picks.1 % asns.len()];
        let attacker2 = asns[extra_pick % asns.len()];
        if victim == attacker || victim == attacker2 { return Ok(()); }

        // A λ sweep over one victim, two attackers interleaved, crossed with
        // every attack strategy and both export modes: maximal clean-pass
        // cache reuse (any cache bug shows up as a mismatch) and full
        // coverage of the delta attacked pass's seeding variants.
        let strategies = [
            AttackStrategy::StripPadding { keep: 1 },
            AttackStrategy::StripAllPadding,
            AttackStrategy::ForgeDirect,
            AttackStrategy::OriginHijack,
        ];
        let modes = [ExportMode::Compliant, ExportMode::ViolateValleyFree];
        let mut specs = Vec::new();
        for pad in 1..=5 {
            for strategy in strategies {
                for mode in modes {
                    for m in [attacker, attacker2] {
                        specs.push(
                            DestinationSpec::new(victim)
                                .origin_padding(pad)
                                .attacker(AttackerModel::new(m).mode(mode).strategy(strategy)),
                        );
                    }
                }
            }
        }

        let serial: Vec<HijackImpact> =
            specs.iter().map(|s| run_experiment(&graph, s)).collect();

        let engine = RoutingEngine::new(&graph);
        let mut ws = RouteWorkspace::new();
        for (s, spec) in serial.iter().zip(&specs) {
            let reused = engine.compute_with(spec, &mut ws);
            prop_assert_eq!(s.before_fraction.to_bits(), reused.baseline_fraction().to_bits());
            prop_assert_eq!(s.after_fraction.to_bits(), reused.polluted_fraction().to_bits());
            prop_assert_eq!(s.polluted_count, reused.polluted_count());
            prop_assert_eq!(s.population, reused.population());
            prop_assert_eq!(s.attack_feasible, reused.has_attack());
        }
        prop_assert!(ws.cache_hits() > 0, "interleaved sweep must hit the cache");

        let parallel = run_experiments(&graph, &specs, &BatchRunner::new().workers(4));
        for (s, p) in serial.iter().zip(&parallel) {
            assert_bit_identical(s, p);
        }
    }
}
